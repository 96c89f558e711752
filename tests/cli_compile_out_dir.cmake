# CLI check: `tapacs-compile --out DIR` with a DIR that does not exist
# yet creates it, writes every artifact there and goes on to simulate;
# an --out path that cannot become a directory fails before compiling.
#
#   cmake -DGRAPHGEN=<tapacs-graphgen> -DCOMPILE=<tapacs-compile>
#         -DWORK=<scratch dir> -P cli_compile_out_dir.cmake

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

execute_process(COMMAND "${GRAPHGEN}" stencil --fpgas 2 --iters 8
                OUTPUT_FILE "${WORK}/s.graph"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "tapacs-graphgen failed (${rc})")
endif()

set(out "${WORK}/nested/out")
execute_process(COMMAND "${COMPILE}" "${WORK}/s.graph" --fpgas 2
                        --out "${out}" --simulate
                WORKING_DIRECTORY "${WORK}"
                OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "tapacs-compile failed (${rc}):\n${stdout}${stderr}")
endif()
foreach(f constraints_dev0.tcl constraints_dev1.tcl cluster.manifest)
    if(NOT EXISTS "${out}/${f}")
        message(FATAL_ERROR "missing ${out}/${f}")
    endif()
endforeach()
if(NOT stdout MATCHES "simulated latency")
    message(FATAL_ERROR "no simulation reported:\n${stdout}")
endif()

# A regular file where the directory should go: a typed failure, and
# no floorplanning output on the way.
file(WRITE "${WORK}/blocked" "")
execute_process(COMMAND "${COMPILE}" "${WORK}/s.graph" --fpgas 2
                        --out "${WORK}/blocked/out"
                WORKING_DIRECTORY "${WORK}"
                OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr
                RESULT_VARIABLE rc)
if(rc EQUAL 0)
    message(FATAL_ERROR "compile into a blocked --out succeeded")
endif()
if(NOT stderr MATCHES "cannot create output directory" OR
   stdout MATCHES "floorplan:")
    message(FATAL_ERROR "unexpected output:\n${stdout}${stderr}")
endif()
