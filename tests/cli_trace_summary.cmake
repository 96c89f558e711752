# CLI check: a traced `tapacs-compile --simulate` yields a trace whose
# trace-summary per-phase table lists the compile phases and the
# simulator run.
#
#   cmake -DGRAPHGEN=<tapacs-graphgen> -DCOMPILE=<tapacs-compile>
#         -DSUMMARY=<trace-summary> -DWORK=<scratch dir>
#         -P cli_trace_summary.cmake

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

execute_process(COMMAND "${GRAPHGEN}" stencil --fpgas 2 --iters 8
                OUTPUT_FILE "${WORK}/s.graph"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "tapacs-graphgen failed (${rc})")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E env
                        "TAPACS_TRACE=${WORK}/trace.json"
                        "${COMPILE}" "${WORK}/s.graph" --fpgas 2
                        --out "${WORK}/out" --simulate
                OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "tapacs-compile failed (${rc}):\n${stdout}${stderr}")
endif()

execute_process(COMMAND "${SUMMARY}" "${WORK}/trace.json"
                OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "trace-summary failed (${rc}):\n${stdout}${stderr}")
endif()
foreach(row phase3.inter_fpga sim.run)
    if(NOT stdout MATCHES "\\| ${row} ")
        message(FATAL_ERROR "no '${row}' row in the per-phase table:\n"
                            "${stdout}")
    endif()
endforeach()
