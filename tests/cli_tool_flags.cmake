# CLI check: tapacs-explore and tapacs-compile reject a numeric flag
# whose value does not parse completely or falls outside its range
# with exit 2, naming the flag, before any work starts. Each bad case
# used to misparse silently: a junk --deadline-ms ran an expired,
# uncached sweep, "2x" ran as 2, a junk --threads ran as 0, and a junk
# --threshold became T = 0 and failed with a misleading budget error.
# Unknown --mode/--topology/--solver/--device names, a hypercube over a
# non-power-of-two --fpgas and --incremental without --state exit 2
# the same way (tapacs-compile used to die in fatal() with exit 1).
# Valid values of the same flags still run, and --partition-only
# reports the devices it leaves empty.
#
#   cmake -DGRAPHGEN=<tapacs-graphgen> -DCOMPILE=<tapacs-compile>
#         -DEXPLORE=<tapacs-explore> -DWORK=<scratch dir>
#         -P cli_tool_flags.cmake

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

execute_process(COMMAND "${GRAPHGEN}" stencil --fpgas 2 --iters 8
                OUTPUT_FILE "${WORK}/s.graph"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "tapacs-graphgen failed (${rc})")
endif()

set(explore_base "${EXPLORE}" --workload stencil --no-sim)
set(compile_base "${COMPILE}" "${WORK}/s.graph" --out "${WORK}/out")

# tool;flag;value
foreach(case "explore;--deadline-ms;abc" "explore;--fpgas;2x"
             "explore;--threads;abc" "explore;--scale;-5"
             "explore;--mode;bogus"
             "compile;--threshold;abc" "compile;--fpgas;2x"
             "compile;--coarse-limit;1" "compile;--mode;bogus"
             "compile;--topology;torus" "compile;--solver;fast"
             "compile;--device;Stratix")
    list(GET case 0 tool)
    list(GET case 1 flag)
    list(GET case 2 value)
    execute_process(COMMAND ${${tool}_base} ${flag} ${value}
                    WORKING_DIRECTORY "${WORK}"
                    OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "tapacs-${tool} ${flag} ${value}: exit ${rc}, "
                            "want 2:\n${stdout}${stderr}")
    endif()
    if(NOT stderr MATCHES "${flag} '${value}'" OR NOT stdout STREQUAL "")
        message(FATAL_ERROR "tapacs-${tool} ${flag} ${value}: unexpected "
                            "output:\n${stdout}${stderr}")
    endif()
endforeach()

# flag named in the message;arguments
foreach(case "--topology 'hypercube'.*power-of-two;--fpgas;3;--topology;hypercube"
             "--incremental needs --state;--incremental")
    list(POP_FRONT case want)
    execute_process(COMMAND ${compile_base} ${case}
                    WORKING_DIRECTORY "${WORK}"
                    OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 2 OR NOT stderr MATCHES "${want}"
       OR NOT stdout STREQUAL "")
        message(FATAL_ERROR "tapacs-compile ${case}: exit ${rc}, want 2 "
                            "and '${want}':\n${stdout}${stderr}")
    endif()
endforeach()

execute_process(COMMAND ${explore_base} --fpgas 2 --threads 1
                        --deadline-ms -1 --scale 0
                WORKING_DIRECTORY "${WORK}"
                OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT stdout MATCHES "point\\(s\\)")
    message(FATAL_ERROR "tapacs-explore with valid flags: exit ${rc}:\n"
                        "${stdout}${stderr}")
endif()

execute_process(COMMAND ${compile_base} --fpgas 2 --threshold 0.7
                        --coarse-limit 36 --mode tapacs --topology ring
                        --solver exact
                WORKING_DIRECTORY "${WORK}"
                OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT EXISTS "${WORK}/out/cluster.manifest")
    message(FATAL_ERROR "tapacs-compile with valid flags: exit ${rc}:\n"
                        "${stdout}${stderr}")
endif()

# --partition-only reports how many devices the base partition leaves
# without a task: on this 800-module synth graph the multilevel
# V-cycle packs the design onto 4 of the 8 mesh boards.
execute_process(COMMAND "${GRAPHGEN}" synth --modules 800 --seed 3
                OUTPUT_FILE "${WORK}/synth.graph"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "tapacs-graphgen synth failed (${rc})")
endif()
execute_process(COMMAND "${COMPILE}" "${WORK}/synth.graph" --fpgas 8
                        --topology mesh --solver multilevel
                        --partition-only
                WORKING_DIRECTORY "${WORK}"
                OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT stdout MATCHES "\nempty:     4 device\\(s\\)\n")
    message(FATAL_ERROR "tapacs-compile --partition-only: exit ${rc}, "
                        "want 'empty:     4 device(s)':\n${stdout}${stderr}")
endif()
