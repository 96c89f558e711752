# CLI check: tapacs-serve rejects a numeric flag whose value does not
# parse completely or falls outside its range with exit 2, before it
# admits anything. Each case used to misparse silently: a junk
# --deadline-ms became an expired deadline, a junk heartbeat timeout
# killed every worker, and a negative restart limit quarantined the
# only slot on its first dispatch.
#
#   cmake -DSERVE=<tapacs-serve> -DWORK=<scratch dir>
#         -P cli_serve_flags.cmake

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
file(WRITE "${WORK}/one.mf" "request s workload=stencil fpgas=2\n")

foreach(case "--deadline-ms;abc" "--heartbeat-timeout-ms;abc"
             "--restart-limit;-3" "--workers;2x" "--retries;1.5")
    execute_process(COMMAND "${SERVE}" "${WORK}/one.mf" ${case}
                    WORKING_DIRECTORY "${WORK}"
                    OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "tapacs-serve ${case}: exit ${rc}, want 2:\n"
                            "${stdout}${stderr}")
    endif()
    list(GET case 0 flag)
    if(NOT stderr MATCHES "${flag}" OR stdout MATCHES "outcome")
        message(FATAL_ERROR "tapacs-serve ${case}: unexpected output:\n"
                            "${stdout}${stderr}")
    endif()
endforeach()

# The worker-mode heartbeat period follows the same rule.
execute_process(COMMAND "${SERVE}" --worker --heartbeat-ms=abc
                OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "worker --heartbeat-ms=abc: exit ${rc}, want 2:\n"
                        "${stdout}${stderr}")
endif()
