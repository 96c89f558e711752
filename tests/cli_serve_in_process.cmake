# CLI check: `tapacs-serve --in-process` replays a three-line edit
# trace through the supervisor's own threads with a disk cache and a
# journal. The incremental=1 line recompiles against its retained
# base (a delta, not a cold compile), every row is ok, and the
# journal compacts to empty once every request has resolved.
#
#   cmake -DSERVE=<tapacs-serve> -DWORK=<scratch dir>
#         -P cli_serve_in_process.cmake

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
file(WRITE "${WORK}/trace.mf"
     "request base workload=stencil fpgas=2\n"
     "request other workload=pagerank fpgas=2\n"
     "request edit workload=stencil fpgas=2 incremental=1 base=base\n")

execute_process(COMMAND "${SERVE}" "${WORK}/trace.mf" --in-process
                        --workers 2 --cache-dir "${WORK}/cache"
                        --journal "${WORK}/journal" --replay
                WORKING_DIRECTORY "${WORK}"
                OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "tapacs-serve --in-process failed (${rc}):\n"
                        "${stdout}${stderr}")
endif()
foreach(name base other edit)
    if(NOT stdout MATCHES "[0-9]+ +${name} +ok ")
        message(FATAL_ERROR "no ok row for '${name}':\n${stdout}")
    endif()
endforeach()
string(REGEX MATCH "  delta: [^\n]*" delta "${stdout}")
if(delta STREQUAL "" OR delta MATCHES "cold compile")
    message(FATAL_ERROR "want a reuse delta for 'edit', got "
                        "'${delta}':\n${stdout}")
endif()
file(SIZE "${WORK}/journal" journal_bytes)
if(NOT journal_bytes EQUAL 0)
    message(FATAL_ERROR "journal holds ${journal_bytes} byte(s) after "
                        "a fully resolved run")
endif()
