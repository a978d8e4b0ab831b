# Run a command and require an exact exit status and a regex match on
# its output (stdout and stderr together):
#
#   cmake -DEXPECT_EXIT=<status> [-DEXPECT_REGEX=<regex>]
#         -P cli_expect.cmake -- <command> [args...]
#
# PASS_REGULAR_EXPRESSION alone ignores the exit status, so a tool that
# printed the expected line and then crashed would still pass; this
# checks both.

set(cmd)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(after_separator)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
        set(after_separator TRUE)
    endif()
endforeach()
if(NOT cmd OR NOT DEFINED EXPECT_EXIT)
    message(FATAL_ERROR
        "usage: cmake -DEXPECT_EXIT=N [-DEXPECT_REGEX=R] "
        "-P cli_expect.cmake -- command [args...]")
endif()

execute_process(COMMAND ${cmd}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
set(output "${out}${err}")
string(LENGTH "${output}" length)
if(length GREATER 4000)
    string(SUBSTRING "${output}" 0 4000 shown)
    string(APPEND shown "\n[... ${length} bytes in all]")
else()
    set(shown "${output}")
endif()

if(NOT "${status}" STREQUAL "${EXPECT_EXIT}")
    message(FATAL_ERROR
        "exit status '${status}', expected ${EXPECT_EXIT}\n${shown}")
endif()
if(DEFINED EXPECT_REGEX AND NOT output MATCHES "${EXPECT_REGEX}")
    message(FATAL_ERROR
        "output does not match '${EXPECT_REGEX}'\n${shown}")
endif()
