# Runs the command given after `--` and passes only when it exits non-zero
# with EXPECT in its output, so a crash, a traceback or a missing file that
# fails for some other reason does not pass.
#   cmake -DEXPECT=bogus-flag -P expect_failure.cmake -- bench_fig5 --bogus-flag 1
set(command)
set(collect OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(collect)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(collect ON)
  endif()
endforeach()
if(NOT command OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "usage: cmake -DEXPECT=text -P expect_failure.cmake -- command...")
endif()
string(JOIN " " shown ${command})
execute_process(COMMAND ${command}
                RESULT_VARIABLE result
                OUTPUT_VARIABLE output
                ERROR_VARIABLE output)
if(result EQUAL 0)
  message(FATAL_ERROR "${shown} exited 0:\n${output}")
endif()
string(FIND "${output}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR
          "${shown} failed (${result}) without saying '${EXPECT}':\n${output}")
endif()
