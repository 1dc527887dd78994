# Runs DRIVER with FLAG (default: bogus-flag, which no driver takes) and
# passes only when the driver exits non-zero with the flag's name in its
# output.
#   cmake -DDRIVER=path/to/bench_fig5 [-DFLAG=timeline-wall] -P expect_unknown_flag.cmake
if(NOT DEFINED FLAG)
  set(FLAG bogus-flag)
endif()
execute_process(COMMAND ${DRIVER} --${FLAG} 1
                RESULT_VARIABLE result
                OUTPUT_VARIABLE output
                ERROR_VARIABLE output)
if(result EQUAL 0)
  message(FATAL_ERROR "${DRIVER} --${FLAG} 1 exited 0:\n${output}")
endif()
string(FIND "${output}" "${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR
          "${DRIVER} --${FLAG} 1 failed without naming the flag:\n${output}")
endif()
