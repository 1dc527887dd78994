# Runs DRIVER with a flag no driver takes and passes only when the driver
# exits non-zero with the flag's name in its output.
#   cmake -DDRIVER=path/to/bench_fig5 -P expect_unknown_flag.cmake
execute_process(COMMAND ${DRIVER} --bogus-flag 1
                RESULT_VARIABLE result
                OUTPUT_VARIABLE output
                ERROR_VARIABLE output)
if(result EQUAL 0)
  message(FATAL_ERROR "${DRIVER} --bogus-flag 1 exited 0:\n${output}")
endif()
string(FIND "${output}" "bogus-flag" at)
if(at EQUAL -1)
  message(FATAL_ERROR
          "${DRIVER} --bogus-flag 1 failed without naming the flag:\n${output}")
endif()
