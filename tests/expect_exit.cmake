# Runs CMD (a ;-separated command line) and fails unless it exits with
# EXIT and its stderr matches the regex STDERR. Used for command-line
# rejection tests, where a plain ctest WILL_FAIL would accept any
# nonzero exit, aborts included.
#
#   cmake -DCMD="prog;--bad" -DEXIT=2 -DSTDERR="unknown flag" -P expect_exit.cmake
execute_process(COMMAND ${CMD} RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXIT}")
  message(FATAL_ERROR "expected exit ${EXIT}, got '${rc}'; stderr:\n${err}")
endif()
if(NOT err MATCHES "${STDERR}")
  message(FATAL_ERROR "stderr does not match '${STDERR}':\n${err}")
endif()
