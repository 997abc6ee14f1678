# Runs CMD (a ;-separated command line) and fails unless it exits with
# EXIT and its stderr matches the regex STDERR. Used for command-line
# rejection tests, where a plain ctest WILL_FAIL would accept any
# nonzero exit, aborts included.
# Optional further command lines CMD2 .. CMD6 must meet the same
# expectations.
#
#   cmake -DCMD="prog;--bad" -DEXIT=2 -DSTDERR="unknown flag" -P expect_exit.cmake
foreach(cmd_var CMD CMD2 CMD3 CMD4 CMD5 CMD6)
  if(NOT DEFINED ${cmd_var})
    continue()
  endif()
  execute_process(COMMAND ${${cmd_var}} RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc STREQUAL "${EXIT}")
    message(FATAL_ERROR "${cmd_var}: expected exit ${EXIT}, got '${rc}'; stderr:\n${err}")
  endif()
  if(NOT err MATCHES "${STDERR}")
    message(FATAL_ERROR "${cmd_var}: stderr does not match '${STDERR}':\n${err}")
  endif()
endforeach()
