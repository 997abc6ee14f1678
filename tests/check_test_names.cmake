# Fails when a test binary lists different test names in two launches.
# gtest names a value-parameterized instance after a printout of its
# parameter ("# GetParam() = ..."), and ctest takes that into the test
# name. Without a PrintTo, the printout is a raw byte dump, which changes
# from launch to launch (and so from build to build) when the parameter
# holds a pointer or padding bytes. Give such a type a PrintTo, or make it
# pointer- and padding-free. The check relies on address-space layout
# randomization; where that is off, it cannot see pointer values change.
#
#   cmake -DTEST_DIR=<build>/tests -P tests/check_test_names.cmake
file(GLOB bins LIST_DIRECTORIES false "${TEST_DIR}/*_test")
if(NOT bins)
  message(FATAL_ERROR "no test binaries under ${TEST_DIR}")
endif()
set(bad "")
foreach(bin IN LISTS bins)
  foreach(launch first second)
    execute_process(COMMAND "${bin}" --gtest_list_tests
                    OUTPUT_VARIABLE ${launch} RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${bin} --gtest_list_tests exited with ${rc}")
    endif()
  endforeach()
  if(NOT first STREQUAL second)
    get_filename_component(name "${bin}" NAME)
    list(APPEND bad "${name}")
  endif()
endforeach()
if(bad)
  message(FATAL_ERROR "test names differ between two launches of: ${bad}")
endif()
list(LENGTH bins n)
message(STATUS "${n} test binaries list the same names in two launches")
