#!/bin/sh
# Regenerate the test list from the directory contents.
cd "$(dirname "$0")"
{
  echo "# One test binary per source file; each registers as one CTest entry"
  echo "# running its full gtest suite. Regenerate with tests/regen.sh."
  echo "set(FTC_TEST_SOURCES"
  ls test_*.cpp | sed 's/^/  /'
  echo ")"
  echo ""
  echo 'foreach(src ${FTC_TEST_SOURCES})'
  echo '  get_filename_component(name ${src} NAME_WE)'
  echo '  add_executable(${name} ${src})'
  echo '  target_link_libraries(${name} PRIVATE'
  echo '    ftc_cli ftc_core ftc_ckpt ftc_fieldhunter ftc_serve ftc_telemetry ftc_testing ftc_warnings'
  echo '    GTest::gtest GTest::gtest_main)'
  echo '  add_test(NAME ${name} COMMAND ${name})'
  echo '  # A hung suite (a thread parked in a blocking syscall) fails in minutes'
  echo '  # instead of stalling the whole run; sanitizer builds fit well inside.'
  echo '  set_tests_properties(${name} PROPERTIES TIMEOUT 600)'
  echo 'endforeach()'
  echo ''
  echo '# The built CLI refuses malformed command lines: exit 2, usage text, no report.'
  echo 'add_test(NAME cli_usage_error'
  echo '  COMMAND ${CMAKE_COMMAND} -DFTCLUST=$<TARGET_FILE:ftclust>'
  echo '          -DWORK=${CMAKE_CURRENT_BINARY_DIR}/cli_usage_error'
  echo '          -P ${CMAKE_CURRENT_SOURCE_DIR}/cli_usage_error.cmake)'
} > CMakeLists.txt
