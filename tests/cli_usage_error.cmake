# End-to-end check of the strict command line: each malformed invocation
# must exit 2 with the usage text on stderr and write no report file.
#
#   cmake -DFTCLUST=<path to ftclust> -DWORK=<scratch dir> -P cli_usage_error.cmake
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
execute_process(COMMAND "${FTCLUST}" generate DNS 100 x.pcap
                WORKING_DIRECTORY "${WORK}" RESULT_VARIABLE code OUTPUT_QUIET)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "generate failed: ${code}")
endif()

foreach(shown IN ITEMS
    "run x.pcap --bogus --max-memroy 1K --report-out r.txt"
    "run x.pcap --report-out r.txt --max-memory"
    "run x.pcap --report-out --threads 1"
    "run --help"
    "analyze x.pcap y.pcap --report-out r.txt"
    "serve --spool spool --bogus"
    "generate DNS 100 o.pcap --sede 3"
    "version --jsn"
    "bogus")
  separate_arguments(args UNIX_COMMAND "${shown}")
  execute_process(COMMAND "${FTCLUST}" ${args} WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "ftclust ${shown}: exit ${code}, expected 2\n${err}")
  endif()
  if(NOT err MATCHES "usage:\n")
    message(FATAL_ERROR "ftclust ${shown}: no usage text on stderr\n${err}")
  endif()
  foreach(output r.txt --threads o.pcap spool)
    if(EXISTS "${WORK}/${output}")
      message(FATAL_ERROR "ftclust ${shown}: wrote ${output}")
    endif()
  endforeach()
endforeach()
