# Runs one program and diffs its stdout against a golden file.
#
#   cmake -DPROGRAM=<exe> -DGOLDEN=<file.txt> -P tools/check_golden.cmake
#
# Fails when the program exits nonzero or its stdout differs from GOLDEN by
# one byte; on a mismatch it writes the actual stdout next to the working
# directory as <program>.out and prints a unified diff.  stderr (warn logs)
# is not compared.
if(NOT PROGRAM OR NOT GOLDEN)
  message(FATAL_ERROR "usage: cmake -DPROGRAM=<exe> -DGOLDEN=<file> -P check_golden.cmake")
endif()

execute_process(COMMAND ${PROGRAM}
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE ignored
                RESULT_VARIABLE status)
file(READ ${GOLDEN} expected)
if(actual STREQUAL expected AND status EQUAL 0)
  return()
endif()

get_filename_component(name ${PROGRAM} NAME)
file(WRITE ${name}.out "${actual}")
execute_process(COMMAND diff -u ${GOLDEN} ${name}.out)
message(FATAL_ERROR "${name}: exit status ${status}; stdout "
                    "must match ${GOLDEN} byte for byte (actual in ${name}.out)")
