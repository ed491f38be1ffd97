# Runs one report binary and compares its stdout byte for byte with the
# committed copy under tests/golden/reports/. CMakeLists.txt registers
# one ctest per report (Report.<name>). On a mismatch the live output is
# written to ACTUAL in the build tree and the failure prints the copy
# command that accepts it, so an intended change shows in the diff of
# the commit that makes it.
#
#   cmake -DBIN=<report binary> -DARGS="<arguments>" -DGOLDEN=<committed>
#         -DACTUAL=<live copy> -P report_diff.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} ${args} OUTPUT_VARIABLE live RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with status ${rc}")
endif()
file(READ ${GOLDEN} want)
if(live STREQUAL want)
  return()
endif()
file(WRITE ${ACTUAL} "${live}")
set(diff "")
find_program(DIFF diff)
if(DIFF)
  execute_process(COMMAND ${DIFF} -u ${GOLDEN} ${ACTUAL} OUTPUT_VARIABLE diff)
endif()
message(FATAL_ERROR "${BIN} ${ARGS}: output differs from ${GOLDEN}\n${diff}"
        "Live output written to ${ACTUAL}. If the change is intended, accept it with:\n"
        "  cp ${ACTUAL} ${GOLDEN}")
