# Run the command given after `--` and fail unless it exits with status
# EXPECT_EXIT and its combined stdout/stderr contains the literal
# EXPECT_OUTPUT.
#
#   cmake -DEXPECT_EXIT=1 "-DEXPECT_OUTPUT=error: " -P expect_run.cmake \
#         -- prog arg...
set(cmd "")
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
execute_process(COMMAND ${cmd}
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
message("${out}")
if(NOT "${status}" STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "exit status '${status}', expected ${EXPECT_EXIT}")
endif()
string(FIND "${out}" "${EXPECT_OUTPUT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "output lacks '${EXPECT_OUTPUT}'")
endif()
