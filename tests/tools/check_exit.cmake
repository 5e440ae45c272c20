# Runs one command and passes only if it exits with EXIT and its output
# (stdout and stderr together) matches the regular expression EXPECT.
# PASS_REGULAR_EXPRESSION alone would ignore the exit code.
#
#   cmake "-DCOMMAND=<arg>|<arg>..." -DEXIT=<code> "-DEXPECT=<regex>" \
#         -P check_exit.cmake
foreach(var COMMAND EXIT EXPECT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "-D${var}=... is required")
  endif()
endforeach()
string(REPLACE "|" ";" COMMAND "${COMMAND}")

execute_process(COMMAND ${COMMAND} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc STREQUAL "${EXIT}")
  message(FATAL_ERROR "exit code ${rc}, expected ${EXIT}:\n${out}")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match \"${EXPECT}\":\n${out}")
endif()
message(STATUS "exit ${rc}, output matches \"${EXPECT}\"")
