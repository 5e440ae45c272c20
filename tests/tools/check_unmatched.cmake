# End-of-run audit, end to end: runs BINARY with ARGS and --metrics-out, and
# fails unless the counters World::run reports for leftovers are both zero —
# no message left in an `unexpected` queue, no receive still posted.
#
# Usage: cmake -DBINARY=<path> -DOUT=<metrics CSV to write>
#              "-DARGS=--scale 0.02 --seed 3"    # space-separated
#              -P check_unmatched.cmake
foreach(required BINARY OUT ARGS)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "check_unmatched.cmake: -D${required}=... is required")
  endif()
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BINARY} ${args} --metrics-out ${OUT}
                OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BINARY} ${ARGS} --metrics-out ${OUT} failed with exit code ${rc}")
endif()
file(READ ${OUT} csv)
foreach(counter simmpi.unmatched.unexpected simmpi.unmatched.posted)
  string(REPLACE "." "\\." pattern "${counter}")
  if(NOT csv MATCHES "\n${pattern},counter,[^,\n]*,0,0,")
    string(REGEX MATCH "\n${pattern},[^\n]*" line "${csv}")
    message(FATAL_ERROR "${counter} is not zero (or missing) in ${OUT}:${line}")
  endif()
endforeach()
