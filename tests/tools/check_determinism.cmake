# Determinism gate for one bench configuration, end to end: a binary run with
# the same arguments must print the same simulation at every execution
# layout (--jobs, --shards), on every run, and match its committed golden.
#
# Runs BINARY ARGS once per layout and the last layout a second time.  Each
# stdout is compared up to its first line beginning "wrote ": what follows is
# the metrics summary or a file name, and the summary holds layout-dependent
# counters (sim.windows_parallel) and sampled percentiles.  Every cut stdout
# must equal the first layout's, which must equal GOLDEN when given.
# RECORD names two of the layouts that also write an event-order recording;
# the two must be byte-identical, hcs_bisect names the first divergent event
# when they are not, and both are deleted after a pass.  AUDIT adds
# --metrics-out to the first layout's run and requires the end-of-run
# counters for leftover messages, posted receives and clamped burst resumes
# to be zero.
#
# Usage: cmake -DBINARY=<path> -DOUT=<path stem for the outputs>
#              "-DARGS=--scale 0.02 --seed 3"             # space-separated
#              "-DLAYOUTS=--jobs 1|--jobs 4 --shards 2"   # '|'-separated
#              [-DGOLDEN=<committed stdout>]
#              ["-DRECORD=--jobs 1|--jobs 4 --shards 2" -DBISECT=<hcs_bisect>]
#              [-DAUDIT=ON]
#              -P check_determinism.cmake
cmake_minimum_required(VERSION 3.22)
foreach(required BINARY OUT ARGS LAYOUTS)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "check_determinism.cmake: -D${required}=... is required")
  endif()
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")
string(REPLACE "|" ";" layouts "${LAYOUTS}")
string(REPLACE "|" ";" record "${RECORD}")
list(GET layouts 0 reference)
list(GET layouts -1 last)

# Runs one layout with any extra flags after it; sets `var` to its stdout up
# to the first "wrote " line.
function(run_layout tag layout var)
  separate_arguments(flags UNIX_COMMAND "${layout}")
  execute_process(COMMAND ${BINARY} ${args} ${flags} ${ARGN}
                  OUTPUT_FILE ${OUT}_${tag}.out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BINARY} ${ARGS} ${layout} ${ARGN} failed with exit code ${rc}:\n${err}")
  endif()
  file(READ ${OUT}_${tag}.out out)
  string(FIND "\n${out}" "\nwrote " cut)
  if(cut GREATER_EQUAL 0)
    string(SUBSTRING "${out}" 0 ${cut} out)
  endif()
  set(${var} "${out}" PARENT_SCOPE)
endfunction()

set(i 0)
set(recordings)
foreach(layout IN LISTS layouts)
  set(extra)
  if(layout IN_LIST record)
    list(APPEND extra --record-out ${OUT}_${i}.hcsr)
    list(APPEND recordings ${OUT}_${i}.hcsr)
  endif()
  if(AUDIT AND i EQUAL 0)
    list(APPEND extra --metrics-out ${OUT}_metrics.csv)
  endif()
  run_layout(${i} "${layout}" stdout_${i} ${extra})
  list(APPEND tags ${i})
  list(APPEND names "`${layout}`")
  math(EXPR i "${i} + 1")
endforeach()
run_layout(rerun "${last}" stdout_rerun)
list(APPEND tags rerun)
list(APPEND names "a second run at `${last}`")

if(record)
  list(LENGTH recordings n)
  if(NOT n EQUAL 2)
    message(FATAL_ERROR "check_determinism.cmake: RECORD must name two of the LAYOUTS")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${recordings} RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    execute_process(COMMAND ${BISECT} ${recordings} OUTPUT_VARIABLE bisect ERROR_VARIABLE bisect)
    list(JOIN recordings " vs " pair)
    message(FATAL_ERROR "the recordings differ (${pair}): ${bisect}")
  endif()
  file(REMOVE ${recordings})
endif()

foreach(tag name IN ZIP_LISTS tags names)
  if(NOT stdout_${tag} STREQUAL stdout_0)
    message(FATAL_ERROR "stdout at ${name} differs from stdout at `${reference}` "
                        "(${OUT}_${tag}.out vs ${OUT}_0.out, up to the first \"wrote \" line)")
  endif()
endforeach()

if(GOLDEN)
  file(READ ${GOLDEN} golden)
  if(NOT stdout_0 STREQUAL golden)
    message(FATAL_ERROR "stdout at `${reference}` differs from the committed golden reference "
                        "(${OUT}_0.out vs ${GOLDEN}); if the change is intentional, regenerate "
                        "the golden file (see tests/golden/README.md)")
  endif()
endif()

if(AUDIT)
  file(READ ${OUT}_metrics.csv csv)
  foreach(counter simmpi.unmatched.unexpected simmpi.unmatched.posted simmpi.burst_clamped)
    string(REPLACE "." "\\." pattern "${counter}")
    if(NOT csv MATCHES "\n${pattern},counter,[^,\n]*,0,0,")
      string(REGEX MATCH "\n${pattern},[^\n]*" line "${csv}")
      message(FATAL_ERROR "${counter} is not zero (or missing) in ${OUT}_metrics.csv:${line}")
    endif()
  endforeach()
endif()
