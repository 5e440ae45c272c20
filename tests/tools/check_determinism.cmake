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
# to be zero.  TRACE adds --trace-out and --metrics-out to both runs of the
# last layout and requires the two trace files, and the two metrics files,
# to be byte-identical (so the binary must not write host-dependent metrics);
# they are deleted after a pass.  A traced run prints one blank line before
# "wrote Chrome trace"; that line is dropped from its cut stdout.
#
# Usage: cmake -DBINARY=<path> -DOUT=<path stem for the outputs>
#              "-DARGS=--scale 0.02 --seed 3"             # space-separated
#              "-DLAYOUTS=--jobs 1|--jobs 4 --shards 2"   # '|'-separated
#              [-DGOLDEN=<committed stdout>]
#              ["-DRECORD=--jobs 1|--jobs 4 --shards 2" -DBISECT=<hcs_bisect>]
#              [-DAUDIT=ON] [-DTRACE=ON]
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
list(LENGTH layouts n_layouts)
math(EXPR last_index "${n_layouts} - 1")

# Runs one layout with any extra flags after it; sets `var` to its stdout up
# to the first "wrote " line.  `traced` drops the one blank line a traced run
# prints before it.
function(run_layout tag layout traced var)
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
    if(traced)
      string(REGEX REPLACE "\n\n$" "\n" out "${out}")
    endif()
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
  set(traced OFF)
  if(TRACE AND i EQUAL last_index)
    list(APPEND extra --trace-out ${OUT}_${i}.trace.json --metrics-out ${OUT}_${i}.metrics.csv)
    set(traced ON)
  endif()
  run_layout(${i} "${layout}" ${traced} stdout_${i} ${extra})
  list(APPEND tags ${i})
  list(APPEND names "`${layout}`")
  math(EXPR i "${i} + 1")
endforeach()
set(extra)
if(TRACE)
  set(extra --trace-out ${OUT}_rerun.trace.json --metrics-out ${OUT}_rerun.metrics.csv)
endif()
run_layout(rerun "${last}" "${TRACE}" stdout_rerun ${extra})
list(APPEND tags rerun)
list(APPEND names "a second run at `${last}`")

if(TRACE)
  foreach(kind trace.json metrics.csv)
    set(pair ${OUT}_${last_index}.${kind} ${OUT}_rerun.${kind})
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${pair} RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
      list(JOIN pair " vs " files)
      message(FATAL_ERROR "the ${kind} files of two runs at `${last}` differ (${files})")
    endif()
  endforeach()
  foreach(kind trace.json metrics.csv)
    file(REMOVE ${OUT}_${last_index}.${kind} ${OUT}_rerun.${kind})
  endforeach()
endif()

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
