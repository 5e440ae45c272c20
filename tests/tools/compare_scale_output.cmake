# Determinism guard for a bench binary across shard counts.
#
# Runs BINARY (bench_scale at smoke size by default) with --shards 1 and
# with PARALLEL_ARGS (default --shards 2) and fails unless stdout is
# byte-identical: simulation output may not depend on the PDES shard count
# or the trial worker count.  When GOLDEN is set, the output is additionally
# diffed against the committed reference (tests/golden/README.md).
# Host metrics (wall-clock, RSS) go to the binary's stderr, which this guard
# deliberately ignores.
#
# Usage: cmake -DBINARY=<path to bench binary> -DOUT_DIR=<dir>
#              [-DOUT_NAME=<stem>]    # default "scale"
#              [-DARGS="--duration 600 ..."]        # space-separated; default
#                                                   # bench_scale's smoke size
#              [-DPARALLEL_ARGS="--shards 2 --jobs 4"]  # default "--shards 2"
#              [-DGOLDEN=<committed reference file>]
#              -P compare_scale_output.cmake
foreach(required BINARY OUT_DIR)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "compare_scale_output.cmake: -D${required}=... is required")
  endif()
endforeach()
if(NOT DEFINED OUT_NAME)
  set(OUT_NAME scale)
endif()

if(DEFINED ARGS)
  separate_arguments(args UNIX_COMMAND "${ARGS}")
else()
  set(args --ranks 64,128 --scale 0.02 --seed 3 --csv)
endif()
if(DEFINED PARALLEL_ARGS)
  separate_arguments(parallel_args UNIX_COMMAND "${PARALLEL_ARGS}")
else()
  set(parallel_args --shards 2)
endif()

function(run_once tag)
  execute_process(COMMAND ${BINARY} ${args} ${ARGN}
                  OUTPUT_FILE ${OUT_DIR}/${OUT_NAME}_${tag}.out
                  ERROR_VARIABLE ignored_stderr RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BINARY} ${args} ${ARGN} failed with exit code ${rc}")
  endif()
endfunction()

run_once(shards1 --shards 1)
run_once(shards2 ${parallel_args})

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${OUT_DIR}/${OUT_NAME}_shards1.out ${OUT_DIR}/${OUT_NAME}_shards2.out
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "output differs between --shards 1 and ${parallel_args} "
                      "(${OUT_DIR}/${OUT_NAME}_shards1.out vs ${OUT_DIR}/${OUT_NAME}_shards2.out)")
endif()
if(DEFINED GOLDEN)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${OUT_DIR}/${OUT_NAME}_shards1.out ${GOLDEN}
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "output differs from the committed golden reference "
                        "(${OUT_DIR}/${OUT_NAME}_shards1.out vs ${GOLDEN}); if the change is "
                        "intentional, regenerate it (see tests/golden/README.md)")
  endif()
endif()
