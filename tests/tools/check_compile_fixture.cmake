# Compile check for one fixture under tests/compile/ (docs/static-analysis.md,
# "What the compiler enforces").  Compiles FIXTURE with -fsyntax-only and
# FLAGS, which tests/CMakeLists.txt builds from the compile prefix and the
# flags every poisoned target gets, then compares the lines the compiler
# reports an error on with the lines annotated `// expect-error`.
#   - bad_*.cpp passes only if the two sets are equal and not empty, so a
#     fixture that fails for any other reason fails its test;
#   - good_*.cpp must compile with no diagnostic at all.
#
#   cmake -DCOMPILER=<c++> "-DFLAGS=<flag>|<flag>..." -DFIXTURE=<file> \
#         -P check_compile_fixture.cmake
foreach(var COMPILER FLAGS FIXTURE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "-D${var}=... is required")
  endif()
endforeach()
string(REPLACE "|" ";" FLAGS "${FLAGS}")
get_filename_component(name "${FIXTURE}" NAME)

execute_process(COMMAND ${COMPILER} ${FLAGS} -fsyntax-only "${FIXTURE}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)

if(name MATCHES "^good_")
  if(NOT rc EQUAL 0 OR NOT "${out}${err}" STREQUAL "")
    message(FATAL_ERROR "${name} must compile with no diagnostic (exit ${rc}):\n${out}${err}")
  endif()
  return()
endif()

# The lines the compiler reports an error on, in this file only.
string(REGEX MATCHALL "${name}:[0-9]+:[0-9]+: error:" hits "${err}")
set(actual)
foreach(hit IN LISTS hits)
  string(REGEX REPLACE "^.*:([0-9]+):[0-9]+: error:$" "\\1" line "${hit}")
  list(APPEND actual ${line})
endforeach()

# The annotated lines.  Characters that CMake lists treat specially are
# dropped first, so each source line becomes one list element.
file(READ "${FIXTURE}" source)
string(REGEX REPLACE "[][;\\]" "" source "${source}")
string(REPLACE "\n" ";" source_lines "${source}")
set(expected)
set(n 0)
foreach(text IN LISTS source_lines)
  math(EXPR n "${n} + 1")
  if(text MATCHES "// expect-error")
    list(APPEND expected ${n})
  endif()
endforeach()

list(REMOVE_DUPLICATES actual)
list(SORT actual COMPARE NATURAL)
if(NOT expected)
  message(FATAL_ERROR "${name} has no `// expect-error` annotations")
endif()
if(rc EQUAL 0 OR NOT actual STREQUAL expected)
  message(FATAL_ERROR "${name}: errors on lines [${actual}], annotated lines [${expected}] "
                      "(exit ${rc}):\n${err}")
endif()
message(STATUS "${name}: errors exactly on lines [${expected}]")
