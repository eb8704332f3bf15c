# Hooks the benchmark into the repository's own CMake configuration without
# editing it. run.py configures the repository root exactly as a user would
# (default build type Release, ECLP_HARDENED=ON) and passes
#   -DCMAKE_PROJECT_INCLUDE=<checkout>/perfbench/inject.cmake
# CMake includes this file right after the root project() call; the deferred
# call then includes perfbench/CMakeLists.txt once the root CMakeLists.txt
# has defined every library target, so the benchmark links the same eclp_*
# libraries that eclp-run and eclp-serve link. Deferred calls may not add
# subdirectories, hence include(); their arguments are expanded when the
# call runs, hence the variable.
include_guard(GLOBAL)
set(PERFBENCH_LISTFILE "${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt")
cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
  CALL include "${PERFBENCH_LISTFILE}")
