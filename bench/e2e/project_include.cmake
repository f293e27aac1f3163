# Passed as CMAKE_PROJECT_INCLUDE when configuring the repository root. It
# runs right after the root project() call, before any library exists, so
# it defers including bench/e2e/CMakeLists.txt until the root
# CMakeLists.txt has defined every target. Deferred arguments expand when
# the call runs, so the path is fixed in a variable now.
enable_testing()
set(MPAS_E2E_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(EVAL CODE
  "cmake_language(DEFER CALL include [[${MPAS_E2E_DIR}/CMakeLists.txt]])")
