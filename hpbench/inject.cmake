# Injected into the hpcap root project by run.py through
# -DCMAKE_PROJECT_hpcap_INCLUDE=<this file>. It defers the benchmark's
# own build file (hpbench.cmake) until the root CMakeLists.txt has been
# processed, so the harness is compiled with exactly the flags, build
# type and library targets a user's configure of the repository
# produces, and no build file of the repository is edited.
# Deferred arguments expand when the call runs, so the path is kept in a
# variable of the root scope.
set(HPBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})
cmake_language(DEFER CALL include ${HPBENCH_DIR}/hpbench.cmake)
