# Injected into the top-level project with
#   -DCMAKE_PROJECT_droppkt_INCLUDE=<repo>/benchmark/hook.cmake
# so the benchmark builds from an unmodified tree. The include is deferred to
# the end of the top-level CMakeLists.txt, when every library target exists
# (CMake rejects a deferred add_subdirectory; a deferred include works).
cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR}
               CALL include ${CMAKE_SOURCE_DIR}/benchmark/targets.cmake)
