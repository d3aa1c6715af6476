# The droppkt_benchmark executable (see benchmark/README.md). Included by
# hook.cmake after the library targets are defined.
add_executable(droppkt_benchmark
  ${CMAKE_CURRENT_LIST_DIR}/main.cpp
  ${CMAKE_CURRENT_LIST_DIR}/harness.cpp
  ${CMAKE_CURRENT_LIST_DIR}/heap.cpp
  ${CMAKE_CURRENT_LIST_DIR}/spans.cpp
  ${CMAKE_CURRENT_LIST_DIR}/workloads.cpp
  ${CMAKE_CURRENT_LIST_DIR}/streaming.cpp
  ${CMAKE_CURRENT_LIST_DIR}/layers.cpp)
target_link_libraries(droppkt_benchmark PRIVATE
  droppkt_alert droppkt_engine droppkt_core droppkt_trace droppkt_has
  droppkt_ml droppkt_net droppkt_telemetry droppkt_util droppkt_warnings
  Threads::Threads)
