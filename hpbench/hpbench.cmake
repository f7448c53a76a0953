# hpbench — the end-to-end benchmark harness (see inject.cmake for how it
# joins the root project). It links the same libraries as tools/hpcapctl
# because its traced run replays the daemon's layers and the training
# recipe in process.
add_executable(hpbench_harness
  ${CMAKE_CURRENT_LIST_DIR}/harness.cpp
  ${CMAKE_CURRENT_LIST_DIR}/checks.cpp
  ${CMAKE_CURRENT_LIST_DIR}/layers.cpp)
target_link_libraries(hpbench_harness PRIVATE
  hpcap_testbed hpcap_net hpcap_core hpcap_counters hpcap_tpcw hpcap_sim
  hpcap_ml hpcap_util Threads::Threads)
