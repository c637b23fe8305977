// SV011 positive fixture: simulated processes are fibers on the scheduler's
// thread, so even src/sim has no use for OS concurrency primitives.
#include <thread>
#include <mutex>

void sim_thread_use_fixture() {
  std::thread worker;
  std::mutex m;
  std::lock_guard<std::mutex> g(m);
}
