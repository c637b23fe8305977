// SV011 fixture: raw OS concurrency in src/net. Both the includes and the
// std:: uses must be flagged; non-concurrency std types and non-std
// identifiers must not.
#include <thread>
#include <mutex>
#include <vector>

void thread_use_fixture() {
  std::thread worker;
  std::atomic_int hits{0};
  std::lock_guard<std::mutex> g(global_mutex());
  std::vector<int> ok;
  threading::helper();
  // svlint:allow(SV011): suppression case.
  std::mutex suppressed_mutex;
}
