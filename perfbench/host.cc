#include "host.h"

#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <fstream>
#include <string>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool pin_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<std::size_t>(cpu), &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

Usage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  Usage u;
  u.user_s = secs(ru.ru_utime);
  u.sys_s = secs(ru.ru_stime);
  u.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

namespace {

/// The leading number of /proc/self/status field `key` (e.g. "Threads:").
long status_field(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return std::stol(line.substr(key.size()));
  }
  return -1;
}

}  // namespace

int os_threads() { return static_cast<int>(status_field("Threads:")); }

double peak_rss_mb() {
  return static_cast<double>(status_field("VmHWM:")) / 1024.0;  // kB
}

}  // namespace perfbench
