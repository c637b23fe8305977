// Host-side counters read from outside the simulator: wall clock, CPU
// affinity, getrusage and /proc. Nothing here touches simulated state, so
// reading them cannot change a run's trace digest.
#pragma once

#include <cstdint>

namespace perfbench {

/// Seconds on the monotonic host clock.
double now_s();

/// Confines this process, and every thread it creates afterwards, to `cpu`.
/// The simulator runs exactly one simulated process at a time, handing
/// control between OS threads through condition variables; unpinned, each
/// hand-off can migrate between cores and the scheduler's placement choices
/// dominate the measurement (four unpinned runs of a 64-node, 100 ms open
/// loop took 7.3, 9.9, 19.0 and 22.9 s; pinned, 3.3-3.6 s). Returns false
/// when the kernel refuses.
bool pin_to_cpu(int cpu);

/// Resource usage of the whole process (all threads) so far.
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  std::uint64_t ctx_switches = 0;  // voluntary + involuntary
};
Usage usage();

/// OS threads of this process right now (/proc/self/status "Threads:").
int os_threads();

/// Peak resident set of this program image (/proc/self/status "VmHWM:").
/// Not getrusage's ru_maxrss, which Linux carries across execve, so a
/// process started from a larger parent would report the parent's peak.
double peak_rss_mb();

}  // namespace perfbench
