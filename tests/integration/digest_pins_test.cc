// Golden event-trace digest pins (DESIGN.md §8, §12).
//
// Each pinned workload is a scaled-down seeded run of a paper experiment
// (fig04 ping-pong, fig08 paced updates, fig10 load balancing), of the
// fat-tree open loop, or of a detailed transport path
// (integration/pinned_scenarios.h). Its
// (events_fired, trace_digest) pair was captured on the original
// std::priority_queue engine *before* the timing-wheel queue swap and
// committed to tests/integration/digest_pins.txt. The test recomputes every
// workload on the current engine — on *both* queue implementations — and
// asserts bit-identical digests, so the determinism contract survives queue
// and allocator optimizations mechanically, not by review.
//
// Regenerate (only for deliberate, understood schedule changes):
//   ./build/tests/digest_pins_test --update-pins
//
// This binary has its own main() (it cannot link gtest_main) so it can
// strip the --update-pins flag before GoogleTest parses the rest.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "integration/pinned_scenarios.h"

#ifndef SV_DIGEST_PIN_FILE
#error "SV_DIGEST_PIN_FILE must point at tests/integration/digest_pins.txt"
#endif

namespace sv::harness {
namespace {

bool g_update_pins = false;

/// One recomputed workload outcome.
struct PinnedRun {
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
};

/// The pin file: `name events digest` per line, '#' comments, sorted by
/// name so regeneration diffs cleanly.
std::map<std::string, PinnedRun> read_pins() {
  std::map<std::string, PinnedRun> pins;
  std::ifstream in(SV_DIGEST_PIN_FILE);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name;
    PinnedRun run;
    ls >> name >> run.events >> run.digest;
    pins[name] = run;
  }
  return pins;
}

void write_pins(const std::map<std::string, PinnedRun>& pins) {
  std::ofstream out(SV_DIGEST_PIN_FILE);
  out << "# Golden (events_fired, trace_digest) pins per seeded workload.\n"
      << "# Captured on the pre-timing-wheel heap engine; see\n"
      << "# digest_pins_test.cc for the regeneration policy.\n";
  for (const auto& [name, run] : pins) {
    out << name << ' ' << run.events << ' ' << run.digest << '\n';
  }
}

/// Checks one recomputed run against its pin (or records it in update
/// mode). `variant` distinguishes queue implementations; both must match
/// the single pinned value.
void expect_pin(const std::string& name, const std::string& variant,
                const PinnedRun& got) {
  static std::map<std::string, PinnedRun> pins = read_pins();
  if (g_update_pins) {
    auto it = pins.find(name);
    if (it == pins.end()) {
      pins[name] = got;
      write_pins(pins);
    } else {
      ASSERT_EQ(it->second.events, got.events)
          << name << " (" << variant << ") diverges within one update run";
      ASSERT_EQ(it->second.digest, got.digest)
          << name << " (" << variant << ") diverges within one update run";
    }
    return;
  }
  auto it = pins.find(name);
  ASSERT_NE(it, pins.end())
      << "no pin for " << name
      << " — run digest_pins_test --update-pins and review the diff";
  EXPECT_EQ(it->second.events, got.events)
      << name << " [" << variant << "]: event count drifted from the pin";
  EXPECT_EQ(it->second.digest, got.digest)
      << name << " [" << variant
      << "]: trace digest drifted from the pin — the engine no longer "
         "executes the pinned event sequence";
}

/// Runs `make_run` on every queue implementation and checks each against
/// the same pin.
void check_all_queues(const std::string& name) {
  for (const pinned::Scenario& sc : pinned::all_scenarios()) {
    if (sc.name != name) continue;
    for (const auto& [kind, variant] :
         {std::pair{sim::QueueKind::kTimingWheel, "timing_wheel"},
          std::pair{sim::QueueKind::kReferenceHeap, "reference_heap"}}) {
      const pinned::ScenarioRun r = sc.run(kind, /*metrics_path=*/"");
      expect_pin(name, variant, {r.events, r.trace_digest});
    }
    return;
  }
  FAIL() << "no scenario named " << name;
}

TEST(DigestPins, Fig04PingPongTcp) {
  check_all_queues("fig04_pingpong_tcp");
}

TEST(DigestPins, Fig04PingPongSocketVia) {
  check_all_queues("fig04_pingpong_svia");
}

TEST(DigestPins, Fig08PacedUpdatesTcp) {
  check_all_queues("fig08_paced_tcp");
}

TEST(DigestPins, Fig08PacedUpdatesSocketVia) {
  check_all_queues("fig08_paced_svia");
}

TEST(DigestPins, Fig10BalanceTcp) {
  check_all_queues("fig10_balance_tcp");
}

TEST(DigestPins, Fig10BalanceSocketVia) {
  check_all_queues("fig10_balance_svia");
}

TEST(DigestPins, ScaleOpenLoopSocketVia) {
  check_all_queues("scale_openloop_svia");
}

TEST(DigestPins, ScaleOpenLoopTcp) {
  check_all_queues("scale_openloop_tcp");
}

TEST(DigestPins, LossyStreamTcp) { check_all_queues("tcp_lossy_stream"); }

TEST(DigestPins, CreditStallSocketVia) {
  check_all_queues("svia_credit_stall");
}

TEST(DigestPins, RdmaPingPong) { check_all_queues("rdma_pingpong"); }

}  // namespace
}  // namespace sv::harness

int main(int argc, char** argv) {
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-pins") {
      sv::harness::g_update_pins = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  ::testing::InitGoogleTest(&filtered_argc, args.data());
  return RUN_ALL_TESTS();
}
