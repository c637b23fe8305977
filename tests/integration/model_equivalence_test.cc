// Model-equivalence pins: what each digest-pinned scenario computed,
// independent of how many events the simulator needed to compute it.
//
// digest_pins.txt pins the executed event schedule itself, so any change
// to how the simulator schedules its own work (one process fewer, one wake
// event fewer) moves those pins even when no simulated outcome changes.
// This test pins the outcome instead, per scenario of
// integration/pinned_scenarios.h:
//
//   delivery   obs::Hub::delivery_digest(): an order-sensitive hash of
//              every delivered message's (sent_at, delivered_at);
//   registry   a hash of the final registry JSON with every sim.* entry
//              removed (event, arena and wheel counters are the
//              simulator's own bookkeeping, not model output).
//
// A refactor that re-pins digest_pins.txt must leave this file untouched;
// that is the evidence the re-pin is behaviour-neutral. A scenario that
// names the paths it exists to cover (ScenarioRun::exercised) also fails
// here when one of them never ran.
//
// Regenerate (only for deliberate, understood model changes):
//   ./build/tests/model_equivalence_test --update-pins
//
// Own main() so it can strip --update-pins before GoogleTest parses the
// rest. On a mismatch the stripped registry JSON is left in the test's
// temporary directory for diffing against a run of the previous commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "integration/pinned_scenarios.h"

#ifndef SV_MODEL_PIN_FILE
#error "SV_MODEL_PIN_FILE must point at tests/integration/model_pins.txt"
#endif

namespace sv::pinned {
namespace {

bool g_update_pins = false;

struct ModelPin {
  std::uint64_t delivery = 0;
  std::uint64_t registry = 0;
};

std::map<std::string, ModelPin> read_pins() {
  std::map<std::string, ModelPin> pins;
  std::ifstream in(SV_MODEL_PIN_FILE);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name;
    ModelPin pin;
    ls >> name >> pin.delivery >> pin.registry;
    pins[name] = pin;
  }
  return pins;
}

void write_pins(const std::map<std::string, ModelPin>& pins) {
  std::ofstream out(SV_MODEL_PIN_FILE);
  out << "# Model-equivalence pins: name delivery_digest registry_hash.\n"
      << "# See model_equivalence_test.cc for what each hash covers.\n";
  for (const auto& [name, pin] : pins) {
    out << name << ' ' << pin.delivery << ' ' << pin.registry << '\n';
  }
}

/// The registry JSON without sim.* entries. Registry::write_json puts one
/// entry per line; trailing commas are dropped so removing the last entry
/// of a section cannot leave a dangling separator behind.
std::string strip_sim_entries(std::istream& json) {
  std::string out;
  std::string line;
  while (std::getline(json, line)) {
    if (line.rfind("    \"sim.", 0) == 0) continue;
    if (!line.empty() && line.back() == ',') line.pop_back();
    out += line;
    out += '\n';
  }
  return out;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return h;
}

class ModelEquivalence : public ::testing::TestWithParam<Scenario> {};

TEST_P(ModelEquivalence, DeliveriesAndRegistryMatchThePin) {
  const Scenario& sc = GetParam();
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "model_equivalence";
  std::filesystem::create_directories(dir);
  const std::string metrics = (dir / (sc.name + ".json")).string();
  std::remove(metrics.c_str());

  const ScenarioRun run = sc.run(sim::QueueKind::kTimingWheel, metrics);
  for (const auto& [what, count] : run.exercised) {
    EXPECT_GT(count, 0u) << sc.name << " never exercised " << what;
  }
  std::ifstream json(metrics);
  ASSERT_TRUE(json.good()) << "scenario wrote no registry JSON";
  const std::string stripped = strip_sim_entries(json);
  const ModelPin got{run.delivery_digest, fnv1a(stripped)};

  static std::map<std::string, ModelPin> pins = read_pins();
  if (g_update_pins) {
    pins[sc.name] = got;
    write_pins(pins);
    return;
  }
  auto it = pins.find(sc.name);
  ASSERT_NE(it, pins.end()) << "no model pin for " << sc.name
                            << " — run model_equivalence_test --update-pins";
  const bool same = it->second.delivery == got.delivery &&
                    it->second.registry == got.registry;
  if (!same) {
    std::ofstream((dir / (sc.name + ".stripped.json")).string()) << stripped;
  }
  EXPECT_EQ(it->second.delivery, got.delivery)
      << sc.name << ": a delivered message moved in time or order";
  EXPECT_EQ(it->second.registry, got.registry)
      << sc.name << ": a non-sim.* registry entry changed; the stripped "
      << "JSON is in " << dir.string();
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, ModelEquivalence, ::testing::ValuesIn(all_scenarios()),
    [](const ::testing::TestParamInfo<Scenario>& param) {
      return param.param.name;
    });

}  // namespace
}  // namespace sv::pinned

int main(int argc, char** argv) {
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-pins") {
      sv::pinned::g_update_pins = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  ::testing::InitGoogleTest(&filtered_argc, args.data());
  return RUN_ALL_TESTS();
}
