// The blocking and the timed socket paths must be one path. For every
// SvSocket transport, a stream sent and received through send()/recv()
// must run identically (trace digest, end time, registry JSON) to the same
// stream through send_for()/recv_for() with a zero timeout ("wait
// forever") or a SimTime::max() timeout (saturates to forever, no timer),
// under both copy-cost ablation scales. A finite timeout that never trips
// adds timer events but must not move any message, and since a notified
// wait cancels its timer, it must not lengthen the run either.
#include "sockets/socket.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "datacutter/local_socket.h"
#include "sockets/factory.h"
#include "sockets/rdma_socket.h"

namespace sv::sockets {
namespace {

using namespace sv::literals;

enum class Backend {
  kFastTcp,
  kFastSocketVia,
  kFastVia,
  kDetailedTcp,
  kDetailedSocketVia,
  kRdmaPush,
  kLocal,
};

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kFastTcp:
      return "FastTcp";
    case Backend::kFastSocketVia:
      return "FastSocketVia";
    case Backend::kFastVia:
      return "FastVia";
    case Backend::kDetailedTcp:
      return "DetailedTcp";
    case Backend::kDetailedSocketVia:
      return "DetailedSocketVia";
    case Backend::kRdmaPush:
      return "RdmaPush";
    case Backend::kLocal:
      return "Local";
  }
  return "?";
}

/// How the application calls the socket.
enum class Api { kBlocking, kZeroTimeout, kMaxTimeout, kFiniteTimeout };

/// Far beyond the few milliseconds any stream here takes.
constexpr SimTime kNeverTrips = 1_s;

SimTime timeout_of(Api api) {
  switch (api) {
    case Api::kBlocking:
    case Api::kZeroTimeout:
      return SimTime::zero();
    case Api::kMaxTimeout:
      return SimTime::max();
    case Api::kFiniteTimeout:
      return kNeverTrips;
  }
  return SimTime::zero();
}

struct RunResult {
  std::uint64_t digest = 0;
  SimTime end;
  std::string registry_json;
  /// (sent_at, delivered_at) of every received message, in order.
  std::vector<std::pair<SimTime, SimTime>> stamps;
};

bool is_detailed(Backend b) {
  return b == Backend::kDetailedTcp || b == Backend::kDetailedSocketVia ||
         b == Backend::kRdmaPush;
}

SocketPair connect(Backend b, sim::Simulation& s, net::Cluster& cluster,
                   SocketFactory& factory, int scale_pct) {
  SocketPair pair;
  switch (b) {
    case Backend::kFastTcp:
    case Backend::kDetailedTcp:
      return factory.connect(0, 1, net::Transport::kKernelTcp);
    case Backend::kFastSocketVia:
    case Backend::kDetailedSocketVia:
      return factory.connect(0, 1, net::Transport::kSocketVia);
    case Backend::kFastVia:
      return factory.connect(0, 1, net::Transport::kVia);
    case Backend::kRdmaPush:
      pair = RdmaPushSocket::make_pair(factory.via_nic(0), factory.via_nic(1));
      break;
    case Backend::kLocal:
      pair = dc::LocalSocket::make_pair(&s, &cluster.node(0), "local");
      break;
  }
  // The factory installs the copy-cost ablation on the sockets it makes;
  // do the same for the two transports built directly.
  const auto profile =
      net::CalibrationProfile::for_transport(pair.first->transport());
  pair.first->set_copy_ablation(profile.copy_fixed, profile.copy_per_byte,
                                scale_pct);
  pair.second->set_copy_ablation(profile.copy_fixed, profile.copy_per_byte,
                                 scale_pct);
  return pair;
}

/// 2 nodes, 4 x 64 KiB messages from node 0 to node 1, then a half-close.
RunResult run_stream(Backend backend, int scale_pct, Api api) {
  sim::Simulation s;
  net::Cluster cluster(&s, 2);
  SocketFactory factory(&s, &cluster,
                        is_detailed(backend) ? Fidelity::kDetailed
                                             : Fidelity::kFast);
  factory.set_copy_cost_scale_pct(scale_pct);
  RunResult out;
  bool send_ok = true;
  bool recv_ok = true;
  s.spawn("app", [&] {
    auto [tx, rx] = connect(backend, s, cluster, factory, scale_pct);
    s.spawn("rx", [&, rx = std::move(rx)]() mutable {
      while (true) {
        std::optional<net::Message> m;
        if (api == Api::kBlocking) {
          m = rx->recv();
        } else {
          auto r = rx->recv_for(timeout_of(api));
          if (!r.ok()) {
            recv_ok = false;
            return;
          }
          m = std::move(r.value());
        }
        if (!m) return;
        out.stamps.emplace_back(m->sent_at, m->delivered_at);
      }
    });
    for (std::uint64_t i = 0; i < 4; ++i) {
      net::Message m{.bytes = 64_KiB, .tag = i};
      if (api == Api::kBlocking) {
        tx->send(std::move(m));
      } else if (!tx->send_for(std::move(m), timeout_of(api)).ok()) {
        send_ok = false;
      }
    }
    tx->close_send();
  });
  s.run();
  EXPECT_TRUE(send_ok);
  EXPECT_TRUE(recv_ok);
  out.digest = s.engine().trace_digest();
  out.end = s.now();
  std::ostringstream json;
  s.obs().registry.write_json(json);
  out.registry_json = json.str();
  return out;
}

class SocketPathAgreementTest
    : public ::testing::TestWithParam<std::tuple<Backend, int>> {};

TEST_P(SocketPathAgreementTest, ZeroTimeoutRunMatchesBlockingRun) {
  const auto [backend, scale] = GetParam();
  const RunResult blocking = run_stream(backend, scale, Api::kBlocking);
  const RunResult timed = run_stream(backend, scale, Api::kZeroTimeout);
  ASSERT_EQ(blocking.stamps.size(), 4u);
  EXPECT_EQ(timed.digest, blocking.digest);
  EXPECT_EQ(timed.end, blocking.end);
  EXPECT_EQ(timed.registry_json, blocking.registry_json);
  EXPECT_EQ(timed.stamps, blocking.stamps);
}

TEST_P(SocketPathAgreementTest, MaxTimeoutRunMatchesBlockingRun) {
  const auto [backend, scale] = GetParam();
  const RunResult blocking = run_stream(backend, scale, Api::kBlocking);
  const RunResult timed = run_stream(backend, scale, Api::kMaxTimeout);
  ASSERT_EQ(blocking.stamps.size(), 4u);
  EXPECT_EQ(timed.digest, blocking.digest);
  EXPECT_EQ(timed.end, blocking.end);
  EXPECT_EQ(timed.registry_json, blocking.registry_json);
  EXPECT_EQ(timed.stamps, blocking.stamps);
}

TEST_P(SocketPathAgreementTest, FiniteTimeoutThatNeverTripsMovesNoMessage) {
  const auto [backend, scale] = GetParam();
  const RunResult blocking = run_stream(backend, scale, Api::kBlocking);
  const RunResult timed = run_stream(backend, scale, Api::kFiniteTimeout);
  ASSERT_EQ(blocking.stamps.size(), 4u);
  EXPECT_EQ(timed.stamps, blocking.stamps);
  EXPECT_EQ(timed.end, blocking.end);
}

INSTANTIATE_TEST_SUITE_P(
    AllTransports, SocketPathAgreementTest,
    ::testing::Combine(
        ::testing::Values(Backend::kFastTcp, Backend::kFastSocketVia,
                          Backend::kFastVia, Backend::kDetailedTcp,
                          Backend::kDetailedSocketVia, Backend::kRdmaPush,
                          Backend::kLocal),
        ::testing::Values(0, 100)),
    [](const ::testing::TestParamInfo<std::tuple<Backend, int>>& param) {
      return std::string(backend_name(std::get<0>(param.param))) + "_scale" +
             std::to_string(std::get<1>(param.param));
    });

}  // namespace
}  // namespace sv::sockets
