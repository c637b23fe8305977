// Google-benchmark suite over the simulator's own primitives: how much
// *wall-clock* time the machinery costs per simulated event/message. These
// numbers bound how large an experiment the repository can run.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "mem/buffer_pool.h"
#include "mem/payload.h"
#include "net/fabric.h"
#include "sim/resource.h"
#include "sim/sync.h"
#include "sockets/factory.h"

namespace {

using namespace sv;
using namespace sv::literals;

void BM_EngineScheduleFire(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    for (int i = 0; i < 1000; ++i) {
      e.schedule(SimTime(i), [] {});
    }
    e.run();
    benchmark::DoNotOptimize(e.now());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineScheduleFire);

void BM_ProcessHandoff(benchmark::State& state) {
  // Cost of one process suspend/resume round (two fiber stack switches plus
  // the delay's event).
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation s;
    s.spawn("p", [&] {
      for (int i = 0; i < 1000; ++i) s.delay(1_us);
    });
    state.ResumeTiming();
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ProcessHandoff);

void BM_ChannelSendRecv(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation s;
    sim::Channel<int> ch(&s, 16);
    s.spawn("tx", [&] {
      for (int i = 0; i < 1000; ++i) ch.send(i);
      ch.close();
    });
    s.spawn("rx", [&] {
      while (ch.recv()) {
      }
    });
    state.ResumeTiming();
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ChannelSendRecv);

void BM_ResourceUse(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation s;
    sim::Resource r(&s, 2);
    for (int p = 0; p < 4; ++p) {
      s.spawn("p" + std::to_string(p), [&] {
        for (int i = 0; i < 250; ++i) r.use(1_us);
      });
    }
    state.ResumeTiming();
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ResourceUse);

void BM_FabricMessage(benchmark::State& state) {
  const auto bytes = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation s;
    net::Cluster cluster(&s, 2);
    net::Pipe pipe(&s, &cluster.node(0), &cluster.node(1),
                   net::CalibrationProfile::socket_via(), "p");
    s.spawn("tx", [&] {
      for (int i = 0; i < 200; ++i) pipe.send(net::Message{.bytes = bytes});
    });
    s.spawn("rx", [&] {
      for (int i = 0; i < 200; ++i) pipe.recv();
    });
    state.ResumeTiming();
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_FabricMessage)->Arg(2048)->Arg(65536);

void BM_DetailedTcpMessage(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation s;
    net::Cluster cluster(&s, 2);
    sockets::SocketFactory factory(&s, &cluster,
                                   sockets::Fidelity::kDetailed);
    state.ResumeTiming();
    s.spawn("app", [&] {
      auto [a, b] = factory.connect(0, 1, net::Transport::kKernelTcp);
      s.spawn("rx", [&s, b = std::move(b)]() mutable {
        while (b->recv()) {
        }
      });
      for (int i = 0; i < 100; ++i) a->send(net::Message{.bytes = 16384});
      a->close_send();
    });
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_DetailedTcpMessage);

void BM_PoolAcquireRelease(benchmark::State& state) {
  // Steady-state pool churn: after the first lap every acquire is a reuse
  // (LIFO free-list hit), which is the hot path of every filter cycle.
  const auto bytes = static_cast<std::uint64_t>(state.range(0));
  mem::BufferPool pool(nullptr, {.label = "bench"});
  for (auto _ : state) {
    mem::PooledBuffer buf = pool.acquire(bytes);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PoolAcquireRelease)->Arg(4096)->Arg(65536);

void BM_PayloadSealSlice(benchmark::State& state) {
  // seal + MSS-sized slicing: what the TCP stack does to every message.
  constexpr std::uint64_t kBytes = 65536;
  constexpr std::uint64_t kMss = 1460;
  mem::BufferPool pool(nullptr, {.label = "bench"});
  for (auto _ : state) {
    mem::Payload p = pool.acquire(kBytes).seal();
    std::uint64_t off = 0;
    while (off < kBytes) {
      const std::uint64_t take = std::min(kMss, kBytes - off);
      benchmark::DoNotOptimize(p.slice(off, take));
      off += take;
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBytes / kMss + 1));
}
BENCHMARK(BM_PayloadSealSlice);

void BM_PayloadMaterialize(benchmark::State& state) {
  // copy_to of a sliced-and-reassembled payload: the one sanctioned way to
  // flatten a chunk chain back into contiguous memory.
  const auto bytes = static_cast<std::uint64_t>(state.range(0));
  mem::BufferPool pool(nullptr, {.label = "bench"});
  mem::Payload chain;
  for (std::uint64_t off = 0; off < bytes; off += 1460) {
    chain = chain.concat(
        pool.acquire(std::min<std::uint64_t>(1460, bytes - off)).seal());
  }
  std::vector<std::byte> dst(bytes);
  for (auto _ : state) {
    chain.copy_to(0, dst.data(), bytes);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_PayloadMaterialize)->Arg(65536);

void BM_MaterializedSend(benchmark::State& state) {
  // Full detailed-TCP message cycle with real payload bytes attached:
  // pool acquire -> seal -> segment slicing -> reassembly -> header strip.
  // range(0) selects a registered (1) or unregistered (0) pool; both take
  // the same code path — the flag only changes what the ledger records.
  const bool registered = state.range(0) != 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation s;
    net::Cluster cluster(&s, 2);
    sockets::SocketFactory factory(&s, &cluster,
                                   sockets::Fidelity::kDetailed);
    mem::BufferPool pool(&s.obs(),
                         {.label = "bench", .registered = registered});
    state.ResumeTiming();
    s.spawn("app", [&] {
      auto [a, b] = factory.connect(0, 1, net::Transport::kKernelTcp);
      s.spawn("rx", [&s, b = std::move(b)]() mutable {
        while (b->recv()) {
        }
      });
      for (int i = 0; i < 100; ++i) {
        mem::PooledBuffer buf = pool.acquire(16384);
        net::Message m;
        m.bytes = buf.size();
        m.payload = std::move(buf).seal();
        a->send(std::move(m));
      }
      a->close_send();
    });
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_MaterializedSend)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
