#include "vizapp/loadbalance.h"

#include <memory>

#include "datacutter/runtime.h"
#include "vizapp/filters.h"

namespace sv::viz {
namespace {

/// Source: the data repository + load balancer. Emits the dataset as
/// pipelining blocks; distribution to workers is the stream policy's job.
class BalancerSource : public dc::Filter {
 public:
  BalancerSource(std::uint64_t total, std::uint64_t block)
      : total_(total), block_(block) {}

  void process(dc::FilterContext& ctx) override {
    std::uint64_t remaining = total_;
    std::uint64_t tag = 0;
    while (remaining > 0) {
      const std::uint64_t len = std::min(remaining, block_);
      remaining -= len;
      dc::DataBuffer b;
      b.bytes = len;
      b.tag = tag++;
      ctx.write(std::move(b));
    }
  }

 private:
  std::uint64_t total_;
  std::uint64_t block_;
};

/// Worker: computes over each block; slow per configuration. Records
/// service times into the shared result.
class Worker : public dc::Filter {
 public:
  Worker(const LoadBalanceConfig* cfg, LoadBalanceResult* result,
         std::uint64_t seed)
      : cfg_(cfg), result_(result), rng_(seed) {}

  void process(dc::FilterContext& ctx) override {
    while (auto b = ctx.read()) {
      const SimTime arrival = ctx.sim().now();
      const bool is_slow_node =
          static_cast<int>(ctx.copy_index()) == cfg_->slow_worker;
      bool slow_now = false;
      if (is_slow_node) {
        slow_now = cfg_->slow_probability > 0.0
                       ? rng_.bernoulli(cfg_->slow_probability)
                       : true;
      }
      SimTime work = cfg_->compute.for_bytes(b->bytes);
      if (slow_now) work = work * cfg_->slow_factor;
      ctx.compute(work);
      const SimTime service = ctx.sim().now() - arrival;
      if (is_slow_node) {
        result_->slow_service_times.add(service);
      } else {
        result_->fast_service_times.add(service);
      }
      ++result_->blocks_per_worker[ctx.copy_index()];
    }
  }

 private:
  const LoadBalanceConfig* cfg_;
  LoadBalanceResult* result_;
  Rng rng_;
};

}  // namespace

LoadBalanceResult run_load_balance(const LoadBalanceConfig& cfg) {
  LoadBalanceResult result;
  result.blocks_per_worker.assign(static_cast<std::size_t>(cfg.workers), 0);

  sim::Simulation s(cfg.queue_kind);
  net::Cluster cluster(&s, cfg.workers + 1);
  s.begin_artifacts(cfg.obs);
  sockets::SocketFactory factory(&s, &cluster);

  dc::FilterGroup group;
  std::vector<std::size_t> worker_nodes;
  for (int w = 0; w < cfg.workers; ++w) {
    worker_nodes.push_back(static_cast<std::size_t>(w) + 1);
  }
  const LoadBalanceConfig* cfg_ptr = &cfg;
  LoadBalanceResult* res_ptr = &result;
  const std::uint64_t seed = cfg.seed;
  group.add_filter("balancer",
                   [&cfg] {
                     return std::make_unique<BalancerSource>(cfg.total_bytes,
                                                             cfg.block_bytes);
                   },
                   {0});
  group.add_filter("worker",
                   [cfg_ptr, res_ptr, seed] {
                     return std::make_unique<Worker>(cfg_ptr, res_ptr, seed);
                   },
                   worker_nodes);
  group.add_stream("balancer", "worker", cfg.policy);

  dc::RuntimeOptions opts;
  opts.transport = cfg.transport;
  dc::Runtime rt(&s, &cluster, &factory, std::move(group), opts);
  rt.start();
  rt.submit(dc::Uow{1, {}});
  rt.close_input();
  s.run();
  obs::export_artifacts(s.obs(), cfg.obs);
  result.exec_time = s.now();
  result.events_fired = s.events_fired();
  result.trace_digest = s.engine().trace_digest();
  result.delivery_digest = s.obs().delivery_digest();
  return result;
}

}  // namespace sv::viz
