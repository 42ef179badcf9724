#include <algorithm>
#include <thread>

#include "core/protocol.hpp"
#include "core/subscription.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace pb {

namespace store = emon::store;
namespace core = emon::core;

PopulationSpec serve_population(std::uint64_t seed) {
  PopulationSpec spec;
  spec.seed = seed;
  return spec;
}

std::vector<store::RollupSpec> rollup_set(const Population& pop) {
  std::vector<store::RollupSpec> out;
  const auto base = [&] {
    store::RollupSpec s;
    s.window_ns = kSecondNs;
    s.slide_ns = kSecondNs;
    s.lateness_ns = kLatenessNs;
    s.anchor_ns = kBaseNs;
    return s;
  };
  out.push_back(base());
  store::RollupSpec verify = base();
  verify.window_ns = 10 * kSecondNs;
  out.push_back(verify);
  for (std::size_t n = 0; n < kNetworkWindows && n < pop.spec().networks;
       ++n) {
    store::RollupSpec s = base();
    s.filter.network = pop.network_name(n);
    out.push_back(s);
  }
  return out;
}

store::QuerySpec window_query(const store::RollupSpec& spec,
                              std::int64_t t0_ns, std::int64_t t1_ns) {
  store::QuerySpec q;
  q.devices = spec.devices;
  q.t0_ns = t0_ns;
  q.t1_ns = t1_ns;
  q.filter = spec.filter;
  return q;
}

ServeStack::ServeStack(const Population& pop) : specs(rollup_set(pop)) {
  db.set_ingest_hook(&rollups);
  for (const auto& spec : specs) {
    ids.push_back(rollups.register_rollup(spec));
  }
  cold_ = std::make_unique<store::QueryEngine>(db,
                                               store::QueryEngineOptions{1});
  pipeline = std::make_unique<core::ServePipeline>(db, &rollups);
  pushes.reserve(1 << 16);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    pipeline->add_window_sink(ids[i], [this, i](const store::ClosedWindow& w) {
      // The push is timed once its frame is encoded; delivery is not
      // modelled.
      const std::vector<std::uint8_t> frame =
          core::protocol::seal(core::to_push(w, i + 1, false));
      pushes.push_back(
          PushEvent{static_cast<std::uint32_t>(i), w.t1_ns, now_ns()});
      (void)frame;
      if (checking.load(std::memory_order_relaxed)) {
        ++parity_checked;
        if (!window_equals_cold(
                w, cold_->aggregate(window_query(specs[i], w.t0_ns, w.t1_ns)))) {
          ++parity_failed;
        }
      }
    });
  }
  pipeline->start();
}

ServeStack::~ServeStack() {
  pipeline->stop();
  db.set_ingest_hook(nullptr);
}

FramePrefetcher::FramePrefetcher(const Population& pop, std::int64_t first,
                                 std::int64_t count)
    : pop_(pop), first_(first), count_(count), worker_([this] { encoder(); }) {}

FramePrefetcher::~FramePrefetcher() {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

void FramePrefetcher::encoder() {
  for (std::int64_t s = 0; s < count_; ++s) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return stop_ || ready_.size() < kPrefetchDepth; });
      if (stop_) {
        return;
      }
    }
    std::vector<Frame> frames;
    pop_.frames_for_second(first_ + s, frames);
    {
      const std::lock_guard<std::mutex> lk(mu_);
      ready_.push_back(std::move(frames));
    }
    cv_.notify_all();
  }
}

std::vector<Frame> FramePrefetcher::next() {
  std::vector<Frame> out;
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return !ready_.empty(); });
    out = std::move(ready_.front());
    ready_.pop_front();
  }
  cv_.notify_all();
  return out;
}

OpenLoopTimes run_open_loop(const DueFn& due, std::int64_t start_ns,
                            std::int64_t tick_ns,
                            const std::function<void(std::size_t)>& send) {
  OpenLoopTimes t;
  std::size_t i = 0;
  std::optional<std::int64_t> next = due(0);
  while (next) {
    // Wake at the next due time, or at the tick boundary at/after it.
    std::int64_t wake = *next;
    if (tick_ns > 0) {
      wake = (std::max<std::int64_t>(wake, 0) + tick_ns - 1) / tick_ns * tick_ns;
    }
    std::this_thread::sleep_until(
        Clock::time_point{std::chrono::nanoseconds(start_ns + wake)});
    const std::int64_t now = now_ns() - start_ns;
    while (next && *next <= now) {
      t.start_late_ns.push_back(now_ns() - start_ns - *next);
      send(i);
      t.done_late_ns.push_back(now_ns() - start_ns - *next);
      next = due(++i);
    }
  }
  return t;
}

const char* to_string(QueryKind kind) noexcept {
  switch (kind) {
    case QueryKind::kNetAggregate:
      return "net_aggregate";
    case QueryKind::kNetCurrentStats:
      return "net_current_stats";
    case QueryKind::kNetDownsample:
      return "net_downsample";
    case QueryKind::kFleetAggregate:
      return "fleet_aggregate";
  }
  return "?";
}

QueryPlan plan_query(std::uint64_t seed, std::size_t i, std::size_t networks) {
  QueryPlan plan;
  if (i % 20 == 19) {
    plan.kind = QueryKind::kFleetAggregate;
    return plan;
  }
  plan.kind = static_cast<QueryKind>((i - i / 20) % 3);
  emon::util::SplitMix64 sm{seed * 0x9e3779b97f4a7c15ULL + i};
  plan.network = static_cast<std::size_t>(sm.next() % networks);
  return plan;
}

void run_query(const store::QueryEngine& engine, const Population& pop,
               const QueryPlan& plan, std::int64_t t1_ns,
               store::FleetCut* cut, store::FleetAggregate* answer) {
  store::QuerySpec spec;
  spec.t0_ns = t1_ns - kTrailingNs;
  spec.t1_ns = t1_ns;
  if (plan.kind != QueryKind::kFleetAggregate) {
    spec.borrowed_devices = &pop.network_devices(plan.network);
    spec.devices_presorted = true;
  }
  switch (plan.kind) {
    case QueryKind::kNetAggregate:
    case QueryKind::kFleetAggregate: {
      spec.capture_cut = cut;
      store::FleetAggregate a = engine.aggregate(spec);
      if (answer != nullptr) {
        *answer = std::move(a);
      }
      return;
    }
    case QueryKind::kNetCurrentStats:
      spec.filter.stored_offline = false;
      (void)engine.current_stats(spec);
      return;
    case QueryKind::kNetDownsample:
      spec.window_ns = kSecondNs;
      (void)engine.downsample(spec);
      return;
  }
}

bool aggregates_equal(const store::DeviceAggregate& a,
                      const store::DeviceAggregate& b) {
  return a.count == b.count && a.t_min_ns == b.t_min_ns &&
         a.t_max_ns == b.t_max_ns && a.min_current_ma == b.min_current_ma &&
         a.max_current_ma == b.max_current_ma &&
         a.avg_current_ma == b.avg_current_ma &&
         a.sum_energy_mwh == b.sum_energy_mwh;
}

bool fleet_equal(const store::FleetAggregate& a,
                 const store::FleetAggregate& b) {
  if (a.per_device.size() != b.per_device.size() ||
      !aggregates_equal(a.merged, b.merged)) {
    return false;
  }
  for (std::size_t i = 0; i < a.per_device.size(); ++i) {
    if (a.per_device[i].first != b.per_device[i].first ||
        !aggregates_equal(a.per_device[i].second, b.per_device[i].second)) {
      return false;
    }
  }
  return true;
}

bool window_equals_cold(const store::ClosedWindow& w,
                        const store::FleetAggregate& cold) {
  store::FleetAggregate as_fleet;
  as_fleet.per_device = w.per_device;
  as_fleet.merged = w.merged;
  return fleet_equal(as_fleet, cold);
}

void stamp_environment(RunResult& result, const RunArgs& args) {
  result.note("workload", args.workload);
  result.note("seed", static_cast<double>(args.seed));
  result.note("seconds", args.seconds);
  result.note("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  result.note("compiler", PERFBENCH_COMPILER);
  result.note("build_type", PERFBENCH_BUILD_TYPE);
  result.note("host_probe_before", host_probe());
  result.note("steal_s_before", steal_seconds());
}

}  // namespace pb
