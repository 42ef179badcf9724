#include "store/query_engine.hpp"

#include <algorithm>

namespace emon::store {

// ---------------------------------------------------------------------------
// QueryPool
// ---------------------------------------------------------------------------

QueryPool::QueryPool(std::size_t workers)
    : workers_(workers == 0 ? 1 : workers) {
  threads_.reserve(workers_ - 1);
  for (std::size_t t = 0; t + 1 < workers_; ++t) {
    threads_.emplace_back([this, t] { worker_loop(t); });
  }
}

QueryPool::~QueryPool() {
  {
    const util::LockGuard lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& thread : threads_) {
    thread.join();
  }
}

void QueryPool::worker_loop(std::size_t index) {
  util::UniqueLock lk(mu_);
  std::uint64_t seen = 0;
  for (;;) {
    while (!stop_ && job_id_ == seen) {
      work_cv_.wait(lk);
    }
    if (stop_) {
      return;
    }
    seen = job_id_;
    const auto* fn = job_;
    const std::size_t n = job_n_;
    lk.unlock();
    // A throwing stride must not escape the thread entry (std::terminate);
    // it is captured and rethrown by parallel_for after the join.
    std::exception_ptr error = nullptr;
    try {
      for (std::size_t i = index; i < n; i += workers_) {
        (*fn)(i);
      }
    } catch (...) {
      error = std::current_exception();
    }
    lk.lock();
    if (error != nullptr && job_error_ == nullptr) {
      job_error_ = error;
    }
    if (++workers_done_ == threads_.size()) {
      done_cv_.notify_one();
    }
  }
}

void QueryPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t)>& fn) const {
  if (n == 0) {
    return;
  }
  if (threads_.empty()) {
    // workers == 1: the reference sequential path.  Still one job at a
    // time — the engine's contract serializes concurrent callers at every
    // worker count (the Tsdb's shard-local counters rely on it).
    const util::LockGuard callers(caller_mu_);
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  const util::LockGuard callers(caller_mu_);
  {
    const util::LockGuard lk(mu_);
    job_ = &fn;
    job_n_ = n;
    workers_done_ = 0;
    ++job_id_;
  }
  work_cv_.notify_all();
  // The caller participates as the last worker (stride workers_ - 1), then
  // waits for every pool thread to check back in — which is what makes the
  // next job unable to start while any stride of this one is unfinished.
  // A throw on the caller's own stride must take the same join path before
  // unwinding: workers may still be writing state the job captured by
  // reference.
  std::exception_ptr caller_error = nullptr;
  try {
    for (std::size_t i = workers_ - 1; i < n; i += workers_) {
      fn(i);
    }
  } catch (...) {
    caller_error = std::current_exception();
  }
  std::exception_ptr worker_error = nullptr;
  {
    util::UniqueLock lk(mu_);
    while (workers_done_ != threads_.size()) {
      done_cv_.wait(lk);
    }
    job_ = nullptr;
    worker_error = job_error_;
    job_error_ = nullptr;
  }
  if (caller_error != nullptr) {
    std::rethrow_exception(caller_error);
  }
  if (worker_error != nullptr) {
    std::rethrow_exception(worker_error);
  }
}

// ---------------------------------------------------------------------------
// QueryEngine
//
// Fleet merges fold per-device partials with the shared merge_aggregate()
// (store/tsdb.hpp) in sorted device order — the same fold the rollup
// engine's maintained windows use, which is what keeps push results
// bit-identical to cold queries.
// ---------------------------------------------------------------------------

QueryEngine::QueryEngine(const Tsdb& tsdb, QueryEngineOptions options)
    : tsdb_(&tsdb),
      pool_(options.workers),
      slow_query_ns_(options.slow_query_ns) {
  if (options.metrics != nullptr) {
    auto& reg = *options.metrics;
    aggregate_ns_ = reg.histogram("query_ns{kind=\"aggregate\"}");
    current_stats_ns_ = reg.histogram("query_ns{kind=\"current_stats\"}");
    scan_ns_ = reg.histogram("query_ns{kind=\"scan\"}");
    downsample_ns_ = reg.histogram("query_ns{kind=\"downsample\"}");
    breakdown_ns_ = reg.histogram("query_ns{kind=\"network_breakdown\"}");
    slow_queries_ = reg.counter("slow_queries");
  }
}

void QueryEngine::finish_query(const char* kind, obs::Histogram h,
                               const obs::StopWatch& sw) const {
  if (!sw.armed()) {
    return;
  }
  const std::uint64_t ns = sw.stop();
  h.record(ns);
  if (slow_query_ns_ != 0 && ns >= slow_query_ns_) {
    slow_queries_.inc();
    log_.warn("slow query kind=", kind, " latency_ns=", ns,
              " threshold_ns=", slow_query_ns_);
  }
}

std::vector<std::vector<DeviceId>> QueryEngine::partition(
    const QuerySpec& spec) const {
  std::vector<std::vector<DeviceId>> buckets(tsdb_->shard_count());
  for (const auto& id : spec.device_list()) {
    buckets[tsdb_->shard_of(id)].push_back(id);
  }
  if (spec.devices_presorted) {
    // Bucketing a sorted list preserves order within each bucket, and a
    // duplicate-free input cannot grow duplicates — the caller's promise
    // makes the per-query sort+unique pure waste.
    return buckets;
  }
  for (auto& bucket : buckets) {
    std::sort(bucket.begin(), bucket.end());
    bucket.erase(std::unique(bucket.begin(), bucket.end()), bucket.end());
  }
  return buckets;
}

namespace {

/// Merges per-shard result slots into one device-ordered list.  Each slot
/// is already sorted by device id (a shard's series walk, or its sorted
/// bucket) and the slots are disjoint, so picking the smallest head each
/// step gives the global order without a sort.
template <typename T>
std::vector<std::pair<DeviceId, T>> merge_slots(
    std::vector<std::vector<std::pair<DeviceId, T>>>& slots) {
  std::size_t total = 0;
  for (const auto& slot : slots) {
    total += slot.size();
  }
  std::vector<std::pair<DeviceId, T>> out;
  out.reserve(total);
  std::vector<std::size_t> head(slots.size(), 0);
  for (std::size_t n = 0; n < total; ++n) {
    std::size_t best = slots.size();
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (head[s] < slots[s].size() &&
          (best == slots.size() ||
           slots[s][head[s]].first < slots[best][head[best]].first)) {
        best = s;
      }
    }
    out.push_back(std::move(slots[best][head[best]++]));
  }
  return out;
}

}  // namespace

template <typename T, typename Fn>
std::vector<std::pair<DeviceId, T>> QueryEngine::per_device(
    const QuerySpec& spec, const Fn& fn) const {
  const std::size_t shards = tsdb_->shard_count();
  // One result slot per shard: a worker only writes its own shards' slots,
  // so the parallel region shares nothing mutable across workers.  The cut
  // slots follow the same discipline when the caller asked for a capture.
  std::vector<std::vector<std::pair<DeviceId, T>>> slots(shards);
  FleetCut* cut = spec.capture_cut;
  std::vector<std::vector<std::pair<DeviceId, std::uint64_t>>> cut_slots(
      cut != nullptr ? shards : 0);
  if (spec.device_list().empty()) {
    // All devices: iterate each shard's (sorted) series map in place — no
    // per-query materialization of the whole fleet's id strings, and the
    // fold gets the series ref straight from the map walk instead of
    // re-hashing every id through the public lookup.
    // for_each_series_in_shard pins the epoch domain around the walk, so
    // the refs it hands out are protected for the duration of the fold.
    pool_.parallel_for(shards, [&](std::size_t s) {
      tsdb_->for_each_series_in_shard(
          s, [&](const DeviceId& id, Tsdb::SeriesRef ref) {
            if (cut != nullptr) {
              cut_slots[s].emplace_back(id, tsdb_->visible_records(ref));
            }
            if (auto result = fn(id, ref)) {
              slots[s].emplace_back(id, std::move(*result));
            }
          });
    });
  } else {
    const auto buckets = partition(spec);
    pool_.parallel_for(buckets.size(), [&](std::size_t s) {
      // One reader pin per shard task: lookup() and every use of the refs
      // it returns run under this guard (the ref-based folds require the
      // caller to hold it — we are that caller here).
      const ReadGuard guard = tsdb_->read_guard();
      for (const auto& id : buckets[s]) {
        const Tsdb::SeriesRef ref = tsdb_->lookup(id);
        if (cut != nullptr) {
          cut_slots[s].emplace_back(id, tsdb_->visible_records(ref));
        }
        if (auto result = fn(id, ref)) {
          slots[s].emplace_back(id, std::move(*result));
        }
      }
    });
  }
  if (cut != nullptr) {
    cut->per_device = merge_slots(cut_slots);
  }
  return merge_slots(slots);
}

FleetAggregate QueryEngine::aggregate(const QuerySpec& spec) const {
  obs::StopWatch sw;
  sw.start();
  FleetAggregate out;
  out.per_device = per_device<DeviceAggregate>(
      spec, [&](const DeviceId& id, Tsdb::SeriesRef ref) {
        return tsdb_->aggregate(ref, spec.t0_for(id), spec.t1_ns, spec.filter);
      });
  for (const auto& [id, agg] : out.per_device) {
    (void)id;
    merge_aggregate(out.merged, agg);
  }
  finish_query("aggregate", aggregate_ns_, sw);
  return out;
}

FleetStats QueryEngine::current_stats(const QuerySpec& spec) const {
  obs::StopWatch sw;
  sw.start();
  FleetStats out;
  out.per_device = per_device<util::RunningStats>(
      spec,
      [&](const DeviceId& id,
          Tsdb::SeriesRef ref) -> std::optional<util::RunningStats> {
        util::RunningStats stats = tsdb_->current_stats(
            ref, spec.t0_for(id), spec.t1_ns, spec.filter);
        if (stats.empty()) {
          return std::nullopt;
        }
        return stats;
      });
  for (const auto& [id, stats] : out.per_device) {
    (void)id;
    out.merged.merge(stats);
  }
  finish_query("current_stats", current_stats_ns_, sw);
  return out;
}

FleetScan QueryEngine::scan(const QuerySpec& spec) const {
  obs::StopWatch sw;
  sw.start();
  FleetScan out;
  auto per = per_device<std::vector<ConsumptionRecord>>(
      spec,
      [&](const DeviceId& id, Tsdb::SeriesRef ref)
          -> std::optional<std::vector<ConsumptionRecord>> {
        auto records =
            tsdb_->scan(ref, spec.t0_for(id), spec.t1_ns, spec.filter);
        if (records.empty()) {
          return std::nullopt;
        }
        return records;
      });
  std::size_t total = 0;
  for (const auto& [id, records] : per) {
    (void)id;
    total += records.size();
  }
  out.records.reserve(total);
  out.per_device.reserve(per.size());
  for (auto& [id, records] : per) {
    out.per_device.push_back(
        FleetScan::DeviceSpan{id, out.records.size(), records.size()});
    out.records.insert(out.records.end(),
                       std::make_move_iterator(records.begin()),
                       std::make_move_iterator(records.end()));
  }
  finish_query("scan", scan_ns_, sw);
  return out;
}

FleetWindows QueryEngine::downsample(const QuerySpec& spec) const {
  obs::StopWatch sw;
  sw.start();
  FleetWindows out;
  if (spec.window_ns <= 0) {
    return out;
  }
  // Deliberately spec.t0_ns, not t0_for(id): a per-device override would
  // re-anchor that device's window grid and the fleet merge below would
  // fold overlapping windows.  Overrides are a billing-scope concept; the
  // downsample grid is shared or it is meaningless.
  out.per_device = per_device<std::vector<WindowAggregate>>(
      spec,
      [&](const DeviceId& id, Tsdb::SeriesRef ref)
          -> std::optional<std::vector<WindowAggregate>> {
        (void)id;
        auto windows = tsdb_->downsample(ref, spec.t0_ns, spec.t1_ns,
                                         spec.window_ns, spec.filter);
        if (windows.empty()) {
          return std::nullopt;
        }
        return windows;
      });
  // All devices queried with the same effective t0 share the t0-anchored
  // grid (Tsdb::downsample clamps without re-anchoring), so the fleet merge
  // is a fold by window start in sorted device order.
  std::map<std::int64_t, WindowAggregate> merged;
  std::map<std::int64_t, double> current_sums;
  for (const auto& [id, windows] : out.per_device) {
    (void)id;
    for (const auto& w : windows) {
      auto [it, created] = merged.try_emplace(w.start_ns);
      if (created) {
        it->second.start_ns = w.start_ns;
      }
      it->second.count += w.count;
      it->second.max_current_ma =
          std::max(it->second.max_current_ma, w.max_current_ma);
      it->second.sum_energy_mwh += w.sum_energy_mwh;
      current_sums[w.start_ns] +=
          w.avg_current_ma * static_cast<double>(w.count);
    }
  }
  out.merged.reserve(merged.size());
  for (auto& [start_ns, window] : merged) {
    if (window.count > 0) {
      window.avg_current_ma =
          current_sums[start_ns] / static_cast<double>(window.count);
    }
    out.merged.push_back(window);
  }
  finish_query("downsample", downsample_ns_, sw);
  return out;
}

FleetBreakdown QueryEngine::network_breakdown(const QuerySpec& spec) const {
  obs::StopWatch sw;
  sw.start();
  FleetBreakdown out;
  out.per_device = per_device<std::map<NetworkId, NetworkUsage>>(
      spec,
      [&](const DeviceId& id, Tsdb::SeriesRef ref)
          -> std::optional<std::map<NetworkId, NetworkUsage>> {
        auto usage = tsdb_->network_breakdown(ref, spec.t0_for(id));
        if (usage.empty()) {
          return std::nullopt;
        }
        return usage;
      });
  for (const auto& [id, usage] : out.per_device) {
    (void)id;
    for (const auto& [network, use] : usage) {
      auto& total = out.merged[network];
      total.records += use.records;
      total.energy_mwh += use.energy_mwh;
    }
  }
  finish_query("network_breakdown", breakdown_ns_, sw);
  return out;
}

}  // namespace emon::store
