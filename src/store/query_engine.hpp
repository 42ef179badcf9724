#pragma once
// Shard-parallel query engine over store::Tsdb — the aggregator's fleet-wide
// read path (dashboard roll-ups, verification-window reads, store-backed
// billing, forecast window feeds).
//
// A QuerySpec names a device set (empty = every device in the store), a
// half-open time range, a RecordFilter and, for downsampling, a window
// width.  The engine partitions the work by Tsdb shard (the stable FNV-1a
// device hash), fans the per-shard folds out over a small reusable worker
// pool, and merges the partial results with plain code on the caller's
// thread.
//
// This is the store's one read surface: a one-device read is a QuerySpec
// naming that device.  The Tsdb keeps only the per-series folds the engine
// runs on each resolved SeriesRef.
//
// Determinism rule — results are bit-identical for any worker count:
//   * each shard's fold runs the Tsdb's sequential per-series fold
//     (scan/aggregate/... on a SeriesRef), one worker per shard at a time;
//   * per-device results are emitted sorted by device id, each device's
//     records in its storage order (time-sorted only when that device's
//     ingest was in-order — an out-of-order roamed batch stays where the
//     store put it, exactly as Tsdb::scan returns it);
//   * fleet-wide merges fold the per-device partials in that same sorted
//     device order on the caller's thread — never in completion order.
// `workers = 1` spawns no threads at all and executes the folds inline on
// the caller — the reference sequential path the parallel runs must match.
//
// Threading: queries are synchronous (parallel_for joins before returning)
// and the engine serializes concurrent callers internally, so disjoint
// shards fold in parallel — which the Tsdb's per-shard registry counter
// slots are built for.  Queries run concurrently with live ingest: every
// worker task pins the store's epoch domain (Tsdb::read_guard) and folds
// epoch-protected snapshots, so the single ingest thread never stalls a
// query and a query never blocks ingest (the MVCC contract in
// store/tsdb.hpp / store/mvcc.hpp).  Each device's answer is computed from
// the snapshot captured when its shard task reached it — a fleet query
// racing ingest composes per-device prefixes ("cuts"); set
// QuerySpec::capture_cut to learn exactly which cut each device was
// answered at (the differential-replay hook).  Results stay bit-identical
// for any worker count at a fixed cut.

#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "store/tsdb.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/thread_annotations.hpp"

namespace emon::store {

struct QueryEngineOptions {
  /// Concurrent executors per query.  1 = run inline on the caller (no pool
  /// threads); N > 1 = N-1 pool threads plus the participating caller.
  std::size_t workers = 1;
  /// Registry for per-query-kind latency histograms (query_ns{kind="..."})
  /// and the slow_queries counter; null = no query metrics.
  obs::MetricsRegistry* metrics = nullptr;
  /// Slow-query log threshold (wall ns): a fleet query at or over it logs a
  /// warning with kind and latency, and bumps slow_queries.  0 disables.
  /// Only effective while metrics are enabled (the timer never arms
  /// otherwise).
  std::uint64_t slow_query_ns = 0;
};

/// Reusable fork-join pool: parallel_for(n, fn) runs fn(0..n-1) striped
/// across the workers and returns when every index has executed.  The
/// caller participates as the last worker, so a 1-worker pool owns no
/// threads and degenerates to a plain sequential loop.
class QueryPool {
 public:
  explicit QueryPool(std::size_t workers);
  ~QueryPool();
  QueryPool(const QueryPool&) = delete;
  QueryPool& operator=(const QueryPool&) = delete;

  [[nodiscard]] std::size_t workers() const noexcept { return workers_; }

  /// Runs fn(i) for every i in [0, n); worker k owns the stride
  /// {k, k+W, k+2W, ...} so the index->executor mapping is static.  Joins
  /// all strides before returning — including when fn throws: the first
  /// exception (from any stride) is rethrown to the caller only after
  /// every worker has stopped touching the job, so captured state stays
  /// valid.  Safe to call repeatedly; concurrent callers are serialized.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn)
      const EMON_EXCLUDES(caller_mu_, mu_);

 private:
  void worker_loop(std::size_t index) EMON_EXCLUDES(mu_);

  std::size_t workers_;
  /// Serializes concurrent parallel_for callers (one job at a time).
  mutable util::Mutex caller_mu_;
  mutable util::Mutex mu_;
  mutable util::CondVar work_cv_;
  mutable util::CondVar done_cv_;
  // Current job.  Every pool thread runs every job (its stride may be
  // empty), and the caller waits for all of them to check back in — so no
  // thread can ever miss a job or run a stale one.
  mutable const std::function<void(std::size_t)>* job_ EMON_GUARDED_BY(mu_) =
      nullptr;
  mutable std::size_t job_n_ EMON_GUARDED_BY(mu_) = 0;
  mutable std::uint64_t job_id_ EMON_GUARDED_BY(mu_) = 0;
  mutable std::size_t workers_done_ EMON_GUARDED_BY(mu_) = 0;
  /// First exception thrown by a pool-worker stride of the current job;
  /// rethrown by parallel_for after the join.
  mutable std::exception_ptr job_error_ EMON_GUARDED_BY(mu_) = nullptr;
  bool stop_ EMON_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;
};

/// The per-device snapshot cut a fleet query was answered at: for every
/// queried device, Tsdb::visible_records of the ref the fold used (0 for
/// devices unknown at capture), sorted by device id.  Replaying each
/// device's first `records` accepted records into a quiesced store and
/// re-running the same query there must reproduce the answer bit-for-bit —
/// the concurrent differential tests' ground truth.
struct FleetCut {
  std::vector<std::pair<DeviceId, std::uint64_t>> per_device;
};

/// Fleet-wide query description.
struct QuerySpec {
  /// Devices to query; empty = every device in the store.  Duplicates are
  /// collapsed.
  std::vector<DeviceId> devices;
  /// Borrowed device list: when set, queried *instead of* `devices` without
  /// copying — for callers that keep a long-lived id list (membership
  /// table, billing scope) and query it every window.  Must outlive the
  /// query; same empty-means-all rule.
  const std::vector<DeviceId>* borrowed_devices = nullptr;
  /// Caller's promise that the effective device list is already sorted and
  /// duplicate-free — partition() then skips its per-query sort+unique, and
  /// the per-shard results merge in device order as they come.
  bool devices_presorted = false;
  /// Half-open time range [t0, t1).
  std::int64_t t0_ns = INT64_MIN;
  std::int64_t t1_ns = INT64_MAX;
  RecordFilter filter;
  /// Window width for downsample() queries; ignored elsewhere.
  std::int64_t window_ns = 0;
  /// Per-device lower-bound overrides (billing scope marks): the effective
  /// range start for a listed device is max(t0_ns, override).  downsample()
  /// ignores them — an override would re-anchor that device's window grid
  /// and make the fleet merge fold overlapping windows.
  std::map<DeviceId, std::int64_t> t0_overrides;
  /// When non-null, the engine records the snapshot cut each device was
  /// answered at into *capture_cut (overwritten per query).  Must outlive
  /// the query; the engine writes it from worker tasks into per-shard slots
  /// and merges on the caller's thread, so the pointee needs no locking.
  FleetCut* capture_cut = nullptr;

  [[nodiscard]] std::int64_t t0_for(const DeviceId& id) const {
    const auto it = t0_overrides.find(id);
    return it == t0_overrides.end() ? t0_ns : std::max(t0_ns, it->second);
  }
  /// The effective device list (borrowed list wins).
  [[nodiscard]] const std::vector<DeviceId>& device_list() const noexcept {
    return borrowed_devices != nullptr ? *borrowed_devices : devices;
  }
};

/// Fleet roll-up: per-device aggregates (sorted by device) plus their
/// count-weighted merge.  Devices with no matching records are omitted.
struct FleetAggregate {
  std::vector<std::pair<DeviceId, DeviceAggregate>> per_device;
  DeviceAggregate merged;
  [[nodiscard]] bool empty() const noexcept { return per_device.empty(); }
};

/// Fleet current statistics: per-device RunningStats (sorted by device,
/// empty ones omitted) plus their merge.
struct FleetStats {
  std::vector<std::pair<DeviceId, util::RunningStats>> per_device;
  util::RunningStats merged;
};

/// Fleet scan: every matching record in (device, storage) order, with
/// per-device spans into the flat array.
struct FleetScan {
  struct DeviceSpan {
    DeviceId device;
    std::size_t offset = 0;
    std::size_t count = 0;
  };
  std::vector<ConsumptionRecord> records;
  std::vector<DeviceSpan> per_device;
};

/// Fleet downsample: per-device window arrays plus the fleet-wide merge by
/// window start (all devices share the t0-anchored grid).
struct FleetWindows {
  std::vector<std::pair<DeviceId, std::vector<WindowAggregate>>> per_device;
  std::vector<WindowAggregate> merged;
};

/// Fleet per-network usage: per-device breakdowns plus the merged totals
/// (billing's fleet read).
struct FleetBreakdown {
  std::vector<std::pair<DeviceId, std::map<NetworkId, NetworkUsage>>>
      per_device;
  std::map<NetworkId, NetworkUsage> merged;
  [[nodiscard]] double total_energy_mwh() const noexcept {
    double total = 0.0;
    for (const auto& [network, usage] : merged) {
      (void)network;
      total += usage.energy_mwh;
    }
    return total;
  }
};

class QueryEngine {
 public:
  explicit QueryEngine(const Tsdb& tsdb, QueryEngineOptions options = {});

  [[nodiscard]] std::size_t workers() const noexcept {
    return pool_.workers();
  }
  [[nodiscard]] const Tsdb& tsdb() const noexcept { return *tsdb_; }
  /// The engine's worker pool, shared with other shard-parallel folds over
  /// the same store (the rollup engine's window drains ride it).
  [[nodiscard]] const QueryPool& pool() const noexcept { return pool_; }

  /// Range roll-up per device + count-weighted fleet merge (verification
  /// windows, dashboards).
  [[nodiscard]] FleetAggregate aggregate(const QuerySpec& spec) const;
  /// Current mean/min/max per device + merged (dashboard reads).
  [[nodiscard]] FleetStats current_stats(const QuerySpec& spec) const;
  /// Every matching record in (device, storage) order.
  [[nodiscard]] FleetScan scan(const QuerySpec& spec) const;
  /// Fixed windows per device + fleet merge by window start; spec.window_ns
  /// must be positive.  spec.t0_overrides do not apply (see QuerySpec).
  [[nodiscard]] FleetWindows downsample(const QuerySpec& spec) const;
  /// Per-network subtotals from spec.t0_ns (+ per-device overrides) onward;
  /// spec.t1_ns and spec.filter do not apply (the store's breakdown is a
  /// dictionary read from a lower bound, matching Tsdb::network_breakdown).
  [[nodiscard]] FleetBreakdown network_breakdown(const QuerySpec& spec) const;

 private:
  /// Buckets an explicit device list by owning shard (sorted, deduped per
  /// bucket); bucket index == shard index.  The all-devices case never
  /// materializes buckets — per_device() iterates the shard maps in place.
  [[nodiscard]] std::vector<std::vector<DeviceId>> partition(
      const QuerySpec& spec) const;

  /// Runs `fn(device, ref)` for every spec device, one shard per pool task,
  /// and returns the non-nullopt results sorted by device id.  The ref is
  /// pre-resolved (falsy for unknown devices): the all-devices walk hands
  /// out each shard-map entry in place, so folds skip the lookup() re-hash
  /// entirely; explicit lists resolve each id once.
  template <typename T, typename Fn>
  [[nodiscard]] std::vector<std::pair<DeviceId, T>> per_device(
      const QuerySpec& spec, const Fn& fn) const;

  /// Records one finished query: latency histogram for its kind, plus the
  /// slow-query warning/counter when the threshold is set and exceeded.
  /// Safe from any number of concurrent query callers racing live ingest:
  /// histogram/counter records are lock-free atomics and the logger
  /// serializes emission internally (util/log.hpp) — nothing here assumes
  /// a single query thread.
  void finish_query(const char* kind, obs::Histogram h,
                    const obs::StopWatch& sw) const;

  const Tsdb* tsdb_;
  QueryPool pool_;
  std::uint64_t slow_query_ns_ = 0;
  obs::Histogram aggregate_ns_;
  obs::Histogram current_stats_ns_;
  obs::Histogram scan_ns_;
  obs::Histogram downsample_ns_;
  obs::Histogram breakdown_ns_;
  obs::Counter slow_queries_;
  util::Logger log_{"query-engine"};
};

}  // namespace emon::store
