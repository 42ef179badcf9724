#pragma once
// Incremental roll-up engine: materialized sliding-window aggregates
// maintained *at ingest*, so push-shaped consumers (billing previews,
// dashboard subscriptions) get each closed window without re-folding the
// same sealed segments on every poll.  Point-in-time reads (verification
// windows, billing, dashboards) go through store::QueryEngine instead.
//
// Model — panes, combined directly at each close:
//   * Event time is cut into panes of `slide_ns` anchored at `anchor_ns`.
//     Every accepted record lifts into its pane's partial aggregate
//     (quantized integer sums/min/max), so pane maintenance is O(1) per
//     record and order-independent: the partial a pane holds is
//     bit-identical whatever order its records arrived in.
//   * A window [E - W, E) is the combine of its W/S consecutive panes,
//     read straight from the pane ring when the window closes: O(W/S) pane
//     reads per series per close, one loop for tumbling (W == S, the
//     dashboard default) and sliding windows alike.  Ring slots per series
//     are capped at 64 ((W + L) / S + 4 <= 64), which bounds both a
//     rollup's memory (4 KB per series) and the fold.
//   * Windows close on the watermark (max ingested record timestamp — the
//     engine is ingest-driven, no wall clock): [E - W, E) closes once the
//     watermark passes E + lateness.  Late/out-of-order records whose last
//     containing window has not been emitted still fold into their pane;
//     when an emitted window already covered that pane (possible only when
//     sliding), the fold counts as a pane patch (RollupStats::pane_patches).
//     Records later than that are counted and dropped — the cold Tsdb query
//     path still has them, so exact answers remain available.
//
// Bit-parity contract (pinned by tests/test_rollup.cpp): a ClosedWindow's
// per-device aggregates and their merge are bit-identical to
// QueryEngine::aggregate over the same range/filter/device-set, because both
// sides fold the same quantized integer domain (store/segment.hpp scales)
// and merge per-device results in sorted device order with the shared
// merge_aggregate().
//
// Hot-path layout: per-rollup series state is keyed by the store's dense
// series ordinal (Tsdb::IngestHook reports it), and each Tsdb shard keeps
// its panes in one flat slot-major arena (pane slot s of series i lives at
// s*stride + i, so a fleet reporting round-robin inside a pane walks
// consecutive 64-byte lines the stream prefetcher hides) — no device-id
// hashing or pointer chains per record; a window close reads each of its
// panes as one contiguous row of that arena.
// Per-network subtotals (the emitted breakdown is merged across devices)
// live off the per-series line, in one rollup-global pane ring whose slot
// is shared by every device in a pane — a few hundred bytes that stay
// cache-hot.  Network names are interned into a per-rollup dictionary; each
// ring slot holds two inline interned subtotals and spills rarer mixes to a
// side vector.
//
// Sharding/threading: the per-shard arenas follow the owning Tsdb's shard
// map, so window folds can ride a QueryPool exactly like fleet queries
// (disjoint shards per worker, merge on the caller).  The engine is
// owner-thread state: on_ingest runs on the Tsdb's single ingest thread
// (it is the ingest hook), and register/unregister/drain/watermark must run
// on that same thread (or strictly before/after it, as the serving
// pipeline's flush() arranges) — the MVCC store lets *queries* race ingest,
// not the rollup engine's own mutable state.  The whole mutating surface
// carries EMON_OWNER_THREAD (util/thread_annotations.hpp); tools/emon_lint.py
// rejects calls from functions that are not themselves owner-thread or a
// sanctioned worker body.  Backfill reads the store through the ingest
// thread's guard exemption (store/tsdb.hpp); drains on a pool only ever
// touch disjoint shards.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "store/query_engine.hpp"
#include "store/tsdb.hpp"
#include "util/thread_annotations.hpp"

namespace emon::store {

/// One registered materialized roll-up: window geometry, lateness horizon,
/// device scope and record filter.
struct RollupSpec {
  /// Window width; every closed window spans [E - window_ns, E).
  std::int64_t window_ns = 0;
  /// Slide between window ends (also the pane width).  Must divide
  /// window_ns.
  std::int64_t slide_ns = 0;
  /// Lateness horizon: [E - W, E) closes when the watermark reaches
  /// E + lateness_ns; records arriving later than their last containing
  /// window's close fall through to the cold query path.
  std::int64_t lateness_ns = 0;
  /// Window ends are anchored at anchor_ns + k * slide_ns.
  std::int64_t anchor_ns = 0;
  /// Devices to maintain; empty = every device the store ingests.
  std::vector<DeviceId> devices;
  RecordFilter filter;

  [[nodiscard]] bool valid() const noexcept;
  friend bool operator==(const RollupSpec&, const RollupSpec&) = default;
};

/// One emitted window: per-device aggregates (sorted by device), their
/// count-weighted merge, and the merged per-network usage — the same shapes
/// the cold fleet query surface produces.
struct ClosedWindow {
  std::uint64_t rollup_id = 0;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::vector<std::pair<DeviceId, DeviceAggregate>> per_device;
  DeviceAggregate merged;
  std::map<NetworkId, NetworkUsage> breakdown;

  [[nodiscard]] bool empty() const noexcept { return per_device.empty(); }
};

struct RollupStats {
  std::uint64_t records_folded = 0;
  /// Matching records whose last containing window was already emitted —
  /// they fall through to the cold query path.  Split by cause below (the
  /// three always sum to it): flushed from a device's offline buffer;
  /// otherwise reported under temporary membership (a roamed slice);
  /// otherwise a live home record that still came too late.
  std::uint64_t records_dropped_late = 0;
  std::uint64_t late_stored_offline = 0;
  std::uint64_t late_temporary = 0;
  std::uint64_t late_other = 0;
  /// Live folds into a pane that an already-emitted window covered: the
  /// record still reaches the later windows containing its pane, but not
  /// the emitted ones.  Always 0 for tumbling rollups; backfill counts none.
  std::uint64_t pane_patches = 0;
  std::uint64_t windows_closed = 0;
  /// Windows skipped by the runaway-gap guard (watermark jumped more than
  /// kMaxWindowsPerDrain slides at once; skipped spans stay cold-queryable).
  std::uint64_t windows_skipped = 0;
  std::uint64_t backfilled_records = 0;
};

/// The engine: owns every registered rollup, bound to a Tsdb as its ingest
/// hook.  Registration backfills open panes from the store, so a rollup
/// registered mid-stream starts exact.
class RollupEngine final : public Tsdb::IngestHook {
 public:
  /// `metrics` (optional) receives engine-level mirrors of the hot
  /// per-rollup counters — rollup_records_folded / rollup_records_dropped_late
  /// (split as rollup_late_dropped{cause="stored_offline|temporary|other"})
  /// / rollup_windows_closed, summed across rollups (live ingest only;
  /// backfill is excluded).  The authoritative per-rollup numbers stay in
  /// RollupStats.
  explicit RollupEngine(const Tsdb& tsdb,
                        obs::MetricsRegistry* metrics = nullptr);
  ~RollupEngine();

  RollupEngine(const RollupEngine&) = delete;
  RollupEngine& operator=(const RollupEngine&) = delete;

  /// Registers a rollup and backfills it from the store.  Throws
  /// std::invalid_argument on an invalid spec.  Returns the rollup id.
  std::uint64_t register_rollup(RollupSpec spec) EMON_OWNER_THREAD;
  /// Removes a rollup; pending un-drained windows are discarded.
  void unregister(std::uint64_t id) EMON_OWNER_THREAD;

  /// Tsdb::IngestHook — folds one accepted record into every matching
  /// rollup's pane ring and advances the watermark.  Per-rollup series
  /// state is keyed by the store's dense series ordinal, so the hot path
  /// is a table index, not a device-id hash/compare per record.
  void on_ingest(const ConsumptionRecord& record, std::size_t shard,
                 std::uint64_t series_ordinal) override EMON_OWNER_THREAD
      EMON_HOT;

  /// Emits every window closeable at the current watermark (plus any
  /// force-drained backlog), oldest first; a window with no matching
  /// records is closed but not emitted.  With a pool, per-shard series
  /// folds run on the pool's workers (disjoint shards, merge on the
  /// caller) — results are bit-identical for any worker count.
  [[nodiscard]] std::vector<ClosedWindow> drain(
      std::uint64_t id, const QueryPool* pool = nullptr) EMON_OWNER_THREAD;

  [[nodiscard]] const RollupSpec* spec(std::uint64_t id) const;
  [[nodiscard]] const RollupStats* stats(std::uint64_t id) const;
  [[nodiscard]] std::size_t rollup_count() const noexcept {
    return rollups_.size();
  }
  /// Watermark (max ingested record timestamp) driving a rollup's closes;
  /// nullopt before the first record.
  [[nodiscard]] std::optional<std::int64_t> watermark(std::uint64_t id) const
      EMON_OWNER_THREAD;

 private:
  struct PanePartial;
  struct Pane;
  struct ShardState;
  struct Rollup;

  [[nodiscard]] Rollup* find(std::uint64_t id) noexcept;
  [[nodiscard]] const Rollup* find(std::uint64_t id) const noexcept;

  /// Advances next_close_E past every closeable window, appending emitted
  /// windows to r.pending (the runaway-gap guard skips instead of flooding).
  void drain_closes(Rollup& r, const QueryPool* pool);
  /// Folds one window [E - W, E) across every series of `r`.
  [[nodiscard]] ClosedWindow fold_window(Rollup& r, std::int64_t end_ns,
                                         const QueryPool* pool);
  void backfill(Rollup& r);
  /// Counts one late drop in the rollup's stats and the registry mirrors,
  /// under its cause.
  void drop_late(Rollup& r, const ConsumptionRecord& record) EMON_OWNER_THREAD
      EMON_HOT;

  const Tsdb* tsdb_;
  std::vector<std::unique_ptr<Rollup>> rollups_;
  std::uint64_t next_id_ = 1;
  // Engine-level registry mirrors (no-ops when unbound).
  obs::Counter records_folded_;
  obs::Counter records_dropped_late_;
  obs::Counter late_stored_offline_;
  obs::Counter late_temporary_;
  obs::Counter late_other_;
  obs::Counter windows_closed_;
};

}  // namespace emon::store
