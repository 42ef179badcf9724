#pragma once
// Aggregator-side embedded time-series database for consumption records.
//
// Series are sharded by DeviceId (stable hash), one shard owning a map of
// device -> { open columnar head chunk, sealed columnar segments }.  Every
// record an aggregator accepts is ingested here (with per-device sequence
// dedup), which makes the store the single source of truth for historical
// reads: billing breakdowns, verification-window demand, demand forecasting
// inputs and dashboard queries ("energy for device D over [t0, t1)") are all
// answered from store queries instead of ad-hoc accumulators.
//
// Query surface: store/query_engine.hpp is the one read path, for one device
// or the fleet.  It resolves each device to a SeriesRef (lookup() or the
// shard walk) and runs one of five per-series folds on it:
//   scan()              time-range scan; materializes only matching records
//   downsample()        fixed windows: avg/max current, energy sum per window
//   aggregate()         per-device totals over a range, optionally filtered
//                       (verification reads); fully-covered sealed segments
//                       under an empty filter are answered from their
//                       summary block alone
//   current_stats()     filtered mean/min/max of current (dashboard reads)
//   network_breakdown() per-network record/energy subtotals (billing reads),
//                       answered from segment dictionaries; only segments
//                       straddling the bound decode
//
// All five run one range fold (fold_range below) over the stored form:
// sealed segments through Segment::fold, which decodes only the columns the
// query reads (store/segment.hpp lists them per kind) and only the restart
// blocks whose bounds overlap the range, and the open head straight from
// its quantized columns, binary-searching its sorted prefix and checking
// only the unsorted suffix record by record.  The fold hands each
// in-range, filter-passing record to the query as a StoredRecord of
// quantized integers, in storage order whichever records it skipped; the
// double-valued kinds see dequantize(q), which is exactly the
// current_ma/energy_mwh a materialized record carries, so answers are
// bit-identical to folding materialized records.
//
// Timestamps are the records' device-RTC timestamps (ns); ranges are
// half-open [t0, t1).  Out-of-order arrivals (offline flushes, roamed
// batches) are fine: summaries track true min/max and scans filter
// per-record.
//
// Threading — MVCC with epoch-protected snapshots (store/mvcc.hpp holds the
// memory-order contract).  These rules are no longer prose-only: the writer
// surface carries EMON_OWNER_THREAD (tools/emon_lint.py checks every caller
// is an owner-thread function or a sanctioned worker body), and the lint's
// guard-escape rule rejects code that stores a SeriesView/SeriesRef/
// ShardIndex pointer beyond its ReadGuard's scope — see
// util/thread_annotations.hpp and the README's "Static analysis" section.
//   * Ingest is single-writer: exactly one thread may call ingest() (and
//     set_ingest_hook).  The fast path takes no locks — ColumnChunk::put
//     writes the record into the open head chunk's pre-sized quantized
//     columns, and one release store publishes the new record count.
//     Before that store it also advances the chunk's sorted_prefix
//     (relaxed; the leading records whose timestamps never decrease) while
//     the new record keeps the head in order.  A full head is sealed by
//     encoding that chunk's columns directly (ColumnChunk::seal, the one
//     encoder SegmentBuilder also uses).
//   * Queries run concurrently with ingest and with each other, on any
//     number of threads.  All reader-visible state is immutable once
//     published: sealed segments never change; the open head is append-only
//     (a reader uses the count it captured, never more); series views and
//     shard indexes are replaced wholesale via single seq_cst pointer
//     publishes and the old objects retired to an EpochDomain, freed only
//     after every reader that could hold them has unpinned.
//   * A reader pins the domain with read_guard() for the duration of one
//     query.  The SeriesRef-based folds require the *caller* to hold a
//     guard across both the ref acquisition and every use (or to be the
//     ingest thread, which never races itself).  A SeriesRef is a captured
//     snapshot: the records it exposes are frozen at acquisition ("the
//     cut"), no matter how much ingest lands afterwards.
//   * What readers may observe mid-ingest: a consistent per-series prefix —
//     all sealed segments of the captured view plus the first
//     `head_visible` records of its open head, which together are exactly
//     the first visible_records(ref) accepted records of that device, in
//     acceptance order.  sorted_prefix only grows within a chunk and every
//     value it held stays true, so a reader clamps whatever it loads to its
//     own head_visible and never needs it ordered against the count.  Readers never see a torn record, a half-built
//     segment, or a series mid-rebalance.  Two refs captured in one guard
//     (one fleet query) may sit at different per-device cuts; per-device
//     answers compose deterministically from per-device cuts.
//   * stats()/observed_max_ts()/series_total() are safe from any thread
//     (atomic counters; values are exact once the writer quiesces).

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "store/mvcc.hpp"
#include "store/segment.hpp"
#include "util/contracts.hpp"
#include "util/stats.hpp"
#include "util/thread_annotations.hpp"

namespace emon::store {

struct TsdbOptions {
  /// Number of device shards (a stable hash of the DeviceId picks one).
  std::size_t shards = 8;
  /// Records per sealed segment.
  std::size_t seal_threshold = 256;
  /// Registry the store's counters live in (tsdb_records_ingested,
  /// tsdb_segments_pruned, ... recorded at slot = shard).  Null makes the
  /// store own a private registry, so standalone stores keep full stats().
  obs::MetricsRegistry* metrics = nullptr;
};

/// One downsampling window's pre-aggregated answer.
struct WindowAggregate {
  std::int64_t start_ns = 0;
  std::uint64_t count = 0;
  double avg_current_ma = 0.0;
  double max_current_ma = 0.0;
  double sum_energy_mwh = 0.0;
};

/// Per-device roll-up over a query range.
struct DeviceAggregate {
  std::uint64_t count = 0;
  std::int64_t t_min_ns = 0;
  std::int64_t t_max_ns = 0;
  double min_current_ma = 0.0;
  double max_current_ma = 0.0;
  double avg_current_ma = 0.0;
  double sum_energy_mwh = 0.0;
};

/// Per-network usage subtotal (billing's unit of account).
struct NetworkUsage {
  std::uint64_t records = 0;
  double energy_mwh = 0.0;
};

/// Count-weighted fold of one device aggregate into a running fleet merge.
/// Shared by the query engine and the rollup engine: fleet merges are
/// double arithmetic, so both sides must run the *same* fold in the same
/// (sorted-device) order for maintained push results to be bit-identical
/// to cold fleet queries.
void merge_aggregate(DeviceAggregate& into, const DeviceAggregate& from);

/// Record predicate for filtered queries.
struct RecordFilter {
  /// Only records reported at this grid-location.
  std::optional<NetworkId> network;
  /// Only live (false) or only offline-buffered (true) records.
  std::optional<bool> stored_offline;

  /// An empty filter matches everything — summary-only fast paths apply.
  [[nodiscard]] bool empty() const noexcept {
    return !network && !stored_offline;
  }
  [[nodiscard]] bool matches(const ConsumptionRecord& r) const noexcept {
    return (!network || r.network == *network) &&
           (!stored_offline || r.stored_offline == *stored_offline);
  }
  friend bool operator==(const RecordFilter&, const RecordFilter&) = default;
};

/// Folded view of the store's registry counters (stats() shim — the
/// counters themselves live in the obs registry, sharded per Tsdb shard so
/// pool workers on disjoint shards never write a shared cache line).
/// Readable from any thread; relaxed counter folds, exact once the writer
/// quiesces.
struct TsdbStats {
  std::uint64_t records_ingested = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t segments_sealed = 0;
  /// Encoded segment bytes plus their in-memory restart indexes.
  std::size_t sealed_bytes = 0;
  std::size_t devices = 0;
  /// Sealed segments skipped by summary pruning across all queries
  /// (folded from the per-shard counters).
  std::uint64_t segments_pruned = 0;
  /// Aggregate queries answered (partly) from summary blocks alone.
  std::uint64_t summary_hits = 0;
  /// Restart blocks of decoded segments whose bounds missed the range.
  std::uint64_t blocks_skipped = 0;
  /// Records the range folds read: sealed records decoded plus head
  /// records checked.
  std::uint64_t records_decoded = 0;
};

class Tsdb {
  struct HeadChunk;
  struct SeriesView;
  struct SeriesHandle;
  struct ShardIndex;
  struct WriterSeries;

 public:
  explicit Tsdb(TsdbOptions options = {});
  ~Tsdb();

  Tsdb(const Tsdb&) = delete;
  Tsdb& operator=(const Tsdb&) = delete;

  /// Ingest observer: called once per *accepted* record (after dedup and
  /// append) with the owning shard index and the series' dense ordinal —
  /// the rollup engine's maintenance entry point.  Ordinals are assigned
  /// 0, 1, 2, ... in series-creation order and never reused, so a hook can
  /// key per-series state by a vector index instead of re-hashing the
  /// device id on every record.  Runs on the ingest thread; the hook must
  /// not call back into this Tsdb's mutating API.
  class IngestHook {
   public:
    virtual ~IngestHook() = default;
    /// Owner-thread by inheritance: the store invokes the hook from
    /// ingest(), so every override runs on the ingest thread.  EMON_HOT by
    /// inheritance too — the hook fires once per accepted record, inside
    /// the ingest fast path, so overrides carry the same zero-allocation /
    /// no-throw / no-lock contract (annotate the override as well: the
    /// lint resolves annotations per declaration, not through the vtable).
    virtual void on_ingest(const ConsumptionRecord& record, std::size_t shard,
                           std::uint64_t series_ordinal)
        EMON_OWNER_THREAD EMON_HOT = 0;
  };
  /// At most one hook; nullptr detaches.  Not owned.  Ingest-thread only,
  /// and only while no ingest is in flight.
  void set_ingest_hook(IngestHook* hook) noexcept EMON_OWNER_THREAD {
    hook_ = hook;
  }

  /// Reader pin for the SeriesRef-based query surface (see the threading
  /// contract above).  Hold the returned guard across lookup()/
  /// for_each_series_in_shard() and every use of the refs they yield.
  [[nodiscard]] ReadGuard read_guard() const { return epochs_.pin(); }

  /// Opaque handle to one captured series snapshot inside its shard.  A
  /// fleet query iterating a shard already holds the series — the folds
  /// below take it directly instead of re-hashing the device id through
  /// lookup().  Valid while the guard it was captured under stays pinned
  /// (the ingest thread needs no guard); the data it exposes is frozen at
  /// capture.
  class SeriesRef {
   public:
    SeriesRef() = default;
    [[nodiscard]] explicit operator bool() const noexcept {
      return view != nullptr;
    }

   private:
    friend class Tsdb;
    SeriesRef(const SeriesView* v, std::uint32_t visible,
              std::size_t shard_index)
        : view(v), head_visible(visible), shard(shard_index) {}
    const SeriesView* view = nullptr;
    /// Open-head records visible at capture (acquire-loaded count).
    std::uint32_t head_visible = 0;
    /// Owning shard — the registry slot query counters record into.
    std::size_t shard = 0;
  };

  /// Ingests one record; returns false when the device's sequence was
  /// ingested before, however long ago.  Single-writer: one thread only.
  /// EMON_HOT: the steady-state path (no first-seen device, no new sequence
  /// hole, no chunk growth, no seal) performs zero heap allocations per
  /// record — tools/emon_lint.py checks the body statically
  /// and tests/test_hot_alloc.cpp counts operator new at runtime.
  bool ingest(const ConsumptionRecord& record) EMON_OWNER_THREAD EMON_HOT;

  [[nodiscard]] bool has_device(const DeviceId& id) const;
  [[nodiscard]] std::vector<DeviceId> devices() const;

  /// Resolves a device to its captured series snapshot (falsy ref when
  /// absent) — one hash + binary search, after which the folds below are
  /// hash-free.  Caller must hold a read_guard() (the ingest thread is
  /// exempt).
  [[nodiscard]] SeriesRef lookup(const DeviceId& id) const;
  /// Visits every series owned by shard `shard` in sorted device order —
  /// the fleet engine's all-devices fold: one index walk hands out each
  /// ref, with no per-device re-hash through lookup().  Pins internally;
  /// the refs handed to `fn` are valid only during that call.
  void for_each_series_in_shard(
      std::size_t shard,
      const std::function<void(const DeviceId&, SeriesRef)>& fn) const;

  /// The per-series folds QueryEngine runs for each device.  A falsy ref
  /// folds nothing.  Caller holds the guard the ref was captured under.
  ///
  /// All records with timestamp in [t0, t1), in storage order.
  [[nodiscard]] std::vector<ConsumptionRecord> scan(
      SeriesRef ref, std::int64_t t0_ns, std::int64_t t1_ns,
      const RecordFilter& filter = {}) const;
  /// Splits [t0, t1) into fixed `window_ns` buckets and aggregates each
  /// (records land by timestamp).  Empty windows inside the covered span are
  /// included with count 0.  The range is clamped to the series' observed
  /// [t_min, t_max] bounds before the window array is sized — a sentinel
  /// full-range query (t0 = INT64_MIN, t1 = INT64_MAX) must not size windows
  /// off the int64 extremes — with the grid still anchored at t0: the
  /// clamped start is the last window boundary at or below the first record.
  /// Observed timestamps are unvalidated device clocks, so the clamp alone
  /// cannot bound the allocation: a query that would still materialize more
  /// than 2^20 windows returns empty instead.
  [[nodiscard]] std::vector<WindowAggregate> downsample(
      SeriesRef ref, std::int64_t t0_ns, std::int64_t t1_ns,
      std::int64_t window_ns, const RecordFilter& filter = {}) const;
  /// Range roll-up over records matching `filter` (nullopt when none
  /// match); under an empty filter, sealed segments fully inside the range
  /// are answered from their summary without decoding (a non-empty filter
  /// still prunes by time but must decode matching segments).
  [[nodiscard]] std::optional<DeviceAggregate> aggregate(
      SeriesRef ref, std::int64_t t0_ns, std::int64_t t1_ns,
      const RecordFilter& filter = {}) const;
  /// Mean/min/max of current over matching records (dashboard reads).
  [[nodiscard]] util::RunningStats current_stats(
      SeriesRef ref, std::int64_t t0_ns, std::int64_t t1_ns,
      const RecordFilter& filter = {}) const;
  /// Per-network record/energy subtotals from `from_ns` onward (whole
  /// history by default).  Segments entirely past the bound are answered
  /// from their dictionaries (no column decode); only straddlers decode.
  [[nodiscard]] std::map<NetworkId, NetworkUsage> network_breakdown(
      SeriesRef ref, std::int64_t from_ns = INT64_MIN) const;

  /// Records frozen into this ref's snapshot: the device's first
  /// visible_records accepted records, in acceptance order — the cut a
  /// differential test replays to reproduce this ref's answers exactly.
  [[nodiscard]] std::uint64_t visible_records(SeriesRef ref) const noexcept;

  /// Max record timestamp ever ingested (nullopt while empty) — the
  /// watermark seed for rollups registered against a non-empty store.
  /// Safe from any thread.
  [[nodiscard]] std::optional<std::int64_t> observed_max_ts() const noexcept {
    const std::int64_t t = max_ingested_ts_.load(std::memory_order_relaxed);
    if (t == INT64_MIN) {
      return std::nullopt;
    }
    return t;
  }

  /// The creation-order ordinal on_ingest reports for this series — lets a
  /// hook rebuild its ordinal-keyed state from existing series (backfill).
  /// Falsy refs are invalid here.
  [[nodiscard]] std::uint64_t series_ordinal(SeriesRef ref) const noexcept;
  /// Ordinals handed out so far (== series ever created) — the size a hook
  /// needs for an ordinal-indexed table.  Safe from any thread.
  [[nodiscard]] std::uint64_t series_total() const noexcept {
    return next_ordinal_.load(std::memory_order_relaxed);
  }

  /// Ingest-side counters plus the per-shard query counters folded on read.
  [[nodiscard]] TsdbStats stats() const;
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::size_t shard_of(const DeviceId& id) const noexcept;

 private:
  /// Shard-local storage.  The series map and segment deque are
  /// writer-only; readers go through the published `index`.  The deque
  /// gives sealed segments stable addresses for the lifetime of the store,
  /// so views can hold plain pointers and only the (small) view/chunk/index
  /// objects ever need epoch reclamation.
  struct Shard {
    std::map<DeviceId, WriterSeries> series;
    std::deque<Segment> segments;
    std::atomic<const ShardIndex*> index{nullptr};
  };

  [[nodiscard]] static SeriesRef capture(const SeriesHandle& handle,
                                         std::size_t shard_index) noexcept;
  /// Storage-order index range [lo, hi) of sealed segments a query over the
  /// closed range [first, last] must visit.  Time-ordered series
  /// binary-search it (everything outside is non-overlapping by
  /// construction); unordered series get the full range and keep their
  /// per-segment overlap checks.
  [[nodiscard]] static std::pair<std::size_t, std::size_t> sealed_overlap_range(
      const SeriesView& view, std::int64_t first_ns, std::int64_t last_ns);
  /// The range fold behind every query kind.  Calls
  /// `on_record(const StoredRecord&)` for every record of `ref` with
  /// timestamp in the closed range [first, last] that passes `filter`:
  /// sealed segments in storage order, then the visible head prefix.
  ///   * `Columns` names what on_record reads beyond timestamp, current and
  ///     energy; the fold adds network/flags itself when the filter needs
  ///     them, and decodes nothing else.
  ///   * Sealed segments whose summary cannot overlap are pruned, and so
  ///     are segments whose dictionary lacks a filtered network (both
  ///     counted at the owning shard's registry slot).
  ///   * `on_summary` (or nullptr): under an empty filter, a segment wholly
  ///     inside the range is handed over as `on_summary(const
  ///     SegmentSummary&)` instead of being decoded (a summary hit).
  ///   * Inside a segment that is neither pruned nor a summary hit, only
  ///     the restart blocks overlapping the range decode (Segment::fold);
  ///     the others count as blocks_skipped.
  ///   * Head records are read straight from the chunk's columns: the
  ///     sorted prefix by binary search, the suffix record by record.  A
  ///     network filter reads a dictionary slot only when a visible record
  ///     references it, so it never touches a slot the writer has not
  ///     published.
  ///   * records_decoded counts the sealed records decoded plus the head
  ///     records checked, added once per call.
  /// Half-open [t0, t1) queries go through fold_half_open().
  template <unsigned Columns, typename OnRecord, typename OnSummary>
  void fold_range(SeriesRef ref, std::int64_t first_ns, std::int64_t last_ns,
                  const RecordFilter& filter, OnSummary&& on_summary,
                  OnRecord&& on_record) const;
  /// fold_range over the half-open [t0, t1); an empty range folds nothing
  /// (every sealed segment counts as pruned).
  template <unsigned Columns, typename OnRecord, typename OnSummary>
  void fold_half_open(SeriesRef ref, std::int64_t t0_ns, std::int64_t t1_ns,
                      const RecordFilter& filter, OnSummary&& on_summary,
                      OnRecord&& on_record) const;
  /// Observed [t_min, t_max] over sealed summaries and the visible head
  /// prefix; nullopt for an empty snapshot.
  [[nodiscard]] static std::optional<std::pair<std::int64_t, std::int64_t>>
  observed_bounds(SeriesRef ref);
  /// Replaces a series' published view (with a new head chunk) and retires
  /// the old view and its chunk.
  void publish_view(WriterSeries& w, const SeriesView* next);
  /// A fresh open chunk at the initial capacities.
  [[nodiscard]] HeadChunk* new_head() const;
  /// Grows the open chunk by replacement, to fit the next row and its
  /// dictionary index `network` (ColumnChunk's growth copy).
  void grow_chunk(WriterSeries& w, std::uint32_t network);
  /// Seals the full open chunk into a segment and publishes the new view.
  void seal_head(Shard& shard, WriterSeries& w);
  /// First-seen-device cold branch of ingest(): allocates the initial
  /// chunk/view and republishes the shard index.  Split out of the EMON_HOT
  /// fast path so the per-record body stays allocation-free.  `id` is the
  /// series map's key, whose address the view keeps.
  void init_series(Shard& shard, WriterSeries& w, const DeviceId& id);

  TsdbOptions options_;
  /// deque: Shard embeds an atomic (non-movable) and needs a stable address.
  std::deque<Shard> shards_;
  EpochDomain epochs_;
  /// Private registry when TsdbOptions::metrics is null.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  // Registry handles (counters are always-on; stats() folds them back into
  // the TsdbStats shim).  Ingest-side counters record at slot 0 (ingest is
  // single-writer); query-side ones at the owning shard's slot — and may be
  // bumped by any number of concurrent readers (relaxed per-slot atomics).
  obs::Counter records_ingested_;
  obs::Counter duplicates_dropped_;
  obs::Counter segments_sealed_;
  obs::Counter sealed_bytes_;
  obs::Counter devices_;
  obs::Counter segments_pruned_;
  obs::Counter summary_hits_;
  obs::Counter blocks_skipped_;
  obs::Counter records_decoded_;
  IngestHook* hook_ = nullptr;
  /// INT64_MIN = nothing ingested (a real INT64_MIN device clock would be
  /// indistinguishable — and is already rejected upstream as insane).
  std::atomic<std::int64_t> max_ingested_ts_{INT64_MIN};
  std::atomic<std::uint64_t> next_ordinal_{0};
};

}  // namespace emon::store
