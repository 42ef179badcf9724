#include "store/tsdb.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace emon::store {

namespace {
/// Hard cap on windows a single downsample may materialize (~59 MB of
/// WindowAggregate worst case).  Observed timestamps are unvalidated device
/// RTC readings, so clamping the range to them is not enough: one corrupt
/// or adversarial clock near INT64_MAX would still size an OOM allocation.
/// A query wider than this returns empty rather than degrading silently.
constexpr std::uint64_t kMaxWindowsPerQuery = 1ULL << 20;

/// First open-chunk capacity.  Chunks grow geometrically by replacement up
/// to the seal threshold, so a 10k-device fleet does not pre-pay a full
/// head's columns per device the moment each device first reports.
constexpr std::uint32_t kInitialChunkCapacity = 16;
/// First open-chunk network-dictionary capacity (devices report on one or
/// two grids; roamers a handful).  Grows by replacement like the columns.
constexpr std::uint32_t kInitialDictCapacity = 4;

/// Stable FNV-1a so shard placement is identical across runs and builds
/// (std::hash<std::string> makes no such promise).
std::size_t fnv1a(const std::string& s) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return static_cast<std::size_t>(h);
}
}  // namespace

// ---------------------------------------------------------------------------
// Snapshot objects.  All are immutable once published (the head chunk's
// columns are append-only: slots at index < count never change, and count
// only grows) — see the threading contract in tsdb.hpp / store/mvcc.hpp.
// ---------------------------------------------------------------------------

/// Open head of one series: a ColumnChunk the single writer puts into, plus
/// a release-published record count.  A reader works against the count it
/// acquired at capture; rows (and the dictionary slots they reference)
/// below that count were fully written before the count store, so
/// release/acquire on `count` is the only synchronization the data path
/// needs.  `sorted_prefix` counts the leading records whose timestamps
/// never decrease; it only grows within a chunk and any value it ever held
/// stays true, so a reader clamps it to its own count and binary-searches
/// that prefix.
struct Tsdb::HeadChunk : ColumnChunk {
  using ColumnChunk::ColumnChunk;

  std::atomic<std::uint32_t> count{0};
  std::atomic<std::uint32_t> sorted_prefix{0};

  /// Sorted leading records a reader that captured `visible` may search.
  [[nodiscard]] std::uint32_t sorted(std::uint32_t visible) const noexcept {
    return std::min(sorted_prefix.load(std::memory_order_relaxed), visible);
  }
};

/// One series' published snapshot: the sealed-segment list (with its time
/// index) and the current open chunk.  Replaced wholesale on seal and on
/// chunk growth, so one seq_cst pointer load gives a reader a consistent
/// (sealed, head) pair.
struct Tsdb::SeriesView {
  std::vector<const Segment*> sealed;
  /// Time index over `sealed` (parallel arrays of summary t_min/t_max, one
  /// entry per segment).  While both stay non-decreasing seal-to-seal
  /// (`time_ordered`), a range query binary-searches the contiguous
  /// overlapping run instead of walking every summary; one out-of-order
  /// seal (offline flush, roamed batch) drops that series back to the
  /// linear walk for good — correctness never depends on the index.
  std::vector<std::int64_t> seg_t_min;
  std::vector<std::int64_t> seg_t_max;
  bool time_ordered = true;
  /// Records in `sealed` combined (the head adds `head_visible` more).
  std::uint64_t sealed_records = 0;
  /// Dense creation-order index reported to the ingest hook.
  std::uint64_t ordinal = 0;
  /// The writer map's key (address-stable, never erased).
  const DeviceId* device = nullptr;
  const HeadChunk* head = nullptr;
};

/// Stable per-series cell the published pointers live in (address-stable in
/// its map node for the store's lifetime, so indexes can point at it).
struct Tsdb::SeriesHandle {
  std::atomic<const SeriesView*> view{nullptr};
};

/// Published per-shard series index: sorted (device -> handle) pairs.  The
/// id pointers alias the writer map's keys (address-stable, never erased);
/// the vector itself is immutable — device creation publishes a successor.
struct Tsdb::ShardIndex {
  std::vector<std::pair<const DeviceId*, const SeriesHandle*>> entries;
};

/// Exact per-device sequence dedup: the accepted sequences as sorted,
/// disjoint, non-adjacent runs [first, last].  A device numbers its records
/// contiguously, so there is one run while records arrive in order and one
/// more per hole a late batch (offline backlog, roamed slice) has not yet
/// filled; filling a hole merges its two neighbours.  Memory is one run per
/// open hole, not one entry per record, and a resend is caught however many
/// newer sequences came in between.  It must be: this verdict is the
/// aggregator's only dedup and so decides what reaches its chain, and a
/// report whose PUBACK was lost re-queues behind the rest of a device's
/// offline backlog (up to local_store_capacity records).
/// The common arrival extends the newest run in O(1); any other is a binary
/// search over the runs.  Only a new hole grows the vector (cold: add_run);
/// extending, merging and dropping a duplicate never allocate.
class SequenceDedup {
 public:
  /// True when `seq` was never admitted before (accept the record), false
  /// for a duplicate.
  EMON_HOT bool admit(std::uint64_t seq) {
    if (!runs_.empty() && seq >= runs_.back().first) {
      Run& newest = runs_.back();
      if (seq <= newest.last) {
        return false;
      }
      if (seq == newest.last + 1) {
        newest.last = seq;
      } else {
        add_run(runs_.size(), seq);
      }
      return true;
    }
    // Below the newest run: find the first run that starts after `seq`.
    std::size_t lo = 0;
    std::size_t hi = runs_.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (runs_[mid].first <= seq) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo > 0 && seq <= runs_[lo - 1].last) {
      return false;
    }
    const bool joins_prev = lo > 0 && runs_[lo - 1].last + 1 == seq;
    const bool joins_next = lo < runs_.size() && runs_[lo].first == seq + 1;
    if (joins_prev && joins_next) {
      merge_with_prev(lo);
    } else if (joins_prev) {
      runs_[lo - 1].last = seq;
    } else if (joins_next) {
      runs_[lo].first = seq;
    } else {
      add_run(lo, seq);
    }
    return true;
  }

 private:
  struct Run {
    std::uint64_t first;
    std::uint64_t last;
  };

  /// Cold: a new hole, so a new run {seq, seq} at position `at`.
  void add_run(std::size_t at, std::uint64_t seq) {
    runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(at),
                 Run{seq, seq});
  }
  /// The hole between runs `at - 1` and `at` is filled: they become one.
  void merge_with_prev(std::size_t at) {
    runs_[at - 1].last = runs_[at].last;
    runs_.erase(runs_.begin() + static_cast<std::ptrdiff_t>(at));
  }

  std::vector<Run> runs_;
};

/// Writer-only per-series state (map value).  Everything a reader needs
/// lives behind `handle`; the rest is the ingest thread's private
/// bookkeeping.
struct Tsdb::WriterSeries {
  SeriesHandle handle;
  /// The writer's pointer to the current open chunk (== view->head).
  HeadChunk* chunk = nullptr;
  /// Writer mirrors of the chunk's fill (no atomic re-loads on the fast
  /// path).
  std::uint32_t count = 0;
  std::uint32_t dict_size = 0;
  /// Per-device dedup over (sequence) — retransmissions and probe/backlog
  /// overlaps must not double-count history.
  SequenceDedup dedup;
  std::uint64_t ordinal = 0;
};

// ---------------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------------

Tsdb::Tsdb(TsdbOptions options) : options_(options) {
  if (options_.shards == 0 || options_.seal_threshold == 0) {
    throw std::invalid_argument("Tsdb needs positive shards/seal_threshold");
  }
  for (std::size_t s = 0; s < options_.shards; ++s) {
    Shard& shard = shards_.emplace_back();
    shard.index.store(new ShardIndex{}, std::memory_order_relaxed);
  }
  obs::MetricsRegistry* reg = options_.metrics;
  if (reg == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>(options_.shards);
    reg = owned_metrics_.get();
  }
  records_ingested_ = reg->counter("tsdb_records_ingested");
  duplicates_dropped_ = reg->counter("tsdb_duplicates_dropped");
  segments_sealed_ = reg->counter("tsdb_segments_sealed");
  sealed_bytes_ = reg->counter("tsdb_sealed_bytes");
  devices_ = reg->counter("tsdb_devices");
  segments_pruned_ = reg->counter("tsdb_segments_pruned");
  summary_hits_ = reg->counter("tsdb_summary_hits");
  blocks_skipped_ = reg->counter("tsdb_blocks_skipped");
  records_decoded_ = reg->counter("tsdb_records_decoded");
}

Tsdb::~Tsdb() {
  // No reader may be pinned at destruction (standard lifetime rule).  Free
  // the *current* published objects here; everything older sits on the
  // retired list and drains with the epoch domain.
  for (Shard& shard : shards_) {
    delete shard.index.load(std::memory_order_relaxed);
    for (auto& [id, w] : shard.series) {
      const SeriesView* view = w.handle.view.load(std::memory_order_relaxed);
      delete view;
      delete w.chunk;
    }
  }
  epochs_.drain_retired();
}

std::size_t Tsdb::shard_of(const DeviceId& id) const noexcept {
  return fnv1a(id) % shards_.size();
}

// ---------------------------------------------------------------------------
// Ingest (single writer)
// ---------------------------------------------------------------------------

void Tsdb::publish_view(WriterSeries& w, const SeriesView* next) {
  const SeriesView* old = w.handle.view.load(std::memory_order_relaxed);
  const HeadChunk* old_head = old->head;  // retire() may free `old` at once
  w.handle.view.store(next, std::memory_order_seq_cst);
  epochs_.retire(old);
  epochs_.retire(old_head);
}

Tsdb::HeadChunk* Tsdb::new_head() const {
  return new HeadChunk(
      std::min<std::uint32_t>(
          kInitialChunkCapacity,
          static_cast<std::uint32_t>(options_.seal_threshold)),
      kInitialDictCapacity);
}

void Tsdb::grow_chunk(WriterSeries& w, std::uint32_t network) {
  const HeadChunk& old = *w.chunk;
  auto* next = new HeadChunk(
      old, w.count, network, w.dict_size,
      static_cast<std::uint32_t>(options_.seal_threshold));
  // Not yet reader-visible: the view publish below is the release that
  // covers these plain writes.
  next->sorted_prefix.store(old.sorted_prefix.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
  next->count.store(w.count, std::memory_order_relaxed);
  const SeriesView* cur = w.handle.view.load(std::memory_order_relaxed);
  auto* view = new SeriesView(*cur);
  view->head = next;
  w.chunk = next;
  publish_view(w, view);
}

void Tsdb::seal_head(Shard& shard, WriterSeries& w) {
  const SeriesView* cur = w.handle.view.load(std::memory_order_relaxed);
  Segment seg = w.chunk->seal(*cur->device, w.count, w.dict_size);
  sealed_bytes_.add(seg.byte_size() + seg.index_bytes());
  segments_sealed_.inc();
  shard.segments.push_back(std::move(seg));
  const Segment* stored = &shard.segments.back();
  const SegmentSummary& s = stored->summary();

  auto* view = new SeriesView(*cur);
  // Maintain the time index: the series stays binary-searchable while both
  // bounds advance monotonically seal-to-seal.
  if (!view->sealed.empty() && (s.t_min_ns < view->seg_t_min.back() ||
                                s.t_max_ns < view->seg_t_max.back())) {
    view->time_ordered = false;
  }
  view->sealed.push_back(stored);
  view->seg_t_min.push_back(s.t_min_ns);
  view->seg_t_max.push_back(s.t_max_ns);
  view->sealed_records += w.count;
  view->head = w.chunk = new_head();
  w.count = 0;
  w.dict_size = 0;
  publish_view(w, view);
}

void Tsdb::init_series(Shard& shard, WriterSeries& w, const DeviceId& id) {
  devices_.inc();
  w.ordinal = next_ordinal_.fetch_add(1, std::memory_order_relaxed);
  w.chunk = new_head();
  auto* view = new SeriesView();
  view->ordinal = w.ordinal;
  view->device = &id;
  view->head = w.chunk;
  w.handle.view.store(view, std::memory_order_seq_cst);
  // Publish the successor index (readers find the handle through it, and
  // the handle's view is already set).  O(shard series) per *new device*,
  // not per record — and shard.series is a std::map, so the iteration (and
  // therefore the published entry order) is sorted, not hash order.
  auto* index = new ShardIndex();
  index->entries.reserve(shard.series.size());
  for (const auto& [dev, series] : shard.series) {
    index->entries.emplace_back(&dev, &series.handle);
  }
  const ShardIndex* old_index = shard.index.load(std::memory_order_relaxed);
  shard.index.store(index, std::memory_order_seq_cst);
  epochs_.retire(old_index);
}

bool Tsdb::ingest(const ConsumptionRecord& record) {
  const std::size_t shard_index = shard_of(record.device_id);
  Shard& shard = shards_[shard_index];
  auto [it, created] = shard.series.try_emplace(record.device_id);
  WriterSeries& w = it->second;
  if (created) {
    init_series(shard, w, it->first);  // cold: first-seen device
  }
  if (!w.dedup.admit(record.sequence)) {
    duplicates_dropped_.inc();
    return false;
  }

  HeadChunk* chunk = w.chunk;
  const std::uint32_t network = chunk->find(record.network, w.dict_size);
  if (chunk->full(w.count, network, w.dict_size)) {
    grow_chunk(w, network);
    chunk = w.chunk;
  }
  const std::uint32_t i = w.count;
  chunk->put(i, record, network, w.dict_size);
  if (chunk->sorted_prefix.load(std::memory_order_relaxed) == i &&
      (i == 0 || record.timestamp_ns >= chunk->timestamps()[i - 1])) {
    chunk->sorted_prefix.store(i + 1, std::memory_order_relaxed);
  }
  w.count = i + 1;
  // The one publish on the record fast path: everything above
  // happens-before a reader that acquires the new count.
  chunk->count.store(w.count, std::memory_order_release);

  if (w.count >= options_.seal_threshold) {
    seal_head(shard, w);
  }
  records_ingested_.inc();
  const std::int64_t prev_max =
      max_ingested_ts_.load(std::memory_order_relaxed);
  if (record.timestamp_ns > prev_max) {
    max_ingested_ts_.store(record.timestamp_ns, std::memory_order_relaxed);
  }
  if (hook_ != nullptr) {
    hook_->on_ingest(record, shard_index, w.ordinal);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Lookup / iteration
// ---------------------------------------------------------------------------

Tsdb::SeriesRef Tsdb::capture(const SeriesHandle& handle,
                              std::size_t shard_index) noexcept {
  // seq_cst pointer load: pairs with the writer's publish/retire protocol
  // (mvcc.hpp).  The head count is acquire — it orders the column data, not
  // reclamation.
  const SeriesView* view = handle.view.load(std::memory_order_seq_cst);
  const std::uint32_t visible =
      view->head->count.load(std::memory_order_acquire);
  return SeriesRef{view, visible, shard_index};
}

Tsdb::SeriesRef Tsdb::lookup(const DeviceId& id) const {
  const std::size_t shard_index = shard_of(id);
  const ShardIndex* index =
      shards_[shard_index].index.load(std::memory_order_seq_cst);
  const auto it = std::lower_bound(
      index->entries.begin(), index->entries.end(), id,
      [](const auto& entry, const DeviceId& key) { return *entry.first < key; });
  if (it == index->entries.end() || *it->first != id) {
    return {};
  }
  return capture(*it->second, shard_index);
}

std::uint64_t Tsdb::series_ordinal(SeriesRef ref) const noexcept {
  return ref.view->ordinal;
}

std::uint64_t Tsdb::visible_records(SeriesRef ref) const noexcept {
  if (!ref) {
    return 0;
  }
  return ref.view->sealed_records + ref.head_visible;
}

bool Tsdb::has_device(const DeviceId& id) const {
  const ReadGuard guard = epochs_.pin();
  return static_cast<bool>(lookup(id));
}

std::vector<DeviceId> Tsdb::devices() const {
  const ReadGuard guard = epochs_.pin();
  std::vector<DeviceId> out;
  for (const Shard& shard : shards_) {
    const ShardIndex* index = shard.index.load(std::memory_order_seq_cst);
    for (const auto& [id, handle] : index->entries) {
      out.push_back(*id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Tsdb::for_each_series_in_shard(
    std::size_t shard,
    const std::function<void(const DeviceId&, SeriesRef)>& fn) const {
  if (shard >= shards_.size()) {
    return;
  }
  const ReadGuard guard = epochs_.pin();
  const ShardIndex* index = shards_[shard].index.load(std::memory_order_seq_cst);
  for (const auto& [id, handle] : index->entries) {
    fn(*id, capture(*handle, shard));  // sorted by device id
  }
}

TsdbStats Tsdb::stats() const {
  TsdbStats out;
  out.records_ingested = records_ingested_.value();
  out.duplicates_dropped = duplicates_dropped_.value();
  out.segments_sealed = segments_sealed_.value();
  out.sealed_bytes = static_cast<std::size_t>(sealed_bytes_.value());
  out.devices = static_cast<std::size_t>(devices_.value());
  out.segments_pruned = segments_pruned_.value();
  out.summary_hits = summary_hits_.value();
  out.blocks_skipped = blocks_skipped_.value();
  out.records_decoded = records_decoded_.value();
  return out;
}

// ---------------------------------------------------------------------------
// Query folds (all against a captured SeriesRef)
// ---------------------------------------------------------------------------

std::pair<std::size_t, std::size_t> Tsdb::sealed_overlap_range(
    const SeriesView& view, std::int64_t first_ns, std::int64_t last_ns) {
  const std::size_t n = view.sealed.size();
  if (!view.time_ordered || n == 0) {
    return {0, n};
  }
  // Both bound arrays are non-decreasing.  Segments before `lo` have
  // t_max < first (no overlap); segments at/after `hi` have t_min > last.
  const auto lo_it = std::lower_bound(view.seg_t_max.begin(),
                                      view.seg_t_max.end(), first_ns);
  const auto hi_it = std::upper_bound(view.seg_t_min.begin(),
                                      view.seg_t_min.end(), last_ns);
  const auto lo = static_cast<std::size_t>(lo_it - view.seg_t_max.begin());
  const auto hi = static_cast<std::size_t>(hi_it - view.seg_t_min.begin());
  return {lo, std::max(lo, hi)};
}

void merge_aggregate(DeviceAggregate& into, const DeviceAggregate& from) {
  if (from.count == 0) {
    return;
  }
  if (into.count == 0) {
    into = from;
    return;
  }
  into.t_min_ns = std::min(into.t_min_ns, from.t_min_ns);
  into.t_max_ns = std::max(into.t_max_ns, from.t_max_ns);
  into.min_current_ma = std::min(into.min_current_ma, from.min_current_ma);
  into.max_current_ma = std::max(into.max_current_ma, from.max_current_ma);
  const double total =
      static_cast<double>(into.count) + static_cast<double>(from.count);
  into.avg_current_ma =
      (into.avg_current_ma * static_cast<double>(into.count) +
       from.avg_current_ma * static_cast<double>(from.count)) /
      total;
  into.sum_energy_mwh += from.sum_energy_mwh;
  into.count += from.count;
}

std::optional<std::pair<std::int64_t, std::int64_t>> Tsdb::observed_bounds(
    SeriesRef ref) {
  std::optional<std::pair<std::int64_t, std::int64_t>> bounds;
  const auto widen = [&bounds](std::int64_t t_min, std::int64_t t_max) {
    if (!bounds) {
      bounds = {t_min, t_max};
      return;
    }
    bounds->first = std::min(bounds->first, t_min);
    bounds->second = std::max(bounds->second, t_max);
  };
  for (const Segment* seg : ref.view->sealed) {
    widen(seg->summary().t_min_ns, seg->summary().t_max_ns);
  }
  // The visible head prefix, not a head summary: the bounds must describe
  // exactly the records this snapshot exposes.  Its sorted part is bounded
  // by its ends.
  const HeadChunk& head = *ref.view->head;
  const std::uint32_t sorted = head.sorted(ref.head_visible);
  const std::int64_t* ts = head.timestamps();
  if (sorted != 0) {
    widen(ts[0], ts[sorted - 1]);
  }
  for (std::uint32_t i = sorted; i < ref.head_visible; ++i) {
    widen(ts[i], ts[i]);
  }
  return bounds;
}

template <unsigned Columns, typename OnRecord, typename OnSummary>
void Tsdb::fold_range(SeriesRef ref, std::int64_t first_ns,
                      std::int64_t last_ns, const RecordFilter& filter,
                      OnSummary&& on_summary, OnRecord&& on_record) const {
  const SeriesView& view = *ref.view;
  const std::size_t shard = ref.shard;
  const auto offline_passes = [&filter](std::uint8_t flags) {
    return !filter.stored_offline ||
           ((flags & kFlagOffline) != 0) == *filter.stored_offline;
  };
  FoldCost cost;
  // The filter's columns join the query's own.  Each combination is its own
  // instantiation, so no record loop tests or decodes a column it does not
  // need.
  const auto run = [&](auto mask) {
    constexpr unsigned kColumns = decltype(mask)::value;
    // Time-ordered series: [lo, hi) is the only run the summaries allow to
    // overlap, so everything outside it is pruned without touching a
    // summary.  Unordered series keep the linear walk (lo = 0, hi = n) and
    // the per-segment check below does the pruning.
    const auto [lo, hi] = sealed_overlap_range(view, first_ns, last_ns);
    segments_pruned_.add(view.sealed.size() - (hi - lo), shard);
    for (std::size_t i = lo; i < hi; ++i) {
      const Segment& seg = *view.sealed[i];
      const SegmentSummary& s = seg.summary();
      if (s.t_min_ns > last_ns || s.t_max_ns < first_ns) {
        segments_pruned_.add(1, shard);
        continue;
      }
      // A filtered network resolves to this segment's dictionary entry;
      // records then match by pointer.  Absent: nothing here can match.
      const NetworkId* want = nullptr;
      if (filter.network) {
        want = seg.find_network(*filter.network);
        if (want == nullptr) {
          segments_pruned_.add(1, shard);
          continue;
        }
      }
      if constexpr (!std::is_null_pointer_v<std::remove_cvref_t<OnSummary>>) {
        // Summaries hold no per-filter breakdowns, so the pre-aggregated
        // answer is only good under an empty filter.
        if (filter.empty() && s.t_min_ns >= first_ns &&
            s.t_max_ns <= last_ns) {
          summary_hits_.add(1, shard);
          on_summary(s);
          continue;
        }
      }
      // Only the blocks whose bounds overlap the range decode.  Self-sealed
      // bytes: the fold cannot stop early (Segment::fold's contract); a
      // corrupt stream would just end this segment's records.
      (void)seg.fold<kColumns>(
          first_ns, last_ns,
          [&](const StoredRecord& r) {
            if constexpr ((kColumns & columns::kNetwork) != 0) {
              if (want != nullptr && r.network != want) {
                return;
              }
            }
            if constexpr ((kColumns & columns::kFlags) != 0) {
              if (!offline_passes(r.flags)) {
                return;
              }
            }
            on_record(r);
          },
          cost);
    }

    // Visible head prefix, straight from the columns.  A network filter
    // compares a dictionary slot only when a visible record references it:
    // the writer stores the slot before the count release that publishes
    // the first such record, and slots past it may still be unwritten.
    const HeadChunk& head = *view.head;
    const NetworkId* seen = nullptr;
    bool seen_match = false;
    const auto head_record = [&](std::uint32_t i) {
      const StoredRecord r = head.stored<kColumns>(i);
      if constexpr ((kColumns & columns::kNetwork) != 0) {
        if (filter.network) {
          if (r.network != seen) {
            seen = r.network;
            seen_match = *r.network == *filter.network;
          }
          if (!seen_match) {
            return;
          }
        }
      }
      if constexpr ((kColumns & columns::kFlags) != 0) {
        if (!offline_passes(r.flags)) {
          return;
        }
      }
      on_record(r);
    };
    // The sorted prefix holds the in-range records as one run found by
    // binary search; the unsorted suffix (an out-of-order arrival and
    // everything after it) is checked record by record.  Storage order
    // either way.
    const std::int64_t* ts = head.timestamps();
    const std::uint32_t sorted = head.sorted(ref.head_visible);
    const auto from = static_cast<std::uint32_t>(
        std::lower_bound(ts, ts + sorted, first_ns) - ts);
    const auto to = static_cast<std::uint32_t>(
        std::upper_bound(ts + from, ts + sorted, last_ns) - ts);
    for (std::uint32_t i = from; i < to; ++i) {
      head_record(i);
    }
    for (std::uint32_t i = sorted; i < ref.head_visible; ++i) {
      if (ts[i] >= first_ns && ts[i] <= last_ns) {
        head_record(i);
      }
    }
    cost.records_decoded += (to - from) + (ref.head_visible - sorted);
  };
  using columns::kFlags;
  using columns::kNetwork;
  if (filter.network && filter.stored_offline) {
    run(std::integral_constant<unsigned, Columns | kNetwork | kFlags>{});
  } else if (filter.network) {
    run(std::integral_constant<unsigned, Columns | kNetwork>{});
  } else if (filter.stored_offline) {
    run(std::integral_constant<unsigned, Columns | kFlags>{});
  } else {
    run(std::integral_constant<unsigned, Columns>{});
  }
  blocks_skipped_.add(cost.blocks_skipped, shard);
  records_decoded_.add(cost.records_decoded, shard);
}

template <unsigned Columns, typename OnRecord, typename OnSummary>
void Tsdb::fold_half_open(SeriesRef ref, std::int64_t t0_ns,
                          std::int64_t t1_ns, const RecordFilter& filter,
                          OnSummary&& on_summary, OnRecord&& on_record) const {
  if (t1_ns <= t0_ns) {
    segments_pruned_.add(ref.view->sealed.size(), ref.shard);
    return;
  }
  fold_range<Columns>(ref, t0_ns, t1_ns - 1, filter,
                      std::forward<OnSummary>(on_summary),
                      std::forward<OnRecord>(on_record));
}

std::vector<ConsumptionRecord> Tsdb::scan(SeriesRef ref, std::int64_t t0_ns,
                                          std::int64_t t1_ns,
                                          const RecordFilter& filter) const {
  std::vector<ConsumptionRecord> out;
  if (ref) {
    const DeviceId& device = *ref.view->device;
    fold_half_open<columns::kAll>(
        ref, t0_ns, t1_ns, filter, nullptr,
        [&](const StoredRecord& r) { out.push_back(r.materialize(device)); });
  }
  return out;
}

std::vector<WindowAggregate> Tsdb::downsample(SeriesRef ref, std::int64_t t0_ns,
                                              std::int64_t t1_ns,
                                              std::int64_t window_ns,
                                              const RecordFilter& filter) const {
  if (window_ns <= 0 || t1_ns <= t0_ns || !ref) {
    return {};
  }
  const auto bounds = observed_bounds(ref);
  if (!bounds) {
    return {};
  }
  // Clamp the query range to the observed bounds *before* sizing the window
  // array: a sentinel full-range query (t0 = INT64_MIN, t1 = INT64_MAX)
  // would otherwise compute n_windows from the int64 extremes — signed
  // overflow and an OOM-sized allocation.  The window grid stays anchored
  // at the caller's t0: the clamped start is the last grid boundary at or
  // below the first record, so every device queried with the same (t0,
  // window) lands on the same grid whatever its data span (the fleet merge
  // relies on this).
  const auto [obs_min, obs_max] = *bounds;
  const auto uw = static_cast<std::uint64_t>(window_ns);
  std::int64_t t0c = t0_ns;
  if (t0c < obs_min) {
    // Align up in uint64 arithmetic: obs_min - t0 may not fit in int64, but
    // its true value is in [0, 2^64) and two's-complement subtraction of
    // the unsigned reinterpretations yields exactly that value.
    const std::uint64_t span = static_cast<std::uint64_t>(obs_min) -
                               static_cast<std::uint64_t>(t0_ns);
    const std::uint64_t steps = span / uw;
    t0c = static_cast<std::int64_t>(static_cast<std::uint64_t>(t0_ns) +
                                    steps * uw);
  }
  std::int64_t t1c = t1_ns;
  if (obs_max < INT64_MAX && t1c > obs_max + 1) {
    t1c = obs_max + 1;
  }
  if (t1c <= t0c) {
    return {};
  }
  // Ceil without the `span + uw - 1` rounding add: with corrupt clocks at
  // both int64 extremes the span approaches 2^64 and that add wraps,
  // sneaking a tiny window_count past the cap while records index far
  // beyond it.  div+mod cannot overflow.
  const std::uint64_t span = static_cast<std::uint64_t>(t1c) -
                             static_cast<std::uint64_t>(t0c);
  const std::uint64_t window_count = span / uw + (span % uw != 0 ? 1 : 0);
  if (window_count > kMaxWindowsPerQuery) {
    return {};
  }
  const auto n_windows = static_cast<std::size_t>(window_count);
  std::vector<WindowAggregate> out(n_windows);
  std::vector<double> current_sums(n_windows, 0.0);
  for (std::size_t i = 0; i < n_windows; ++i) {
    // uint64 like the span math above: with t0c near INT64_MIN and a huge
    // window the int64 product i * window_ns overflows even though every
    // start value itself fits (start < t1c).  Mod-2^64 arithmetic lands on
    // exactly that in-range value.
    out[i].start_ns = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(t0c) + static_cast<std::uint64_t>(i) * uw);
  }
  fold_half_open<0>(
      ref, t0c, t1c, filter, nullptr, [&](const StoredRecord& r) {
        const auto w = static_cast<std::size_t>(
            (static_cast<std::uint64_t>(r.timestamp_ns) -
             static_cast<std::uint64_t>(t0c)) /
            uw);
        const double current_ma = r.current_ma();
        auto& agg = out[w];
        agg.count += 1;
        current_sums[w] += current_ma;
        agg.max_current_ma = std::max(agg.max_current_ma, current_ma);
        agg.sum_energy_mwh += r.energy_mwh();
      });
  for (std::size_t i = 0; i < n_windows; ++i) {
    if (out[i].count > 0) {
      out[i].avg_current_ma =
          current_sums[i] / static_cast<double>(out[i].count);
    }
  }
  return out;
}

std::optional<DeviceAggregate> Tsdb::aggregate(SeriesRef ref,
                                               std::int64_t t0_ns,
                                               std::int64_t t1_ns,
                                               const RecordFilter& filter) const {
  if (!ref) {
    return std::nullopt;
  }
  // Folds quantized integers throughout (summary blocks, sealed columns and
  // head columns alike), dequantizing once at the end.
  DeviceAggregate agg;
  std::int64_t current_q_sum = 0;
  std::int64_t energy_q_sum = 0;
  std::int64_t current_q_min = 0;
  std::int64_t current_q_max = 0;
  const auto fold_quantized = [&](std::uint64_t count, std::int64_t t_min,
                                  std::int64_t t_max, std::int64_t q_min,
                                  std::int64_t q_max, std::int64_t q_cur_sum,
                                  std::int64_t q_energy_sum) {
    if (count == 0) {
      return;
    }
    if (agg.count == 0) {
      agg.t_min_ns = t_min;
      agg.t_max_ns = t_max;
      current_q_min = q_min;
      current_q_max = q_max;
    } else {
      agg.t_min_ns = std::min(agg.t_min_ns, t_min);
      agg.t_max_ns = std::max(agg.t_max_ns, t_max);
      current_q_min = std::min(current_q_min, q_min);
      current_q_max = std::max(current_q_max, q_max);
    }
    agg.count += count;
    current_q_sum += q_cur_sum;
    energy_q_sum += q_energy_sum;
  };
  fold_half_open<0>(
      ref, t0_ns, t1_ns, filter,
      [&](const SegmentSummary& s) {
        fold_quantized(s.count, s.t_min_ns, s.t_max_ns, s.current_q_min,
                       s.current_q_max, s.current_q_sum, s.energy_q_sum);
      },
      [&](const StoredRecord& r) {
        fold_quantized(1, r.timestamp_ns, r.timestamp_ns, r.current_q,
                       r.current_q, r.current_q, r.energy_q);
      });

  if (agg.count == 0) {
    return std::nullopt;
  }
  agg.min_current_ma = dequantize(current_q_min, kCurrentScale);
  agg.max_current_ma = dequantize(current_q_max, kCurrentScale);
  agg.avg_current_ma = dequantize(current_q_sum, kCurrentScale) /
                       static_cast<double>(agg.count);
  agg.sum_energy_mwh = dequantize(energy_q_sum, kEnergyScale);
  return agg;
}

util::RunningStats Tsdb::current_stats(SeriesRef ref, std::int64_t t0_ns,
                                       std::int64_t t1_ns,
                                       const RecordFilter& filter) const {
  util::RunningStats stats;
  if (ref) {
    fold_half_open<0>(
        ref, t0_ns, t1_ns, filter, nullptr,
        [&stats](const StoredRecord& r) { stats.add(r.current_ma()); });
  }
  return stats;
}

std::map<NetworkId, NetworkUsage> Tsdb::network_breakdown(
    SeriesRef ref, std::int64_t from_ns) const {
  std::map<NetworkId, NetworkUsage> out;
  if (!ref) {
    return out;
  }
  // Sealed segments entirely past `from_ns` answer from their dictionary
  // subtotals; straddlers decode the network column, and the head folds its
  // columns — the same quantized integers either way.
  struct Tally {
    std::uint64_t records = 0;
    std::int64_t energy_q = 0;
  };
  std::map<NetworkId, Tally> tally;
  fold_range<columns::kNetwork>(
      ref, from_ns, INT64_MAX, RecordFilter{},
      [&tally](const SegmentSummary& s) {
        for (const auto& sub : s.networks) {
          Tally& t = tally[sub.network];
          t.records += sub.records;
          t.energy_q += sub.energy_q_sum;
        }
      },
      [&tally](const StoredRecord& r) {
        Tally& t = tally[*r.network];
        t.records += 1;
        t.energy_q += r.energy_q;
      });
  for (const auto& [network, t] : tally) {
    out.emplace_hint(out.end(), network,
                     NetworkUsage{t.records,
                                  dequantize(t.energy_q, kEnergyScale)});
  }
  return out;
}

}  // namespace emon::store
