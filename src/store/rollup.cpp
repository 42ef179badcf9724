#include "store/rollup.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <unordered_map>

namespace emon::store {

namespace {

/// Pane sequence numbers and window ends must survive `* slide + window`
/// arithmetic in int64; timestamps further than ~73 years from the anchor
/// (unvalidated device RTCs can report anything) are ignored rather than
/// risked through the window math — the cold path still stores them.
constexpr std::int64_t kMaxHorizonNs = std::int64_t{1} << 61;
/// Ceiling on window width / slide / lateness so E + W + L stays bounded.
constexpr std::int64_t kMaxGeometryNs = std::int64_t{1} << 55;
/// Ceiling on ring slots per series ((W + L) / S + slack).  Each slot costs
/// one 64-byte line per series, and a window close reads W/S of them per
/// series, so this bounds both what one subscribe request can claim and the
/// fold; it still admits a 1 h window on a 1 min slide.
constexpr std::int64_t kMaxPanes = 64;
/// One watermark jump may close at most this many windows; older ones are
/// skipped (counted) instead of flooding memory with a window per slide.
constexpr std::int64_t kMaxWindowsPerDrain = 1024;

constexpr std::int64_t kPaneUnset = INT64_MIN;

/// Interned-network sentinel: an unused inline subtotal slot.
constexpr std::uint32_t kNoNet = 0xffffffffu;
/// Ordinal-table sentinels: series not seen yet / outside the device scope.
constexpr std::uint32_t kCellUnset = 0xffffffffu;
constexpr std::uint32_t kCellOut = 0xfffffffeu;

/// The cause a late drop counts under (RollupStats::records_dropped_late).
enum class LateCause { kStoredOffline, kTemporary, kOther };

LateCause late_cause(const ConsumptionRecord& record) noexcept {
  if (record.stored_offline) {
    return LateCause::kStoredOffline;
  }
  return record.membership == core::MembershipKind::kTemporary
             ? LateCause::kTemporary
             : LateCause::kOther;
}

constexpr std::int64_t floor_div(std::int64_t a, std::int64_t b) noexcept {
  return a / b - ((a % b != 0 && (a ^ b) < 0) ? 1 : 0);
}

/// Dictionary-interned per-network subtotal (`net` indexes the rollup's
/// net_dict).
struct NetSub {
  std::uint32_t net = kNoNet;
  std::uint64_t records = 0;
  std::int64_t energy_q_sum = 0;
};

/// One slot of the rollup-global network-subtotal ring.  The emitted
/// breakdown is merged across devices anyway, so these sums live *outside*
/// the per-series panes: every accepted record in a pane lands in the same
/// slot whatever its device, which keeps the whole ring (a few hundred
/// bytes) cache-hot and the per-series pane at exactly one cache line.
/// Two inline slots cover a pane dominated by one or two networks; fleets
/// mixing more networks per pane spill to the vector (an L1-resident linear
/// scan of interned u32 ids).
struct NetPane {
  std::int64_t seq = kPaneUnset;
  NetSub nets[2];
  /// EMON_PREALLOCATED: reset() clears without shrinking, so once a pane
  /// has seen its worst-case network mix the spill vector's capacity is
  /// established for good and the per-record add() allocates nothing.
  std::vector<NetSub> net_spill EMON_PREALLOCATED;

  void reset(std::int64_t pane) noexcept {
    seq = pane;
    nets[0] = NetSub{};
    nets[1] = NetSub{};
    net_spill.clear();
  }

  EMON_HOT void add(std::uint32_t net, std::int64_t energy_q) {
    for (auto& s : nets) {
      if (s.net == net) {
        s.records += 1;
        s.energy_q_sum += energy_q;
        return;
      }
      if (s.net == kNoNet) {
        s = NetSub{net, 1, energy_q};
        return;
      }
    }
    for (auto& s : net_spill) {
      if (s.net == net) {
        s.records += 1;
        s.energy_q_sum += energy_q;
        return;
      }
    }
    net_spill.push_back(NetSub{net, 1, energy_q});
  }
};

}  // namespace

/// Pane partial aggregate in the quantized integer domain (the lifted
/// element a window combines).  Integer sums/min/max commute, which is
/// what makes maintained answers bit-identical to cold re-folds.  Network
/// subtotals are *not* kept here — they live in the rollup-global NetPane
/// ring (the breakdown is merged across devices anyway) — so this struct
/// plus Pane::seq is exactly one 64-byte cache line, the whole footprint of
/// the per-record fold.  Voltage is not maintained either: no rollup
/// consumer (DeviceAggregate) reads it; the cold path still serves voltage
/// queries from segment summaries.
struct RollupEngine::PanePartial {
  std::uint64_t count = 0;
  std::int64_t t_min_ns = 0;
  std::int64_t t_max_ns = 0;
  std::int64_t current_q_min = 0;
  std::int64_t current_q_max = 0;
  std::int64_t current_q_sum = 0;
  std::int64_t energy_q_sum = 0;

  [[nodiscard]] bool empty() const noexcept { return count == 0; }

  /// lift + combine of one record — the hot ingest fold.  Same quantization
  /// the segment builder applies on append, so a pane's integer sums match
  /// what a cold re-fold of the stored records computes.  Returns the
  /// record's quantized energy so the caller can feed the network ring
  /// without quantizing twice.
  EMON_HOT std::int64_t fold(const ConsumptionRecord& r) {
    const std::int64_t q_cur = quantize(r.current_ma, kCurrentScale);
    const std::int64_t q_energy = quantize(r.energy_mwh, kEnergyScale);
    if (count == 0) {
      t_min_ns = r.timestamp_ns;
      t_max_ns = r.timestamp_ns;
      current_q_min = q_cur;
      current_q_max = q_cur;
    } else {
      t_min_ns = std::min(t_min_ns, r.timestamp_ns);
      t_max_ns = std::max(t_max_ns, r.timestamp_ns);
      current_q_min = std::min(current_q_min, q_cur);
      current_q_max = std::max(current_q_max, q_cur);
    }
    count += 1;
    current_q_sum += q_cur;
    energy_q_sum += q_energy;
    return q_energy;
  }

  /// Associative + commutative merge (commutative because every field is a
  /// min/max/sum), so fold order never changes the result bits.
  void combine_from(const PanePartial& o) {
    if (o.count == 0) {
      return;
    }
    if (count == 0) {
      *this = o;
      return;
    }
    t_min_ns = std::min(t_min_ns, o.t_min_ns);
    t_max_ns = std::max(t_max_ns, o.t_max_ns);
    current_q_min = std::min(current_q_min, o.current_q_min);
    current_q_max = std::max(current_q_max, o.current_q_max);
    count += o.count;
    current_q_sum += o.current_q_sum;
    energy_q_sum += o.energy_q_sum;
  }

  /// lower: finish into the query-surface aggregate (bit-identical to the
  /// epilogue of Tsdb::aggregate: same dequantize, same sum-then-divide).
  [[nodiscard]] DeviceAggregate lower() const {
    DeviceAggregate agg;
    if (count == 0) {
      return agg;
    }
    agg.count = count;
    agg.t_min_ns = t_min_ns;
    agg.t_max_ns = t_max_ns;
    agg.min_current_ma = dequantize(current_q_min, kCurrentScale);
    agg.max_current_ma = dequantize(current_q_max, kCurrentScale);
    agg.avg_current_ma =
        dequantize(current_q_sum, kCurrentScale) / static_cast<double>(count);
    agg.sum_energy_mwh = dequantize(energy_q_sum, kEnergyScale);
    return agg;
  }
};

struct alignas(64) RollupEngine::Pane {
  /// Pane sequence this slot currently holds (kPaneUnset = never written).
  /// Slots are reused modulo the ring capacity; a stale seq means the slot's
  /// pane aged out and the slot is free for its successor.
  std::int64_t seq = kPaneUnset;
  /// seq + the partial's seven words are exactly one cache line — the whole
  /// per-series footprint of the per-record fold.
  PanePartial partial;
};

/// Shard-local state: series device ids in creation order plus one flat pane
/// arena.  The arena is *slot-major* — pane slot s of series i lives at
/// panes[s * stride + i] — because fleet ingest arrives round-robin across
/// devices inside a pane: consecutive records then walk consecutive arena
/// lines (per shard), which the hardware stream prefetcher hides, instead
/// of hopping cap-sized strides through a multi-megabyte arena.  `stride`
/// is the series capacity, grown geometrically with an O(arena) re-layout
/// (amortized constant per series, quiet after the fleet's first round).
struct RollupEngine::ShardState {
  /// Copied once at first touch — fold results need the id, and the engine
  /// must not dangle into store internals.
  std::vector<DeviceId> devices;
  std::vector<Pane> panes;
  std::size_t stride = 0;
  /// Per-series window-fold results, one slot per series (count == 0 means
  /// no matching records).  Owned by this shard so pool workers never write
  /// across shards; the caller merges in the rollup's cached sorted order.
  std::vector<PanePartial> scratch;
};

struct RollupEngine::Rollup {
  std::uint64_t id = 0;
  RollupSpec spec;
  /// Sorted+deduped copy of spec.devices (empty = all) for O(log n) scope
  /// checks, memoized per series through `cells`.
  std::vector<DeviceId> devices_sorted;
  /// Per-shard series/pane storage, partitioned by the owning Tsdb's shard
  /// map — window folds ride the query pool with one worker per shard.
  std::vector<ShardState> shards;
  /// Store series ordinal -> packed dispatch word.  Low 32 bits: index
  /// inside the owning shard (kCellUnset until first seen, kCellOut once
  /// the device scope check rejects it — the binary search runs once per
  /// series, not once per record).  High 32 bits: the series' last interned
  /// network id + 1 (0 = none yet) — devices rarely roam, so the network
  /// memo rides the same cache line the per-record dispatch already loads
  /// and interning costs one short-string compare instead of a hash probe.
  std::vector<std::uint64_t> cells;
  /// Interned network dictionary (index = NetSub::net).
  std::vector<NetworkId> net_dict;
  std::unordered_map<NetworkId, std::uint32_t> net_ids;
  /// Rollup-global per-pane network subtotals (cap slots, shared by every
  /// device): all the state the emitted breakdown needs, kept off the
  /// per-series hot line.  Single-writer like the rest of ingest.
  std::vector<NetPane> net_panes;
  std::int64_t watermark = 0;
  bool has_watermark = false;
  /// End of the next window to emit; everything before it is sealed — late
  /// records aimed below it are dropped to the cold path.
  std::int64_t next_close_e = 0;
  bool has_next_close = false;
  /// pane_of(next_close_e - window): oldest pane a still-unemitted window
  /// needs.  Maintained alongside next_close_e (sync_first_needed) so the
  /// per-record ring-safety check is a subtraction, not a division.
  std::int64_t first_needed_pane = 0;
  /// Pane memo for the ingest path: arrival order is near time-sorted, so
  /// almost every record repeats its predecessor's pane and the range check
  /// replaces the floor-div.
  std::int64_t memo_pane = 0;
  std::int64_t memo_pane_t0 = 0;
  bool memo_valid = false;
  /// Global merge order — every live series as (shard, in-shard index),
  /// sorted by device id.  The device set is stable once a fleet has
  /// reported, so window folds reuse this instead of re-sorting device
  /// strings per close; series creation marks it stale.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sorted_series;
  bool sorted_stale = false;
  /// Force-drained windows awaiting the next drain() call.
  std::vector<ClosedWindow> pending;
  RollupStats stats;
  std::int64_t cap = 0;  // ring slots per series, power of two

  [[nodiscard]] std::int64_t pane_of(std::int64_t ts_ns) const noexcept {
    return floor_div(ts_ns - spec.anchor_ns, spec.slide_ns);
  }
  [[nodiscard]] std::int64_t pane_of_memo(std::int64_t ts_ns) noexcept {
    if (memo_valid && ts_ns >= memo_pane_t0 &&
        ts_ns - memo_pane_t0 < spec.slide_ns) {
      return memo_pane;
    }
    memo_pane = pane_of(ts_ns);
    memo_pane_t0 = spec.anchor_ns + memo_pane * spec.slide_ns;
    memo_valid = true;
    return memo_pane;
  }
  void sync_first_needed() noexcept {
    // next_close_e - window is pane-aligned, so plain division is exact.
    first_needed_pane =
        (next_close_e - spec.window_ns - spec.anchor_ns) / spec.slide_ns;
  }
  [[nodiscard]] std::size_t slot_of(std::int64_t pane) const noexcept {
    // cap is a power of two; masking handles negative panes too.
    return static_cast<std::size_t>(pane & (cap - 1));
  }
  [[nodiscard]] bool sane_ts(std::int64_t ts_ns) const noexcept {
    // |anchor| <= kMaxHorizonNs (spec validation), so neither bound wraps.
    return ts_ns >= spec.anchor_ns - kMaxHorizonNs &&
           ts_ns <= spec.anchor_ns + kMaxHorizonNs;
  }
  [[nodiscard]] bool device_in_scope(const DeviceId& id) const {
    return devices_sorted.empty() ||
           std::binary_search(devices_sorted.begin(), devices_sorted.end(),
                              id);
  }
  [[nodiscard]] bool in_scope(const ConsumptionRecord& r) const {
    return device_in_scope(r.device_id) && spec.filter.matches(r);
  }

  [[nodiscard]] std::uint64_t& cell(std::uint64_t ordinal) {
    if (ordinal >= cells.size()) {
      cells.resize(ordinal + 1, kCellUnset);
    }
    return cells[ordinal];
  }

  std::uint32_t create_series(std::size_t shard, const DeviceId& device) {
    ShardState& s = shards[shard];
    s.devices.push_back(device);
    sorted_stale = true;
    if (s.devices.size() > s.stride) {
      const std::size_t new_stride = std::max<std::size_t>(s.stride * 2, 16);
      std::vector<Pane> grown(static_cast<std::size_t>(cap) * new_stride);
      for (std::size_t slot = 0; slot < static_cast<std::size_t>(cap);
           ++slot) {
        for (std::size_t c = 0; c < s.stride; ++c) {
          grown[slot * new_stride + c] = s.panes[slot * s.stride + c];
        }
      }
      s.panes = std::move(grown);
      s.stride = new_stride;
    }
    return static_cast<std::uint32_t>(s.devices.size() - 1);
  }

  [[nodiscard]] std::uint32_t intern(const NetworkId& network) {
    const auto [it, fresh] = net_ids.try_emplace(
        network, static_cast<std::uint32_t>(net_dict.size()));
    if (fresh) {
      net_dict.push_back(network);
    }
    return it->second;
  }

  /// Resolves a record's network id through the memo packed into the high
  /// 32 bits of the series' cells word.  The dispatch loads that word for
  /// every record anyway, so a memo hit (devices rarely roam) costs one
  /// short-string compare and zero extra cache traffic; a miss pays the
  /// dictionary probe once and re-arms the word.
  [[nodiscard]] std::uint32_t net_of(std::uint64_t& cellw,
                                     const NetworkId& network) {
    const auto memo = static_cast<std::uint32_t>(cellw >> 32);
    if (memo != 0 && net_dict[memo - 1] == network) {
      return memo - 1;
    }
    const std::uint32_t id = intern(network);
    cellw = (static_cast<std::uint64_t>(id) + 1) << 32 |
            static_cast<std::uint32_t>(cellw);
    return id;
  }

  /// Counts one late drop in the stats, under its cause.
  EMON_HOT void count_late(LateCause cause) {
    ++stats.records_dropped_late;
    switch (cause) {
      case LateCause::kStoredOffline:
        ++stats.late_stored_offline;
        break;
      case LateCause::kTemporary:
        ++stats.late_temporary;
        break;
      case LateCause::kOther:
        ++stats.late_other;
        break;
    }
  }

  /// Folds one matching record (acceptance already checked) into its pane.
  /// Returns false for the defensive stale-slot case (the slot already
  /// advanced past this pane; acceptance should have dropped it first) —
  /// the caller counts it as a late drop.
  EMON_HOT bool fold_record(std::size_t shard, std::uint64_t& cellw,
                            std::int64_t pane,
                            const ConsumptionRecord& record) {
    const auto idx = static_cast<std::uint32_t>(cellw);
    ShardState& ss = shards[shard];
    Pane& p = ss.panes[slot_of(pane) * ss.stride + idx];
    if (p.seq != pane) {
      if (p.seq != kPaneUnset && p.seq > pane) {
        return false;  // never fold backwards
      }
      p.seq = pane;
      p.partial = PanePartial{};
    }
    const std::int64_t q_energy = p.partial.fold(record);
    NetPane& np = net_panes[slot_of(pane)];
    if (np.seq != pane) {
      // A stale (newer-seq) slot is impossible post-acceptance: any
      // accepted pane sits within cap-2 of the watermark pane (the
      // force-drain invariant), so its slot's prior occupant is older.
      np.reset(pane);
    }
    np.add(net_of(cellw, record.network), q_energy);
    ++stats.records_folded;
    return true;
  }
};

bool RollupSpec::valid() const noexcept {
  if (window_ns <= 0 || slide_ns <= 0 || lateness_ns < 0) {
    return false;
  }
  if (window_ns > kMaxGeometryNs || slide_ns > kMaxGeometryNs ||
      lateness_ns > kMaxGeometryNs) {
    return false;
  }
  if (window_ns % slide_ns != 0) {
    return false;
  }
  if (anchor_ns < -kMaxHorizonNs || anchor_ns > kMaxHorizonNs) {
    return false;
  }
  return (window_ns + lateness_ns) / slide_ns + 4 <= kMaxPanes;
}

RollupEngine::RollupEngine(const Tsdb& tsdb, obs::MetricsRegistry* metrics)
    : tsdb_(&tsdb) {
  if (metrics != nullptr) {
    records_folded_ = metrics->counter("rollup_records_folded");
    records_dropped_late_ = metrics->counter("rollup_records_dropped_late");
    late_stored_offline_ =
        metrics->counter("rollup_late_dropped{cause=\"stored_offline\"}");
    late_temporary_ =
        metrics->counter("rollup_late_dropped{cause=\"temporary\"}");
    late_other_ = metrics->counter("rollup_late_dropped{cause=\"other\"}");
    windows_closed_ = metrics->counter("rollup_windows_closed");
  }
}

RollupEngine::~RollupEngine() = default;

RollupEngine::Rollup* RollupEngine::find(std::uint64_t id) noexcept {
  for (auto& r : rollups_) {
    if (r->id == id) {
      return r.get();
    }
  }
  return nullptr;
}

const RollupEngine::Rollup* RollupEngine::find(std::uint64_t id) const noexcept {
  for (const auto& r : rollups_) {
    if (r->id == id) {
      return r.get();
    }
  }
  return nullptr;
}

std::uint64_t RollupEngine::register_rollup(RollupSpec spec) {
  if (!spec.valid()) {
    throw std::invalid_argument("RollupEngine: invalid RollupSpec");
  }
  auto r = std::make_unique<Rollup>();
  r->id = next_id_++;
  r->spec = std::move(spec);
  r->devices_sorted = r->spec.devices;
  std::sort(r->devices_sorted.begin(), r->devices_sorted.end());
  r->devices_sorted.erase(
      std::unique(r->devices_sorted.begin(), r->devices_sorted.end()),
      r->devices_sorted.end());
  r->shards.resize(tsdb_->shard_count());
  r->cells.assign(tsdb_->series_total(), kCellUnset);
  // Power-of-two ring so the hot-path slot is a mask, not a modulo.
  r->cap = static_cast<std::int64_t>(std::bit_ceil(static_cast<std::uint64_t>(
      (r->spec.window_ns + r->spec.lateness_ns) / r->spec.slide_ns + 4)));
  r->net_panes.assign(static_cast<std::size_t>(r->cap), NetPane{});
  backfill(*r);
  const std::uint64_t id = r->id;
  rollups_.push_back(std::move(r));
  return id;
}

void RollupEngine::unregister(std::uint64_t id) {
  rollups_.erase(std::remove_if(rollups_.begin(), rollups_.end(),
                                [id](const auto& r) { return r->id == id; }),
                 rollups_.end());
}

void RollupEngine::on_ingest(const ConsumptionRecord& record,
                             std::size_t shard,
                             std::uint64_t series_ordinal) {
  for (auto& rp : rollups_) {
    Rollup& r = *rp;
    if (!r.sane_ts(record.timestamp_ns)) {
      if (r.in_scope(record)) {
        drop_late(r, record);
      }
      continue;
    }
    const std::int64_t pane = r.pane_of_memo(record.timestamp_ns);
    std::uint64_t& cellw = r.cell(series_ordinal);
    const auto cell = static_cast<std::uint32_t>(cellw);
    if (cell < kCellOut) {
      // Known in-scope series: start pulling its pane line now so the
      // watermark/filter/quantize work below overlaps the memory latency.
      const ShardState& ss = r.shards[shard];
      __builtin_prefetch(&ss.panes[r.slot_of(pane) * ss.stride + cell], 1, 3);
    }
    // The watermark advances on *every* sane record (not just in-scope
    // ones), so a rollup over a quiet device set still closes its windows
    // while the rest of the fleet keeps reporting.
    if (!r.has_watermark || record.timestamp_ns > r.watermark) {
      r.watermark = record.timestamp_ns;
      r.has_watermark = true;
      if (!r.has_next_close) {
        // First window end strictly above the first observation.
        r.next_close_e = r.spec.anchor_ns + (pane + 1) * r.spec.slide_ns;
        r.has_next_close = true;
        r.sync_first_needed();
      }
      // Ring-safety: if the watermark ran more than the ring can span ahead
      // of the oldest still-open window, seal what is closeable *now* (into
      // pending) before any needed slot gets reused.  Correctness therefore
      // never depends on how often the owner pumps drain().  The advancing
      // record *is* the watermark, so `pane` is the watermark pane.
      if (pane - r.first_needed_pane + 1 > r.cap - 2) {
        drain_closes(r, nullptr);
      }
    }
    if (cell == kCellOut) {
      continue;
    }
    if (cell == kCellUnset) {
      if (!r.device_in_scope(record.device_id)) {
        cellw = kCellOut;
        continue;
      }
      cellw = r.create_series(shard, record.device_id);
    }
    if (!r.spec.filter.matches(record)) {
      continue;
    }
    const std::int64_t pane_t0 = pane * r.spec.slide_ns + r.spec.anchor_ns;
    if (r.has_next_close && pane_t0 + r.spec.window_ns < r.next_close_e) {
      // Every window containing this record was already emitted: beyond the
      // lateness horizon, cold queries remain the exact path.
      drop_late(r, record);
      continue;
    }
    if (!r.fold_record(shard, cellw, pane, record)) {
      drop_late(r, record);  // stale-slot defensive drop
      continue;
    }
    records_folded_.inc();
    if (pane_t0 + r.spec.slide_ns < r.next_close_e) {
      ++r.stats.pane_patches;  // an emitted (sliding) window covered this pane
    }
  }
}

void RollupEngine::drop_late(Rollup& r, const ConsumptionRecord& record) {
  const LateCause cause = late_cause(record);
  r.count_late(cause);
  records_dropped_late_.inc();
  switch (cause) {
    case LateCause::kStoredOffline:
      late_stored_offline_.inc();
      break;
    case LateCause::kTemporary:
      late_temporary_.inc();
      break;
    case LateCause::kOther:
      late_other_.inc();
      break;
  }
}

void RollupEngine::drain_closes(Rollup& r, const QueryPool* pool) {
  if (!r.has_next_close || !r.has_watermark) {
    return;
  }
  // Windows [E - W, E) with watermark >= E + L are closeable.
  std::int64_t n =
      floor_div(r.watermark - r.spec.lateness_ns - r.next_close_e,
                r.spec.slide_ns) +
      1;
  if (n <= 0) {
    return;
  }
  if (n > kMaxWindowsPerDrain) {
    // Runaway watermark jump (gap in the data, corrupt far-future clock):
    // skip the oldest windows instead of materializing one per slide.  The
    // skipped span is still answerable by the cold path.
    const std::int64_t skipped = n - kMaxWindowsPerDrain;
    r.stats.windows_skipped += static_cast<std::uint64_t>(skipped);
    r.next_close_e += skipped * r.spec.slide_ns;
    n = kMaxWindowsPerDrain;
  }
  for (std::int64_t i = 0; i < n; ++i) {
    ClosedWindow window = fold_window(r, r.next_close_e, pool);
    ++r.stats.windows_closed;
    windows_closed_.inc();
    r.next_close_e += r.spec.slide_ns;
    if (!window.empty()) {
      r.pending.push_back(std::move(window));
    }
  }
  r.sync_first_needed();
}

ClosedWindow RollupEngine::fold_window(Rollup& r, std::int64_t end_ns,
                                       const QueryPool* pool) {
  ClosedWindow out;
  out.rollup_id = r.id;
  out.t0_ns = end_ns - r.spec.window_ns;
  out.t1_ns = end_ns;
  const std::int64_t tb = r.pane_of(out.t0_ns);
  const std::int64_t te = r.pane_of(end_ns);

  // Workers write only their own shard's scratch; the caller merges in the
  // rollup's cached device order.  Each pane is one contiguous row of the
  // slot-major arena; a slot counts only while it still holds that pane.
  const std::size_t shards = r.shards.size();
  const auto fold_shard = [&](std::size_t s) {
    ShardState& ss = r.shards[s];
    ss.scratch.assign(ss.devices.size(), PanePartial{});
    for (std::int64_t pane = tb; pane < te; ++pane) {
      const std::size_t row = r.slot_of(pane) * ss.stride;
      for (std::size_t i = 0; i < ss.devices.size(); ++i) {
        const Pane& p = ss.panes[row + i];
        if (p.seq == pane) {
          ss.scratch[i].combine_from(p.partial);
        }
      }
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(shards, fold_shard);
  } else {
    for (std::size_t s = 0; s < shards; ++s) {
      fold_shard(s);
    }
  }

  if (r.sorted_stale) {
    r.sorted_series.clear();
    r.sorted_series.reserve(r.cells.size());
    for (std::size_t s = 0; s < shards; ++s) {
      for (std::size_t i = 0; i < r.shards[s].devices.size(); ++i) {
        r.sorted_series.emplace_back(static_cast<std::uint32_t>(s),
                                     static_cast<std::uint32_t>(i));
      }
    }
    std::sort(r.sorted_series.begin(), r.sorted_series.end(),
              [&r](const auto& a, const auto& b) {
                return r.shards[a.first].devices[a.second] <
                       r.shards[b.first].devices[b.second];
              });
    r.sorted_stale = false;
  }

  // Merge in sorted device order with the shared fold — the recipe that
  // makes this bit-identical to the cold fleet query.
  for (const auto& [s, i] : r.sorted_series) {
    const PanePartial& partial = r.shards[s].scratch[i];
    if (partial.count == 0) {
      continue;
    }
    DeviceAggregate agg = partial.lower();
    merge_aggregate(out.merged, agg);
    out.per_device.emplace_back(r.shards[s].devices[i], agg);
  }

  // Per-network breakdown from the rollup-global net ring: fleet-wide
  // integer sums per network over the window's panes, one dequantize per
  // network at the end (the oracle tests/test_rollup.cpp pins).
  std::vector<NetSub> totals;
  const auto fold_sub = [&totals](const NetSub& sub) {
    for (auto& t : totals) {
      if (t.net == sub.net) {
        t.records += sub.records;
        t.energy_q_sum += sub.energy_q_sum;
        return;
      }
    }
    totals.push_back(sub);
  };
  for (std::int64_t pane = tb; pane < te; ++pane) {
    const NetPane& np = r.net_panes[r.slot_of(pane)];
    if (np.seq != pane) {
      continue;
    }
    for (const auto& sub : np.nets) {
      if (sub.net == kNoNet) {
        break;
      }
      fold_sub(sub);
    }
    for (const auto& sub : np.net_spill) {
      fold_sub(sub);
    }
  }
  for (const auto& t : totals) {
    auto& usage = out.breakdown[r.net_dict[t.net]];
    usage.records = t.records;
    usage.energy_mwh = dequantize(t.energy_q_sum, kEnergyScale);
  }
  return out;
}

std::vector<ClosedWindow> RollupEngine::drain(std::uint64_t id,
                                              const QueryPool* pool) {
  Rollup* r = find(id);
  if (r == nullptr) {
    return {};
  }
  drain_closes(*r, pool);
  std::vector<ClosedWindow> out;
  out.swap(r->pending);
  return out;
}

void RollupEngine::backfill(Rollup& r) {
  const auto max_ts = tsdb_->observed_max_ts();
  if (!max_ts || !r.sane_ts(*max_ts)) {
    return;  // empty (or insane) store: initialize lazily on first ingest
  }
  r.watermark = *max_ts;
  r.has_watermark = true;
  r.next_close_e =
      r.spec.anchor_ns +
      (floor_div(*max_ts - r.spec.lateness_ns - r.spec.anchor_ns,
                 r.spec.slide_ns) +
       1) *
          r.spec.slide_ns;
  r.has_next_close = true;
  r.sync_first_needed();
  // Re-fold every stored record that can still land in an unemitted window.
  const std::int64_t from_ns = r.next_close_e - r.spec.window_ns;
  const auto fold_series = [&](const DeviceId& id, Tsdb::SeriesRef ref,
                               std::size_t shard) {
    const std::uint64_t ordinal = tsdb_->series_ordinal(ref);
    std::uint64_t& cellw = r.cell(ordinal);
    for (const ConsumptionRecord& rec :
         tsdb_->scan(ref, from_ns, INT64_MAX, r.spec.filter)) {
      if (!r.sane_ts(rec.timestamp_ns)) {
        continue;
      }
      if (static_cast<std::uint32_t>(cellw) == kCellUnset) {
        cellw = r.create_series(shard, id);
      }
      if (r.fold_record(shard, cellw, r.pane_of(rec.timestamp_ns), rec)) {
        ++r.stats.backfilled_records;
        --r.stats.records_folded;  // counted as backfilled, not live folds
      } else {
        r.count_late(late_cause(rec));  // not mirrored: backfill, not live
      }
    }
  };
  if (r.devices_sorted.empty()) {
    for (std::size_t s = 0; s < tsdb_->shard_count(); ++s) {
      tsdb_->for_each_series_in_shard(
          s, [&](const DeviceId& id, Tsdb::SeriesRef ref) {
            fold_series(id, ref, s);
          });
    }
  } else {
    for (const DeviceId& id : r.devices_sorted) {
      if (Tsdb::SeriesRef ref = tsdb_->lookup(id)) {
        fold_series(id, ref, tsdb_->shard_of(id));
      }
    }
  }
}

const RollupSpec* RollupEngine::spec(std::uint64_t id) const {
  const Rollup* r = find(id);
  return r == nullptr ? nullptr : &r->spec;
}

const RollupStats* RollupEngine::stats(std::uint64_t id) const {
  const Rollup* r = find(id);
  return r == nullptr ? nullptr : &r->stats;
}

std::optional<std::int64_t> RollupEngine::watermark(std::uint64_t id) const {
  const Rollup* r = find(id);
  if (r == nullptr || !r->has_watermark) {
    return std::nullopt;
  }
  return r->watermark;
}

}  // namespace emon::store
