#pragma once
// Columnar consumption-record segments — the storage unit of the embedded
// time-series store (src/store/).
//
// A segment holds one device's records for a contiguous span of its stream,
// encoded column-by-column so that each column's redundancy is exploited:
//
//   timestamps  delta-of-delta, zigzag varint   (regular sampling ≈ 1 B/rec)
//   sequences   first value + zigzag varint deltas (monotone +1 ≈ 1 B/rec)
//   intervals   zigzag varint deltas               (constant ≈ 1 B/rec)
//   current     fixed-point µA (x1000), zigzag varint deltas
//   voltage     fixed-point 10 µV (x100), zigzag varint deltas
//   energy      fixed-point nWh (x1e6), zigzag varint deltas
//   network     per-segment string dictionary + varint indices
//   flags       membership + stored_offline, 2 bits/record packed
//
// Quantization tolerances (documented, asserted in tests/test_store.cpp):
// current ±0.0005 mA, voltage ±0.005 mV, energy ±5e-7 mWh per record — so a
// sum over N records is exact to N * 5e-7 mWh.
//
// Every sealed segment carries a summary block (count, time range, per-column
// min/max/sum, per-network record/energy subtotals) so range queries can
// prune whole segments and aggregate queries can be answered without
// decoding.
//
// Column-selective decode.  Every column is its own byte stream, so one
// decoder (SegmentDecoder) reads only the columns its template mask names.
// The Tsdb range fold (store/tsdb.hpp) decodes, per query kind:
//
//   aggregate, current_stats, downsample   timestamp, current, energy
//     + network filter                     + network
//     + stored_offline filter              + flags
//   network_breakdown (straddlers only)    timestamp, current, energy, network
//   scan                                   all eight (it materializes records)
//
// A network filter naming a network absent from a segment's dictionary
// skips that segment without decoding it.  SegmentCursor is the all-columns
// case of the same decoder.
//
// Restart index.  A range fold decodes only the blocks its range touches.
// `ColumnChunk::seal` cuts the records into blocks of kRestartBlock and,
// in the same encode pass, records per block its [t_min, t_max] and a
// restart point: each varint column's byte offset at the block's first
// record and the running delta state the encoder holds there.  The index is
// varint-packed (about 40 B per block) and lives in memory only — the
// serialized format is unchanged, and `Segment::parse` gives a segment
// exactly one block covering all its records (bounds from the summary), so
// foreign bytes fold through the same walk.  `Segment::fold(first, last)`
// skips every block whose bounds miss the range, starts the decoder at the
// first overlapping block's restart point, and stops after the last one.
//
// Corruption contract.  Parsing foreign bytes never throws: `Segment::parse`
// returns a typed `SegmentError` (util::ByteReader try_* API underneath),
// and SegmentCursor surfaces mid-stream corruption the same way.  Queries
// fold self-sealed segments through `Segment::fold`, which stops at the
// first column that runs dry (or at an out-of-dictionary index) without
// reading past it or folding an invented record, and reports only that it
// stopped; foreign bytes that need a reason go through `Segment::parse` +
// SegmentCursor.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "core/records.hpp"
#include "util/bytes.hpp"

namespace emon::store {

using core::ConsumptionRecord;
using core::DeviceId;
using core::NetworkId;

// -- Fixed-point quantization ---------------------------------------------------

inline constexpr double kCurrentScale = 1000.0;   // mA -> µA
inline constexpr double kVoltageScale = 100.0;    // mV -> 10 µV
inline constexpr double kEnergyScale = 1e6;       // mWh -> nWh

/// Worst-case per-record quantization error, in the record's own units.
inline constexpr double kCurrentToleranceMa = 0.5 / kCurrentScale;
inline constexpr double kVoltageToleranceMv = 0.5 / kVoltageScale;
inline constexpr double kEnergyToleranceMwh = 0.5 / kEnergyScale;

/// Inline: both ColumnChunk::put and the rollup engine's per-record pane
/// fold quantize on their hot paths — and they must agree bit-for-bit,
/// which one shared definition guarantees.
[[nodiscard]] inline std::int64_t quantize(double value, double scale) noexcept {
  return std::llround(value * scale);
}
[[nodiscard]] inline double dequantize(std::int64_t q, double scale) noexcept {
  return static_cast<double>(q) / scale;
}

// -- Stored record form ----------------------------------------------------------

/// Per-record flag bits, shared by the sealed flags column and the open
/// ColumnChunk.
inline constexpr std::uint8_t kFlagTemporary = 0x1;
inline constexpr std::uint8_t kFlagOffline = 0x2;

/// Column masks for SegmentDecoder / Segment::fold / the Tsdb range fold.
/// Timestamp, current and energy are always decoded; a mask adds the rest.
namespace columns {
inline constexpr unsigned kNetwork = 0x1;  // dictionary index
inline constexpr unsigned kFlags = 0x2;    // membership + offline bits
inline constexpr unsigned kRest = 0x4;     // sequence, interval, voltage
inline constexpr unsigned kAll = kNetwork | kFlags | kRest;
}  // namespace columns

/// One stored record as a range fold sees it: the quantized integers the
/// columns hold.  Fields outside the decoded column mask stay zero/null.
struct StoredRecord {
  std::int64_t timestamp_ns = 0;
  std::int64_t current_q = 0;
  std::int64_t energy_q = 0;
  /// Entry of the record's source dictionary (segment or head chunk);
  /// columns::kNetwork.
  const NetworkId* network = nullptr;
  std::uint8_t flags = 0;  // columns::kFlags
  // columns::kRest:
  std::uint64_t sequence = 0;
  std::int64_t interval_ns = 0;
  std::int64_t voltage_q = 0;

  /// Exactly the ConsumptionRecord fields the store hands back (dequantized).
  [[nodiscard]] double current_ma() const noexcept {
    return dequantize(current_q, kCurrentScale);
  }
  [[nodiscard]] double energy_mwh() const noexcept {
    return dequantize(energy_q, kEnergyScale);
  }
  /// The full record; needs columns::kAll.
  [[nodiscard]] ConsumptionRecord materialize(const DeviceId& device) const {
    ConsumptionRecord rec;
    rec.device_id = device;
    rec.sequence = sequence;
    rec.timestamp_ns = timestamp_ns;
    rec.interval_ns = interval_ns;
    rec.current_ma = current_ma();
    rec.bus_voltage_mv = dequantize(voltage_q, kVoltageScale);
    rec.energy_mwh = energy_mwh();
    rec.network = *network;
    rec.membership = (flags & kFlagTemporary) != 0
                         ? core::MembershipKind::kTemporary
                         : core::MembershipKind::kHome;
    rec.stored_offline = (flags & kFlagOffline) != 0;
    return rec;
  }
};

// -- Typed parse/decode errors --------------------------------------------------

enum class SegmentFault : std::uint8_t {
  kBadMagic,        // first bytes are not the segment magic
  kBadVersion,      // format version newer than this build understands
  kTruncated,       // ran out of bytes mid-structure
  kCorrupt,         // structurally complete but internally inconsistent
};

[[nodiscard]] const char* to_string(SegmentFault f) noexcept;

struct SegmentError {
  SegmentFault fault = SegmentFault::kCorrupt;
  std::string detail;
};

/// Minimal expected-or-error for parse results (mirrors protocol::Result).
template <typename T>
class [[nodiscard]] SegmentResult {
 public:
  SegmentResult(T value) : v_(std::move(value)) {}            // NOLINT implicit
  SegmentResult(SegmentError error) : v_(std::move(error)) {} // NOLINT implicit

  [[nodiscard]] bool ok() const noexcept { return v_.index() == 0; }
  explicit operator bool() const noexcept { return ok(); }

  [[nodiscard]] T& value() { return std::get<0>(v_); }
  [[nodiscard]] const T& value() const { return std::get<0>(v_); }
  [[nodiscard]] const SegmentError& error() const { return std::get<1>(v_); }

 private:
  std::variant<T, SegmentError> v_;
};

// -- Summary ---------------------------------------------------------------------

/// Per-network subtotal inside a segment (drives billing breakdowns without
/// decoding the columns).
struct NetworkSubtotal {
  NetworkId network;
  std::uint64_t records = 0;
  std::int64_t energy_q_sum = 0;  // quantized nWh

  [[nodiscard]] double energy_mwh() const noexcept {
    return dequantize(energy_q_sum, kEnergyScale);
  }
};

/// Pre-aggregated answers + pruning metadata, stored ahead of the columns.
struct SegmentSummary {
  std::uint64_t count = 0;
  std::int64_t t_min_ns = 0;
  std::int64_t t_max_ns = 0;
  std::uint64_t seq_min = 0;
  std::uint64_t seq_max = 0;
  std::int64_t current_q_min = 0;
  std::int64_t current_q_max = 0;
  std::int64_t current_q_sum = 0;
  std::int64_t voltage_q_min = 0;
  std::int64_t voltage_q_max = 0;
  std::int64_t energy_q_sum = 0;
  std::vector<NetworkSubtotal> networks;

  [[nodiscard]] double energy_mwh() const noexcept {
    return dequantize(energy_q_sum, kEnergyScale);
  }
  [[nodiscard]] double mean_current_ma() const noexcept {
    return count == 0 ? 0.0
                      : dequantize(current_q_sum, kCurrentScale) /
                            static_cast<double>(count);
  }
  /// True if [t_min, t_max] intersects the half-open query range [t0, t1).
  [[nodiscard]] bool overlaps(std::int64_t t0_ns,
                              std::int64_t t1_ns) const noexcept {
    return t_min_ns < t1_ns && t_max_ns >= t0_ns;
  }
  /// True if every record's timestamp lies inside [t0, t1).
  [[nodiscard]] bool contained_in(std::int64_t t0_ns,
                                  std::int64_t t1_ns) const noexcept {
    return t_min_ns >= t0_ns && t_max_ns < t1_ns;
  }
};

// -- Sealed segment --------------------------------------------------------------

/// Records per restart block of a sealed segment (see "Restart index").
inline constexpr std::uint64_t kRestartBlock = 64;

/// Where one block of a segment starts: the byte offset of its first record
/// in each varint column (Segment column order; flags are fixed-width) and
/// the decoder state just before it — the previous record's values and
/// timestamp delta.
struct SegmentRestart {
  std::uint64_t record = 0;
  std::array<std::uint32_t, 7> offsets{};
  StoredRecord last;
  std::int64_t ts_delta = 0;
};

/// Decode work one range fold did (Tsdb counts it per query, not per record).
struct FoldCost {
  std::uint64_t blocks_skipped = 0;
  std::uint64_t records_decoded = 0;
};

template <unsigned Columns>
class SegmentDecoder;
class SegmentCursor;

/// An immutable, sealed segment: encoded bytes + the parsed summary.
class Segment {
 public:
  /// Validates and adopts an encoded segment.  Structural errors (bad magic,
  /// future version, truncation, inconsistent column lengths) come back as
  /// typed SegmentError values — never exceptions, never UB.
  [[nodiscard]] static SegmentResult<Segment> parse(
      std::span<const std::uint8_t> bytes);

  [[nodiscard]] const DeviceId& device() const noexcept { return device_; }
  [[nodiscard]] const SegmentSummary& summary() const noexcept {
    return summary_;
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return summary_.count; }
  [[nodiscard]] std::size_t byte_size() const noexcept {
    return bytes_.size();
  }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return bytes_;
  }
  /// Size of the in-memory restart index (not part of bytes()).
  [[nodiscard]] std::size_t index_bytes() const noexcept {
    return restarts_.size();
  }

  /// Lazy decoding cursor positioned at the first record.
  [[nodiscard]] SegmentCursor cursor() const;

  /// Dictionary entry for `network`, or null when no record in this segment
  /// carries it (a filtered fold then skips the segment undecoded).
  [[nodiscard]] const NetworkId* find_network(
      const NetworkId& network) const noexcept;

  /// Calls `fn(const StoredRecord&)` for every record with timestamp in the
  /// closed range [first, last], in storage order, decoding only timestamp,
  /// current, energy and the `Columns` mask, and only the blocks whose
  /// bounds overlap the range.  Returns false if a column stream stopped
  /// early — foreign bytes only; the records before that point were folded,
  /// nothing after it.  `cost` accumulates the blocks skipped and the
  /// records decoded.
  template <unsigned Columns, typename Fn>
  bool fold(std::int64_t first_ns, std::int64_t last_ns, Fn&& fn,
            FoldCost& cost) const;
  /// The same over every record.
  template <unsigned Columns, typename Fn>
  bool fold(Fn&& fn) const {
    FoldCost cost;
    return fold<Columns>(INT64_MIN, INT64_MAX, std::forward<Fn>(fn), cost);
  }

  /// Decodes every record.  Intended for self-produced segments; on a
  /// corrupt column stream it returns the records decoded so far (the cursor
  /// API exposes the typed error for untrusted input).
  [[nodiscard]] std::vector<ConsumptionRecord> decode_all() const;

 private:
  friend class ColumnChunk;
  template <unsigned Columns>
  friend class SegmentDecoder;
  Segment() = default;

  /// Column order inside a sealed segment.
  enum Column : std::size_t {
    kColTimestamps = 0,
    kColSequences = 1,
    kColIntervals = 2,
    kColCurrents = 3,
    kColVoltages = 4,
    kColEnergies = 5,
    kColNetworks = 6,
    kColFlags = 7,
    kColumnCount = 8,
  };
  /// Column `c` from byte `from` of its block on.
  [[nodiscard]] util::ByteReader column(Column c,
                                        std::size_t from = 0) const noexcept {
    const ColumnSpan& span = columns_[c];
    from = std::min(from, span.length);
    return util::ByteReader{std::span<const std::uint8_t>(
        bytes_.data() + span.offset + from, span.length - from)};
  }

  /// Walks the restart index block by block.  Layout: varint records per
  /// block and varint size of the bounds area; the bounds area, per block
  /// zigzag(t_min - previous block's t_min, the summary's t_min for block
  /// 0) and varint(t_max - t_min); then the restart area, per block after
  /// the first, seven varint column-offset advances over the previous
  /// block's and the state — zigzag(last timestamp - previous block's
  /// t_max), zigzag(timestamp delta), varint(last sequence - summary
  /// seq_min), zigzag interval, current, voltage and energy.  Walking reads
  /// only the bounds; a restart point is read when the decoder seeks to it.
  /// Differences wrap (two's complement), so any int64 clock round-trips.
  /// The index is self-built, never foreign, so a short read just ends the
  /// walk.
  class BlockWalk {
   public:
    explicit BlockWalk(const Segment& seg) noexcept
        : seg_(&seg),
          bounds_(std::span<const std::uint8_t>(seg.restarts_)),
          restarts_(std::span<const std::uint8_t>{}) {
      block_records_ = bounds_.try_varint().value_or(0);
      const std::uint64_t bounds_bytes = bounds_.try_varint().value_or(0);
      const std::size_t header = seg.restarts_.size() - bounds_.remaining();
      const std::size_t split = static_cast<std::size_t>(
          std::min<std::uint64_t>(bounds_bytes, bounds_.remaining()));
      const std::span<const std::uint8_t> all(seg.restarts_);
      bounds_ = util::ByteReader{all.subspan(header, split)};
      restarts_ = util::ByteReader{all.subspan(header + split)};
      t_min_ = seg.summary_.t_min_ns;
    }

    /// Moves to the next block; false past the last one.  Out of line: it
    /// runs once per block, and inlined it crowds the fold's record loop.
    [[gnu::noinline]] bool next() noexcept {
      const std::uint64_t first = end_;
      const auto dt = bounds_.try_zigzag();
      const auto span = bounds_.try_varint();
      if (block_records_ == 0 || first >= seg_->summary_.count || !dt ||
          !span) {
        return false;
      }
      prev_t_max_ = t_max_;
      t_min_ = add(t_min_, *dt);
      t_max_ = add(t_min_, static_cast<std::int64_t>(*span));
      first_ = first;
      end_ = std::min(seg_->summary_.count, first + block_records_);
      return true;
    }

    [[nodiscard]] bool overlaps(std::int64_t first_ns,
                                std::int64_t last_ns) const noexcept {
      return t_min_ <= last_ns && t_max_ >= first_ns;
    }
    [[nodiscard]] bool inside(std::int64_t first_ns,
                              std::int64_t last_ns) const noexcept {
      return t_min_ >= first_ns && t_max_ <= last_ns;
    }
    /// The block's first record and one past its last.
    [[nodiscard]] std::uint64_t first() const noexcept { return first_; }
    [[nodiscard]] std::uint64_t end() const noexcept { return end_; }

    /// The current block's restart point (reads the restart area forward
    /// to it; the walk never goes back).  Out of line: only a seek needs it.
    [[nodiscard, gnu::noinline]] const SegmentRestart& restart() noexcept {
      while (restart_.record < first_) {
        for (auto& offset : restart_.offsets) {
          offset += static_cast<std::uint32_t>(
              restarts_.try_varint().value_or(0));
        }
        StoredRecord& last = restart_.last;
        last.timestamp_ns = add(prev_t_max_, restarts_.try_zigzag().value_or(0));
        restart_.ts_delta = restarts_.try_zigzag().value_or(0);
        last.sequence = seg_->summary_.seq_min +
                        restarts_.try_varint().value_or(0);
        last.interval_ns = restarts_.try_zigzag().value_or(0);
        last.current_q = restarts_.try_zigzag().value_or(0);
        last.voltage_q = restarts_.try_zigzag().value_or(0);
        last.energy_q = restarts_.try_zigzag().value_or(0);
        restart_.record += block_records_;
      }
      return restart_;
    }

   private:
    static std::int64_t add(std::int64_t a, std::int64_t b) noexcept {
      return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                       static_cast<std::uint64_t>(b));
    }

    const Segment* seg_;
    util::ByteReader bounds_;
    util::ByteReader restarts_;
    std::uint64_t block_records_ = 0;
    std::int64_t t_min_ = 0;
    std::int64_t t_max_ = 0;
    std::int64_t prev_t_max_ = 0;
    std::uint64_t first_ = 0;
    std::uint64_t end_ = 0;
    /// The last restart point read; record 0's is the all-zero state.
    SegmentRestart restart_;
  };

  DeviceId device_;
  SegmentSummary summary_;
  std::vector<std::uint8_t> bytes_;
  // Column block offsets/lengths inside bytes_ (validated by parse()).
  struct ColumnSpan {
    std::size_t offset = 0;
    std::size_t length = 0;
  };
  std::array<ColumnSpan, kColumnCount> columns_{};
  std::vector<NetworkId> dictionary_;
  /// Restart index (BlockWalk has the layout); in memory only.
  std::vector<std::uint8_t> restarts_;
};

/// The one segment decoder: streams records in storage order, reading only
/// the timestamp, current and energy columns plus the `Columns` mask.
/// `next()` stops at end-of-segment or at the first column it cannot read
/// (one that runs dry, a malformed varint, an index outside the dictionary)
/// — never reading past a column, never yielding a record it could not
/// fully decode — and `failure()` names the column, `failure_reason()` why.
/// Inline so a fold's per-record callback compiles into the loop.
template <unsigned Columns>
class SegmentDecoder {
 public:
  explicit SegmentDecoder(const Segment& segment) noexcept
      : segment_(&segment),
        stop_(segment.count()),
        timestamps_(segment.column(Segment::kColTimestamps)),
        sequences_(segment.column(Segment::kColSequences)),
        intervals_(segment.column(Segment::kColIntervals)),
        currents_(segment.column(Segment::kColCurrents)),
        voltages_(segment.column(Segment::kColVoltages)),
        energies_(segment.column(Segment::kColEnergies)),
        networks_(segment.column(Segment::kColNetworks)),
        flags_(segment.column(Segment::kColFlags)) {}

  /// Repositions the decoder at a block's restart point: the next record
  /// decoded is `at.record`.
  void seek(const SegmentRestart& at) noexcept {
    timestamps_ = segment_->column(Segment::kColTimestamps, at.offsets[0]);
    sequences_ = segment_->column(Segment::kColSequences, at.offsets[1]);
    intervals_ = segment_->column(Segment::kColIntervals, at.offsets[2]);
    currents_ = segment_->column(Segment::kColCurrents, at.offsets[3]);
    voltages_ = segment_->column(Segment::kColVoltages, at.offsets[4]);
    energies_ = segment_->column(Segment::kColEnergies, at.offsets[5]);
    networks_ = segment_->column(Segment::kColNetworks, at.offsets[6]);
    // Blocks start on a multiple of 4 records: a whole flags byte.
    flags_ = segment_->column(Segment::kColFlags,
                              static_cast<std::size_t>(at.record / 4));
    rec_ = at.last;
    ts_delta_ = at.ts_delta;
    decoded_ = at.record;
  }

  /// Decodes the next record into record(); false at end-of-segment (or at
  /// the stop_at() record) or on a corrupt column stream (then failure() is
  /// set).
  bool next() noexcept {
    if (decoded_ == stop_ || failure_ != nullptr) {
      return false;
    }
    // Timestamps: raw, then delta, then delta-of-delta (the delta starts at
    // 0, so record 1's plain delta folds in through the same add).
    std::int64_t ts = 0;
    if (const char* why = timestamps_.read_zigzag(ts)) {
      return fail("timestamp column", why);
    }
    std::int64_t t = ts;
    std::int64_t ts_delta = ts_delta_;
    if (decoded_ != 0) {
      ts_delta = wrapping_add(ts_delta, ts);
      t = wrapping_add(rec_.timestamp_ns, ts_delta);
    }
    std::uint64_t seq = 0;
    std::int64_t interval = 0;
    if constexpr ((Columns & columns::kRest) != 0) {
      // Sequences: raw first value, then signed deltas.
      if (decoded_ == 0) {
        if (const char* why = sequences_.read_varint(seq)) {
          return fail("sequence column", why);
        }
      } else {
        std::int64_t d = 0;
        if (const char* why = sequences_.read_zigzag(d)) {
          return fail("sequence column", why);
        }
        seq = rec_.sequence + static_cast<std::uint64_t>(d);
      }
      if (const char* why = delta(intervals_, rec_.interval_ns, interval)) {
        return fail("interval column", why);
      }
    }
    std::int64_t current = 0;
    if (const char* why = delta(currents_, rec_.current_q, current)) {
      return fail("current column", why);
    }
    std::int64_t voltage = 0;
    if constexpr ((Columns & columns::kRest) != 0) {
      if (const char* why = delta(voltages_, rec_.voltage_q, voltage)) {
        return fail("voltage column", why);
      }
    }
    std::int64_t energy = 0;
    if (const char* why = delta(energies_, rec_.energy_q, energy)) {
      return fail("energy column", why);
    }
    const NetworkId* network = nullptr;
    if constexpr ((Columns & columns::kNetwork) != 0) {
      std::uint64_t index = 0;
      if (const char* why = networks_.read_varint(index)) {
        return fail("network column", why);
      }
      if (index >= segment_->dictionary_.size()) {
        return fail("network column", "index outside dictionary");
      }
      network = &segment_->dictionary_[static_cast<std::size_t>(index)];
    }
    std::uint8_t flags = 0;
    if constexpr ((Columns & columns::kFlags) != 0) {
      if (decoded_ % 4 == 0) {
        const auto packed = flags_.try_u8();
        if (!packed) {
          return fail("flags column", "exhausted");
        }
        flags_byte_ = *packed;
      }
      flags = (flags_byte_ >> ((decoded_ % 4) * 2)) & 0x3;
    }
    // Every column decoded: only now does record() move on (it is also the
    // running state the next record's deltas apply to).
    ts_delta_ = ts_delta;
    rec_.timestamp_ns = t;
    rec_.current_q = current;
    rec_.energy_q = energy;
    rec_.network = network;
    rec_.flags = flags;
    rec_.sequence = seq;
    rec_.interval_ns = interval;
    rec_.voltage_q = voltage;
    ++decoded_;
    return true;
  }

  /// Makes next() stop (cleanly) before record `end` as well.
  void stop_at(std::uint64_t end) noexcept {
    stop_ = std::min(end, segment_->count());
  }

  /// The last record next() decoded.
  [[nodiscard]] const StoredRecord& record() const noexcept { return rec_; }

  [[nodiscard]] std::uint64_t decoded() const noexcept { return decoded_; }
  /// Set iff next() stopped on corruption rather than end-of-segment: the
  /// column it could not read, and why (for a varint, read_varint's reason).
  [[nodiscard]] const char* failure() const noexcept { return failure_; }
  [[nodiscard]] const char* failure_reason() const noexcept { return reason_; }

 private:
  /// Two's-complement add: hostile deltas wrap instead of overflowing (UB).
  static std::int64_t wrapping_add(std::int64_t a, std::int64_t b) noexcept {
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                     static_cast<std::uint64_t>(b));
  }
  /// Zigzag delta column: raw first value, then deltas off `last` (the
  /// previous record's value, zero before the first).  Returns
  /// read_zigzag's reason on failure.
  static const char* delta(util::ByteReader& r, std::int64_t last,
                           std::int64_t& value) noexcept {
    std::int64_t v = 0;
    const char* why = r.read_zigzag(v);
    value = wrapping_add(last, v);
    return why;
  }
  bool fail(const char* column, const char* why) noexcept {
    failure_ = column;
    reason_ = why;
    return false;
  }

  const Segment* segment_;
  std::uint64_t decoded_ = 0;
  std::uint64_t stop_;
  const char* failure_ = nullptr;
  const char* reason_ = nullptr;
  util::ByteReader timestamps_;
  util::ByteReader sequences_;
  util::ByteReader intervals_;
  util::ByteReader currents_;
  util::ByteReader voltages_;
  util::ByteReader energies_;
  util::ByteReader networks_;
  util::ByteReader flags_;
  StoredRecord rec_;
  std::int64_t ts_delta_ = 0;
  std::uint8_t flags_byte_ = 0;
};

template <unsigned Columns, typename Fn>
bool Segment::fold(std::int64_t first_ns, std::int64_t last_ns, Fn&& fn,
                   FoldCost& cost) const {
  // One loop over records; the rare block end hands over to the walk
  // (starting with "the end of no block" before record 0).
  SegmentDecoder<Columns> decoder{*this};
  decoder.stop_at(0);
  BlockWalk block{*this};
  std::uint64_t from = 0;
  bool inside = false;
  for (;;) {
    if (!decoder.next()) {
      cost.records_decoded += decoder.decoded() - from;
      if (decoder.failure() != nullptr) {
        return false;
      }
      // Block end: move to the next block the range overlaps.
      for (;;) {
        if (!block.next()) {
          return true;
        }
        if (block.overlaps(first_ns, last_ns)) {
          break;
        }
        ++cost.blocks_skipped;
      }
      if (decoder.decoded() != block.first()) {
        decoder.seek(block.restart());
      }
      from = decoder.decoded();
      decoder.stop_at(block.end());
      inside = block.inside(first_ns, last_ns);
      continue;
    }
    const StoredRecord& r = decoder.record();
    if (inside || (r.timestamp_ns >= first_ns && r.timestamp_ns <= last_ns)) {
      fn(r);
    }
  }
}

/// Record-at-a-time cursor over a sealed segment: the all-columns case of
/// SegmentDecoder, materializing each record.  A corrupt column stream stops
/// iteration and surfaces a typed error (the contract for untrusted bytes).
class SegmentCursor {
 public:
  explicit SegmentCursor(const Segment& segment)
      : segment_(&segment), decoder_(segment) {}

  /// Decodes the next record, or nullopt at end-of-segment / on error.
  [[nodiscard]] std::optional<ConsumptionRecord> next();

  [[nodiscard]] std::uint64_t decoded() const noexcept {
    return decoder_.decoded();
  }
  [[nodiscard]] bool done() const noexcept {
    return decoded() == segment_->count() || error_.has_value();
  }
  /// Set iff iteration stopped on corruption rather than end-of-segment.
  [[nodiscard]] const std::optional<SegmentError>& error() const noexcept {
    return error_;
  }

 private:
  const Segment* segment_;
  SegmentDecoder<columns::kAll> decoder_;
  std::optional<SegmentError> error_;
};

// -- Open columns ----------------------------------------------------------------

/// A fixed-capacity block of quantized columns: the one open-head layout,
/// used by the Tsdb's head chunk (store/tsdb.cpp) and by SegmentBuilder.
/// put() stores each record in the form a sealed segment holds (so the open
/// head and the sealed segments agree bit-for-bit) and seal() encodes the
/// first n rows.  The fill counts live with the owner, which passes them in;
/// rows and dictionary slots below them are never rewritten.
class ColumnChunk {
 public:
  ColumnChunk() = default;  // capacity 0, nothing allocated
  ColumnChunk(std::uint32_t capacity, std::uint32_t dict_capacity);
  /// The growth copy: `from`'s first `n` rows and `dict_size` names, with
  /// room for row n and its dictionary index `network` — a full row
  /// capacity doubles (up to `max_capacity`), and so does a full dictionary
  /// when the name is new.
  ColumnChunk(const ColumnChunk& from, std::uint32_t n, std::uint32_t network,
              std::uint32_t dict_size, std::uint32_t max_capacity);

  /// Dictionary index of `network` among the first `dict_size` names
  /// (first-seen order), or `dict_size` when it is new.
  [[nodiscard]] std::uint32_t find(const NetworkId& network,
                                   std::uint32_t dict_size) const noexcept {
    for (std::uint32_t j = 0; j < dict_size; ++j) {
      if (dict_[j] == network) {
        return j;
      }
    }
    return dict_size;
  }
  /// True when row n with dictionary index `network` needs the growth copy.
  [[nodiscard]] bool full(std::uint32_t n, std::uint32_t network,
                          std::uint32_t dict_size) const noexcept {
    return n == capacity_ ||
           (network == dict_size && dict_size == dict_capacity_);
  }

  /// Writes `record` as row i with dictionary index `network` (from
  /// find()); a new name goes into its slot first and counts in
  /// `dict_size`.  The one record-to-columns writer.
  void put(std::uint32_t i, const ConsumptionRecord& record,
           std::uint32_t network, std::uint32_t& dict_size) {
    if (network == dict_size) {
      dict_[network] = record.network;
      ++dict_size;
    }
    timestamps_[i] = record.timestamp_ns;
    sequences_[i] = record.sequence;
    intervals_[i] = record.interval_ns;
    currents_q_[i] = quantize(record.current_ma, kCurrentScale);
    voltages_q_[i] = quantize(record.bus_voltage_mv, kVoltageScale);
    energies_q_[i] = quantize(record.energy_mwh, kEnergyScale);
    network_ids_[i] = network;
    flags_[i] = static_cast<std::uint8_t>(
        (record.membership == core::MembershipKind::kTemporary
             ? kFlagTemporary
             : 0) |
        (record.stored_offline ? kFlagOffline : 0));
  }

  /// Row i in stored form, filling timestamp, current, energy and the
  /// `Columns` mask.  Reads the dictionary only as a pointer offset, never
  /// the slot itself.
  template <unsigned Columns>
  [[nodiscard]] StoredRecord stored(std::uint32_t i) const noexcept {
    StoredRecord rec;
    rec.timestamp_ns = timestamps_[i];
    rec.current_q = currents_q_[i];
    rec.energy_q = energies_q_[i];
    if constexpr ((Columns & columns::kNetwork) != 0) {
      rec.network = dict_.get() + network_ids_[i];
    }
    if constexpr ((Columns & columns::kFlags) != 0) {
      rec.flags = flags_[i];
    }
    if constexpr ((Columns & columns::kRest) != 0) {
      rec.sequence = sequences_[i];
      rec.interval_ns = intervals_[i];
      rec.voltage_q = voltages_q_[i];
    }
    return rec;
  }
  [[nodiscard]] const std::int64_t* timestamps() const noexcept {
    return timestamps_.get();
  }
  [[nodiscard]] std::span<const NetworkId> dictionary(
      std::uint32_t dict_size) const noexcept {
    return {dict_.get(), dict_size};
  }

  /// Summary of the first `n` rows (same shape as a sealed segment's).
  [[nodiscard]] SegmentSummary summary(std::uint32_t n,
                                       std::uint32_t dict_size) const;
  /// Encodes the first `n` rows into a sealed Segment of `device`.
  [[nodiscard]] Segment seal(const DeviceId& device, std::uint32_t n,
                             std::uint32_t dict_size) const;

 private:
  std::uint32_t capacity_ = 0;
  std::uint32_t dict_capacity_ = 0;
  std::unique_ptr<std::int64_t[]> timestamps_;
  std::unique_ptr<std::uint64_t[]> sequences_;
  std::unique_ptr<std::int64_t[]> intervals_;
  std::unique_ptr<std::int64_t[]> currents_q_;
  std::unique_ptr<std::int64_t[]> voltages_q_;
  std::unique_ptr<std::int64_t[]> energies_q_;
  std::unique_ptr<std::uint32_t[]> network_ids_;
  std::unique_ptr<std::uint8_t[]> flags_;  // kFlagTemporary | kFlagOffline
  std::unique_ptr<NetworkId[]> dict_;
};

/// Append-only open head of a series on one thread: a ColumnChunk grown by
/// doubling, plus its fill.
class SegmentBuilder {
 public:
  SegmentBuilder() = default;

  void append(const ConsumptionRecord& record);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] const DeviceId& device() const noexcept { return device_; }
  /// Summary over the records appended so far (same shape as a sealed
  /// segment's, so queries treat the head uniformly).
  [[nodiscard]] SegmentSummary summary() const {
    return chunk_.summary(count_, dict_size_);
  }
  /// In-memory footprint of the open columns (the byte-budget contribution
  /// of the head before it compresses).
  [[nodiscard]] std::size_t open_bytes() const noexcept;

  /// Encodes the columns into a sealed Segment and resets the builder.
  [[nodiscard]] Segment seal();

  /// Returns all appended records (dequantized) and resets the builder.
  [[nodiscard]] std::vector<ConsumptionRecord> drain();

  /// Empties the builder; the chunk keeps its capacity.
  void clear() noexcept;

 private:
  DeviceId device_;
  ColumnChunk chunk_;
  std::uint32_t count_ = 0;
  std::uint32_t dict_size_ = 0;
};

}  // namespace emon::store
