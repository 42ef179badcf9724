#include "store/segment.hpp"

#include <algorithm>
#include <array>

namespace emon::store {

namespace {

// "ESG1" little-endian.
constexpr std::uint32_t kSegmentMagic = 0x31475345;
constexpr std::uint8_t kSegmentVersion = 1;

/// Two's-complement difference: any pair of int64 clocks round-trips.
std::int64_t wrapping_sub(std::int64_t a, std::int64_t b) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}

/// Assembles a restart index (layout in Segment::BlockWalk), sized exactly.
std::vector<std::uint8_t> restart_index(std::uint64_t block_records,
                                        const util::ByteWriter& bounds,
                                        const util::ByteWriter& restarts) {
  util::ByteWriter header;
  header.varint(block_records);
  header.varint(bounds.size());
  std::vector<std::uint8_t> index;
  index.reserve(header.size() + bounds.size() + restarts.size());
  for (const auto* part : {&header.bytes(), &bounds.bytes(), &restarts.bytes()}) {
    index.insert(index.end(), part->begin(), part->end());
  }
  return index;
}

}  // namespace

const char* to_string(SegmentFault f) noexcept {
  switch (f) {
    case SegmentFault::kBadMagic:
      return "bad-magic";
    case SegmentFault::kBadVersion:
      return "bad-version";
    case SegmentFault::kTruncated:
      return "truncated";
    case SegmentFault::kCorrupt:
      return "corrupt";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Parse (foreign bytes -> validated Segment)
// ---------------------------------------------------------------------------

SegmentResult<Segment> Segment::parse(std::span<const std::uint8_t> bytes) {
  util::ByteReader r{bytes};
  const auto magic = r.try_u32();
  if (!magic) {
    return SegmentError{SegmentFault::kTruncated, "no room for magic"};
  }
  if (*magic != kSegmentMagic) {
    return SegmentError{SegmentFault::kBadMagic, "not a segment"};
  }
  const auto version = r.try_u8();
  if (!version) {
    return SegmentError{SegmentFault::kTruncated, "no room for version"};
  }
  if (*version > kSegmentVersion) {
    return SegmentError{SegmentFault::kBadVersion,
                        "segment version " + std::to_string(*version)};
  }

  Segment seg;
  auto device = r.try_str();
  if (!device) {
    return SegmentError{SegmentFault::kTruncated, "device id"};
  }
  seg.device_ = std::move(*device);

  // Summary block.
  auto& s = seg.summary_;
  const auto count = r.try_varint();
  const auto t_min = r.try_zigzag();
  const auto t_max = r.try_zigzag();
  const auto seq_min = r.try_varint();
  const auto seq_max = r.try_varint();
  const auto cur_min = r.try_zigzag();
  const auto cur_max = r.try_zigzag();
  const auto cur_sum = r.try_zigzag();
  const auto volt_min = r.try_zigzag();
  const auto volt_max = r.try_zigzag();
  const auto energy_sum = r.try_zigzag();
  if (!count || !t_min || !t_max || !seq_min || !seq_max || !cur_min ||
      !cur_max || !cur_sum || !volt_min || !volt_max || !energy_sum) {
    return SegmentError{SegmentFault::kTruncated, "summary block"};
  }
  // Each record costs at least one byte per varint column plus 2 bits of
  // flags; an adversarial count cannot exceed the bytes present (and the
  // bound keeps later (count + 3) / 4 arithmetic overflow-free).
  if (*count > r.remaining()) {
    return SegmentError{SegmentFault::kCorrupt,
                        "record count exceeds remaining bytes"};
  }
  s.count = *count;
  s.t_min_ns = *t_min;
  s.t_max_ns = *t_max;
  s.seq_min = *seq_min;
  s.seq_max = *seq_max;
  s.current_q_min = *cur_min;
  s.current_q_max = *cur_max;
  s.current_q_sum = *cur_sum;
  s.voltage_q_min = *volt_min;
  s.voltage_q_max = *volt_max;
  s.energy_q_sum = *energy_sum;

  // Network dictionary with per-network subtotals.
  const auto dict_count = r.try_varint();
  if (!dict_count) {
    return SegmentError{SegmentFault::kTruncated, "dictionary count"};
  }
  // Each entry needs at least a 4-byte length prefix + 2 varint bytes, so an
  // adversarial count cannot force a giant allocation.
  if (*dict_count > r.remaining() / 6 + 1) {
    return SegmentError{SegmentFault::kCorrupt,
                        "dictionary count exceeds remaining bytes"};
  }
  std::uint64_t dict_records = 0;
  seg.dictionary_.reserve(static_cast<std::size_t>(*dict_count));
  s.networks.reserve(static_cast<std::size_t>(*dict_count));
  for (std::uint64_t i = 0; i < *dict_count; ++i) {
    auto name = r.try_str();
    const auto records = r.try_varint();
    const auto energy_q = r.try_zigzag();
    if (!name || !records || !energy_q) {
      return SegmentError{SegmentFault::kTruncated, "dictionary entry"};
    }
    dict_records += *records;
    seg.dictionary_.push_back(*name);
    s.networks.push_back(NetworkSubtotal{std::move(*name), *records,
                                         *energy_q});
  }
  if (dict_records != s.count) {
    return SegmentError{SegmentFault::kCorrupt,
                        "dictionary subtotals disagree with record count"};
  }

  // Column blocks.
  const auto n_columns = r.try_u8();
  if (!n_columns) {
    return SegmentError{SegmentFault::kTruncated, "column count"};
  }
  if (*n_columns != kColumnCount) {
    return SegmentError{SegmentFault::kCorrupt,
                        "expected " + std::to_string(kColumnCount) +
                            " columns, got " + std::to_string(*n_columns)};
  }
  for (std::size_t c = 0; c < kColumnCount; ++c) {
    const auto len = r.try_u32();
    if (!len) {
      return SegmentError{SegmentFault::kTruncated, "column length"};
    }
    if (r.remaining() < *len) {
      return SegmentError{SegmentFault::kTruncated, "column body"};
    }
    seg.columns_[c] = ColumnSpan{bytes.size() - r.remaining(), *len};
    (void)r.try_raw(*len);
  }
  if (!r.done()) {
    return SegmentError{SegmentFault::kCorrupt, "trailing bytes"};
  }
  // The flags column is fixed-width: exactly 2 bits per record.
  if (seg.columns_[kColFlags].length != (s.count + 3) / 4) {
    return SegmentError{SegmentFault::kCorrupt, "flags column size"};
  }
  seg.bytes_.assign(bytes.begin(), bytes.end());
  // One block over every record, bounded by the summary (see BlockWalk).
  util::ByteWriter bounds;
  if (s.count != 0) {
    bounds.zigzag(0);
    bounds.varint(
        static_cast<std::uint64_t>(wrapping_sub(s.t_max_ns, s.t_min_ns)));
  }
  seg.restarts_ = restart_index(s.count, bounds, util::ByteWriter{});
  return seg;
}

SegmentCursor Segment::cursor() const { return SegmentCursor{*this}; }

std::vector<ConsumptionRecord> Segment::decode_all() const {
  std::vector<ConsumptionRecord> out;
  out.reserve(static_cast<std::size_t>(count()));
  SegmentCursor cur{*this};
  while (auto rec = cur.next()) {
    out.push_back(std::move(*rec));
  }
  return out;
}

const NetworkId* Segment::find_network(
    const NetworkId& network) const noexcept {
  const auto it = std::find(dictionary_.begin(), dictionary_.end(), network);
  return it == dictionary_.end() ? nullptr : &*it;
}

// ---------------------------------------------------------------------------
// Cursor (record-at-a-time decode over SegmentDecoder<kAll>)
// ---------------------------------------------------------------------------

std::optional<ConsumptionRecord> SegmentCursor::next() {
  if (done()) {
    return std::nullopt;
  }
  if (!decoder_.next()) {
    error_ = SegmentError{SegmentFault::kCorrupt,
                          std::string(decoder_.failure()) + " at record " +
                              std::to_string(decoder_.decoded())};
    return std::nullopt;
  }
  return decoder_.record().materialize(segment_->device());
}

// ---------------------------------------------------------------------------
// Open columns
// ---------------------------------------------------------------------------

ColumnChunk::ColumnChunk(std::uint32_t capacity, std::uint32_t dict_capacity)
    : capacity_(capacity),
      dict_capacity_(dict_capacity),
      timestamps_(new std::int64_t[capacity]),
      sequences_(new std::uint64_t[capacity]),
      intervals_(new std::int64_t[capacity]),
      currents_q_(new std::int64_t[capacity]),
      voltages_q_(new std::int64_t[capacity]),
      energies_q_(new std::int64_t[capacity]),
      network_ids_(new std::uint32_t[capacity]),
      flags_(new std::uint8_t[capacity]),
      dict_(new NetworkId[dict_capacity]) {}

ColumnChunk::ColumnChunk(const ColumnChunk& from, std::uint32_t n,
                         std::uint32_t network, std::uint32_t dict_size,
                         std::uint32_t max_capacity)
    : ColumnChunk(
          n == from.capacity_
              ? std::min(std::max(1u, from.capacity_ * 2), max_capacity)
              : from.capacity_,
          network == dict_size && dict_size == from.dict_capacity_
              ? std::max(1u, from.dict_capacity_ * 2)
              : from.dict_capacity_) {
  std::copy_n(from.timestamps_.get(), n, timestamps_.get());
  std::copy_n(from.sequences_.get(), n, sequences_.get());
  std::copy_n(from.intervals_.get(), n, intervals_.get());
  std::copy_n(from.currents_q_.get(), n, currents_q_.get());
  std::copy_n(from.voltages_q_.get(), n, voltages_q_.get());
  std::copy_n(from.energies_q_.get(), n, energies_q_.get());
  std::copy_n(from.network_ids_.get(), n, network_ids_.get());
  std::copy_n(from.flags_.get(), n, flags_.get());
  std::copy_n(from.dict_.get(), dict_size, dict_.get());
}

SegmentSummary ColumnChunk::summary(std::uint32_t n,
                                    std::uint32_t dict_size) const {
  SegmentSummary s;
  s.count = n;
  if (n == 0) {
    return s;
  }
  const auto [t_min, t_max] =
      std::ranges::minmax(std::span(timestamps_.get(), n));
  const auto [seq_min, seq_max] =
      std::ranges::minmax(std::span(sequences_.get(), n));
  const auto [cur_min, cur_max] =
      std::ranges::minmax(std::span(currents_q_.get(), n));
  const auto [volt_min, volt_max] =
      std::ranges::minmax(std::span(voltages_q_.get(), n));
  s.t_min_ns = t_min;
  s.t_max_ns = t_max;
  s.seq_min = seq_min;
  s.seq_max = seq_max;
  s.current_q_min = cur_min;
  s.current_q_max = cur_max;
  s.voltage_q_min = volt_min;
  s.voltage_q_max = volt_max;
  s.networks.resize(dict_size);
  for (std::uint32_t j = 0; j < dict_size; ++j) {
    s.networks[j].network = dict_[j];
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    s.current_q_sum += currents_q_[i];
    s.energy_q_sum += energies_q_[i];
    NetworkSubtotal& sub = s.networks[network_ids_[i]];
    sub.records += 1;
    sub.energy_q_sum += energies_q_[i];
  }
  return s;
}

Segment ColumnChunk::seal(const DeviceId& device, std::uint32_t n,
                          std::uint32_t dict_size) const {
  const SegmentSummary s = summary(n, dict_size);

  util::ByteWriter cols[Segment::kColumnCount];
  std::int64_t prev_ts = 0;
  std::int64_t prev_ts_delta = 0;
  // Restart index, written as the encode pass goes (layout in
  // Segment::BlockWalk): a block's restart point when it starts, its bounds
  // when it ends.
  util::ByteWriter bounds;
  util::ByteWriter restarts;
  std::array<std::size_t, 7> offsets{};
  std::int64_t prev_block_t_min = s.t_min_ns;
  std::int64_t block_t_min = 0;
  std::int64_t block_t_max = 0;
  // Every difference wraps, as the decoder's adds do: any int64 clock and
  // any quantized value round-trips.
  for (std::size_t i = 0; i < n; ++i) {
    if (i % kRestartBlock == 0) {
      if (i != 0) {
        for (std::size_t c = 0; c < offsets.size(); ++c) {
          restarts.varint(cols[c].size() - offsets[c]);
          offsets[c] = cols[c].size();
        }
        restarts.zigzag(wrapping_sub(prev_ts, block_t_max));
        restarts.zigzag(prev_ts_delta);
        restarts.varint(sequences_[i - 1] - s.seq_min);
        restarts.zigzag(intervals_[i - 1]);
        restarts.zigzag(currents_q_[i - 1]);
        restarts.zigzag(voltages_q_[i - 1]);
        restarts.zigzag(energies_q_[i - 1]);
      }
      block_t_min = timestamps_[i];
      block_t_max = timestamps_[i];
    } else {
      block_t_min = std::min(block_t_min, timestamps_[i]);
      block_t_max = std::max(block_t_max, timestamps_[i]);
    }
    // Timestamps: raw, delta, then delta-of-delta (record 1's delta is
    // taken off a zero delta).  The other value columns: raw, then deltas.
    const std::int64_t delta =
        i == 0 ? 0 : wrapping_sub(timestamps_[i], prev_ts);
    cols[Segment::kColTimestamps].zigzag(
        i == 0 ? timestamps_[0] : wrapping_sub(delta, prev_ts_delta));
    prev_ts_delta = delta;
    prev_ts = timestamps_[i];
    const auto change = [i](const auto& column) {
      return i == 0 ? column[0] : wrapping_sub(column[i], column[i - 1]);
    };
    if (i == 0) {
      cols[Segment::kColSequences].varint(sequences_[0]);
    } else {
      cols[Segment::kColSequences].zigzag(
          static_cast<std::int64_t>(sequences_[i] - sequences_[i - 1]));
    }
    cols[Segment::kColIntervals].zigzag(change(intervals_));
    cols[Segment::kColCurrents].zigzag(change(currents_q_));
    cols[Segment::kColVoltages].zigzag(change(voltages_q_));
    cols[Segment::kColEnergies].zigzag(change(energies_q_));
    cols[Segment::kColNetworks].varint(network_ids_[i]);
    if (i % kRestartBlock == kRestartBlock - 1 || i + 1 == n) {
      bounds.zigzag(wrapping_sub(block_t_min, prev_block_t_min));
      bounds.varint(static_cast<std::uint64_t>(
          wrapping_sub(block_t_max, block_t_min)));
      prev_block_t_min = block_t_min;
    }
  }
  for (std::size_t i = 0; i < n; i += 4) {
    std::uint8_t packed = 0;
    for (std::size_t j = 0; j < 4 && i + j < n; ++j) {
      packed = static_cast<std::uint8_t>(packed |
                                         ((flags_[i + j] & 0x3) << (j * 2)));
    }
    cols[Segment::kColFlags].u8(packed);
  }

  util::ByteWriter w;
  w.u32(kSegmentMagic);
  w.u8(kSegmentVersion);
  w.str(device);
  w.varint(s.count);
  w.zigzag(s.t_min_ns);
  w.zigzag(s.t_max_ns);
  w.varint(s.seq_min);
  w.varint(s.seq_max);
  w.zigzag(s.current_q_min);
  w.zigzag(s.current_q_max);
  w.zigzag(s.current_q_sum);
  w.zigzag(s.voltage_q_min);
  w.zigzag(s.voltage_q_max);
  w.zigzag(s.energy_q_sum);
  w.varint(dict_size);
  for (const auto& sub : s.networks) {
    w.str(sub.network);
    w.varint(sub.records);
    w.zigzag(sub.energy_q_sum);
  }
  w.u8(Segment::kColumnCount);
  Segment seg;
  seg.device_ = device;
  seg.summary_ = s;
  seg.dictionary_.assign(dict_.get(), dict_.get() + dict_size);
  // The final size is known now: reserve it, so the sealed bytes carry no
  // growth slack for the store's lifetime.
  std::size_t total = w.size();
  for (const auto& col : cols) {
    total += 4 + col.size();
  }
  w.reserve(total);
  // Column offsets are only known as we lay the blocks down.
  for (std::size_t c = 0; c < Segment::kColumnCount; ++c) {
    const auto& bytes = cols[c].bytes();
    w.u32(static_cast<std::uint32_t>(bytes.size()));
    seg.columns_[c] = Segment::ColumnSpan{w.size(), bytes.size()};
    w.raw(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  }
  seg.bytes_ = w.take();
  seg.restarts_ = restart_index(kRestartBlock, bounds, restarts);
  return seg;
}

void SegmentBuilder::append(const ConsumptionRecord& record) {
  if (count_ == 0) {
    device_ = record.device_id;
  }
  const std::uint32_t network = chunk_.find(record.network, dict_size_);
  if (chunk_.full(count_, network, dict_size_)) {
    chunk_ = ColumnChunk(chunk_, count_, network, dict_size_, UINT32_MAX);
  }
  chunk_.put(count_, record, network, dict_size_);
  ++count_;
}

std::size_t SegmentBuilder::open_bytes() const noexcept {
  // Six 8-byte columns, a 4-byte dictionary id and a flags byte per record,
  // plus the dictionary strings.
  std::size_t bytes = count() * (6 * 8 + 4 + 1) + device_.size();
  for (const auto& name : chunk_.dictionary(dict_size_)) {
    bytes += name.size();
  }
  return bytes;
}

Segment SegmentBuilder::seal() {
  Segment seg = chunk_.seal(device_, count_, dict_size_);
  clear();
  return seg;
}

std::vector<ConsumptionRecord> SegmentBuilder::drain() {
  std::vector<ConsumptionRecord> out;
  out.reserve(count_);
  for (std::uint32_t i = 0; i < count_; ++i) {
    out.push_back(chunk_.stored<columns::kAll>(i).materialize(device_));
  }
  clear();
  return out;
}

void SegmentBuilder::clear() noexcept {
  device_.clear();
  count_ = 0;
  dict_size_ = 0;
}

}  // namespace emon::store
