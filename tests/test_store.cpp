// The embedded time-series store (src/store/): segment codec round-trips
// and quantization bounds, typed decode errors on truncated/corrupt bytes,
// SeriesStore FIFO/budget/eviction accounting, and Tsdb query correctness
// against naive references (including the billing-equivalence acceptance
// bound: store totals vs exact accumulation within the documented
// quantization tolerance).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/billing.hpp"
#include "core/records.hpp"
#include "reference_billing.hpp"
#include "store/query_engine.hpp"
#include "store/segment.hpp"
#include "store/series_store.hpp"
#include "store/tsdb.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace emon::store {
namespace {

using core::ConsumptionRecord;
using core::MembershipKind;

/// A realistic 10 Hz stream: jittered timestamps, noisy current around a
/// slow ramp, occasional network changes — the shape the codec must exploit.
std::vector<ConsumptionRecord> synthetic_stream(std::size_t n,
                                                std::uint64_t seed,
                                                std::int64_t t0_ns = 0) {
  util::Rng rng{seed};
  std::vector<ConsumptionRecord> out;
  out.reserve(n);
  std::int64_t t = t0_ns;
  for (std::size_t i = 0; i < n; ++i) {
    t += 100'000'000 + static_cast<std::int64_t>(rng.uniform(-50e3, 50e3));
    ConsumptionRecord r;
    r.device_id = "dev-1";
    r.sequence = i + 1;
    r.timestamp_ns = t;
    r.interval_ns = 100'000'000;
    r.current_ma = 250.0 + 0.05 * static_cast<double>(i) +
                   rng.uniform(-4.0, 4.0);
    r.bus_voltage_mv = 5000.0 + rng.uniform(-8.0, 8.0);
    r.energy_mwh = r.current_ma * 5.0 * (0.1 / 3600.0);
    r.network = i % 97 == 0 ? "wan-2" : "wan-1";
    r.membership =
        i % 97 == 0 ? MembershipKind::kTemporary : MembershipKind::kHome;
    r.stored_offline = i % 5 == 0;
    out.push_back(std::move(r));
  }
  return out;
}

void expect_near_record(const ConsumptionRecord& got,
                        const ConsumptionRecord& want) {
  EXPECT_EQ(got.device_id, want.device_id);
  EXPECT_EQ(got.sequence, want.sequence);
  EXPECT_EQ(got.timestamp_ns, want.timestamp_ns);  // timestamps are exact
  EXPECT_EQ(got.interval_ns, want.interval_ns);
  EXPECT_EQ(got.network, want.network);
  EXPECT_EQ(got.membership, want.membership);
  EXPECT_EQ(got.stored_offline, want.stored_offline);
  EXPECT_NEAR(got.current_ma, want.current_ma, kCurrentToleranceMa);
  EXPECT_NEAR(got.bus_voltage_mv, want.bus_voltage_mv, kVoltageToleranceMv);
  EXPECT_NEAR(got.energy_mwh, want.energy_mwh, kEnergyToleranceMwh);
}

// ---------------------------------------------------------------------------
// Segment codec
// ---------------------------------------------------------------------------

TEST(Segment, RoundTripWithinQuantizationBounds) {
  const auto records = synthetic_stream(300, 7);
  SegmentBuilder builder;
  for (const auto& r : records) {
    builder.append(r);
  }
  const Segment seg = builder.seal();
  ASSERT_EQ(seg.count(), records.size());
  const auto decoded = seg.decode_all();
  ASSERT_EQ(decoded.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    expect_near_record(decoded[i], records[i]);
  }
}

TEST(Segment, ReparseOwnBytesIsIdentical) {
  const auto records = synthetic_stream(100, 11);
  SegmentBuilder builder;
  for (const auto& r : records) {
    builder.append(r);
  }
  const Segment seg = builder.seal();
  auto reparsed = Segment::parse(seg.bytes());
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().detail;
  EXPECT_EQ(reparsed.value().count(), seg.count());
  EXPECT_EQ(reparsed.value().summary().energy_q_sum,
            seg.summary().energy_q_sum);
  const auto a = seg.decode_all();
  const auto b = reparsed.value().decode_all();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);  // bit-for-bit: both sides decode quantized data
  }
}

TEST(Segment, SummaryMatchesNaiveAggregation) {
  const auto records = synthetic_stream(257, 13);
  SegmentBuilder builder;
  for (const auto& r : records) {
    builder.append(r);
  }
  const SegmentSummary s = builder.summary();
  EXPECT_EQ(s.count, records.size());
  std::int64_t t_min = records[0].timestamp_ns;
  std::int64_t t_max = records[0].timestamp_ns;
  double energy = 0.0;
  std::uint64_t wan1 = 0;
  for (const auto& r : records) {
    t_min = std::min(t_min, r.timestamp_ns);
    t_max = std::max(t_max, r.timestamp_ns);
    energy += r.energy_mwh;
    wan1 += r.network == "wan-1" ? 1 : 0;
  }
  EXPECT_EQ(s.t_min_ns, t_min);
  EXPECT_EQ(s.t_max_ns, t_max);
  EXPECT_EQ(s.seq_min, 1u);
  EXPECT_EQ(s.seq_max, records.size());
  EXPECT_NEAR(s.energy_mwh(), energy,
              static_cast<double>(s.count) * kEnergyToleranceMwh);
  ASSERT_EQ(s.networks.size(), 2u);
  const auto& wan1_sub = s.networks[0].network == "wan-1" ? s.networks[0]
                                                          : s.networks[1];
  EXPECT_EQ(wan1_sub.records, wan1);
}

TEST(Segment, CompressesWellBelowWireFormat) {
  const auto records = synthetic_stream(256, 17);
  SegmentBuilder builder;
  std::size_t wire_bytes = 0;
  for (const auto& r : records) {
    wire_bytes += core::serialize_record(r).size();
    builder.append(r);
  }
  const Segment seg = builder.seal();
  // The acceptance bar for the bench workload is 3x; the codec clears it
  // with margin on a realistic stream.
  EXPECT_LT(seg.byte_size() * 3, wire_bytes)
      << seg.byte_size() << " vs " << wire_bytes;
}

TEST(Segment, LazyCursorStreamsInOrder) {
  const auto records = synthetic_stream(50, 19);
  SegmentBuilder builder;
  for (const auto& r : records) {
    builder.append(r);
  }
  const Segment seg = builder.seal();
  SegmentCursor cur = seg.cursor();
  std::size_t i = 0;
  while (auto rec = cur.next()) {
    EXPECT_EQ(rec->sequence, records[i].sequence);
    ++i;
  }
  EXPECT_EQ(i, records.size());
  EXPECT_TRUE(cur.done());
  EXPECT_FALSE(cur.error().has_value());
}

// ---------------------------------------------------------------------------
// Typed decode errors
// ---------------------------------------------------------------------------

TEST(SegmentErrors, GarbageIsBadMagic) {
  const std::vector<std::uint8_t> garbage{0xde, 0xad, 0xbe, 0xef, 0x00};
  const auto res = Segment::parse(garbage);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.error().fault, SegmentFault::kBadMagic);
}

TEST(SegmentErrors, EmptyAndTinyInputsAreTruncated) {
  EXPECT_EQ(Segment::parse({}).error().fault, SegmentFault::kTruncated);
  const std::vector<std::uint8_t> two{0x45, 0x53};
  EXPECT_EQ(Segment::parse(two).error().fault, SegmentFault::kTruncated);
}

TEST(SegmentErrors, EveryTruncationPointIsTyped) {
  const auto records = synthetic_stream(40, 23);
  SegmentBuilder builder;
  for (const auto& r : records) {
    builder.append(r);
  }
  const Segment seg = builder.seal();
  const auto& bytes = seg.bytes();
  // Chop the sealed blob at every length: never a crash, never success,
  // always a typed fault.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const auto res = Segment::parse(
        std::span<const std::uint8_t>(bytes.data(), len));
    ASSERT_FALSE(res.ok()) << "parse succeeded at " << len << "/"
                           << bytes.size();
    ASSERT_TRUE(res.error().fault == SegmentFault::kTruncated ||
                res.error().fault == SegmentFault::kCorrupt)
        << "unexpected fault at " << len;
  }
}

TEST(SegmentErrors, FutureVersionRejected) {
  const auto records = synthetic_stream(5, 29);
  SegmentBuilder builder;
  for (const auto& r : records) {
    builder.append(r);
  }
  auto bytes = builder.seal().bytes();
  bytes[4] = 99;  // version byte follows the u32 magic
  const auto res = Segment::parse(bytes);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.error().fault, SegmentFault::kBadVersion);
}

TEST(SegmentErrors, TrailingBytesAreCorrupt) {
  const auto records = synthetic_stream(5, 31);
  SegmentBuilder builder;
  for (const auto& r : records) {
    builder.append(r);
  }
  auto bytes = builder.seal().bytes();
  bytes.push_back(0x00);
  const auto res = Segment::parse(bytes);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.error().fault, SegmentFault::kCorrupt);
}

/// A structurally valid segment whose summary claims three records: column
/// c holds column_records[c] of them (a varint 0 each; every record sits
/// at t = 0 with zero current/energy).  parse() accepts the frame whatever
/// the column contents — only decoding can find a column that runs dry.
std::vector<std::uint8_t> hand_built_segment(
    const std::array<int, 7>& column_records) {
  util::ByteWriter w;
  w.u32(0x31475345);  // "ESG1"
  w.u8(1);
  w.str("dev-evil");
  w.varint(3);    // count
  w.zigzag(0);    // t_min
  w.zigzag(200);  // t_max
  w.varint(1);    // seq_min
  w.varint(3);    // seq_max
  w.zigzag(0);    // current q min
  w.zigzag(0);    // current q max
  w.zigzag(0);    // current q sum
  w.zigzag(0);    // voltage q min
  w.zigzag(0);    // voltage q max
  w.zigzag(0);    // energy q sum
  w.varint(1);    // dictionary entries
  w.str("wan-1");
  w.varint(3);  // dictionary record subtotal matches count
  w.zigzag(0);
  w.u8(8);  // column count
  for (const int n : column_records) {  // the seven varint columns
    w.u32(static_cast<std::uint32_t>(n));
    for (int i = 0; i < n; ++i) {
      w.u8(0);
    }
  }
  w.u32(1);  // flags column: fixed width (3+3)/4 = 1 byte, must be present
  w.u8(0);
  return w.take();
}

TEST(SegmentErrors, ExhaustedColumnSurfacesCursorError) {
  // Every varint column empty: parse() accepts the frame, the lazy cursor
  // must stop with a typed error instead of inventing data — and so must
  // the column-selective fold the queries run, whatever columns it reads.
  const auto bytes = hand_built_segment({0, 0, 0, 0, 0, 0, 0});
  const auto res = Segment::parse(bytes);
  ASSERT_TRUE(res.ok()) << res.error().detail;
  const Segment& seg = res.value();
  SegmentCursor cur = seg.cursor();
  EXPECT_FALSE(cur.next().has_value());
  ASSERT_TRUE(cur.error().has_value());
  EXPECT_EQ(cur.error()->fault, SegmentFault::kCorrupt);
  EXPECT_EQ(cur.decoded(), 0u);

  std::size_t folded = 0;
  const auto count = [&folded](const StoredRecord&) { ++folded; };
  EXPECT_FALSE(seg.fold<0>(count));
  EXPECT_FALSE(seg.fold<columns::kNetwork>(count));
  EXPECT_FALSE(seg.fold<columns::kFlags>(count));
  EXPECT_FALSE(seg.fold<columns::kAll>(count));
  EXPECT_EQ(folded, 0u);
}

TEST(SegmentErrors, FoldStopsAtTheFirstColumnThatRunsDry) {
  // Columns: timestamps, sequences, intervals, current, voltage, energy,
  // network.  Energy holds two of three records: every fold stops after
  // record two and folds nothing past it.  Columns a fold does not read
  // cannot stop it: the query fold (timestamp/current/energy) ignores the
  // empty sequence column the cursor trips over first.
  const auto bytes = hand_built_segment({3, 0, 3, 3, 3, 2, 3});
  const auto res = Segment::parse(bytes);
  ASSERT_TRUE(res.ok()) << res.error().detail;
  const Segment& seg = res.value();
  std::vector<std::int64_t> seen;
  const auto record = [&seen](const StoredRecord& r) {
    EXPECT_EQ(r.current_q, 0);
    EXPECT_EQ(r.energy_q, 0);
    seen.push_back(r.timestamp_ns);
  };
  EXPECT_FALSE(seg.fold<columns::kNetwork | columns::kFlags>(record));
  EXPECT_EQ(seen, (std::vector<std::int64_t>{0, 0}));
  seen.clear();
  EXPECT_FALSE(seg.fold<columns::kAll>(record));
  EXPECT_TRUE(seen.empty());
  SegmentCursor cur = seg.cursor();
  EXPECT_FALSE(cur.next().has_value());
  ASSERT_TRUE(cur.error().has_value());
  EXPECT_NE(cur.error()->detail.find("sequence"), std::string::npos)
      << cur.error()->detail;

  // The full columns, for contrast: all three records, clean stop.
  const auto whole = Segment::parse(hand_built_segment({3, 3, 3, 3, 3, 3, 3}));
  ASSERT_TRUE(whole.ok()) << whole.error().detail;
  EXPECT_TRUE(whole.value().fold<columns::kAll>(record));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(SegmentErrors, AdversarialHugeCountRejectedAtParse) {
  // A summary count near UINT64_MAX must fail the count-vs-remaining-bytes
  // check (not overflow the flags-size arithmetic or reach a giant
  // reserve() in decode_all).
  util::ByteWriter w;
  w.u32(0x31475345);
  w.u8(1);
  w.str("dev-evil");
  w.varint(0xfffffffffffffffdULL);  // count
  for (int i = 0; i < 10; ++i) {
    w.zigzag(0);  // rest of the summary block
  }
  const auto res = Segment::parse(w.bytes());
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.error().fault, SegmentFault::kCorrupt);
}

TEST(SegmentErrors, DictionaryCountMismatchIsCorrupt) {
  const auto records = synthetic_stream(8, 37);
  SegmentBuilder builder;
  for (const auto& r : records) {
    builder.append(r);
  }
  auto bytes = builder.seal().bytes();
  // All records are small-count; the count varint sits right after the
  // device string ("dev-1" -> offset 4+1+4+5 = 14).  Bump it so the
  // dictionary subtotals no longer add up.
  ASSERT_EQ(bytes[14], 8);
  bytes[14] = 9;
  const auto res = Segment::parse(bytes);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.error().fault, SegmentFault::kCorrupt);
}

// A segment's varints are minimal, so every segment parse() accepts
// re-encodes to itself: a redundant 0x00 group (8 as 0x88 0x00, 0 as
// 0x80 0x00) is corrupt wherever it sits.
TEST(SegmentErrors, OverlongVarintIsCorrupt) {
  const auto records = synthetic_stream(8, 37);
  SegmentBuilder builder;
  for (const auto& r : records) {
    builder.append(r);
  }
  auto bytes = builder.seal().bytes();
  ASSERT_EQ(bytes[14], 8);  // the summary count (see above)
  bytes[14] = 0x88;
  bytes.insert(bytes.begin() + 15, 0x00);
  const auto summary = Segment::parse(bytes);
  ASSERT_FALSE(summary.ok());
  EXPECT_EQ(summary.error().fault, SegmentFault::kCorrupt);
  EXPECT_EQ(summary.error().detail, "summary block: over-long varint");
  // The same count cut off after its continuation byte is truncation.
  bytes.resize(15);
  const auto cut = Segment::parse(bytes);
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.error().fault, SegmentFault::kTruncated);
  EXPECT_EQ(cut.error().detail, "summary block: truncated varint");

  // In a column body, parse() does not look; decoding must.
  auto column = hand_built_segment({3, 3, 3, 3, 3, 3, 3});
  ASSERT_EQ(Segment::parse(column).value().decode_all().size(), 3u);
  // The first column's u32 length (3) sits 54 bytes before the end: seven
  // columns of a length and three bytes, then the 5-byte flags column.
  const std::size_t length_at = column.size() - 7 * (4 + 3) - 5;
  ASSERT_EQ(column[length_at], 3);
  column[length_at] = 4;
  column[length_at + 4] = 0x80;
  column.insert(column.begin() + static_cast<std::ptrdiff_t>(length_at) + 5,
                0x00);
  const auto res = Segment::parse(column);
  ASSERT_TRUE(res.ok()) << res.error().detail;
  SegmentCursor cur = res.value().cursor();
  EXPECT_FALSE(cur.next().has_value());
  ASSERT_TRUE(cur.error().has_value());
  EXPECT_EQ(cur.error()->fault, SegmentFault::kCorrupt);
  EXPECT_EQ(cur.error()->detail,
            "timestamp column: over-long varint at record 0");
  EXPECT_FALSE(res.value().fold<columns::kAll>([](const StoredRecord&) {}));
}

// ---------------------------------------------------------------------------
// SeriesStore (device offline buffer)
// ---------------------------------------------------------------------------

SeriesStoreOptions small_options() {
  SeriesStoreOptions opt;
  opt.byte_budget = 64 * 1024;
  opt.max_records = 0;
  opt.seal_threshold = 16;
  return opt;
}

TEST(SeriesStore, FifoAcrossSealBoundaries) {
  SeriesStore store{small_options()};
  const auto records = synthetic_stream(50, 41);  // seals 3 segments + head
  for (const auto& r : records) {
    EXPECT_TRUE(store.push(r));
  }
  EXPECT_EQ(store.size(), 50u);
  EXPECT_GE(store.segments_sealed(), 3u);
  const auto first = store.pop_batch(20);
  ASSERT_EQ(first.size(), 20u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].sequence, records[i].sequence);
    expect_near_record(first[i], records[i]);
  }
  const auto rest = store.pop_batch(1000);
  ASSERT_EQ(rest.size(), 30u);
  EXPECT_EQ(rest.front().sequence, records[20].sequence);
  EXPECT_EQ(rest.back().sequence, records[49].sequence);
  EXPECT_TRUE(store.empty());
}

TEST(SeriesStore, PushFrontPreservesOrder) {
  SeriesStore store{small_options()};
  const auto records = synthetic_stream(10, 43);
  for (const auto& r : records) {
    store.push(r);
  }
  auto batch = store.pop_batch(4);
  ASSERT_EQ(batch.size(), 4u);
  store.push_front(std::move(batch));  // failed transmit, re-buffer
  const auto out = store.pop_batch(100);
  ASSERT_EQ(out.size(), 10u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].sequence, records[i].sequence);
  }
}

TEST(SeriesStore, RecordCapIsAnExactFifoClamp) {
  SeriesStoreOptions opt;
  opt.byte_budget = 0;
  opt.max_records = 50;
  opt.seal_threshold = 16;
  SeriesStore store{opt};
  const auto records = synthetic_stream(173, 47);
  std::uint64_t kept_all = 0;
  for (const auto& r : records) {
    kept_all += store.push(r) ? 1 : 0;
  }
  EXPECT_EQ(store.size(), 50u);          // exact clamp
  EXPECT_EQ(store.dropped(), 123u);      // everything else counted
  EXPECT_EQ(kept_all, 50u);
  EXPECT_EQ(store.peak_size(), 50u);
  // The survivors are the *newest* 50, still in order.
  const auto out = store.pop_batch(1000);
  ASSERT_EQ(out.size(), 50u);
  EXPECT_EQ(out.front().sequence, records[123].sequence);
  EXPECT_EQ(out.back().sequence, records.back().sequence);
  // A re-buffered batch larger than the cap trims its oldest records and
  // counts them, keeping the newest 50 of the batch in order.
  std::vector<ConsumptionRecord> batch(records.begin(), records.begin() + 70);
  store.push_front(std::move(batch));
  EXPECT_EQ(store.size(), 50u);
  EXPECT_EQ(store.dropped(), 123u + 20u);
  EXPECT_EQ(store.peak_size(), 50u);
  const auto rebuffered = store.pop_batch(1000);
  ASSERT_EQ(rebuffered.size(), 50u);
  for (std::size_t i = 0; i < rebuffered.size(); ++i) {
    EXPECT_EQ(rebuffered[i].sequence, records[20 + i].sequence);
  }
}

TEST(SeriesStore, ByteBudgetEvictsOldestSegmentsWithAccounting) {
  SeriesStoreOptions opt;
  opt.byte_budget = 4096;  // an open head plus a few sealed segments
  opt.max_records = 0;
  opt.seal_threshold = 32;
  SeriesStore store{opt};
  const auto records = synthetic_stream(2000, 53);
  for (const auto& r : records) {
    store.push(r);
  }
  EXPECT_LE(store.bytes_used(), opt.byte_budget);
  EXPECT_GT(store.dropped(), 0u);
  EXPECT_EQ(store.size() + store.dropped(), records.size());
  // Retained records are a contiguous newest-suffix of the stream.
  const auto out = store.pop_batch(100000);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back().sequence, records.back().sequence);
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_EQ(out[i].sequence, out[i - 1].sequence + 1);
  }
  // The compressed budget holds far more than the same bytes of wire-format
  // records (4096 B / ~68 B-per-record ≈ 60 uncompressed).
  EXPECT_GT(out.size(), 60u);
}

TEST(SeriesStore, DropAccountingConservesAcrossEvictionShapes) {
  // Regression for the whole-segment eviction accounting: a record must be
  // counted in dropped() exactly once, whether it falls to a front-staging
  // drop, a wholesale segment eviction (summary-count path), or the
  // stage-and-drop fallback that decodes the last remaining segment.  The
  // sequence below forces all three branches while checking the
  // conservation contract after every operation:
  //     pushed == size() + popped + dropped()
  SeriesStoreOptions opt;
  opt.byte_budget = 900;  // roughly two sealed segments plus staging slack
  opt.max_records = 0;
  opt.seal_threshold = 16;
  SeriesStore store{opt};
  const auto records = synthetic_stream(600, 61);
  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  const auto conserved = [&] {
    return pushed == store.size() + popped + store.dropped();
  };

  // Phase 1: sustained offline buffering — seals segments and forces
  // wholesale evictions of the oldest ones.
  for (std::size_t i = 0; i < 400; ++i) {
    store.push(records[i]);
    ++pushed;
    ASSERT_TRUE(conserved()) << "after push " << i;
  }
  EXPECT_GT(store.dropped(), 0u);
  EXPECT_GT(store.segments_sealed(), 2u);

  // Phase 2: partial flush + failed-transmit re-buffering (stages a sealed
  // segment into the front, then pushes part of it back).
  auto batch = store.pop_batch(24);
  popped += batch.size();
  ASSERT_TRUE(conserved());
  std::vector<ConsumptionRecord> back(batch.begin() + 8, batch.end());
  popped -= back.size();
  store.push_front(std::move(back));
  ASSERT_TRUE(conserved());

  // Phase 3: more pressure with the front non-empty — drops come from the
  // staged front while sealed segments are still evicted wholesale behind.
  for (std::size_t i = 400; i < records.size(); ++i) {
    store.push(records[i]);
    ++pushed;
    ASSERT_TRUE(conserved()) << "after push " << i;
  }

  // Phase 4: drain completely; every byte of accounting must return to
  // zero and the ledger must balance exactly.
  while (!store.empty()) {
    popped += store.pop_batch(37).size();
    ASSERT_TRUE(conserved());
  }
  EXPECT_EQ(store.bytes_used(), 0u);
  EXPECT_EQ(pushed, popped + store.dropped());
}

TEST(SeriesStore, StageAndDropOfLastSegmentCountsOnce) {
  // Budget below a single sealed segment with an empty head: eviction must
  // take the stage-and-drop path (decode the only segment, drop records
  // one by one, keep the newest) and count each record exactly once.
  SeriesStoreOptions opt;
  opt.byte_budget = 128;
  opt.max_records = 0;
  opt.seal_threshold = 8;
  SeriesStore store{opt};
  const auto records = synthetic_stream(8, 67);
  std::uint64_t pushed = 0;
  for (const auto& r : records) {
    store.push(r);
    ++pushed;
    ASSERT_EQ(pushed, store.size() + store.dropped());
  }
  // The 8th push sealed the head into the only segment and blew the
  // budget: survivors + dropped must still cover every push, and the
  // newest record survives.
  const auto out = store.pop_batch(100);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back().sequence, records.back().sequence);
  EXPECT_EQ(pushed, out.size() + store.dropped());
}

TEST(SeriesStore, ConservationHoldsUnderRandomizedWorkload) {
  // Distilled fuzz: random push bursts, partial pops, failed-transmit
  // push_front cycles over tight budgets.  Conservation and drain-to-zero
  // byte accounting must hold for every seed.
  util::Rng rng{0xc0ffee};
  for (int trial = 0; trial < 40; ++trial) {
    SeriesStoreOptions opt;
    opt.byte_budget = (rng() % 4 != 0) ? 60 + rng() % 900 : 0;
    opt.max_records =
        (opt.byte_budget == 0 || rng() % 2 != 0) ? 3 + rng() % 50 : 0;
    opt.seal_threshold = 1 + rng() % 48;
    SeriesStore store{opt};
    const auto records = synthetic_stream(800, 1000 + static_cast<std::uint64_t>(trial));
    std::size_t next = 0;
    std::uint64_t pushed = 0;
    std::uint64_t popped = 0;
    for (int op = 0; op < 300 && next < records.size(); ++op) {
      const auto choice = rng() % 12;
      if (choice < 7) {
        const std::size_t burst =
            std::min<std::size_t>(1 + rng() % 16, records.size() - next);
        for (std::size_t i = 0; i < burst; ++i) {
          store.push(records[next++]);
          ++pushed;
        }
      } else {
        auto batch = store.pop_batch(1 + rng() % 60);
        popped += batch.size();
        if ((rng() & 1) != 0 && !batch.empty()) {
          const std::size_t keep = rng() % (batch.size() + 1);
          std::vector<ConsumptionRecord> back(
              batch.begin() + static_cast<std::ptrdiff_t>(keep), batch.end());
          popped -= back.size();
          store.push_front(std::move(back));
        }
      }
      ASSERT_EQ(pushed, store.size() + popped + store.dropped())
          << "trial " << trial << " op " << op;
    }
    while (!store.empty()) {
      popped += store.pop_batch(1000).size();
    }
    ASSERT_EQ(pushed, popped + store.dropped()) << "trial " << trial;
    ASSERT_EQ(store.bytes_used(), 0u) << "trial " << trial;
  }
}

TEST(SeriesStore, TinyBudgetNeverDropsTheNewestRecord) {
  // Byte budget smaller than one sealed segment: eviction degrades to
  // record-by-record drops; the just-pushed record must always survive.
  SeriesStoreOptions opt;
  opt.byte_budget = 256;
  opt.max_records = 0;
  opt.seal_threshold = 64;
  SeriesStore store{opt};
  const auto records = synthetic_stream(500, 97);
  for (const auto& r : records) {
    store.push(r);
    ASSERT_GE(store.size(), 1u);
  }
  const auto out = store.pop_batch(1000);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back().sequence, records.back().sequence);
}

TEST(SeriesStore, ClearKeepsCountersResetCountersZeroesThem) {
  SeriesStoreOptions opt;
  opt.byte_budget = 0;
  opt.max_records = 10;
  opt.seal_threshold = 4;
  SeriesStore store{opt};
  for (const auto& r : synthetic_stream(25, 59)) {
    store.push(r);
  }
  EXPECT_EQ(store.dropped(), 15u);
  store.clear();
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.dropped(), 15u);  // "since construction" counters survive
  EXPECT_EQ(store.peak_size(), 10u);
  store.reset_counters();
  EXPECT_EQ(store.dropped(), 0u);
  EXPECT_EQ(store.peak_size(), 0u);
}

TEST(SeriesStore, RejectsUnboundedAndZeroThreshold) {
  SeriesStoreOptions unbounded;
  unbounded.byte_budget = 0;
  unbounded.max_records = 0;
  EXPECT_THROW(SeriesStore{unbounded}, std::invalid_argument);
  SeriesStoreOptions zero_seal;
  zero_seal.seal_threshold = 0;
  EXPECT_THROW(SeriesStore{zero_seal}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Tsdb (aggregator-side sharded store)
// ---------------------------------------------------------------------------

std::vector<ConsumptionRecord> fleet_stream(std::size_t devices,
                                            std::size_t per_device,
                                            std::uint64_t seed) {
  std::vector<ConsumptionRecord> out;
  for (std::size_t d = 0; d < devices; ++d) {
    auto stream = synthetic_stream(per_device, seed + d);
    for (auto& r : stream) {
      r.device_id = "dev-" + std::to_string(d + 1);
      out.push_back(std::move(r));
    }
  }
  return out;
}

TEST(Tsdb, IngestDedupsPerDeviceSequence) {
  Tsdb db;
  const auto records = synthetic_stream(100, 61);
  for (const auto& r : records) {
    EXPECT_TRUE(db.ingest(r));
  }
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_FALSE(db.ingest(records[i]));  // retransmission
  }
  EXPECT_EQ(db.stats().records_ingested, 100u);
  EXPECT_EQ(db.stats().duplicates_dropped, 10u);
  EXPECT_EQ(db.devices(), std::vector<core::DeviceId>{"dev-1"});
}

TEST(Tsdb, ScanMatchesNaiveRangeFilter) {
  Tsdb db{TsdbOptions{4, 32}};  // several sealed segments + open head
  const auto records = synthetic_stream(500, 67);
  for (const auto& r : records) {
    db.ingest(r);
  }
  const std::int64_t t0 = records[100].timestamp_ns;
  const std::int64_t t1 = records[400].timestamp_ns;  // exclusive
  const ReadGuard guard = db.read_guard();
  const auto got = db.scan(db.lookup("dev-1"), t0, t1);
  std::vector<std::uint64_t> want;
  for (const auto& r : records) {
    if (r.timestamp_ns >= t0 && r.timestamp_ns < t1) {
      want.push_back(r.sequence);
    }
  }
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].sequence, want[i]);
  }
  EXPECT_GT(db.stats().segments_pruned, 0u);  // summaries pruned something
}

TEST(Tsdb, ScanHonorsFilters) {
  Tsdb db;
  const auto records = synthetic_stream(200, 71);
  for (const auto& r : records) {
    db.ingest(r);
  }
  store::RecordFilter live_wan1;
  live_wan1.network = "wan-1";
  live_wan1.stored_offline = false;
  const ReadGuard guard = db.read_guard();
  const auto got = db.scan(db.lookup("dev-1"), 0, INT64_MAX, live_wan1);
  std::size_t want = 0;
  for (const auto& r : records) {
    want += (r.network == "wan-1" && !r.stored_offline) ? 1 : 0;
  }
  EXPECT_EQ(got.size(), want);
  for (const auto& r : got) {
    EXPECT_EQ(r.network, "wan-1");
    EXPECT_FALSE(r.stored_offline);
  }
}

TEST(Tsdb, DownsampleMatchesNaiveWindowMath) {
  Tsdb db{TsdbOptions{2, 64}};
  const auto records = synthetic_stream(400, 73);
  for (const auto& r : records) {
    db.ingest(r);
  }
  const std::int64_t t0 = records.front().timestamp_ns;
  const std::int64_t t1 = records.back().timestamp_ns + 1;
  const std::int64_t window = 1'000'000'000;  // 1 s ≈ 10 records
  const ReadGuard guard = db.read_guard();
  const Tsdb::SeriesRef dev1 = db.lookup("dev-1");
  const auto windows = db.downsample(dev1, t0, t1, window);
  ASSERT_EQ(windows.size(),
            static_cast<std::size_t>((t1 - t0 + window - 1) / window));
  // Naive reference over the quantization-faithful decoded records.
  const auto decoded = db.scan(dev1, t0, t1);
  for (const auto& w : windows) {
    std::uint64_t count = 0;
    double current_sum = 0.0;
    double max_current = 0.0;
    double energy = 0.0;
    for (const auto& r : decoded) {
      if (r.timestamp_ns >= w.start_ns && r.timestamp_ns < w.start_ns + window) {
        ++count;
        current_sum += r.current_ma;
        max_current = std::max(max_current, r.current_ma);
        energy += r.energy_mwh;
      }
    }
    ASSERT_EQ(w.count, count) << "window at " << w.start_ns;
    if (count > 0) {
      EXPECT_NEAR(w.avg_current_ma, current_sum / static_cast<double>(count),
                  1e-9);
      EXPECT_NEAR(w.max_current_ma, max_current, 1e-9);
      EXPECT_NEAR(w.sum_energy_mwh, energy, 1e-9);
    }
  }
}

TEST(Tsdb, DownsampleFullRangeSentinelClampsToObservedBounds) {
  // Regression: n_windows used to be sized straight from (t1 - t0), so the
  // sentinel full-range query below was signed-overflow UB and an OOM-sized
  // allocation.  The range must clamp to the series' observed bounds first.
  Tsdb db{TsdbOptions{2, 32}};
  const auto records = synthetic_stream(300, 107);
  for (const auto& r : records) {
    db.ingest(r);
  }
  const std::int64_t window = 1'000'000'000;
  const ReadGuard guard = db.read_guard();
  const Tsdb::SeriesRef dev1 = db.lookup("dev-1");
  const auto sentinel = db.downsample(dev1, INT64_MIN, INT64_MAX, window);
  ASSERT_FALSE(sentinel.empty());
  // Same records as the explicit-range query; windows stay modest.
  const std::int64_t t0 = records.front().timestamp_ns;
  const std::int64_t t1 = records.back().timestamp_ns + 1;
  EXPECT_LE(sentinel.size(),
            static_cast<std::size_t>((t1 - t0 + window - 1) / window) + 1);
  std::uint64_t sentinel_count = 0;
  for (const auto& w : sentinel) {
    sentinel_count += w.count;
  }
  EXPECT_EQ(sentinel_count, records.size());
  // An empty-range or unknown-device sentinel stays empty (no allocation).
  EXPECT_TRUE(db.downsample(db.lookup("dev-none"), INT64_MIN, INT64_MAX, window)
                  .empty());
  EXPECT_TRUE(db.downsample(dev1, INT64_MAX, INT64_MIN, window).empty());
  // One-sided sentinels clamp the open end only.
  const auto from_min = db.downsample(dev1, INT64_MIN, t1, window);
  const auto to_max = db.downsample(dev1, t0, INT64_MAX, window);
  std::uint64_t from_min_count = 0;
  std::uint64_t to_max_count = 0;
  for (const auto& w : from_min) {
    from_min_count += w.count;
  }
  for (const auto& w : to_max) {
    to_max_count += w.count;
  }
  EXPECT_EQ(from_min_count, records.size());
  EXPECT_EQ(to_max_count, records.size());
}

TEST(Tsdb, DownsampleExtremeTimestampCannotForceHugeAllocation) {
  // The observed-bounds clamp alone is not enough: timestamps are
  // unvalidated device clocks, so one corrupt/adversarial record near
  // INT64_MAX would still widen the clamped range to an OOM-sized window
  // array.  Queries past the window cap return empty instead.
  Tsdb db{TsdbOptions{2, 32}};
  const auto records = synthetic_stream(50, 137);
  for (const auto& r : records) {
    db.ingest(r);
  }
  ConsumptionRecord evil = records.back();
  evil.sequence = 999'999;
  evil.timestamp_ns = INT64_MAX - 1;
  ASSERT_TRUE(db.ingest(evil));
  // ~9e9 one-second windows would be needed: guarded, not allocated.
  {
    const ReadGuard guard = db.read_guard();
    const Tsdb::SeriesRef dev1 = db.lookup("dev-1");
    EXPECT_TRUE(db.downsample(dev1, INT64_MIN, INT64_MAX, 1'000'000'000)
                    .empty());
    EXPECT_TRUE(db.downsample(dev1, 0, INT64_MAX, 1'000'000'000).empty());
  }
  // Corrupt clocks at *both* extremes: the span approaches 2^64, where a
  // naive ceil's rounding add would wrap to a tiny window count that
  // passes the cap while records index far past the array.  Must stay
  // empty, not corrupt memory.
  ConsumptionRecord evil_low = records.back();
  evil_low.sequence = 999'998;
  evil_low.timestamp_ns = INT64_MIN;
  ASSERT_TRUE(db.ingest(evil_low));
  const ReadGuard guard = db.read_guard();
  const Tsdb::SeriesRef dev1 = db.lookup("dev-1");
  EXPECT_TRUE(db.downsample(dev1, INT64_MIN, INT64_MAX, 1'000'000'000)
                  .empty());
  EXPECT_TRUE(db.downsample(dev1, INT64_MIN, INT64_MAX, 3).empty());
  // A window sized so the count lands exactly at the cap does allocate —
  // and the window-start arithmetic (t0c near INT64_MIN, giant window)
  // must not overflow int64 (UBSan-pinned).  Starts ascend by one window.
  const auto giant =
      db.downsample(dev1, INT64_MIN, INT64_MAX, INT64_C(1) << 44);
  ASSERT_FALSE(giant.empty());
  EXPECT_EQ(giant.front().start_ns, INT64_MIN);
  for (std::size_t i = 1; i < giant.size(); ++i) {
    EXPECT_EQ(giant[i].start_ns - giant[i - 1].start_ns, INT64_C(1) << 44);
  }
  std::uint64_t giant_count = 0;
  for (const auto& w : giant) {
    giant_count += w.count;
  }
  EXPECT_EQ(giant_count, records.size() + 2);  // both evil records included
  // A sane explicit range on the same series still answers normally.
  const auto windows =
      db.downsample(dev1, records.front().timestamp_ns,
                    records.back().timestamp_ns + 1, 1'000'000'000);
  ASSERT_FALSE(windows.empty());
  std::uint64_t count = 0;
  for (const auto& w : windows) {
    count += w.count;
  }
  EXPECT_EQ(count, records.size());
}

TEST(Tsdb, DownsampleClampKeepsGridAnchoredAtT0) {
  // The clamp must not re-anchor the window grid: a t0 below the first
  // record starts the array at the last grid boundary at or below it, so
  // fleet merges across devices stay aligned.
  Tsdb db{TsdbOptions{2, 64}};
  const auto records = synthetic_stream(50, 109, /*t0_ns=*/10'000'000'000);
  for (const auto& r : records) {
    db.ingest(r);
  }
  const std::int64_t window = 1'000'000'000;
  const std::int64_t t0 = records.front().timestamp_ns - window * 5 - 123;
  const ReadGuard guard = db.read_guard();
  const Tsdb::SeriesRef dev1 = db.lookup("dev-1");
  const auto windows = db.downsample(dev1, t0, INT64_MAX, window);
  ASSERT_FALSE(windows.empty());
  // First window sits on the t0-anchored grid, within one window of the
  // first record, and leading all-empty windows are trimmed.
  EXPECT_EQ((windows.front().start_ns - t0) % window, 0);
  EXPECT_LE(windows.front().start_ns, records.front().timestamp_ns);
  EXPECT_GT(windows.front().start_ns + window, records.front().timestamp_ns);
  // In-bounds t0 is untouched: same grid, same counts as before the clamp.
  const auto exact = db.downsample(dev1, records.front().timestamp_ns,
                                   records.back().timestamp_ns + 1, window);
  ASSERT_FALSE(exact.empty());
  EXPECT_EQ(exact.front().start_ns, records.front().timestamp_ns);
}

TEST(Tsdb, AggregateFilterOverloadMatchesScanReference) {
  // Regression for the missing RecordFilter overload: filtered roll-ups now
  // run inside aggregate() (time-pruned, quantized fold) instead of forcing
  // callers through a full scan() decode.
  Tsdb db{TsdbOptions{4, 32}};
  const auto records = synthetic_stream(400, 113);
  for (const auto& r : records) {
    db.ingest(r);
  }
  RecordFilter live_wan1;
  live_wan1.network = "wan-1";
  live_wan1.stored_offline = false;
  const ReadGuard guard = db.read_guard();
  const Tsdb::SeriesRef dev1 = db.lookup("dev-1");
  const auto agg = db.aggregate(dev1, INT64_MIN, INT64_MAX, live_wan1);
  ASSERT_TRUE(agg.has_value());
  const auto decoded = db.scan(dev1, INT64_MIN, INT64_MAX, live_wan1);
  ASSERT_FALSE(decoded.empty());
  EXPECT_EQ(agg->count, decoded.size());
  double current_sum = 0.0;
  double energy = 0.0;
  double min_cur = decoded.front().current_ma;
  double max_cur = decoded.front().current_ma;
  for (const auto& r : decoded) {
    current_sum += r.current_ma;
    energy += r.energy_mwh;
    min_cur = std::min(min_cur, r.current_ma);
    max_cur = std::max(max_cur, r.current_ma);
  }
  EXPECT_NEAR(agg->avg_current_ma,
              current_sum / static_cast<double>(decoded.size()), 1e-6);
  EXPECT_NEAR(agg->min_current_ma, min_cur, 1e-9);
  EXPECT_NEAR(agg->max_current_ma, max_cur, 1e-9);
  EXPECT_NEAR(agg->sum_energy_mwh, energy, 1e-6);
  EXPECT_EQ(agg->t_min_ns, decoded.front().timestamp_ns);
  EXPECT_EQ(agg->t_max_ns, decoded.back().timestamp_ns);
  // A filter matching nothing yields nullopt, not a zero aggregate.
  RecordFilter nothing;
  nothing.network = "wan-none";
  EXPECT_FALSE(db.aggregate(dev1, INT64_MIN, INT64_MAX, nothing));
}

TEST(Tsdb, AggregateKeepsSummaryFastPathOnlyForEmptyFilter) {
  Tsdb db{TsdbOptions{2, 40}};
  const auto records = synthetic_stream(400, 127);
  for (const auto& r : records) {
    db.ingest(r);
  }
  const ReadGuard guard = db.read_guard();
  const Tsdb::SeriesRef dev1 = db.lookup("dev-1");
  const auto before = db.stats();
  // Empty filter over the whole history: interior segments answer from
  // summaries.
  ASSERT_TRUE(db.aggregate(dev1, INT64_MIN, INT64_MAX, RecordFilter{}));
  const auto after_empty = db.stats();
  EXPECT_GT(after_empty.summary_hits, before.summary_hits);
  // A non-empty filter must decode fully-covered segments: summaries hold
  // no per-filter breakdowns, so summary_hits must not move.
  RecordFilter offline_only;
  offline_only.stored_offline = true;
  ASSERT_TRUE(db.aggregate(dev1, INT64_MIN, INT64_MAX, offline_only));
  const auto after_filtered = db.stats();
  EXPECT_EQ(after_filtered.summary_hits, after_empty.summary_hits);
}

TEST(Tsdb, QueryCountersAreShardLocalAndFoldOnRead) {
  // The counters moved off the (shared) TsdbStats into per-shard storage so
  // pool workers never write one location; stats() folds them.  Two devices
  // on different shards must both contribute.
  Tsdb db{TsdbOptions{8, 16}};
  const auto records = fleet_stream(8, 100, 131);
  for (const auto& r : records) {
    db.ingest(r);
  }
  std::vector<core::DeviceId> ids = db.devices();
  ASSERT_GE(ids.size(), 2u);
  // Pick two devices on different shards.
  const core::DeviceId a = ids.front();
  core::DeviceId b;
  for (const auto& id : ids) {
    if (db.shard_of(id) != db.shard_of(a)) {
      b = id;
      break;
    }
  }
  ASSERT_FALSE(b.empty());
  const ReadGuard guard = db.read_guard();
  const auto t1 = db.aggregate(db.lookup(a), INT64_MIN, INT64_MAX);
  const std::uint64_t hits_a = db.stats().summary_hits;
  const auto t2 = db.aggregate(db.lookup(b), INT64_MIN, INT64_MAX);
  const std::uint64_t hits_ab = db.stats().summary_hits;
  ASSERT_TRUE(t1 && t2);
  EXPECT_GT(hits_a, 0u);
  EXPECT_GT(hits_ab, hits_a);
}

TEST(Tsdb, AggregateSummaryPathAgreesWithDecodePath) {
  Tsdb db{TsdbOptions{2, 50}};
  const auto records = synthetic_stream(500, 79);
  for (const auto& r : records) {
    db.ingest(r);
  }
  // Whole-history aggregate: interior segments answer from summaries.
  const ReadGuard guard = db.read_guard();
  const Tsdb::SeriesRef dev1 = db.lookup("dev-1");
  const auto agg = db.aggregate(dev1, INT64_MIN, INT64_MAX);
  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->count, records.size());
  EXPECT_GT(db.stats().summary_hits, 0u);
  // Decode-path reference.
  const auto decoded = db.scan(dev1, INT64_MIN, INT64_MAX);
  double current_sum = 0.0;
  double energy = 0.0;
  double min_cur = decoded.front().current_ma;
  double max_cur = decoded.front().current_ma;
  for (const auto& r : decoded) {
    current_sum += r.current_ma;
    energy += r.energy_mwh;
    min_cur = std::min(min_cur, r.current_ma);
    max_cur = std::max(max_cur, r.current_ma);
  }
  EXPECT_NEAR(agg->avg_current_ma,
              current_sum / static_cast<double>(decoded.size()), 1e-6);
  EXPECT_NEAR(agg->min_current_ma, min_cur, 1e-9);
  EXPECT_NEAR(agg->max_current_ma, max_cur, 1e-9);
  EXPECT_NEAR(agg->sum_energy_mwh, energy, 1e-6);
  EXPECT_EQ(agg->t_min_ns, decoded.front().timestamp_ns);
  EXPECT_EQ(agg->t_max_ns, decoded.back().timestamp_ns);
}

TEST(Tsdb, RangeQueryReproducesBillingWithinQuantizationTolerance) {
  // The acceptance bound: energy totals answered by the store match an
  // exact (double-precision) reference billing fold to within the
  // documented per-record quantization tolerance.
  Tsdb db{TsdbOptions{4, 128}};
  reference::ReferenceBilling exact{"wan-1", core::Tariff{}};
  const auto records = fleet_stream(5, 700, 83);
  for (const auto& r : records) {
    db.ingest(r);
    exact.ingest(r);
  }
  const QueryEngine engine{db};
  for (std::size_t d = 1; d <= 5; ++d) {
    const core::DeviceId id = "dev-" + std::to_string(d);
    const auto exact_invoice = exact.invoice_for(id);
    const double tolerance = 700.0 * kEnergyToleranceMwh;
    // Whole-history range query.
    QuerySpec one;
    one.devices = {id};
    const FleetAggregate agg = engine.aggregate(one);
    ASSERT_FALSE(agg.empty());
    EXPECT_NEAR(agg.merged.sum_energy_mwh, exact_invoice.total_energy_mwh,
                tolerance)
        << id;
    // Store-backed billing sees the same totals.
    core::BillingService backed{"wan-1", core::Tariff{}, engine};
    backed.mark_billable(id);
    const auto backed_invoice = backed.invoice_for(id);
    EXPECT_NEAR(backed_invoice.total_energy_mwh,
                exact_invoice.total_energy_mwh, tolerance)
        << id;
    ASSERT_EQ(backed_invoice.lines.size(), exact_invoice.lines.size());
    for (std::size_t l = 0; l < backed_invoice.lines.size(); ++l) {
      EXPECT_EQ(backed_invoice.lines[l].network,
                exact_invoice.lines[l].network);
      EXPECT_EQ(backed_invoice.lines[l].records,
                exact_invoice.lines[l].records);
      EXPECT_NEAR(backed_invoice.lines[l].cost, exact_invoice.lines[l].cost,
                  1e-6);
    }
  }
}

TEST(Tsdb, NetworkBreakdownHonorsFromBound) {
  // The ownership-transfer billing scope: records before `from_ns` (the
  // visiting era, already invoiced by the previous master) are excluded,
  // whether they sit in sealed segments or the open head.
  Tsdb db{TsdbOptions{2, 64}};
  const auto records = synthetic_stream(300, 101);
  for (const auto& r : records) {
    db.ingest(r);
  }
  const std::int64_t cut = records[150].timestamp_ns;
  const QueryEngine engine{db};
  QuerySpec from_cut;
  from_cut.devices = {"dev-1"};
  from_cut.t0_ns = cut;
  const FleetBreakdown bounded = engine.network_breakdown(from_cut);
  ASSERT_EQ(bounded.per_device.size(), 1u);
  std::uint64_t want_records = 0;
  double want_energy = 0.0;
  for (const auto& r : engine.scan(from_cut).records) {
    ++want_records;
    want_energy += r.energy_mwh;
  }
  std::uint64_t got_records = 0;
  double got_energy = 0.0;
  for (const auto& [network, use] : bounded.per_device.front().second) {
    got_records += use.records;
    got_energy += use.energy_mwh;
  }
  EXPECT_EQ(got_records, want_records);
  EXPECT_NEAR(got_energy, want_energy, 1e-9);
  // Store-backed billing applies the bound through mark_billable.
  core::BillingService billing{"wan-1", core::Tariff{}, engine};
  billing.mark_billable("dev-1", cut);
  EXPECT_NEAR(billing.invoice_for("dev-1").total_energy_mwh, got_energy,
              1e-9);
  EXPECT_NEAR(billing.total_energy_mwh(), got_energy, 1e-9);
  // An earlier mark is not overwritten by a later, narrower one.
  billing.mark_billable("dev-1", INT64_MAX);
  EXPECT_NEAR(billing.invoice_for("dev-1").total_energy_mwh, got_energy,
              1e-9);
}

TEST(Tsdb, DedupIsExactOverAnyHistory) {
  Tsdb db;
  const auto records = synthetic_stream(10'000, 103);
  for (const auto& r : records) {
    db.ingest(r);
  }
  // A resend is a duplicate however many newer sequences came after it.
  EXPECT_FALSE(db.ingest(records.back()));
  EXPECT_FALSE(db.ingest(records[records.size() - 4000]));
  EXPECT_FALSE(db.ingest(records[records.size() - 5000]));
  EXPECT_FALSE(db.ingest(records.front()));
  // ...and the store held exactly one copy of everything.
  EXPECT_EQ(db.stats().records_ingested, 10'000u);
  EXPECT_EQ(db.stats().duplicates_dropped, 4u);
  const ReadGuard guard = db.read_guard();
  const auto agg = db.aggregate(db.lookup("dev-1"), INT64_MIN, INT64_MAX);
  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->count, 10'000u);
}

TEST(Tsdb, DedupVerdictMatchesAnExactSet) {
  // Late batches open holes, fills merge them, repeats land anywhere: the
  // ingest verdict is "first time this (device, sequence)" and nothing else.
  util::Rng rng{131};
  Tsdb db;
  std::map<std::pair<core::DeviceId, std::uint64_t>, bool> seen;
  ConsumptionRecord r = synthetic_stream(1, 131).front();
  for (int i = 0; i < 20'000; ++i) {
    r.device_id = rng.bernoulli(0.5) ? "dev-a" : "dev-b";
    const double pick = rng.uniform(0.0, 1.0);
    if (pick < 0.6) {  // near-in-order arrivals around a moving head
      r.sequence = static_cast<std::uint64_t>(i / 2 + rng.uniform_int(0, 8));
    } else if (pick < 0.9) {  // late backlog far behind the head
      r.sequence = static_cast<std::uint64_t>(rng.uniform_int(0, i / 2 + 1));
    } else {  // the ends of the sequence space
      r.sequence = rng.bernoulli(0.5)
                       ? 0
                       : UINT64_MAX - static_cast<std::uint64_t>(
                                          rng.uniform_int(0, 3));
    }
    const bool fresh = seen.try_emplace({r.device_id, r.sequence}, true).second;
    ASSERT_EQ(db.ingest(r), fresh)
        << "arrival " << i << " sequence " << r.sequence;
  }
  EXPECT_EQ(db.stats().records_ingested, seen.size());
  EXPECT_EQ(db.stats().duplicates_dropped, 20'000u - seen.size());
}

TEST(Tsdb, ShardingIsStableAndCoversAllDevices) {
  Tsdb db{TsdbOptions{8, 64}};
  const auto records = fleet_stream(32, 10, 89);
  for (const auto& r : records) {
    db.ingest(r);
  }
  EXPECT_EQ(db.devices().size(), 32u);
  EXPECT_EQ(db.shard_count(), 8u);
  const ReadGuard guard = db.read_guard();
  for (std::size_t d = 1; d <= 32; ++d) {
    const core::DeviceId id = "dev-" + std::to_string(d);
    EXPECT_EQ(db.shard_of(id), db.shard_of(id));  // stable
    EXPECT_TRUE(db.has_device(id));
    const auto agg = db.aggregate(db.lookup(id), INT64_MIN, INT64_MAX);
    ASSERT_TRUE(agg.has_value());
    EXPECT_GT(agg->sum_energy_mwh, 0.0);
  }
  EXPECT_FALSE(db.has_device("dev-999"));
  EXPECT_FALSE(db.lookup("dev-999"));
  EXPECT_FALSE(db.aggregate(db.lookup("dev-999"), 0, INT64_MAX).has_value());
}

// ---------------------------------------------------------------------------
// Range folds vs a reference-independent naive fold over the input records
// ---------------------------------------------------------------------------
//
// The engine-vs-engine tests (test_query, the cut-replay gates) cannot catch
// a bug both sides share.  These references never touch the store: they
// fold the ingested input records themselves, in acceptance order (which is
// also storage order: segments seal consecutive accepted records and the
// head holds the newest), after the quantize/dequantize round-trip the
// store applies.  Doubles compare with ==.

/// An input record as the store keeps it: current/energy through the
/// quantization round-trip.
struct StoredInput {
  ConsumptionRecord rec;
  std::int64_t current_q = 0;
  std::int64_t energy_q = 0;
};

std::vector<StoredInput> accepted_inputs(
    const std::vector<ConsumptionRecord>& arrivals, const DeviceId& device) {
  std::vector<StoredInput> out;
  std::vector<std::uint64_t> seen;
  for (const auto& r : arrivals) {
    if (r.device_id != device ||
        std::find(seen.begin(), seen.end(), r.sequence) != seen.end()) {
      continue;
    }
    seen.push_back(r.sequence);
    StoredInput in;
    in.rec = r;
    in.current_q = quantize(r.current_ma, kCurrentScale);
    in.energy_q = quantize(r.energy_mwh, kEnergyScale);
    in.rec.current_ma = dequantize(in.current_q, kCurrentScale);
    in.rec.energy_mwh = dequantize(in.energy_q, kEnergyScale);
    out.push_back(std::move(in));
  }
  return out;
}

bool naive_match(const ConsumptionRecord& r, std::int64_t t0, std::int64_t t1,
                 const RecordFilter& f) {
  return r.timestamp_ns >= t0 && r.timestamp_ns < t1 &&
         (!f.network || r.network == *f.network) &&
         (!f.stored_offline || r.stored_offline == *f.stored_offline);
}

/// aggregate() is defined over quantized integers: sums fold q, then
/// dequantize once.
std::optional<DeviceAggregate> naive_aggregate(
    const std::vector<StoredInput>& in, std::int64_t t0, std::int64_t t1,
    const RecordFilter& f) {
  DeviceAggregate agg;
  std::int64_t cur_sum = 0;
  std::int64_t energy_sum = 0;
  std::int64_t cur_min = 0;
  std::int64_t cur_max = 0;
  for (const auto& x : in) {
    if (!naive_match(x.rec, t0, t1, f)) {
      continue;
    }
    if (agg.count == 0) {
      agg.t_min_ns = agg.t_max_ns = x.rec.timestamp_ns;
      cur_min = cur_max = x.current_q;
    }
    agg.t_min_ns = std::min(agg.t_min_ns, x.rec.timestamp_ns);
    agg.t_max_ns = std::max(agg.t_max_ns, x.rec.timestamp_ns);
    cur_min = std::min(cur_min, x.current_q);
    cur_max = std::max(cur_max, x.current_q);
    cur_sum += x.current_q;
    energy_sum += x.energy_q;
    ++agg.count;
  }
  if (agg.count == 0) {
    return std::nullopt;
  }
  agg.min_current_ma = dequantize(cur_min, kCurrentScale);
  agg.max_current_ma = dequantize(cur_max, kCurrentScale);
  agg.avg_current_ma =
      dequantize(cur_sum, kCurrentScale) / static_cast<double>(agg.count);
  agg.sum_energy_mwh = dequantize(energy_sum, kEnergyScale);
  return agg;
}

util::RunningStats naive_current_stats(const std::vector<StoredInput>& in,
                                       std::int64_t t0, std::int64_t t1,
                                       const RecordFilter& f) {
  util::RunningStats stats;
  for (const auto& x : in) {
    if (naive_match(x.rec, t0, t1, f)) {
      stats.add(x.rec.current_ma);
    }
  }
  return stats;
}

/// downsample()'s documented grid: the range clamps to the series'
/// observed bounds (all records, unfiltered), still anchored at t0.  The
/// grid math runs in 128 bits, so sentinel ranges cannot overflow it.
std::vector<WindowAggregate> naive_downsample(
    const std::vector<StoredInput>& in, std::int64_t t0, std::int64_t t1,
    std::int64_t window, const RecordFilter& f) {
  if (in.empty() || t1 <= t0) {
    return {};
  }
  std::int64_t obs_min = INT64_MAX;
  std::int64_t obs_max = INT64_MIN;
  for (const auto& x : in) {
    obs_min = std::min(obs_min, x.rec.timestamp_ns);
    obs_max = std::max(obs_max, x.rec.timestamp_ns);
  }
  using Wide = __int128;
  const Wide t0c = t0 < obs_min ? t0 + (Wide{obs_min} - t0) / window * window
                                : Wide{t0};
  const Wide t1c = std::min(Wide{t1}, Wide{obs_max} + 1);
  if (t1c <= t0c) {
    return {};
  }
  const auto n = static_cast<std::size_t>((t1c - t0c + window - 1) / window);
  std::vector<WindowAggregate> out(n);
  std::vector<double> sums(n, 0.0);
  for (std::size_t w = 0; w < n; ++w) {
    out[w].start_ns = static_cast<std::int64_t>(t0c + Wide{window} * w);
  }
  for (const auto& x : in) {
    if (x.rec.timestamp_ns < t0c || x.rec.timestamp_ns >= t1c ||
        !naive_match(x.rec, INT64_MIN, INT64_MAX, f)) {
      continue;
    }
    const auto w = static_cast<std::size_t>((x.rec.timestamp_ns - t0c) / window);
    out[w].count += 1;
    sums[w] += x.rec.current_ma;
    out[w].max_current_ma = std::max(out[w].max_current_ma, x.rec.current_ma);
    out[w].sum_energy_mwh += x.rec.energy_mwh;
  }
  for (std::size_t w = 0; w < n; ++w) {
    if (out[w].count > 0) {
      out[w].avg_current_ma = sums[w] / static_cast<double>(out[w].count);
    }
  }
  return out;
}

std::map<NetworkId, NetworkUsage> naive_breakdown(
    const std::vector<StoredInput>& in, std::int64_t from) {
  std::map<NetworkId, std::pair<std::uint64_t, std::int64_t>> tally;
  for (const auto& x : in) {
    if (x.rec.timestamp_ns >= from) {
      tally[x.rec.network].first += 1;
      tally[x.rec.network].second += x.energy_q;
    }
  }
  std::map<NetworkId, NetworkUsage> out;
  for (const auto& [network, t] : tally) {
    out[network] = NetworkUsage{t.first, dequantize(t.second, kEnergyScale)};
  }
  return out;
}

bool same_aggregate(const std::optional<DeviceAggregate>& a,
                    const std::optional<DeviceAggregate>& b) {
  if (a.has_value() != b.has_value()) {
    return false;
  }
  return !a || (a->count == b->count && a->t_min_ns == b->t_min_ns &&
                a->t_max_ns == b->t_max_ns &&
                a->min_current_ma == b->min_current_ma &&
                a->max_current_ma == b->max_current_ma &&
                a->avg_current_ma == b->avg_current_ma &&
                a->sum_energy_mwh == b->sum_energy_mwh);
}

bool same_stats(const util::RunningStats& a, const util::RunningStats& b) {
  return a.count() == b.count() && a.mean() == b.mean() &&
         a.variance() == b.variance() && a.min() == b.min() &&
         a.max() == b.max();
}

bool same_windows(const std::vector<WindowAggregate>& a,
                  const std::vector<WindowAggregate>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].start_ns != b[i].start_ns || a[i].count != b[i].count ||
        a[i].avg_current_ma != b[i].avg_current_ma ||
        a[i].max_current_ma != b[i].max_current_ma ||
        a[i].sum_energy_mwh != b[i].sum_energy_mwh) {
      return false;
    }
  }
  return true;
}

bool same_breakdown(const std::map<NetworkId, NetworkUsage>& a,
                    const std::map<NetworkId, NetworkUsage>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
    if (ia->first != ib->first || ia->second.records != ib->second.records ||
        ia->second.energy_mwh != ib->second.energy_mwh) {
      return false;
    }
  }
  return true;
}

/// Two devices' arrivals.  "dev-1" is time-ordered.  "dev-2" reports its
/// roamed-era slice (network wan-2, temporary membership) and batches of
/// offline-buffered records late, so its seals go out of order; the second
/// wan-2 era makes wan-2 present in some segment dictionaries and absent
/// from others.  A few QoS-1 retransmits are mixed in.  `repeat` lengthens
/// both streams (the unordered pattern repeats every 190 records) so that
/// large seal thresholds seal several multi-block segments.
std::vector<ConsumptionRecord> fold_workload(std::uint64_t seed,
                                             std::size_t repeat = 1) {
  auto ordered = synthetic_stream(170 * repeat, seed);
  auto unordered = synthetic_stream(190 * repeat, seed + 1, 2'000'000);
  std::vector<ConsumptionRecord> live;
  std::vector<ConsumptionRecord> late;
  for (std::size_t i = 0; i < unordered.size(); ++i) {
    ConsumptionRecord& r = unordered[i];
    r.device_id = "dev-2";
    const std::size_t k = i % 190;
    const bool roamed = (k >= 40 && k < 70) || (k >= 150 && k < 160);
    r.network = roamed ? "wan-2" : "wan-1";
    r.membership = roamed ? MembershipKind::kTemporary : MembershipKind::kHome;
    r.stored_offline = roamed || (k >= 100 && k < 125);
    (r.stored_offline ? late : live).push_back(r);
    if (i % 45 == 44) {  // a flush lands among the live records
      live.insert(live.end(), late.begin(), late.end());
      late.clear();
    }
  }
  live.insert(live.end(), late.begin(), late.end());
  std::vector<ConsumptionRecord> out;
  for (std::size_t i = 0; i < std::max(ordered.size(), live.size()); ++i) {
    if (i < ordered.size()) {
      out.push_back(ordered[i]);
    }
    if (i < live.size()) {
      out.push_back(live[i]);
    }
    if (i % 31 == 30) {
      out.push_back(out[out.size() / 2]);  // retransmit, dedup-dropped
    }
  }
  return out;
}

/// Runs every query kind over [t0, t1) (and network_breakdown from t0) on
/// `device`'s series against the naive folds; the first mismatch fails
/// with `label`.  The caller holds the guard `device` was looked up under.
void expect_query_kinds_match(const Tsdb& db, Tsdb::SeriesRef device,
                              const std::vector<StoredInput>& in,
                              std::int64_t t0, std::int64_t t1,
                              const std::vector<RecordFilter>& filters,
                              const std::string& label) {
  for (std::size_t k = 0; k < filters.size(); ++k) {
    const RecordFilter& f = filters[k];
    const std::string at = label + " range [" + std::to_string(t0) + ", " +
                           std::to_string(t1) + ") filter " +
                           std::to_string(k);
    ASSERT_TRUE(same_aggregate(db.aggregate(device, t0, t1, f),
                               naive_aggregate(in, t0, t1, f)))
        << at;
    ASSERT_TRUE(same_stats(db.current_stats(device, t0, t1, f),
                           naive_current_stats(in, t0, t1, f)))
        << at;
    for (const std::int64_t window :
         {INT64_C(700'000'000), INT64_C(3'000'000'000)}) {
      ASSERT_TRUE(same_windows(db.downsample(device, t0, t1, window, f),
                               naive_downsample(in, t0, t1, window, f)))
          << at << " window " << window;
    }
  }
  ASSERT_TRUE(same_breakdown(db.network_breakdown(device, t0),
                             naive_breakdown(in, t0)))
      << label << " from " << t0;
}

TEST(TsdbFold, QueryKindsMatchNaiveFoldOverInputRecords) {
  std::vector<RecordFilter> filters(6);
  filters[1].network = "wan-1";
  filters[2].stored_offline = true;
  filters[3].stored_offline = false;
  filters[4].network = "wan-2";  // absent from most segment dictionaries
  filters[4].stored_offline = true;
  filters[5].network = "wan-9";  // in no dictionary at all
  std::vector<std::size_t> small_thresholds(64);
  for (std::size_t t = 1; t <= 64; ++t) {
    small_thresholds[t - 1] = t;
  }
  // Thresholds up to 64 seal one restart block per segment; 65 and up seal
  // several, on the longer workload so that 256 seals more than once.
  const std::vector<std::pair<std::size_t, std::vector<std::size_t>>> runs{
      {1, small_thresholds}, {4, {63, 64, 65, 131, 256}}};
  const std::vector<DeviceId> devices{"dev-1", "dev-2"};
  for (const auto& [repeat, thresholds] : runs) {
    const auto arrivals = fold_workload(211, repeat);
    for (const DeviceId& device : devices) {
      const auto in = accepted_inputs(arrivals, device);
      ASSERT_GT(in.size(), 150u * repeat);
      std::int64_t t_lo = INT64_MAX;
      std::int64_t t_hi = INT64_MIN;
      for (const auto& x : in) {
        t_lo = std::min(t_lo, x.rec.timestamp_ns);
        t_hi = std::max(t_hi, x.rec.timestamp_ns);
      }
      for (const std::size_t threshold : thresholds) {
        Tsdb db{TsdbOptions{2, threshold}};
        for (const auto& r : arrivals) {
          db.ingest(r);
        }
        // Range ends at accepted-record timestamps: one sits mid-way through
        // a sealed segment, one mid-way through the open head (whose records
        // are the last in.size() % threshold accepted).
        const std::size_t head = in.size() % threshold;
        const std::size_t sealed_mid =
            std::min(threshold / 2 + threshold, in.size() - 1);
        const std::size_t head_mid = in.size() - 1 - head / 2;
        const std::int64_t t_seal = in[sealed_mid].rec.timestamp_ns;
        const std::int64_t t_head = in[head_mid].rec.timestamp_ns;
        std::vector<std::pair<std::int64_t, std::int64_t>> ranges{
            {INT64_MIN, INT64_MAX},
            {std::min(t_seal, t_head), std::max(t_seal, t_head)},
            {std::min(t_seal, t_head), std::max(t_seal, t_head) + 1},
            {t_lo + (t_hi - t_lo) / 3, t_hi - (t_hi - t_lo) / 3},
            {t_seal, t_seal},          // empty: t1 == t0
            {t_head, t_seal - 1},      // empty or inverted
            {t_seal + 1, t_seal + 2},  // between two records
            {t_hi + 1, INT64_MAX},     // past everything
        };
        if (repeat > 1) {
          // Every restart-block boundary inside a sealed segment: the last
          // record before it and the first after it, each +-1, as the
          // range's start and as its end, plus the range straddling it.
          const std::size_t sealed = in.size() - head;
          for (std::size_t j = kRestartBlock; j < sealed; ++j) {
            if (j % threshold % kRestartBlock != 0) {
              continue;
            }
            const std::int64_t before = in[j - 1].rec.timestamp_ns;
            const std::int64_t after = in[j].rec.timestamp_ns;
            for (const std::int64_t t : {before, after}) {
              for (const std::int64_t d : {-1, 0, 1}) {
                ranges.emplace_back(t + d, INT64_MAX);
                ranges.emplace_back(INT64_MIN, t + d);
              }
            }
            ranges.emplace_back(std::min(before, after),
                                std::max(before, after) + 1);
          }
        }
        const ReadGuard guard = db.read_guard();
        const Tsdb::SeriesRef ref = db.lookup(device);
        for (const auto& [t0, t1] : ranges) {
          expect_query_kinds_match(
              db, ref, in, t0, t1, filters,
              device + " threshold " + std::to_string(threshold));
          if (HasFatalFailure()) {
            return;
          }
        }
        for (const std::int64_t from : {INT64_MIN, t_seal, t_head, t_hi + 1}) {
          ASSERT_TRUE(same_breakdown(db.network_breakdown(ref, from),
                                     naive_breakdown(in, from)))
              << device << " threshold " << threshold << " from " << from;
        }
      }
    }
  }
}

TEST(TsdbFold, HeadSortedPrefixEndsAtAnOutOfOrderRecord) {
  // All in the open head (no seal): 40 in-order records, one that arrives
  // late (earlier than its predecessors, so the sorted prefix stops there
  // mid-chunk), then 30 more in order, some of them before the late one's
  // predecessors in time.  Every range end on every record +-1 must fold
  // like the naive reference.
  auto records = synthetic_stream(71, 5);
  std::swap(records[40].timestamp_ns, records[20].timestamp_ns);
  for (std::size_t i = 41; i < records.size(); ++i) {
    records[i].timestamp_ns -= 3'000'000'000;  // overlaps the prefix
  }
  Tsdb db{TsdbOptions{1, 256}};
  for (const auto& r : records) {
    ASSERT_TRUE(db.ingest(r));
  }
  const auto in = accepted_inputs(records, "dev-1");
  std::vector<RecordFilter> filters(3);
  filters[1].network = "wan-1";
  filters[2].stored_offline = false;
  std::vector<std::int64_t> ends{INT64_MIN, INT64_MAX};
  for (const auto& x : in) {
    for (const std::int64_t d : {-1, 0, 1}) {
      ends.push_back(x.rec.timestamp_ns + d);
    }
  }
  const ReadGuard guard = db.read_guard();
  const Tsdb::SeriesRef dev1 = db.lookup("dev-1");
  for (std::size_t i = 0; i < ends.size(); i += 5) {
    for (std::size_t j = 0; j < ends.size(); j += 3) {
      expect_query_kinds_match(db, dev1, in, ends[i], ends[j], filters,
                               "head");
      if (HasFatalFailure()) {
        return;
      }
    }
  }
  // A scan returns the in-range records in storage order.
  const auto got = db.scan(dev1, in[10].rec.timestamp_ns,
                           in[60].rec.timestamp_ns);
  std::vector<std::uint64_t> want;
  for (const auto& x : in) {
    if (x.rec.timestamp_ns >= in[10].rec.timestamp_ns &&
        x.rec.timestamp_ns < in[60].rec.timestamp_ns) {
      want.push_back(x.rec.sequence);
    }
  }
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].sequence, want[i]);
  }
}

bool same_stored(const StoredRecord& a, const StoredRecord& b) {
  return a.timestamp_ns == b.timestamp_ns && a.current_q == b.current_q &&
         a.energy_q == b.energy_q && *a.network == *b.network &&
         a.flags == b.flags && a.sequence == b.sequence &&
         a.interval_ns == b.interval_ns && a.voltage_q == b.voltage_q;
}

TEST(TsdbFold, ParsedSegmentFoldsEveryRangeLikeTheSealedOriginal) {
  // A sealed segment folds through its restart blocks; the same bytes
  // parsed back have one block.  Both must hand over exactly the records
  // in range, in storage order, column for column — out-of-order and
  // extreme clocks included.
  auto records = synthetic_stream(200, 9);
  std::swap(records[70].timestamp_ns, records[150].timestamp_ns);
  records[100].timestamp_ns = INT64_MIN + 5;
  records[101].timestamp_ns = INT64_MAX - 5;
  SegmentBuilder builder;
  for (const auto& r : records) {
    builder.append(r);
  }
  const Segment sealed = builder.seal();
  const auto parsed = Segment::parse(sealed.bytes());
  ASSERT_TRUE(parsed.ok()) << parsed.error().detail;
  EXPECT_GT(sealed.index_bytes(), parsed.value().index_bytes());
  std::vector<std::int64_t> ends{INT64_MIN, INT64_MAX};
  for (const auto& r : records) {
    for (const std::int64_t d : {-1, 0, 1}) {
      if ((d < 0 && r.timestamp_ns == INT64_MIN) ||
          (d > 0 && r.timestamp_ns == INT64_MAX)) {
        continue;
      }
      ends.push_back(r.timestamp_ns + d);
    }
  }
  std::uint64_t skipped = 0;
  for (std::size_t i = 0; i < ends.size(); i += 2) {
    for (std::size_t j = 0; j < ends.size(); j += 7) {
      const std::int64_t first = ends[i];
      const std::int64_t last = ends[j];
      std::vector<StoredRecord> from_sealed;
      std::vector<StoredRecord> from_parsed;
      FoldCost sealed_cost;
      FoldCost parsed_cost;
      ASSERT_TRUE(sealed.fold<columns::kAll>(
          first, last,
          [&](const StoredRecord& r) { from_sealed.push_back(r); },
          sealed_cost));
      ASSERT_TRUE(parsed.value().fold<columns::kAll>(
          first, last,
          [&](const StoredRecord& r) { from_parsed.push_back(r); },
          parsed_cost));
      std::vector<std::uint64_t> want;
      for (const auto& r : records) {
        if (r.timestamp_ns >= first && r.timestamp_ns <= last) {
          want.push_back(r.sequence);
        }
      }
      ASSERT_EQ(from_sealed.size(), want.size()) << first << ".." << last;
      ASSERT_EQ(from_parsed.size(), want.size()) << first << ".." << last;
      for (std::size_t k = 0; k < want.size(); ++k) {
        EXPECT_EQ(from_sealed[k].sequence, want[k]);
        ASSERT_TRUE(same_stored(from_sealed[k], from_parsed[k]))
            << first << ".." << last << " record " << k;
      }
      EXPECT_LE(parsed_cost.blocks_skipped, 1u);  // its one block
      skipped += sealed_cost.blocks_skipped;
    }
  }
  EXPECT_GT(skipped, 0u);  // the sealed side did skip blocks
}

TEST(TsdbFold, TsdbSealEncodesLikeASegmentBuilder) {
  // Three 100-record heads, each grown 16 -> 32 -> 64 -> 100 before its
  // seal.  The second holds out-of-order and extreme clocks; the third
  // cycles six networks, so its dictionary grows past its first four
  // slots.  Each Tsdb seal must encode exactly what a SegmentBuilder fed
  // the same records does.
  constexpr std::size_t kThreshold = 100;
  auto records = synthetic_stream(3 * kThreshold, 23);
  std::swap(records[110].timestamp_ns, records[180].timestamp_ns);
  records[150].timestamp_ns = INT64_MIN + 5;
  records[151].timestamp_ns = INT64_MAX - 5;
  for (std::size_t i = 2 * kThreshold; i < records.size(); ++i) {
    records[i].network = "wan-" + std::to_string(i % 6);
  }
  Tsdb db{TsdbOptions{1, kThreshold}};
  for (const auto& r : records) {
    ASSERT_TRUE(db.ingest(r));
  }
  std::size_t builder_bytes = 0;
  std::vector<ConsumptionRecord> decoded;
  for (std::size_t first = 0; first < records.size(); first += kThreshold) {
    SegmentBuilder builder;
    for (std::size_t i = first; i < first + kThreshold; ++i) {
      builder.append(records[i]);
    }
    const Segment seg = builder.seal();
    builder_bytes += seg.byte_size() + seg.index_bytes();
    for (auto& r : seg.decode_all()) {
      decoded.push_back(std::move(r));
    }
  }
  EXPECT_EQ(db.stats().segments_sealed, 3u);
  EXPECT_EQ(db.stats().sealed_bytes, builder_bytes);
  const ReadGuard guard = db.read_guard();
  EXPECT_EQ(db.scan(db.lookup("dev-1"), INT64_MIN, INT64_MAX), decoded);
}

TEST(TsdbFold, TrailingRangeSkipsBlocksAndCountsDecodeWork) {
  // 256 in-order records sealed (4 blocks) plus a 20-record head.  A range
  // covering the last 30 sealed records decodes only the last block and
  // reads the head by binary search.
  const auto records = synthetic_stream(276, 12);
  Tsdb db{TsdbOptions{1, 256}};
  for (const auto& r : records) {
    db.ingest(r);
  }
  const TsdbStats before = db.stats();
  EXPECT_EQ(before.blocks_skipped, 0u);
  EXPECT_EQ(before.records_decoded, 0u);
  const ReadGuard guard = db.read_guard();
  const auto agg = db.aggregate(db.lookup("dev-1"), records[226].timestamp_ns,
                                records[266].timestamp_ns);
  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->count, 40u);
  const TsdbStats after = db.stats();
  EXPECT_EQ(after.blocks_skipped - before.blocks_skipped, 3u);
  // The last block (64 records) plus the 10 head records in range.
  EXPECT_EQ(after.records_decoded - before.records_decoded, 64u + 10u);
}

}  // namespace
}  // namespace emon::store
