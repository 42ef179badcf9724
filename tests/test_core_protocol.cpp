// Unit tests for the unified wire protocol (core/protocol.hpp): envelope
// framing, round-trips for every message type through seal()/decode_any(),
// and adversarial malformed-frame handling — truncation at every byte
// boundary, bad magic, future versions, unknown types, length mismatches
// and corrupted payloads must all yield typed decode errors, never crashes
// or uncaught exceptions.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "chain/ledger.hpp"
#include "core/protocol.hpp"
#include "util/bytes.hpp"

namespace emon::core::protocol {
namespace {

ConsumptionRecord sample_record(std::uint64_t seq) {
  ConsumptionRecord r;
  r.device_id = "dev-1";
  r.sequence = seq;
  r.timestamp_ns = 123456789;
  r.interval_ns = 100000000;
  r.current_ma = 42.5;
  r.bus_voltage_mv = 4987.0;
  r.energy_mwh = 0.0123;
  r.network = "wan-1";
  r.membership = MembershipKind::kTemporary;
  r.stored_offline = true;
  return r;
}

/// `frame` must fail its body codec with a detail containing `what`.
void expect_malformed(const std::vector<std::uint8_t>& frame,
                      std::string_view what) {
  const auto decoded = decode_any(frame);
  ASSERT_FALSE(decoded.ok()) << what;
  EXPECT_EQ(decoded.failure().fault, DecodeFault::kMalformedPayload) << what;
  EXPECT_NE(decoded.failure().detail.find(what), std::string::npos)
      << decoded.failure().detail;
}

template <typename M>
M roundtrip(const M& m) {
  const auto frame = seal(m);
  auto decoded = decode_any(frame);
  EXPECT_TRUE(decoded.ok());
  EXPECT_EQ(msg_type_of(decoded.value()), M::kType);
  return std::get<M>(decoded.value());
}

// ---------------------------------------------------------------------------
// Envelope framing
// ---------------------------------------------------------------------------

TEST(Envelope, HeaderLayout) {
  const std::vector<std::uint8_t> payload{0xAA, 0xBB};
  const auto frame =
      seal(MsgType::kBeacon, std::span<const std::uint8_t>(payload));
  ASSERT_EQ(frame.size(), kHeaderSize + 2);
  EXPECT_EQ(frame[0], 0x45);  // 'E' (magic low byte)
  EXPECT_EQ(frame[1], 0x4D);  // 'M'
  EXPECT_EQ(frame[2], kProtocolVersion);
  EXPECT_EQ(frame[3], static_cast<std::uint8_t>(MsgType::kBeacon));
  EXPECT_EQ(frame[4], 2u);  // payload length, little-endian u32
  EXPECT_EQ(frame[5], 0u);
  EXPECT_EQ(frame[8], 0xAA);
  EXPECT_EQ(frame[9], 0xBB);
}

TEST(Envelope, OpenExposesHeaderWithoutBodyDecode) {
  const std::vector<std::uint8_t> payload{1, 2, 3};
  const auto frame =
      seal(MsgType::kReport, std::span<const std::uint8_t>(payload));
  auto opened = open(frame);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().type, MsgType::kReport);
  EXPECT_EQ(opened.value().payload, payload);
  EXPECT_EQ(opened.value().frame_size(), frame.size());
}

TEST(Envelope, WireNamesAreStable) {
  EXPECT_EQ(wire_name(MsgType::kVerifyDeviceQuery), "verify_device");
  EXPECT_EQ(wire_name(MsgType::kVerifyDeviceResponse), "verify_device_resp");
  EXPECT_EQ(wire_name(MsgType::kRoamRecords), "roam_records");
  EXPECT_EQ(wire_name(MsgType::kTransferMembership), "transfer_membership");
  EXPECT_EQ(wire_name(MsgType::kRemoveDevice), "remove_device");
  EXPECT_EQ(wire_name(MsgType::kChainBlock), "chain_block");
  EXPECT_EQ(wire_name(MsgType::kSubscribeRequest), "subscribe");
  EXPECT_EQ(wire_name(MsgType::kSubscribeAck), "subscribe_ack");
  EXPECT_EQ(wire_name(MsgType::kRollupPush), "rollup_push");
  EXPECT_EQ(wire_name(MsgType::kUnsubscribe), "unsubscribe");
  EXPECT_EQ(wire_name(MsgType::kStatsRequest), "stats_request");
  EXPECT_EQ(wire_name(MsgType::kStatsResponse), "stats_response");
}

// ---------------------------------------------------------------------------
// Round-trips: every protocol message through the envelope
// ---------------------------------------------------------------------------

TEST(RoundTrip, RegisterRequest) {
  const auto back = roundtrip(RegisterRequest{"dev-1", "agg-2"});
  EXPECT_EQ(back.device_id, "dev-1");
  EXPECT_EQ(back.master_addr, "agg-2");
}

TEST(RoundTrip, Report) {
  const auto back =
      roundtrip(Report{"dev-1", {sample_record(1), sample_record(2)}});
  EXPECT_EQ(back.device_id, "dev-1");
  ASSERT_EQ(back.records.size(), 2u);
  EXPECT_EQ(back.records[0], sample_record(1));
  EXPECT_EQ(back.records[1], sample_record(2));
}

TEST(RoundTrip, CtrlMessage) {
  CtrlMessage m;
  m.type = CtrlType::kRegisterAccept;
  m.device_id = "dev-9";
  m.assigned_addr = "agg-3";
  m.membership = MembershipKind::kTemporary;
  m.slot = 11;
  m.ack_sequence = 777;
  m.reason = "ok";
  const auto back = roundtrip(m);
  EXPECT_EQ(back.type, CtrlType::kRegisterAccept);
  EXPECT_EQ(back.device_id, "dev-9");
  EXPECT_EQ(back.assigned_addr, "agg-3");
  EXPECT_EQ(back.membership, MembershipKind::kTemporary);
  EXPECT_EQ(back.slot, 11u);
  EXPECT_EQ(back.ack_sequence, 777u);
  EXPECT_EQ(back.reason, "ok");
}

TEST(RoundTrip, Beacon) {
  const auto back = roundtrip(Beacon{"agg-1", 987654321});
  EXPECT_EQ(back.aggregator_id, "agg-1");
  EXPECT_EQ(back.master_time_ns, 987654321);
}

TEST(RoundTrip, VerifyDeviceQuery) {
  const auto back = roundtrip(VerifyDeviceQuery{"dev-1", "agg-2"});
  EXPECT_EQ(back.device_id, "dev-1");
  EXPECT_EQ(back.origin, "agg-2");
}

TEST(RoundTrip, VerifyDeviceResponse) {
  const auto back = roundtrip(VerifyDeviceResponse{"dev-1", true, "agg-1"});
  EXPECT_EQ(back.device_id, "dev-1");
  EXPECT_TRUE(back.known);
  EXPECT_EQ(back.master, "agg-1");
}

TEST(RoundTrip, RoamRecords) {
  const auto back =
      roundtrip(RoamRecords{"dev-1", "agg-2", {sample_record(5)}});
  EXPECT_EQ(back.device_id, "dev-1");
  EXPECT_EQ(back.collector, "agg-2");
  ASSERT_EQ(back.records.size(), 1u);
  EXPECT_EQ(back.records[0], sample_record(5));
}

TEST(RoundTrip, TransferMembership) {
  const auto back = roundtrip(TransferMembership{"dev-1", "agg-3"});
  EXPECT_EQ(back.device_id, "dev-1");
  EXPECT_EQ(back.new_master, "agg-3");
}

TEST(RoundTrip, RemoveDevice) {
  const auto back = roundtrip(RemoveDevice{"dev-1", "lost"});
  EXPECT_EQ(back.device_id, "dev-1");
  EXPECT_EQ(back.reason, "lost");
}

TEST(RoundTrip, ChainBlock) {
  chain::Ledger ledger;
  const chain::Block block = ledger.append(
      {chain::RecordBytes{1, 2, 3}, chain::RecordBytes{4, 5}}, 42, "agg-1");
  const auto back = roundtrip(ChainBlock{block});
  EXPECT_EQ(back.block.hash, block.hash);
  EXPECT_EQ(back.block.header.index, block.header.index);
  EXPECT_EQ(back.block.records, block.records);
}

TEST(RoundTrip, MessageVariantSealMatchesTypedSeal) {
  const Message m = Beacon{"agg-1", 5};
  EXPECT_EQ(seal(m), seal(Beacon{"agg-1", 5}));
}

// ---------------------------------------------------------------------------
// Subscription extension round-trips (defaulted == includes every field;
// doubles must survive bit-exactly — f64 travels as its IEEE-754 pattern)
// ---------------------------------------------------------------------------

WireAggregate sample_aggregate() {
  WireAggregate a;
  a.count = 12345;
  a.t_min_ns = -7;
  a.t_max_ns = 987654321012345;
  a.min_current_ma = 0.1;  // not exactly representable: pattern must survive
  a.max_current_ma = 512.75;
  a.avg_current_ma = 182.53900000000002;
  a.sum_energy_mwh = 1.0 / 3.0;
  return a;
}

TEST(RoundTrip, SubscribeRequestAllFieldsSet) {
  SubscribeRequest m;
  m.client_id = "dash-1";
  m.subscription_id = 42;
  m.devices = {"dev-3", "dev-1"};  // order preserved, not canonicalized
  m.window_ns = 60'000'000'000;
  m.slide_ns = 15'000'000'000;
  m.lateness_ns = 2'000'000'000;
  m.network = "wan-2";
  m.stored_offline = false;
  m.include_per_device = true;
  EXPECT_EQ(roundtrip(m), m);
}

TEST(RoundTrip, SubscribeRequestOptionalsAbsent) {
  SubscribeRequest m;
  m.client_id = "dash-2";
  m.subscription_id = 1;
  m.window_ns = 1'000'000'000;
  m.lateness_ns = -1;  // "use the service default" sentinel survives
  const auto back = roundtrip(m);
  EXPECT_EQ(back, m);
  EXPECT_FALSE(back.network.has_value());
  EXPECT_FALSE(back.stored_offline.has_value());
}

TEST(RoundTrip, SubscribeAckAcceptAndReject) {
  SubscribeAck accept;
  accept.subscription_id = 7;
  accept.accepted = true;
  accept.anchor_ns = 123'456'789;
  EXPECT_EQ(roundtrip(accept), accept);

  SubscribeAck reject;
  reject.subscription_id = 8;
  reject.accepted = false;
  reject.reason = "invalid window geometry";
  EXPECT_EQ(roundtrip(reject), reject);
}

TEST(RoundTrip, RollupPushWithAndWithoutDeviceRows) {
  RollupPush m;
  m.subscription_id = 9;
  m.t0_ns = 5'000'000'000;
  m.t1_ns = 6'000'000'000;
  m.device_count = 2;
  m.merged = sample_aggregate();
  m.breakdown = {{"wan-0", 40, 0.25}, {"wan-1", 2, 1e-9}};
  m.per_device = {{"dev-1", sample_aggregate()},
                  {"dev-2", WireAggregate{}}};
  EXPECT_EQ(roundtrip(m), m);

  m.per_device.clear();  // merged-only push (large fleets)
  EXPECT_EQ(roundtrip(m), m);
}

TEST(RoundTrip, Unsubscribe) {
  EXPECT_EQ(roundtrip(Unsubscribe{3, "dash-1"}), (Unsubscribe{3, "dash-1"}));
}

TEST(RoundTrip, StatsRequest) {
  EXPECT_EQ(roundtrip(StatsRequest{"dash-1", 99}),
            (StatsRequest{"dash-1", 99}));
}

TEST(RoundTrip, StatsResponseAllSections) {
  StatsResponse resp;
  resp.request_id = 7;
  resp.aggregator_id = "agg-1";
  resp.sim_now_ns = -5;  // zigzag path: negative values must survive
  resp.counters = {{"tsdb_records_ingested", 12345},
                   {"agg_reports_total", ~std::uint64_t{0}}};
  resp.gauges = {{"rollup_watermark_lag_ns", -250}};
  WireHistogram h;
  h.name = "query_ns{kind=\"aggregate\"}";
  h.count = 10;
  h.sum = 5000;
  h.min = 3;
  h.max = 900;
  h.p50 = 400;
  h.p95 = 850;
  h.p99 = 890;
  resp.histograms = {h};
  EXPECT_EQ(roundtrip(resp), resp);
}

TEST(RoundTrip, StatsResponseEmptySections) {
  StatsResponse resp;
  resp.request_id = 1;
  resp.aggregator_id = "agg-2";
  resp.sim_now_ns = 0;
  EXPECT_EQ(roundtrip(resp), resp);
}

// ---------------------------------------------------------------------------
// Malformed frames: typed errors, no crashes, no throws
// ---------------------------------------------------------------------------

TEST(Malformed, TruncationAtEveryByteBoundary) {
  const auto frame = seal(RegisterRequest{"dev-1", "agg-1"});
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const std::span<const std::uint8_t> cut(frame.data(), len);
    auto decoded = decode_any(cut);
    ASSERT_FALSE(decoded.ok()) << "truncated to " << len << " bytes";
    if (len < kHeaderSize) {
      EXPECT_EQ(decoded.failure().fault, DecodeFault::kTruncatedHeader)
          << "at " << len;
    } else {
      // Header intact but the declared payload length exceeds the bytes
      // present.
      EXPECT_EQ(decoded.failure().fault, DecodeFault::kLengthMismatch)
          << "at " << len;
    }
  }
}

TEST(Malformed, EmptyFrame) {
  auto decoded = decode_any(std::span<const std::uint8_t>{});
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.failure().fault, DecodeFault::kTruncatedHeader);
}

TEST(Malformed, BadMagic) {
  auto frame = seal(Beacon{"agg-1", 1});
  frame[0] ^= 0xFF;
  auto decoded = decode_any(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.failure().fault, DecodeFault::kBadMagic);
}

TEST(Malformed, FutureVersionRejected) {
  auto frame = seal(Beacon{"agg-1", 1});
  frame[2] = kProtocolVersion + 1;
  auto decoded = decode_any(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.failure().fault, DecodeFault::kUnsupportedVersion);
}

TEST(Malformed, VersionZeroRejected) {
  // No peer sends version 0; accepting it would give one message a second
  // accepted encoding.
  auto frame = seal(Beacon{"agg-1", 1});
  frame[2] = 0;
  auto decoded = decode_any(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.failure().fault, DecodeFault::kUnsupportedVersion);
  EXPECT_FALSE(open(frame).ok());
}

TEST(Malformed, UnknownTypeRejected) {
  auto frame = seal(Beacon{"agg-1", 1});
  frame[3] = 0xEE;
  auto decoded = decode_any(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.failure().fault, DecodeFault::kUnknownType);
  EXPECT_FALSE(is_known_msg_type(0xEE));
}

TEST(Malformed, TrailingBytesRejected) {
  auto frame = seal(Beacon{"agg-1", 1});
  frame.push_back(0x00);  // one byte more than the header declares
  auto decoded = decode_any(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.failure().fault, DecodeFault::kLengthMismatch);
}

TEST(Malformed, CorruptPayloadIsTypedError) {
  // Valid header, garbage body: the per-type codec must fail cleanly.
  const std::vector<std::uint8_t> garbage{0xFF, 0xFF, 0xFF, 0xFF, 0x01};
  for (const auto type :
       {MsgType::kRegisterRequest, MsgType::kReport, MsgType::kCtrl,
        MsgType::kBeacon, MsgType::kVerifyDeviceQuery,
        MsgType::kVerifyDeviceResponse, MsgType::kRoamRecords,
        MsgType::kTransferMembership, MsgType::kRemoveDevice,
        MsgType::kChainBlock, MsgType::kSubscribeRequest,
        MsgType::kSubscribeAck, MsgType::kRollupPush,
        MsgType::kUnsubscribe, MsgType::kStatsRequest,
        MsgType::kStatsResponse}) {
    const auto frame =
        seal(type, std::span<const std::uint8_t>(garbage));
    auto decoded = decode_any(frame);
    ASSERT_FALSE(decoded.ok()) << wire_name(type);
    EXPECT_EQ(decoded.failure().fault, DecodeFault::kMalformedPayload)
        << wire_name(type);
    EXPECT_FALSE(decoded.failure().detail.empty());
  }
}

TEST(Malformed, PayloadTruncatedAtFieldBoundaries) {
  // Cut a Report's payload at every byte (keeping the header consistent):
  // the codec hits a different field boundary at each length and must
  // always surface kMalformedPayload.
  const auto payload = util::to_bytes(Report{"dev-1", {sample_record(1)}});
  for (std::size_t len = 0; len < payload.size(); ++len) {
    const auto frame = seal(
        MsgType::kReport, std::span<const std::uint8_t>(payload.data(), len));
    auto decoded = decode_any(frame);
    ASSERT_FALSE(decoded.ok()) << "payload cut to " << len;
    EXPECT_EQ(decoded.failure().fault, DecodeFault::kMalformedPayload)
        << "payload cut to " << len;
  }
}

TEST(Malformed, SubscribeRequestPayloadTruncatedAtFieldBoundaries) {
  SubscribeRequest m;
  m.client_id = "dash-1";
  m.subscription_id = 2;
  m.devices = {"dev-1"};
  m.window_ns = 1'000'000'000;
  m.network = "wan-0";
  m.stored_offline = true;
  m.include_per_device = true;
  const auto payload = util::to_bytes(m);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    const auto frame =
        seal(MsgType::kSubscribeRequest,
             std::span<const std::uint8_t>(payload.data(), len));
    auto decoded = decode_any(frame);
    ASSERT_FALSE(decoded.ok()) << "payload cut to " << len;
    EXPECT_EQ(decoded.failure().fault, DecodeFault::kMalformedPayload)
        << "payload cut to " << len;
  }
}

TEST(Malformed, RollupPushPayloadTruncatedAtFieldBoundaries) {
  RollupPush m;
  m.subscription_id = 1;
  m.t0_ns = 0;
  m.t1_ns = 1'000'000'000;
  m.device_count = 1;
  m.merged = sample_aggregate();
  m.breakdown = {{"wan-0", 3, 0.5}};
  m.per_device = {{"dev-1", sample_aggregate()}};
  const auto payload = util::to_bytes(m);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    const auto frame = seal(MsgType::kRollupPush,
                            std::span<const std::uint8_t>(payload.data(), len));
    auto decoded = decode_any(frame);
    ASSERT_FALSE(decoded.ok()) << "payload cut to " << len;
    EXPECT_EQ(decoded.failure().fault, DecodeFault::kMalformedPayload)
        << "payload cut to " << len;
  }
}

TEST(Malformed, NonBooleanFlagByteRejected) {
  // Boolean wire fields are strict: only 0x00/0x01 decode.  A subscribe
  // ack's `accepted` byte sits right after the u64 subscription id.
  SubscribeAck ack;
  ack.subscription_id = 5;
  ack.accepted = true;
  auto frame = seal(ack);
  ASSERT_GT(frame.size(), kHeaderSize + 8);
  ASSERT_EQ(frame[kHeaderSize + 8], 0x01);
  frame[kHeaderSize + 8] = 0x02;
  auto decoded = decode_any(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.failure().fault, DecodeFault::kMalformedPayload);

  // Same strictness for a subscribe request's optional-field flags.
  SubscribeRequest req;
  req.client_id = "d";
  req.window_ns = 1;
  req.include_per_device = true;
  auto req_frame = seal(req);
  ASSERT_EQ(req_frame.back(), 0x01);  // include_per_device is the last byte
  req_frame.back() = 0xCC;
  auto req_decoded = decode_any(req_frame);
  ASSERT_FALSE(req_decoded.ok());
  EXPECT_EQ(req_decoded.failure().fault, DecodeFault::kMalformedPayload);

  // A verify_device response's `known` byte follows the device id.
  auto known = seal(VerifyDeviceResponse{"d", true, "a"});
  ASSERT_EQ(known[kHeaderSize + 5], 0x01);
  known[kHeaderSize + 5] = 0x07;
  expect_malformed(known, "flag byte 7");

  // A record's stored_offline flag is the last byte of a one-record report.
  auto offline = seal(Report{"dev-1", {sample_record(1)}});
  ASSERT_EQ(offline.back(), 0x01);
  offline.back() = 0x02;
  expect_malformed(offline, "flag byte 2");
}

TEST(Malformed, OutOfRangeEnumerationRejected) {
  // A ctrl message's membership byte sits after the type byte and two
  // strings; 0x03 used to be read as temporary through `& 1`.
  CtrlMessage ctrl;
  ctrl.device_id = "d";
  ctrl.assigned_addr = "a";
  ctrl.membership = MembershipKind::kTemporary;
  auto frame = seal(ctrl);
  const std::size_t at = kHeaderSize + 1 + 5 + 5;
  ASSERT_EQ(frame[at], 0x01);
  frame[at] = 0x03;
  expect_malformed(frame, "out of range");
}

TEST(Malformed, AbsentOptionalMustCarryDefault) {
  // Layout tail: has_network, network, has_offline, offline,
  // include_per_device.  An absent field's value must be the default.
  SubscribeRequest req;
  req.client_id = "d";
  auto frame = seal(req);
  ASSERT_EQ(frame.size(), kHeaderSize + 5 + 8 + 4 + 24 + 1 + 4 + 3);
  auto offline = frame;
  offline[offline.size() - 2] = 0x01;  // absent stored_offline, value 1
  expect_malformed(offline, "absent optional");

  // An absent network followed by a non-empty string.
  SubscribeRequest named = req;
  named.network = "wan-0";
  auto network = seal(named);
  network[kHeaderSize + 5 + 8 + 4 + 24] = 0x00;  // clear has_network
  expect_malformed(network, "absent optional");
}

TEST(Malformed, OverLongVarintRejected) {
  // A stats response whose one counter value is 0 written as 0x80 0x00.
  util::ByteWriter w;
  w.u64(1);
  w.str("agg");
  w.i64(0);
  w.u32(1);
  w.str("c");
  w.u8(0x80);
  w.u8(0x00);
  w.u32(0);
  w.u32(0);
  expect_malformed(seal(MsgType::kStatsResponse, w.bytes()), "over-long");
}

TEST(Malformed, TrailingPayloadByteRejected) {
  // The header's length covers the extra byte, so only the body codec can
  // see it: every type must consume its payload exactly.
  for (const auto& m : std::vector<Message>{
           Beacon{"agg-1", 1}, RegisterRequest{"d", "a"},
           Report{"d", {sample_record(1)}}, SubscribeAck{1, true, 2, ""}}) {
    auto payload = seal(m);
    payload.erase(payload.begin(),
                  payload.begin() + static_cast<std::ptrdiff_t>(kHeaderSize));
    payload.push_back(0x00);
    expect_malformed(seal(msg_type_of(m), payload), "trailing");
  }
}

TEST(Malformed, HugeChainBlockCountIsBoundedByTheBytesPresent) {
  // A block header and then a record count of 0xFFFFFFFF: the count must be
  // refused against the bytes left, not reserved (~100 GB) first.
  util::ByteWriter w;
  w.raw(chain::serialize_header(chain::BlockHeader{}));
  w.u32(0xFFFFFFFF);
  const auto decoded = decode_any(seal(MsgType::kChainBlock, w.bytes()));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.failure().fault, DecodeFault::kMalformedPayload);
  EXPECT_NE(decoded.failure().detail.find("count 4294967295"),
            std::string::npos)
      << decoded.failure().detail;
}

TEST(Malformed, OversizedLengthPrefixInsidePayload) {
  // A string length prefix far beyond the buffer must not allocate or read
  // out of bounds.
  util::ByteWriter w;
  w.u32(0xFFFFFFFF);  // device_id "length"
  const auto frame =
      seal(MsgType::kRegisterRequest,
           std::span<const std::uint8_t>(w.bytes().data(), w.bytes().size()));
  auto decoded = decode_any(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.failure().fault, DecodeFault::kMalformedPayload);
}

// ---------------------------------------------------------------------------
// ByteReader try_* API (recoverable decode errors)
// ---------------------------------------------------------------------------

TEST(TryReader, ReturnsNulloptInsteadOfThrowing) {
  const std::vector<std::uint8_t> two{0x01, 0x02};
  util::ByteReader r{std::span<const std::uint8_t>(two.data(), two.size())};
  EXPECT_EQ(r.try_u32(), std::nullopt);  // needs 4, only 2 left
  EXPECT_EQ(r.remaining(), 2u);          // position untouched on failure
  EXPECT_EQ(r.try_u16(), 0x0201);
  EXPECT_EQ(r.try_u8(), std::nullopt);
  EXPECT_TRUE(r.done());
}

TEST(TryReader, TryStrRestoresPositionOnTruncatedBody) {
  util::ByteWriter w;
  w.u32(10);  // declares 10 bytes
  w.u8(0xAB);  // but only 1 follows
  const auto& bytes = w.bytes();
  util::ByteReader r{
      std::span<const std::uint8_t>(bytes.data(), bytes.size())};
  EXPECT_EQ(r.try_str(), std::nullopt);
  EXPECT_EQ(r.remaining(), 5u);  // length prefix not consumed
}

TEST(TryReader, TryStrReadsValidString) {
  util::ByteWriter w;
  w.str("hello");
  const auto& bytes = w.bytes();
  util::ByteReader r{
      std::span<const std::uint8_t>(bytes.data(), bytes.size())};
  EXPECT_EQ(r.try_str(), "hello");
  EXPECT_TRUE(r.done());
}

}  // namespace
}  // namespace emon::core::protocol
