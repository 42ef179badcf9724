// Edge cases and failure injection: lifecycle races, malformed input on
// the wire, and boundary conditions that the happy-path suites don't hit.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/protocol.hpp"
#include "core/records.hpp"
#include "core/scenario.hpp"
#include "net/mqtt.hpp"
#include "util/bytes.hpp"

namespace emon::core {
namespace {

using sim::milliseconds;
using sim::seconds;
using sim::SimTime;

ScenarioSpec small_params(std::uint64_t seed) {
  return FleetBuilder{}.name("two_by_one").networks(2, 1).seed(seed).spec();
}

// ---------------------------------------------------------------------------
// Device lifecycle races
// ---------------------------------------------------------------------------

TEST(Lifecycle, UnplugDuringScanIsClean) {
  Testbed bed{small_params(1)};
  bed.start();
  bed.run_for(seconds(1));  // mid-scan (scan takes 3.25 s)
  ASSERT_EQ(bed.device(0).state(), DeviceState::kAcquiring);
  bed.device(0).unplug();
  bed.run_for(seconds(10));
  EXPECT_EQ(bed.device(0).state(), DeviceState::kUnplugged);
  EXPECT_EQ(bed.device(0).stats().reports_sent, 0u);
  // Replug: full fresh handshake works.
  bed.device(0).plug_into("wan-1");
  bed.run_for(seconds(10));
  EXPECT_EQ(bed.device(0).state(), DeviceState::kReporting);
}

TEST(Lifecycle, UnplugDuringSettleIsClean) {
  Testbed bed{small_params(2)};
  bed.start();
  bed.run_for(seconds(5));  // past scan+assoc, inside settle
  bed.device(0).unplug();
  bed.run_for(seconds(5));
  EXPECT_EQ(bed.device(0).state(), DeviceState::kUnplugged);
  bed.device(0).plug_into("wan-1");
  bed.run_for(seconds(10));
  EXPECT_EQ(bed.device(0).state(), DeviceState::kReporting);
}

TEST(Lifecycle, MoveSupersedesMove) {
  Testbed bed{small_params(3)};
  bed.start();
  bed.run_for(seconds(12));
  auto& dev = bed.device(0);
  ASSERT_EQ(dev.state(), DeviceState::kReporting);
  // First move is pre-empted by a second one issued during transit.
  dev.move_to("wan-2", net::Position{122.0, 0.0}, seconds(30));
  bed.run_for(seconds(5));
  dev.move_to("wan-1", net::Position{2.0, 0.0}, seconds(5));
  bed.run_for(seconds(40));
  EXPECT_EQ(dev.plugged_network(), "wan-1");
  EXPECT_EQ(dev.state(), DeviceState::kReporting);
}

TEST(Lifecycle, PlugIntoUnknownNetworkIsHarmless) {
  Testbed bed{small_params(4)};
  bed.device(0).plug_into("wan-99");
  bed.run_for(seconds(5));
  EXPECT_EQ(bed.device(0).state(), DeviceState::kUnplugged);
  EXPECT_EQ(bed.device(0).stats().samples, 0u);
}

TEST(Lifecycle, DoublePlugReplacesCleanly) {
  Testbed bed{small_params(5)};
  bed.device(0).plug_into("wan-1");
  bed.run_for(seconds(2));
  bed.device(0).plug_into("wan-2");  // implicit unplug from wan-1
  EXPECT_FALSE(bed.grid_of(0).is_plugged("dev-1"));
  EXPECT_TRUE(bed.grid_of(1).is_plugged("dev-1"));
  bed.run_for(seconds(12));
  EXPECT_EQ(bed.device(0).plugged_network(), "wan-2");
}

TEST(Lifecycle, UnplugIdempotent) {
  Testbed bed{small_params(6)};
  bed.device(0).unplug();
  bed.device(0).unplug();
  EXPECT_EQ(bed.device(0).state(), DeviceState::kUnplugged);
}

// ---------------------------------------------------------------------------
// Malformed input on the wire
// ---------------------------------------------------------------------------

TEST(Malformed, GarbageOnProtocolTopicsDoesNotCrash) {
  Testbed bed{small_params(7)};
  bed.start();
  bed.run_for(seconds(12));
  auto& broker = bed.aggregator(0).broker();
  const std::vector<std::uint8_t> garbage{0xde, 0xad, 0xbe, 0xef};
  broker.publish_from_host(
      net::MqttMessage{"emon/register/evil", garbage, 0, "evil"});
  broker.publish_from_host(
      net::MqttMessage{"emon/report/evil", garbage, 0, "evil"});
  broker.publish_from_host(net::MqttMessage{"emon/beacon", garbage, 0, ""});
  bed.run_for(seconds(2));
  // The honest device keeps reporting.
  EXPECT_EQ(bed.device(0).state(), DeviceState::kReporting);
}

TEST(Malformed, GarbageOnBackhaulDoesNotCrash) {
  Testbed bed{small_params(8)};
  bed.start();
  bed.run_for(seconds(12));
  // Raw garbage (no envelope), a frame with a corrupted body, and frames
  // from the future: typed decode errors at the receiver, never a crash.
  const std::vector<std::uint8_t> garbage{0x00, 0xff, 0x13};
  bed.backhaul().send(net::Frame{"agg-1", "agg-2", garbage, 0});
  bed.backhaul().send(net::Frame{
      "agg-1", "agg-2",
      core::protocol::seal(core::protocol::MsgType::kRoamRecords,
                           std::span<const std::uint8_t>(garbage)),
      0});
  auto future = core::protocol::seal(
      core::protocol::MsgType::kVerifyDeviceQuery,
      std::span<const std::uint8_t>(garbage));
  future[2] = 99;  // version from the future
  bed.backhaul().send(net::Frame{"agg-1", "agg-2", future, 0});
  bed.run_for(seconds(2));
  EXPECT_GE(bed.aggregator(1).stats().malformed_frames, 3u);
  EXPECT_TRUE(bed.chain().validate().ok);
}

TEST(Malformed, ReportForForeignDeviceGetsNack) {
  Testbed bed{small_params(9)};
  bed.start();
  bed.run_for(seconds(12));
  // A syntactically valid report from a device nobody registered.
  Report rogue{"ghost-device", {}};
  const auto nacks_before = bed.aggregator(0).stats().nacks_sent;
  bed.aggregator(0).broker().publish_from_host(net::MqttMessage{
      protocol::topic_report("ghost-device"), protocol::seal(rogue), 0,
      "ghost-device"});
  bed.run_for(seconds(1));
  EXPECT_EQ(bed.aggregator(0).stats().nacks_sent, nacks_before + 1);
}

// ---------------------------------------------------------------------------
// Malformed record batches (deserialize_records hardening)
// ---------------------------------------------------------------------------

ConsumptionRecord sample_record(std::uint64_t seq) {
  ConsumptionRecord r;
  r.device_id = "dev-1";
  r.sequence = seq;
  r.timestamp_ns = 1'000'000;
  r.interval_ns = 100'000'000;
  r.current_ma = 123.4;
  r.bus_voltage_mv = 4998.0;
  r.energy_mwh = 0.017;
  r.network = "wan-1";
  return r;
}

TEST(MalformedBatch, HugeCountPrefixRejectedWithoutAllocation) {
  // A count prefix of ~4 billion with no body behind it must be rejected
  // by the count/remaining-bytes check, not by an OOM inside reserve().
  util::ByteWriter w;
  w.u32(0xffffffff);
  EXPECT_THROW((void)deserialize_records(w.take()), util::DecodeError);
}

TEST(MalformedBatch, CountLargerThanBodyRejected) {
  // A plausible-looking batch whose count claims more records than the
  // bytes that follow could possibly hold.
  auto bytes = serialize_records({sample_record(1), sample_record(2)});
  bytes[0] = 200;  // count 2 -> 200, body unchanged
  EXPECT_THROW((void)deserialize_records(bytes), util::DecodeError);
}

TEST(MalformedBatch, TruncatedMidRecordRejected) {
  auto bytes = serialize_records({sample_record(1), sample_record(2)});
  bytes.resize(bytes.size() - 5);
  EXPECT_THROW((void)deserialize_records(bytes), util::DecodeError);
}

TEST(MalformedBatch, TrailingBytesRejected) {
  auto bytes = serialize_records({sample_record(1)});
  bytes.push_back(0x00);
  EXPECT_THROW((void)deserialize_records(bytes), util::DecodeError);
}

TEST(MalformedBatch, BadMembershipKindRejected) {
  auto bytes = serialize_records({sample_record(1)});
  bytes[bytes.size() - 2] = 7;  // membership byte precedes stored_offline
  EXPECT_THROW((void)deserialize_records(bytes), util::DecodeError);
}

TEST(MalformedBatch, EmptyBatchStillRoundTrips) {
  const auto bytes = serialize_records({});
  EXPECT_TRUE(deserialize_records(bytes).empty());
}

// ---------------------------------------------------------------------------
// Roam denial paths
// ---------------------------------------------------------------------------

TEST(RoamDenial, UnknownMasterVerificationTimesOut) {
  // Device claims a master that is not on the backhaul: the temporary
  // registration must eventually be rejected, not hang.
  Testbed bed{small_params(10)};
  bed.start();
  bed.run_for(seconds(12));
  // Forge a registration with a bogus master directly at agg-2's broker.
  RegisterRequest req{"dev-1", "agg-nonexistent"};
  bed.aggregator(1).broker().publish_from_host(net::MqttMessage{
      protocol::topic_register("dev-1"), protocol::seal(req), 0, "dev-1"});
  bed.run_for(seconds(40));  // expiry sweep runs at 30 s cadence
  EXPECT_EQ(bed.aggregator(1).members().find("dev-1"), nullptr);
  EXPECT_GE(bed.aggregator(1).stats().registrations_rejected, 1u);
}

TEST(RoamDenial, MasterRefusesUnknownDevice) {
  Testbed bed{small_params(11)};
  bed.start();
  bed.run_for(seconds(12));
  // agg-2 asks agg-1 about a device agg-1 has never seen.
  RegisterRequest req{"stranger", "agg-1"};
  bed.aggregator(1).broker().publish_from_host(net::MqttMessage{
      protocol::topic_register("stranger"), protocol::seal(req), 0,
      "stranger"});
  bed.run_for(seconds(5));
  EXPECT_EQ(bed.aggregator(1).members().find("stranger"), nullptr);
  EXPECT_GE(bed.aggregator(1).stats().registrations_rejected, 1u);
  EXPECT_GE(bed.aggregator(0).stats().verify_queries_answered, 1u);
}

// ---------------------------------------------------------------------------
// One dedup on the ingest path: the store's sequence verdict decides what an
// aggregator counts, traces, forwards and puts on the chain — whether the
// record came as a direct Report or as a RoamRecords forward.
// ---------------------------------------------------------------------------

/// A record of device(0) drawn at `network`, stamped now, with a sequence far
/// above anything the device itself sends during these tests.
ConsumptionRecord injected_record(Testbed& bed, std::size_t network,
                                  std::uint64_t seq) {
  ConsumptionRecord r;
  r.device_id = bed.device(0).id();
  r.sequence = seq;
  r.timestamp_ns = bed.kernel().now().ns();
  r.interval_ns = milliseconds(100).ns();
  r.current_ma = 50.0;
  r.bus_voltage_mv = 5000.0;
  r.energy_mwh = 0.007;
  r.network = bed.network_name(network);
  r.membership = network == bed.home_of(0) ? MembershipKind::kHome
                                           : MembershipKind::kTemporary;
  return r;
}

/// A report published at `agg`'s broker as if the device sent it; the
/// aggregator handles it before this returns.
void publish_report(Aggregator& agg, const Report& report) {
  agg.broker().publish_from_host(
      net::MqttMessage{protocol::topic_report(report.device_id),
                       protocol::seal(report), 0, report.device_id});
}

/// `visitor` forwards `records` home to `home` over the backhaul.
void forward_roam(Testbed& bed, const Aggregator& visitor,
                  const Aggregator& home,
                  std::vector<ConsumptionRecord> records) {
  const RoamRecords roam{records.front().device_id, visitor.id(),
                         std::move(records)};
  bed.backhaul().send(
      net::Frame{visitor.id(), home.id(), protocol::seal(roam), 0});
}

/// Copies of (device, seq) on the shared ledger.
std::size_t on_chain(Testbed& bed, const DeviceId& device,
                     std::uint64_t seq) {
  std::size_t n = 0;
  for (const auto& block : bed.chain().ledger().blocks()) {
    for (const auto& bytes : block.records) {
      const ConsumptionRecord r = deserialize_record(bytes);
      n += r.device_id == device && r.sequence == seq ? 1 : 0;
    }
  }
  return n;
}

/// Every record of `device` in `agg`'s store, in storage order.
std::vector<ConsumptionRecord> stored_records(const Aggregator& agg,
                                              const DeviceId& device) {
  store::QuerySpec spec;
  spec.devices = {device};
  return agg.query_engine().scan(spec).records;
}

/// Copies of (device, seq) in `agg`'s store.
std::size_t in_store(const Aggregator& agg, const DeviceId& device,
                     std::uint64_t seq) {
  const auto records = stored_records(agg, device);
  return static_cast<std::size_t>(
      std::count_if(records.begin(), records.end(),
                    [seq](const ConsumptionRecord& r) {
                      return r.sequence == seq;
                    }));
}

TEST(IngestDedup, RoamForwardThenDirectReportReachesChainOnce) {
  // The same record reaches its home aggregator twice: first as a roam
  // forward, then as a direct report.  The second arrival is a duplicate on
  // both paths — not counted, not traced, not queued for the chain.
  Testbed bed{small_params(11)};
  bed.start();
  bed.run_for(seconds(12));
  Aggregator& home = bed.aggregator(0);
  const DeviceId dev = bed.device(0).id();
  const ConsumptionRecord record = injected_record(bed, 1, 900000);
  forward_roam(bed, bed.aggregator(1), home, {record});
  bed.run_for(seconds(1));
  ASSERT_EQ(in_store(home, dev, 900000), 1u);

  const auto accepted = home.stats().records_accepted;
  const auto dups = home.tsdb().stats().duplicates_dropped;
  publish_report(home, Report{dev, {record}});
  EXPECT_EQ(home.stats().records_accepted, accepted);
  EXPECT_EQ(home.tsdb().stats().duplicates_dropped, dups + 1);

  bed.run_for(seconds(12));
  EXPECT_EQ(on_chain(bed, dev, 900000), 1u);
  EXPECT_EQ(in_store(home, dev, 900000), 1u);
  EXPECT_TRUE(bed.chain().validate().ok);
}

TEST(IngestDedup, DoubleRoamForwardReachesChainOnce) {
  Testbed bed{small_params(13)};
  bed.start();
  bed.run_for(seconds(12));
  Aggregator& home = bed.aggregator(0);
  const DeviceId dev = bed.device(0).id();
  const ConsumptionRecord record = injected_record(bed, 1, 900001);
  const auto received = home.stats().roam_records_received;
  const auto dups = home.tsdb().stats().duplicates_dropped;
  forward_roam(bed, bed.aggregator(1), home, {record});
  forward_roam(bed, bed.aggregator(1), home, {record});
  bed.run_for(seconds(12));
  EXPECT_EQ(home.stats().roam_records_received, received + 2);
  EXPECT_GE(home.tsdb().stats().duplicates_dropped, dups + 1);
  EXPECT_EQ(in_store(home, dev, 900001), 1u);
  EXPECT_EQ(on_chain(bed, dev, 900001), 1u);
}

TEST(IngestDedup, SequenceRepeatedInsideOneReportIsAcceptedOnce) {
  Testbed bed{small_params(14)};
  bed.start();
  bed.run_for(seconds(12));
  Aggregator& home = bed.aggregator(0);
  const DeviceId dev = bed.device(0).id();
  const ConsumptionRecord record = injected_record(bed, 0, 900002);
  const auto accepted = home.stats().records_accepted;
  const auto dups = home.tsdb().stats().duplicates_dropped;
  publish_report(home, Report{dev, {record, record}});
  EXPECT_EQ(home.stats().records_accepted, accepted + 1);
  EXPECT_EQ(home.tsdb().stats().duplicates_dropped, dups + 1);
  bed.run_for(seconds(12));
  EXPECT_EQ(in_store(home, dev, 900002), 1u);
  EXPECT_EQ(on_chain(bed, dev, 900002), 1u);
}

TEST(IngestDedup, ReRegisteredVisitorNeitherReStoresNorReForwards) {
  // A visitor's membership table forgets a device on removal; its store
  // does not.  A record the visitor already holds (and forwarded) must not
  // be ingested or forwarded again after the device re-registers there.
  Testbed bed{small_params(15)};
  bed.start();
  bed.run_for(seconds(12));
  Aggregator& home = bed.aggregator(0);
  Aggregator& visitor = bed.aggregator(1);
  const DeviceId dev = bed.device(0).id();
  const auto register_at_visitor = [&] {
    visitor.broker().publish_from_host(net::MqttMessage{
        protocol::topic_register(dev),
        protocol::seal(RegisterRequest{dev, home.id()}), 0, dev});
    bed.run_for(seconds(2));  // verify_device round trip to the master
    const MemberEntry* member = visitor.members().find(dev);
    ASSERT_NE(member, nullptr);
    EXPECT_EQ(member->kind, MembershipKind::kTemporary);
  };

  register_at_visitor();
  const ConsumptionRecord record = injected_record(bed, 1, 900003);
  const auto forwarded = visitor.stats().roam_batches_forwarded;
  publish_report(visitor, Report{dev, {record}});
  EXPECT_EQ(visitor.stats().roam_batches_forwarded, forwarded + 1);
  bed.run_for(seconds(2));
  ASSERT_EQ(in_store(home, dev, 900003), 1u);

  visitor.remove_membership(dev, "reset");
  ASSERT_EQ(visitor.members().find(dev), nullptr);
  register_at_visitor();

  const auto accepted = visitor.stats().records_accepted;
  const auto dups = visitor.tsdb().stats().duplicates_dropped;
  publish_report(visitor, Report{dev, {record}});
  EXPECT_EQ(visitor.stats().records_accepted, accepted);
  EXPECT_EQ(visitor.stats().roam_batches_forwarded, forwarded + 1);
  EXPECT_EQ(visitor.tsdb().stats().duplicates_dropped, dups + 1);

  bed.run_for(seconds(12));
  EXPECT_EQ(in_store(visitor, dev, 900003), 1u);
  EXPECT_EQ(in_store(home, dev, 900003), 1u);
  EXPECT_EQ(on_chain(bed, dev, 900003), 1u);
}

TEST(IngestDedup, AckCarriesHighestSequenceTheStoreAccepted) {
  Testbed bed{small_params(16)};
  bed.start();
  bed.run_for(seconds(12));
  Aggregator& home = bed.aggregator(0);
  const DeviceId dev = bed.device(0).id();
  std::vector<std::uint64_t> acks;
  home.broker().subscribe_local(
      protocol::topic_ctrl(dev), [&acks](const net::MqttMessage& msg) {
        auto decoded = protocol::decode_any(msg.payload);
        ASSERT_TRUE(decoded);
        const auto* ctrl = std::get_if<CtrlMessage>(&decoded.value());
        if (ctrl != nullptr && ctrl->type == CtrlType::kReportAck) {
          acks.push_back(ctrl->ack_sequence);
        }
      });

  publish_report(home, Report{dev,
                              {injected_record(bed, 0, 900012),
                               injected_record(bed, 0, 900010),
                               injected_record(bed, 0, 900011)}});
  ASSERT_FALSE(acks.empty());
  EXPECT_EQ(acks.back(), 900012u);
  // A report of duplicates only: the store accepts nothing, the Ack holds.
  publish_report(home, Report{dev, {injected_record(bed, 0, 900011)}});
  EXPECT_EQ(acks.back(), 900012u);

  const auto stored = stored_records(home, dev);
  std::uint64_t highest = 0;
  for (const auto& r : stored) {
    highest = std::max(highest, r.sequence);
  }
  EXPECT_EQ(highest, 900012u);
  EXPECT_EQ(home.members().find(dev)->last_sequence, 900012u);
}

TEST(IngestDedup, ReportLostMidDrainOfALongBacklogReachesChainOnce) {
  // Ten minutes behind a dark AP leave the device ~6000 buffered records.
  // Back online, its first backlog report reaches home, but the device
  // unplugs before the PUBACK returns: the report fails, and its records go
  // to the back of the local FIFO, behind the rest of the backlog — more
  // newer sequences than a 4096-entry dedup window would remember.  Their
  // resend is still a duplicate: each (device, sequence) reaches the store
  // and the ledger exactly once.
  Testbed bed{FleetBuilder{}
                  .name("two_by_one")
                  .networks(2, 1)
                  .spacing_m(1000.0)  // no neighbour AP to roam to
                  .ap_outage(0, SimTime{seconds(15).ns()}, seconds(600))
                  .seed(17)
                  .spec()};
  bed.start();
  bed.run_for(seconds(615));
  Aggregator& home = bed.aggregator(0);
  DeviceApp& device = bed.device(0);
  const DeviceId dev = device.id();
  const auto accepted = home.stats().records_accepted;
  const auto failed = device.stats().reports_failed;
  for (int ms = 0;
       ms < 60'000 && home.stats().records_accepted < accepted + 256; ++ms) {
    bed.run_for(milliseconds(1));
  }
  ASSERT_GE(home.stats().records_accepted, accepted + 256);
  device.unplug();  // the PUBACK is still on its way back
  ASSERT_EQ(device.stats().reports_failed, failed + 1);
  const auto dups = home.tsdb().stats().duplicates_dropped;
  device.plug_into(bed.network_name(0));
  bed.run_for(seconds(60));

  // The lost report's 256 backlog records came back and were dropped.
  EXPECT_GE(home.tsdb().stats().duplicates_dropped, dups + 256);
  std::map<std::uint64_t, std::size_t> stored;
  for (const auto& r : stored_records(home, dev)) {
    ++stored[r.sequence];
  }
  std::map<std::uint64_t, std::size_t> ledger;
  for (const auto& block : bed.chain().ledger().blocks()) {
    for (const auto& bytes : block.records) {
      const ConsumptionRecord r = deserialize_record(bytes);
      ledger[r.sequence] += r.device_id == dev ? 1 : 0;
    }
  }
  const auto copied = [](const std::map<std::uint64_t, std::size_t>& seqs) {
    return std::count_if(seqs.begin(), seqs.end(),
                         [](const auto& entry) { return entry.second > 1; });
  };
  EXPECT_GT(stored.size(), 6000u);
  EXPECT_EQ(copied(stored), 0);
  EXPECT_EQ(home.stats().records_accepted, stored.size());
  EXPECT_GT(ledger.size(), 6000u);
  EXPECT_EQ(copied(ledger), 0);
  EXPECT_TRUE(bed.chain().validate().ok);
}

// ---------------------------------------------------------------------------
// A member files readings under its own id only: a record in dev-1's batch
// that carries dev-2's id would otherwise be stored, billed and chained as
// dev-2's consumption.
// ---------------------------------------------------------------------------

/// Records of `device` on `agg`'s invoice for it.
std::uint64_t billed_records(const Aggregator& agg, const DeviceId& device) {
  std::uint64_t n = 0;
  for (const auto& line : agg.billing().invoice_for(device).lines) {
    n += line.records;
  }
  return n;
}

TEST(ForeignRecords, ReportRecordUnderAnotherMembersIdIsRefused) {
  Testbed bed{FleetBuilder{}.name("one_by_two").networks(1, 2).seed(17).spec()};
  bed.start();
  bed.run_for(seconds(12));
  Aggregator& agg = bed.aggregator(0);
  const DeviceId dev1 = bed.device(0).id();
  const DeviceId dev2 = bed.device(1).id();
  ASSERT_NE(agg.members().find(dev1), nullptr);
  ASSERT_NE(agg.members().find(dev2), nullptr);
  ConsumptionRecord forged = injected_record(bed, 0, 900100);
  forged.device_id = dev2;

  const auto refused = agg.stats().foreign_records_refused;
  const auto accepted = agg.stats().records_accepted;
  const auto billed = billed_records(agg, dev2);
  ASSERT_GT(billed, 0u);
  publish_report(agg, Report{dev1, {forged}});
  EXPECT_EQ(agg.stats().foreign_records_refused, refused + 1);
  EXPECT_EQ(agg.stats().records_accepted, accepted);
  EXPECT_EQ(in_store(agg, dev2, 900100), 0u);
  EXPECT_EQ(billed_records(agg, dev2), billed);

  bed.run_for(seconds(12));
  EXPECT_EQ(on_chain(bed, dev2, 900100), 0u);
  EXPECT_GT(bed.chain().ledger().size(), 0u);
  EXPECT_TRUE(bed.chain().validate().ok);
  EXPECT_EQ(agg.stats().foreign_records_refused, refused + 1);
}

TEST(ForeignRecords, RoamBatchRecordUnderAnotherDevicesIdIsRefused) {
  Testbed bed{small_params(18)};
  bed.start();
  bed.run_for(seconds(12));
  Aggregator& home = bed.aggregator(0);
  const DeviceId dev1 = bed.device(0).id();
  const DeviceId dev2 = bed.device(1).id();
  ConsumptionRecord forged = injected_record(bed, 1, 900101);
  forged.device_id = dev2;

  const auto refused = home.stats().foreign_records_refused;
  const auto accepted = home.stats().records_accepted;
  bed.backhaul().send(
      net::Frame{bed.aggregator(1).id(), home.id(),
                 protocol::seal(RoamRecords{dev1, bed.aggregator(1).id(),
                                            {forged}}),
                 0});
  bed.run_for(seconds(12));
  EXPECT_EQ(home.stats().foreign_records_refused, refused + 1);
  EXPECT_EQ(in_store(home, dev2, 900101), 0u);
  EXPECT_EQ(on_chain(bed, dev2, 900101), 0u);
  EXPECT_GT(home.stats().records_accepted, accepted);  // dev-1's own, live
}

// ---------------------------------------------------------------------------
// Kernel re-entrancy
// ---------------------------------------------------------------------------

TEST(KernelEdge, CancelInsideCallback) {
  sim::Kernel kernel;
  sim::EventId later{};
  bool later_ran = false;
  later = kernel.schedule_at(SimTime{20}, [&] { later_ran = true; });
  kernel.schedule_at(SimTime{10}, [&] { kernel.cancel(later); });
  kernel.run();
  EXPECT_FALSE(later_ran);
}

TEST(KernelEdge, ScheduleAtCurrentTimeInsideCallbackRunsAfter) {
  sim::Kernel kernel;
  std::vector<int> order;
  kernel.schedule_at(SimTime{10}, [&] {
    order.push_back(1);
    kernel.schedule_at(kernel.now(), [&] { order.push_back(2); });
  });
  kernel.schedule_at(SimTime{10}, [&] { order.push_back(3); });
  kernel.run();
  // FIFO among same-time events: the nested event runs after pre-existing
  // same-time events.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

// ---------------------------------------------------------------------------
// Channel boundary conditions
// ---------------------------------------------------------------------------

TEST(ChannelEdge, ReliableSendOnClosedChannelDrops) {
  sim::Kernel kernel;
  net::Channel ch{kernel, {}, util::Rng{1}};
  ch.set_open(false);
  bool delivered = false;
  EXPECT_FALSE(ch.send_reliable(10, [&](std::uint64_t) { delivered = true; }));
  kernel.run();
  EXPECT_FALSE(delivered);
}

TEST(ChannelEdge, ReliableSendSurvivesHeavyLoss) {
  sim::Kernel kernel;
  net::ChannelParams params;
  params.loss_probability = 0.5;
  net::Channel ch{kernel, params, util::Rng{3}};
  int delivered = 0;
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(ch.send_reliable(10, [&](std::uint64_t) { ++delivered; }));
  }
  kernel.run();
  EXPECT_EQ(delivered, 200);  // loss becomes delay, never silence
}

TEST(ChannelEdge, ZeroBandwidthSkipsSerializationTerm) {
  sim::Kernel kernel;
  net::ChannelParams params;
  params.base_latency = milliseconds(1);
  params.jitter = sim::Duration{0};
  params.bandwidth_bps = 0.0;
  net::Channel ch{kernel, params, util::Rng{1}};
  EXPECT_EQ(ch.sample_delay(1'000'000'000).ns(), milliseconds(1).ns());
}

// ---------------------------------------------------------------------------
// Aggregator stop/start
// ---------------------------------------------------------------------------

TEST(AggregatorEdge, StopHaltsPeriodicDuties) {
  Testbed bed{small_params(12)};
  bed.start();
  bed.run_for(seconds(15));
  auto& agg = bed.aggregator(0);
  const auto windows = agg.verification_history().size();
  agg.stop();
  bed.run_for(seconds(10));
  EXPECT_EQ(agg.verification_history().size(), windows);
  agg.start();
  bed.run_for(seconds(5));
  EXPECT_GT(agg.verification_history().size(), windows);
}

}  // namespace
}  // namespace emon::core
