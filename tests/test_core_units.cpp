// Unit tests for emon::core's pure components — records, protocol topics,
// local store, membership table, energy meter, anomaly detector and
// billing service.

#include <gtest/gtest.h>

#include <cmath>

#include "core/anomaly.hpp"
#include "core/billing.hpp"
#include "core/energy_meter.hpp"
#include "core/membership.hpp"
#include "core/messages.hpp"
#include "core/protocol.hpp"
#include "core/records.hpp"
#include "hw/ina219.hpp"
#include "reference_billing.hpp"
#include "sim/kernel.hpp"
#include "util/bytes.hpp"

namespace emon::core {
namespace {

using sim::milliseconds;
using sim::seconds;
using sim::SimTime;

ConsumptionRecord sample_record(std::uint64_t seq = 1) {
  ConsumptionRecord r;
  r.device_id = "dev-1";
  r.sequence = seq;
  r.timestamp_ns = 123'456'789;
  r.interval_ns = 100'000'000;
  r.current_ma = 42.5;
  r.bus_voltage_mv = 4987.0;
  r.energy_mwh = 0.0059;
  r.network = "wan-1";
  r.membership = MembershipKind::kTemporary;
  r.stored_offline = true;
  return r;
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

TEST(Records, RoundTrip) {
  const ConsumptionRecord r = sample_record();
  const auto bytes = serialize_record(r);
  const ConsumptionRecord back = deserialize_record(bytes);
  EXPECT_EQ(back, r);
  // The buffering cost constant is the record list's smallest encoding.
  EXPECT_EQ(util::min_encoded_size<ConsumptionRecord>(), kRecordWireFixedBytes);
}

TEST(Records, BatchRoundTrip) {
  std::vector<ConsumptionRecord> records;
  for (std::uint64_t i = 1; i <= 20; ++i) {
    records.push_back(sample_record(i));
  }
  const auto bytes = serialize_records(records);
  EXPECT_EQ(deserialize_records(bytes), records);
}

TEST(Records, EmptyBatch) {
  const auto bytes = serialize_records({});
  EXPECT_TRUE(deserialize_records(bytes).empty());
}

TEST(Records, CorruptionDetected) {
  auto bytes = serialize_record(sample_record());
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW(deserialize_record(bytes), util::DecodeError);
  auto batch = serialize_records({sample_record()});
  batch.push_back(0xff);
  EXPECT_THROW(deserialize_records(batch), util::DecodeError);
}

TEST(Records, BadMembershipRejected) {
  auto bytes = serialize_record(sample_record());
  // The membership byte is third-to-last (membership, stored_offline).
  bytes[bytes.size() - 2] = 9;
  EXPECT_THROW(deserialize_record(bytes), util::DecodeError);
}

TEST(Records, MembershipNames) {
  EXPECT_STREQ(to_string(MembershipKind::kHome), "home");
  EXPECT_STREQ(to_string(MembershipKind::kTemporary), "temporary");
}

// ---------------------------------------------------------------------------
// Protocol messages
// ---------------------------------------------------------------------------

TEST(Messages, Topics) {
  EXPECT_EQ(protocol::topic_register("dev-1"), "emon/register/dev-1");
  EXPECT_EQ(protocol::topic_report("dev-1"), "emon/report/dev-1");
  EXPECT_EQ(protocol::topic_ctrl("dev-1"), "emon/ctrl/dev-1");
  EXPECT_EQ(protocol::kTopicBeacon, "emon/beacon");
}

TEST(Messages, CtrlRejectsBadType) {
  auto frame = protocol::seal(CtrlMessage{});
  frame[protocol::kHeaderSize] = 99;  // the type byte opens the body
  const auto decoded = protocol::decode_any(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.failure().fault, protocol::DecodeFault::kMalformedPayload);
}

TEST(Messages, CtrlTypeNames) {
  EXPECT_STREQ(to_string(CtrlType::kReportAck), "report-ack");
  EXPECT_STREQ(to_string(CtrlType::kReportNack), "report-nack");
}

// ---------------------------------------------------------------------------
// MembershipTable
// ---------------------------------------------------------------------------

TEST(Membership, AddFindRemove) {
  MembershipTable table;
  ASSERT_TRUE(table.add_home("d1", 0, SimTime{10}).has_value());
  EXPECT_FALSE(table.add_home("d1", 1, SimTime{20}).has_value());
  ASSERT_TRUE(table.add_temporary("d2", "agg-1", 1, SimTime{15}).has_value());

  const MemberEntry* home = table.find("d1");
  ASSERT_NE(home, nullptr);
  EXPECT_EQ(home->kind, MembershipKind::kHome);
  const MemberEntry* temp = table.find("d2");
  ASSERT_NE(temp, nullptr);
  EXPECT_EQ(temp->master_addr, "agg-1");

  const auto removed = table.remove("d1");
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->device_id, "d1");
  EXPECT_FALSE(table.has("d1"));
  EXPECT_FALSE(table.remove("d1").has_value());
}

TEST(Membership, TemporariesFiltered) {
  MembershipTable table;
  table.add_home("h1", 0, SimTime{0});
  table.add_temporary("t1", "m", 1, SimTime{0});
  table.add_temporary("t2", "m", 2, SimTime{0});
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.temporaries().size(), 2u);
  EXPECT_EQ(table.all().size(), 3u);
}

TEST(Membership, StaleTemporariesByCutoff) {
  MembershipTable table;
  table.add_temporary("t1", "m", 0, SimTime{seconds(10).ns()});
  table.add_temporary("t2", "m", 1, SimTime{seconds(100).ns()});
  table.add_home("h1", 2, SimTime{0});  // home members never expire
  const auto stale = table.stale_temporaries(SimTime{seconds(50).ns()});
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0], "t1");
}

// ---------------------------------------------------------------------------
// EnergyMeter
// ---------------------------------------------------------------------------

struct MeterFixture : ::testing::Test {
  sim::Kernel kernel;
  hw::I2cBus bus;
  double true_ma = 200.0;
  hw::Ina219 sensor{0x40,
                    [] {
                      hw::Ina219Params p;
                      p.max_offset = util::milliamps(0.0);
                      p.max_gain_error = 0.0;
                      p.adc_noise_rms = util::millivolts(0.0);
                      return p;
                    }(),
                    [this] {
                      return hw::OperatingPoint{util::milliamps(true_ma),
                                                util::volts(5.0)};
                    },
                    util::Rng{1}};

  MeterFixture() {
    sensor.calibrate_for(util::amps(3.2));
    bus.attach(sensor);
  }
};

TEST_F(MeterFixture, IntegratesConstantPower) {
  EnergyMeter meter{bus, sensor, [this] { return kernel.now(); }};
  // 200 mA at ~5 V = ~1 W for 10 s = ~2.78 mWh.
  for (int i = 0; i <= 100; ++i) {
    kernel.run_until(SimTime{milliseconds(100 * i).ns()});
    ASSERT_TRUE(meter.sample().has_value());
  }
  EXPECT_NEAR(util::as_milliwatt_hours(meter.total_energy()), 1.0 * 10 / 3.6,
              0.05);
  EXPECT_EQ(meter.samples_taken(), 101u);
}

TEST_F(MeterFixture, IntervalEnergyDrains) {
  EnergyMeter meter{bus, sensor, [this] { return kernel.now(); }};
  meter.sample();
  kernel.run_until(SimTime{seconds(1).ns()});
  meter.sample();
  const double first = util::as_milliwatt_hours(meter.take_interval_energy());
  EXPECT_GT(first, 0.0);
  EXPECT_DOUBLE_EQ(
      util::as_milliwatt_hours(meter.take_interval_energy()), 0.0);
  // Total unaffected by draining intervals.
  EXPECT_NEAR(util::as_milliwatt_hours(meter.total_energy()), first, 1e-12);
}

TEST_F(MeterFixture, ClearBaselineSkipsGap) {
  EnergyMeter meter{bus, sensor, [this] { return kernel.now(); }};
  meter.sample();
  kernel.run_until(SimTime{seconds(1).ns()});
  meter.sample();
  const double before = util::as_milliwatt_hours(meter.total_energy());
  // Simulate a 100 s unpowered gap: baseline cleared, then resume.
  kernel.run_until(SimTime{seconds(101).ns()});
  meter.clear_baseline();
  meter.sample();  // no energy added across the gap
  EXPECT_NEAR(util::as_milliwatt_hours(meter.total_energy()), before, 1e-12);
  kernel.run_until(SimTime{seconds(102).ns()});
  meter.sample();  // 1 more second of integration
  EXPECT_NEAR(util::as_milliwatt_hours(meter.total_energy()), 2.0 * before,
              0.01 * before);
}

TEST_F(MeterFixture, ResetClearsTotals) {
  EnergyMeter meter{bus, sensor, [this] { return kernel.now(); }};
  meter.sample();
  kernel.run_until(SimTime{seconds(1).ns()});
  meter.sample();
  meter.reset();
  EXPECT_DOUBLE_EQ(util::as_milliwatt_hours(meter.total_energy()), 0.0);
  EXPECT_FALSE(meter.last_sample().has_value());
}

TEST_F(MeterFixture, UncalibratedSensorYieldsNoSample) {
  hw::Ina219 raw{0x40, {},
                 [] {
                   return hw::OperatingPoint{util::milliamps(10),
                                             util::volts(5)};
                 },
                 util::Rng{2}};
  hw::I2cBus bus2;
  bus2.attach(raw);
  EnergyMeter meter{bus2, raw, [this] { return kernel.now(); }};
  EXPECT_FALSE(meter.sample().has_value());
}

// ---------------------------------------------------------------------------
// AnomalyDetector
// ---------------------------------------------------------------------------

AnomalyParams detector_params() {
  AnomalyParams p;
  p.expected_overhead = util::milliamps(2.0);
  p.expected_loss_fraction = 0.03;
  p.abs_tolerance = util::milliamps(3.0);
  p.rel_tolerance = 0.04;
  return p;
}

TEST(Anomaly, HonestWindowPasses) {
  AnomalyDetector det{detector_params()};
  // Reports sum to 150; feeder = 150*1.03 + 2 = 156.5: residual 0.
  const auto result = det.evaluate(SimTime{0}, SimTime{seconds(1).ns()},
                                   156.5, {{"d1", 100.0}, {"d2", 50.0}});
  EXPECT_FALSE(result.anomalous);
  EXPECT_NEAR(result.residual_ma, 0.0, 1e-9);
  EXPECT_TRUE(result.suspect.empty());
}

TEST(Anomaly, UnderReportingFlagged) {
  AnomalyDetector det{detector_params()};
  // d1 under-reports by 40 mA: feeder still sees the true 150 mA load.
  const auto result = det.evaluate(SimTime{0}, SimTime{seconds(1).ns()},
                                   156.5, {{"d1", 60.0}, {"d2", 50.0}});
  EXPECT_TRUE(result.anomalous);
  EXPECT_GT(result.residual_ma, 30.0);
}

TEST(Anomaly, ToleranceScalesWithLoad) {
  AnomalyDetector det{detector_params()};
  // 10 mA residual at 1 A load is within 4 % relative tolerance.
  const auto result = det.evaluate(SimTime{0}, SimTime{seconds(1).ns()},
                                   1032.0 + 10.0, {{"d1", 1000.0}});
  EXPECT_FALSE(result.anomalous);
}

TEST(Anomaly, CulpritIdentifiedByProfileDeviation) {
  AnomalyDetector det{detector_params()};
  // Build honest profiles over several windows.
  for (int i = 0; i < 10; ++i) {
    det.evaluate(SimTime{i}, SimTime{i + 1}, 156.5,
                 {{"d1", 100.0}, {"d2", 50.0}});
  }
  ASSERT_TRUE(det.profile_of("d1").has_value());
  EXPECT_NEAR(*det.profile_of("d1"), 100.0, 1e-6);
  // d1 suddenly reports 40 instead of 100 while the feeder is unchanged.
  const auto result = det.evaluate(SimTime{100}, SimTime{101}, 156.5,
                                   {{"d1", 40.0}, {"d2", 50.0}});
  EXPECT_TRUE(result.anomalous);
  EXPECT_EQ(result.suspect, "d1");
  EXPECT_EQ(det.anomalies_flagged(), 1u);
}

TEST(Anomaly, ProfilesNotPoisonedByAnomalousWindows) {
  AnomalyDetector det{detector_params()};
  for (int i = 0; i < 5; ++i) {
    det.evaluate(SimTime{i}, SimTime{i + 1}, 156.5,
                 {{"d1", 100.0}, {"d2", 50.0}});
  }
  // Tampering windows must not drag the EWMA down.
  for (int i = 5; i < 20; ++i) {
    det.evaluate(SimTime{i}, SimTime{i + 1}, 156.5,
                 {{"d1", 40.0}, {"d2", 50.0}});
  }
  EXPECT_NEAR(*det.profile_of("d1"), 100.0, 1e-6);
}

TEST(Anomaly, OverReportingAlsoFlagged) {
  AnomalyDetector det{detector_params()};
  // Device claims more than the feeder delivers (billing inflation attack
  // against a *other* device, or a faulty sensor).
  const auto result = det.evaluate(SimTime{0}, SimTime{1}, 156.5,
                                   {{"d1", 180.0}, {"d2", 50.0}});
  EXPECT_TRUE(result.anomalous);
  EXPECT_LT(result.residual_ma, 0.0);
}

TEST(Anomaly, EmptyWindowWithLoadFlagged) {
  AnomalyDetector det{detector_params()};
  // Feeder sees load but nobody reported: unmetered consumption.
  const auto result = det.evaluate(SimTime{0}, SimTime{1}, 100.0, {});
  EXPECT_TRUE(result.anomalous);
}

TEST(Anomaly, CountsWindows) {
  AnomalyDetector det{detector_params()};
  det.evaluate(SimTime{0}, SimTime{1}, 2.0, {});
  det.evaluate(SimTime{1}, SimTime{2}, 2.0, {});
  EXPECT_EQ(det.windows_evaluated(), 2u);
  EXPECT_EQ(det.anomalies_flagged(), 0u);
}

// ---------------------------------------------------------------------------
// BillingService
// ---------------------------------------------------------------------------

ConsumptionRecord billing_record(std::uint64_t seq, const NetworkId& network,
                                 double mwh) {
  ConsumptionRecord r = sample_record(seq);
  r.network = network;
  r.energy_mwh = mwh;
  return r;
}

/// A live, store-backed BillingService over its own store, as an
/// aggregator wires it: every added record is ingested and its device
/// marked billable.
struct LiveBilling {
  explicit LiveBilling(Tariff tariff) : billing{"wan-1", tariff, engine} {}
  void add(const ConsumptionRecord& r) {
    db.ingest(r);
    billing.mark_billable(r.device_id);
  }
  store::Tsdb db;
  store::QueryEngine engine{db};
  BillingService billing;
};

TEST(Billing, HomeEnergyAtHomeRate) {
  LiveBilling live{Tariff{0.25, 1.15}};
  for (std::uint64_t i = 1; i <= 10; ++i) {
    live.add(billing_record(i, "wan-1", 100.0));  // 1000 mWh total
  }
  const auto invoice = live.billing.invoice_for("dev-1");
  ASSERT_EQ(invoice.lines.size(), 1u);
  EXPECT_FALSE(invoice.lines[0].roamed);
  EXPECT_NEAR(invoice.total_energy_mwh, 1000.0, 1e-9);
  // 1000 mWh = 1e-3 kWh at 0.25/kWh.
  EXPECT_NEAR(invoice.total_cost, 0.25e-3, 1e-12);
}

TEST(Billing, RoamedEnergySurcharged) {
  LiveBilling live{Tariff{0.25, 2.0}};
  live.add(billing_record(1, "wan-2", 1000.0));
  const auto invoice = live.billing.invoice_for("dev-1");
  ASSERT_EQ(invoice.lines.size(), 1u);
  EXPECT_TRUE(invoice.lines[0].roamed);
  EXPECT_NEAR(invoice.total_cost, 0.25e-3 * 2.0, 1e-12);
}

TEST(Billing, MultiDeviceMultiNetwork) {
  LiveBilling live{Tariff{}};
  ConsumptionRecord a = billing_record(1, "wan-1", 10.0);
  ConsumptionRecord b = billing_record(1, "wan-2", 20.0);
  b.device_id = "dev-2";
  live.add(a);
  live.add(b);
  EXPECT_EQ(live.billing.billed_devices().size(), 2u);
  EXPECT_NEAR(live.billing.total_energy_mwh(), 30.0, 1e-12);
  const auto inv2 = live.billing.invoice_for("dev-2");
  EXPECT_EQ(inv2.lines.size(), 1u);
  EXPECT_TRUE(inv2.lines[0].roamed);
}

TEST(Billing, UnknownDeviceEmptyInvoice) {
  LiveBilling live{Tariff{}};
  const auto invoice = live.billing.invoice_for("ghost");
  EXPECT_TRUE(invoice.lines.empty());
  EXPECT_DOUBLE_EQ(invoice.total_cost, 0.0);
}

TEST(Billing, AuditLedgerMatchesLiveBillingExactly) {
  // Energies that are not whole quanta: the exact double sum of a line
  // differs from the store's quantized one, so only the store's own fold
  // reproduces the live invoice with ==.
  LiveBilling live{Tariff{}};
  reference::ReferenceBilling exact{"wan-1", Tariff{}};
  chain::Ledger ledger;
  std::vector<chain::RecordBytes> blob;
  for (std::uint64_t i = 1; i <= 300; ++i) {
    ConsumptionRecord rec =
        billing_record(i, i % 3 == 0 ? "wan-2" : "wan-1",
                       0.0123456789 * static_cast<double>(i % 17 + 1));
    rec.device_id = i % 2 == 0 ? "dev-1" : "dev-2";
    live.add(rec);
    exact.ingest(rec);
    blob.push_back(serialize_record(rec));
    if (i % 100 == 0) {
      ledger.append(std::move(blob), static_cast<std::int64_t>(i), "agg-1");
      blob.clear();
    }
  }

  const LedgerAudit audit = audit_ledger(ledger, "wan-1", Tariff{});
  EXPECT_EQ(audit.records, 300u);
  EXPECT_EQ(audit.duplicates, 0u);
  EXPECT_EQ(audit.foreign, 0u);
  const auto invoices = live.billing.invoice_all();
  ASSERT_EQ(audit.invoices.size(), invoices.size());
  bool differs_from_exact = false;
  for (std::size_t d = 0; d < invoices.size(); ++d) {
    const Invoice& got = audit.invoices[d];
    const Invoice& want = invoices[d];
    EXPECT_EQ(got.device_id, want.device_id);
    ASSERT_EQ(got.lines.size(), want.lines.size()) << want.device_id;
    for (std::size_t l = 0; l < want.lines.size(); ++l) {
      EXPECT_EQ(got.lines[l].network, want.lines[l].network);
      EXPECT_EQ(got.lines[l].records, want.lines[l].records);
      EXPECT_EQ(got.lines[l].energy_mwh, want.lines[l].energy_mwh);
      EXPECT_EQ(got.lines[l].cost, want.lines[l].cost);
    }
    EXPECT_EQ(got.total_energy_mwh, want.total_energy_mwh);
    EXPECT_EQ(got.total_cost, want.total_cost);
    const Invoice reference = exact.invoice_for(want.device_id);
    EXPECT_NEAR(got.total_energy_mwh, reference.total_energy_mwh,
                300.0 * store::kEnergyToleranceMwh);
    differs_from_exact |= got.total_energy_mwh != reference.total_energy_mwh;
  }
  EXPECT_TRUE(differs_from_exact);
}

TEST(Billing, AuditLedgerBillsARepeatedSequenceOnce) {
  // The same (device, sequence) in two blocks: billed once, counted once
  // as a duplicate.
  chain::Ledger ledger;
  const auto rec = billing_record(1, "wan-1", 50.0);
  ledger.append({serialize_record(rec)}, 100, "agg-1");
  ledger.append({serialize_record(rec)}, 200, "agg-2");
  const LedgerAudit audit = audit_ledger(ledger, "wan-1", Tariff{});
  EXPECT_EQ(audit.records, 1u);
  EXPECT_EQ(audit.duplicates, 1u);
  ASSERT_EQ(audit.invoices.size(), 1u);
  ASSERT_EQ(audit.invoices[0].lines.size(), 1u);
  EXPECT_EQ(audit.invoices[0].lines[0].records, 1u);
  EXPECT_NEAR(audit.total_energy_mwh(), 50.0, 1e-12);
}

TEST(Billing, AuditLedgerCountsForeignPayloads) {
  chain::Ledger ledger;
  ledger.append({{0x01, 0x02}}, 0, "w");  // not a ConsumptionRecord
  const LedgerAudit audit = audit_ledger(ledger, "wan-1", Tariff{});
  EXPECT_EQ(audit.foreign, 1u);
  EXPECT_EQ(audit.records, 0u);
  EXPECT_TRUE(audit.invoices.empty());
  EXPECT_EQ(audit.total_energy_mwh(), 0.0);
}

}  // namespace
}  // namespace emon::core
