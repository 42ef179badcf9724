#pragma once
// One fully populated sample of every wire type: each protocol message,
// one consumption record and one chain block.  Every field holds a
// non-default value (optionals present, sequences non-empty), so a change
// to any field's encoding shows up in the bytes.  Shared by the pinned-bytes
// test and the decode_any mutation test.

#include <cstdint>
#include <vector>

#include "chain/block.hpp"
#include "core/protocol.hpp"

namespace emon::wire_samples {

inline core::ConsumptionRecord record(std::uint64_t seq) {
  core::ConsumptionRecord r;
  r.device_id = "dev-7";
  r.sequence = seq;
  r.timestamp_ns = 1'234'567'890'123;
  r.interval_ns = 100'000'000;
  r.current_ma = 182.539;
  r.bus_voltage_mv = 4987.25;
  r.energy_mwh = 0.0123;
  r.network = "wan-2";
  r.membership = core::MembershipKind::kTemporary;
  r.stored_offline = true;
  return r;
}

inline core::WireAggregate aggregate(std::uint64_t count) {
  core::WireAggregate a;
  a.count = count;
  a.t_min_ns = -7;
  a.t_max_ns = 987'654'321'012'345;
  a.min_current_ma = 0.1;
  a.max_current_ma = 512.75;
  a.avg_current_ma = 182.53900000000002;
  a.sum_energy_mwh = 1.0 / 3.0;
  return a;
}

inline chain::Block block() {
  chain::Block b = chain::make_block(
      3, chain::Digest{0x11, 0x22, 0x33}, 5'000'000'000, "agg-1",
      {core::serialize_record(record(1)), core::serialize_record(record(2))});
  b.signature = chain::Digest{0xA5, 0x5A};
  return b;
}

/// One message of every MsgType, in MsgType order.
inline std::vector<core::protocol::Message> messages() {
  using namespace core;
  std::vector<protocol::Message> out;
  out.emplace_back(RegisterRequest{"dev-7", "agg-2"});
  out.emplace_back(Report{"dev-7", {record(1), record(2)}});
  CtrlMessage ctrl;
  ctrl.type = CtrlType::kRegisterAccept;
  ctrl.device_id = "dev-7";
  ctrl.assigned_addr = "agg-3";
  ctrl.membership = MembershipKind::kTemporary;
  ctrl.slot = 11;
  ctrl.ack_sequence = 777;
  ctrl.reason = "ok";
  out.emplace_back(ctrl);
  out.emplace_back(Beacon{"agg-1", 987'654'321});
  out.emplace_back(VerifyDeviceQuery{"dev-7", "agg-2"});
  out.emplace_back(VerifyDeviceResponse{"dev-7", true, "agg-1"});
  out.emplace_back(RoamRecords{"dev-7", "agg-2", {record(5)}});
  out.emplace_back(TransferMembership{"dev-7", "agg-3"});
  out.emplace_back(RemoveDevice{"dev-7", "lost"});
  out.emplace_back(protocol::ChainBlock{block()});
  SubscribeRequest sub;
  sub.client_id = "dash-1";
  sub.subscription_id = 42;
  sub.devices = {"dev-3", "dev-1"};
  sub.window_ns = 60'000'000'000;
  sub.slide_ns = 15'000'000'000;
  sub.lateness_ns = 2'000'000'000;
  sub.network = "wan-2";
  sub.stored_offline = true;
  sub.include_per_device = true;
  out.emplace_back(sub);
  out.emplace_back(SubscribeAck{42, true, 123'456'789, "ok"});
  RollupPush push;
  push.subscription_id = 42;
  push.t0_ns = 5'000'000'000;
  push.t1_ns = 6'000'000'000;
  push.device_count = 2;
  push.merged = aggregate(12'345);
  push.breakdown = {{"wan-0", 40, 0.25}, {"wan-1", 2, 1e-9}};
  push.per_device = {{"dev-1", aggregate(3)}, {"dev-2", aggregate(4)}};
  out.emplace_back(push);
  out.emplace_back(Unsubscribe{42, "dash-1"});
  out.emplace_back(StatsRequest{"dash-1", 99});
  StatsResponse stats;
  stats.request_id = 99;
  stats.aggregator_id = "agg-1";
  stats.sim_now_ns = -5;
  stats.counters = {{"tsdb_records_ingested", 12'345},
                    {"agg_reports_total", ~std::uint64_t{0}}};
  stats.gauges = {{"rollup_watermark_lag_ns", -250}};
  stats.histograms = {{"query_ns", 10, 5000, 3, 900, 400, 850, 890}};
  out.emplace_back(stats);
  return out;
}

}  // namespace emon::wire_samples
