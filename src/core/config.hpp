#pragma once
// System-wide configuration for the decentralized metering architecture.
//
// Defaults reproduce the paper's testbed settings: T_measure = 100 ms
// (10 reports/s, §III-B), ~1 ms backhaul latency, and Wi-Fi timings that
// land T_handshake in the reported 5.5-6.5 s band.

#include "net/channel.hpp"
#include "net/tdma.hpp"
#include "net/wifi.hpp"
#include "sim/time.hpp"
#include "util/units.hpp"

namespace emon::core {

struct DeviceConfig {
  /// Reporting/measurement interval (paper: 100 ms).
  sim::Duration t_measure = sim::milliseconds(100);
  /// Local storage capacity in records; at 10 Hz, 18000 records = 30 min.
  std::size_t local_store_capacity = 18'000;
  /// Byte budget of the device's compressed offline series (store/); at
  /// ~10 B/record sealed this holds hours of history.  0 disables.
  std::size_t local_store_bytes = 256 * 1024;
  /// Records per sealed segment of the offline series.
  std::size_t local_store_seal_records = 64;
  /// Settle time after association before the firmware trusts the link and
  /// begins registration (RSSI stability confirmation).
  sim::Duration join_settle_min = sim::milliseconds(1000);
  sim::Duration join_settle_max = sim::milliseconds(1400);
  /// Registration retry backoff after a failed attempt.
  sim::Duration registration_retry = sim::seconds(2);
  /// Max records flushed per report message (bounds message size).
  std::size_t flush_batch = 256;
};

struct AggregatorConfig {
  /// Ground-truth verification window (feeder vs sum of reports).
  sim::Duration verify_interval = sim::seconds(1);
  /// Block production interval (records accumulated per block).
  sim::Duration block_interval = sim::seconds(5);
  /// Deferred chain commit: a submitted block commits and returns to its
  /// writer this much after the block timer fires (the permissioned
  /// chain's commit round-trip).  Must be >= the shard lookahead when the
  /// testbed runs sharded.
  sim::Duration chain_commit_latency = sim::milliseconds(2);
  /// Time-sync beacon interval.
  sim::Duration beacon_interval = sim::seconds(10);
  /// TDMA slot plan (superframe should equal the devices' t_measure).
  net::TdmaParams tdma{};
  /// Anomaly tolerance: |residual| > abs + rel * feeder  ==>  anomaly.
  util::Amperes anomaly_abs_tolerance = util::milliamps(3.0);
  double anomaly_rel_tolerance = 0.04;
  /// Membership expiry for temporary members with no traffic.
  sim::Duration temp_member_timeout = sim::seconds(30);
  /// Worker count of the fleet-wide Tsdb query engine (verification-window
  /// reads, store-backed billing, dashboard roll-ups).  1 runs queries
  /// inline on the event thread with no pool threads — simulations keep the
  /// default so a 32-aggregator fleet does not spawn 32 pools; a serving
  /// deployment sizes this by cores.  Results are bit-identical for any
  /// value (see store/query_engine.hpp).
  std::size_t query_workers = 1;
  /// Lateness horizon of the maintained roll-ups behind live dashboard
  /// subscriptions and the billing preview: a window [E-W, E) closes
  /// (and pushes) once the max ingested record timestamp passes
  /// E + rollup_lateness.  Sized to cover QoS 1 retransmission delay
  /// (ack_timeout * max_attempts) so ordinary redelivery never makes a
  /// record "too late"; later records still land in the cold query path.
  sim::Duration rollup_lateness = sim::seconds(2);
  /// Slow-query log threshold for the embedded query engine, in *wall*
  /// nanoseconds (latency of the fleet query itself, not sim time).  A
  /// query at or over it logs a warning and bumps the slow_queries
  /// counter.  0 disables the slow-query log.
  std::uint64_t slow_query_warn_ns = 0;
};

struct SystemConfig {
  DeviceConfig device{};
  AggregatorConfig aggregator{};
  net::WifiStationParams wifi{};
  /// Backhaul link characteristics (paper: ~1 ms, high bandwidth).
  net::ChannelParams backhaul{sim::microseconds(800), sim::microseconds(400),
                              0.0, sim::milliseconds(200), 1e9};
  /// Experiment master seed.
  std::uint64_t seed = 42;
};

}  // namespace emon::core
