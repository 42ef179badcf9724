#pragma once
// The aggregator (Figure 1): trusted per-WAN unit that
//   * hosts the MQTT broker its member devices report to,
//   * grants time-slots (TDMA) and memberships (home/temporary, Figure 3),
//   * verifies reported data against its own feeder measurement (ground
//     truth) each verification window,
//   * encapsulates validated records into the common permissioned
//     blockchain ("Update Blockchain" steps of Figure 3),
//   * liaises with other aggregators over the backhaul for device
//     verification, roamed-record forwarding and membership transfer,
//   * broadcasts time-sync beacons,
//   * ingests every accepted record into an embedded time-series store
//     (store::Tsdb); billing, verification windows and forecast feeds read
//     it only through its store::QueryEngine,
//   * bills its home devices (location-independent per-device billing).

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chain/permissioned.hpp"
#include "core/anomaly.hpp"
#include "core/billing.hpp"
#include "core/config.hpp"
#include "core/energy_meter.hpp"
#include "core/forecast.hpp"
#include "core/membership.hpp"
#include "core/messages.hpp"
#include "core/protocol.hpp"
#include "core/subscription.hpp"
#include "grid/distribution.hpp"
#include "hw/i2c.hpp"
#include "hw/ina219.hpp"
#include "net/backhaul.hpp"
#include "net/mqtt.hpp"
#include "net/tdma.hpp"
#include "obs/metrics.hpp"
#include "sim/timer.hpp"
#include "sim/trace.hpp"
#include "store/query_engine.hpp"
#include "store/rollup.hpp"
#include "store/tsdb.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_annotations.hpp"

namespace emon::core {

struct AggregatorStats {
  std::uint64_t reports_accepted = 0;
  std::uint64_t records_accepted = 0;
  std::uint64_t offline_records_accepted = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t nacks_sent = 0;
  std::uint64_t registrations_home = 0;
  std::uint64_t registrations_temporary = 0;
  std::uint64_t registrations_rejected = 0;
  std::uint64_t verify_queries_answered = 0;
  std::uint64_t roam_batches_forwarded = 0;
  std::uint64_t roam_records_received = 0;
  std::uint64_t blocks_written = 0;
  std::uint64_t memberships_expired = 0;
  /// Frames that failed envelope or payload decode (typed DecodeFailure).
  std::uint64_t malformed_frames = 0;
  /// Well-formed frames of a type that does not belong on the path they
  /// arrived on (e.g. a Beacon on a register topic).
  std::uint64_t unexpected_frames = 0;
  /// Records refused because their device_id is not the id of the member
  /// whose Report (or RoamRecords batch) carried them: a device may only
  /// file readings under its own name.
  std::uint64_t foreign_records_refused = 0;
};

class Aggregator {
 public:
  /// `network` is the WAN/grid-location this aggregator owns (its SSID).
  /// The aggregator registers itself as a backhaul node and a chain writer
  /// (its commit rank in `chain` is its construction order).
  ///
  /// Threading: an aggregator lives on one kernel shard; every method below
  /// executes on that shard's event thread, which is the owner thread of
  /// the broker, store, rollup engine and subscription service it drives.
  /// The mutating entry points carry EMON_OWNER_THREAD_CONTEXT — they *are*
  /// the sanctioned owner-thread bodies tools/emon_lint.py checks owner
  /// calls against.
  Aggregator(sim::Kernel& kernel, std::string id, NetworkId network,
             const SystemConfig& config, grid::DistributionNetwork& grid_net,
             net::Backhaul& backhaul, chain::PermissionedChain& chain,
             const util::SeedSequence& seeds, sim::Trace* trace = nullptr)
      EMON_OWNER_THREAD_CONTEXT;

  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  /// Starts periodic duties (feeder sampling, verification, blocks,
  /// beacons, expiry sweeps).
  void start() EMON_OWNER_THREAD_CONTEXT;
  void stop() EMON_OWNER_THREAD_CONTEXT;

  [[nodiscard]] const std::string& id() const noexcept { return id_; }
  [[nodiscard]] const NetworkId& network() const noexcept { return network_; }
  [[nodiscard]] net::MqttBroker& broker() noexcept { return broker_; }
  [[nodiscard]] const MembershipTable& members() const noexcept {
    return members_;
  }
  [[nodiscard]] const AggregatorStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::vector<VerificationResult>& verification_history()
      const noexcept {
    return verification_history_;
  }
  [[nodiscard]] const BillingService& billing() const noexcept {
    return billing_;
  }
  /// Historical store: every accepted record, queryable by time range.
  [[nodiscard]] const store::Tsdb& tsdb() const noexcept { return tsdb_; }
  /// Shard-parallel fleet query surface over the store (verification
  /// windows, billing and dashboard reads run through here).
  [[nodiscard]] const store::QueryEngine& query_engine() const noexcept {
    return query_engine_;
  }
  /// Demand forecaster fed from per-window store queries.
  [[nodiscard]] const DemandForecaster& forecaster() const noexcept {
    return forecaster_;
  }
  /// Maintained roll-ups over the store (billing preview, dashboard push
  /// windows) — the Tsdb's ingest hook.
  [[nodiscard]] const store::RollupEngine& rollup_engine() const noexcept {
    return rollup_engine_;
  }
  /// Live dashboard subscription service (MQTT subscribe/push on emon/sub
  /// and emon/push/<client>, plus in-process subscribers).
  [[nodiscard]] SubscriptionService& subscriptions() noexcept {
    return subscriptions_;
  }
  [[nodiscard]] const SubscriptionService& subscriptions() const noexcept {
    return subscriptions_;
  }
  [[nodiscard]] const chain::Ledger& replica() const noexcept {
    return replica_;
  }
  /// This aggregator's metrics registry: store/query/rollup/push counters
  /// and the pipeline stage histograms.  A deterministic snapshot of the
  /// same numbers travels the wire as StatsResponse (see handle_stats).
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] const AnomalyDetector& detector() const noexcept {
    return detector_;
  }
  /// The feeder meter's running energy total (centralized measurement).
  [[nodiscard]] const EnergyMeter& feeder_meter() const noexcept {
    return feeder_meter_;
  }

  /// Administrative membership removal (sequence 3: loss/reset/transfer of
  /// ownership).  Notifies the device and, for transfers, the new master.
  void remove_membership(const DeviceId& device, const std::string& reason)
      EMON_OWNER_THREAD_CONTEXT;
  void transfer_membership(const DeviceId& device,
                           const std::string& new_master)
      EMON_OWNER_THREAD_CONTEXT;

 private:
  // -- MQTT ingress -----------------------------------------------------------
  /// Decodes an uplink envelope and dispatches to the typed handlers.
  void handle_device_frame(const net::MqttMessage& msg)
      EMON_OWNER_THREAD_CONTEXT;
  void handle_register(const RegisterRequest& req) EMON_OWNER_THREAD_CONTEXT;
  void handle_report(const Report& report) EMON_OWNER_THREAD_CONTEXT;
  /// emon/metrics admin endpoint: answers a StatsRequest with a sealed
  /// StatsResponse (registry snapshot + sim time) on the requester's push
  /// topic.
  void handle_stats(const net::MqttMessage& msg) EMON_OWNER_THREAD_CONTEXT;

  // -- Backhaul ingress --------------------------------------------------------
  void handle_backhaul(const net::Frame& frame) EMON_OWNER_THREAD_CONTEXT;
  void finish_temp_registration(const DeviceId& device, bool verified)
      EMON_OWNER_THREAD_CONTEXT;

  // -- Periodic duties ----------------------------------------------------------
  /// Sorted member ids, rebuilt lazily on membership change — lent to fleet
  /// queries via QuerySpec::borrowed_devices.
  const std::vector<DeviceId>& sorted_member_ids();
  void on_feeder_sample() EMON_OWNER_THREAD_CONTEXT;
  void on_verify_window() EMON_OWNER_THREAD_CONTEXT;
  void on_block_timer() EMON_OWNER_THREAD_CONTEXT;
  void on_beacon_timer() EMON_OWNER_THREAD_CONTEXT;
  void on_expiry_sweep() EMON_OWNER_THREAD_CONTEXT;

  void send_ctrl(const CtrlMessage& message) EMON_OWNER_THREAD_CONTEXT;
  /// Applies a block to the local replica, buffering out-of-order arrivals
  /// (two writers may append to the shared chain faster than the backhaul
  /// delivers their broadcasts).
  void sync_replica(chain::Block block) EMON_OWNER_THREAD_CONTEXT;
  /// A member's Report: accept_record each record, forward a temporary's
  /// accepted ones home in one RoamRecords batch, Ack the highest.
  void accept_records(MemberEntry& member, const Report& report)
      EMON_OWNER_THREAD_CONTEXT;
  /// The per-record step of the Report and RoamRecords paths for a record
  /// carried on `member`'s behalf: false for a record filed under another
  /// device's id (refused and counted) or a duplicate by tsdb_'s ingest
  /// verdict (the only dedup); else traces the record on the member's
  /// series and, when this is the member's home, queues it for the chain.
  bool accept_record(const ConsumptionRecord& record,
                     const MemberEntry& member) EMON_OWNER_THREAD_CONTEXT;
  /// Interns a newly added member's reported/arrival trace series.
  void bind_member_series(MemberEntry& member);
  void queue_for_chain(const ConsumptionRecord& record)
      EMON_OWNER_THREAD_CONTEXT;
  void broadcast_block(const chain::Block& block) EMON_OWNER_THREAD_CONTEXT;

  sim::Kernel& kernel_;
  std::string id_;
  NetworkId network_;
  SystemConfig config_;
  grid::DistributionNetwork& grid_;
  net::Backhaul& backhaul_;
  chain::PermissionedChain& chain_;
  std::string chain_secret_;
  sim::Trace* trace_;
  // Interned trace series: feeder.<id> and, per verification window,
  // verify.<id>.{residual_ma,reported_ma,anomalous}.
  sim::SeriesId feeder_series_;
  sim::SeriesId verify_residual_series_;
  sim::SeriesId verify_reported_series_;
  sim::SeriesId verify_anomalous_series_;
  util::Logger log_;

  /// Unified per-aggregator metrics registry.  Declared before every
  /// subsystem that records into it (store, query engine, rollups,
  /// subscriptions, broker) so handles never outlive their storage.
  obs::MetricsRegistry metrics_;

  net::MqttBroker broker_;
  net::TdmaSchedule tdma_;
  MembershipTable members_;
  AnomalyDetector detector_;
  /// Single source of historical truth: billing, verification windows and
  /// forecasting all read from here instead of keeping accumulators.
  store::Tsdb tsdb_;
  /// Fleet-wide reads over tsdb_ (declared after it; workers from
  /// config.aggregator.query_workers — 1 means inline, no pool threads).
  store::QueryEngine query_engine_;
  /// Ingest-maintained window aggregates (tsdb_'s ingest hook; window
  /// drains share query_engine_'s pool).
  store::RollupEngine rollup_engine_;
  SubscriptionService subscriptions_;
  BillingService billing_;
  DemandForecaster forecaster_;
  chain::Ledger replica_;  // local replica fed by chain_block broadcasts

  // Feeder ground-truth instrumentation (the "centralized meter").
  hw::I2cBus feeder_bus_;
  std::unique_ptr<hw::Ina219> feeder_sensor_;
  EnergyMeter feeder_meter_;

  // Verification window state.  The feeder side keeps a running mean (the
  // feeder is not a device stream); the reported side is one fleet
  // aggregate query over the store per window.
  util::RunningStats window_feeder_ma_;
  sim::SimTime window_start_{};
  sim::SimTime last_membership_change_{};
  std::vector<VerificationResult> verification_history_;

  // Billing-preview local subscription (registered at start(), released
  // at stop()).
  std::uint64_t preview_sub_ = 0;
  std::vector<DeviceId> member_ids_;
  bool member_ids_stale_ = true;

  // Records awaiting the next block.
  std::vector<chain::RecordBytes> pending_records_;
  // Out-of-order block broadcasts awaiting their predecessors.
  std::map<std::uint64_t, chain::Block> replica_backlog_;

  // Outstanding master-verification queries for temporary registrations.
  struct PendingTempReg {
    std::string master;
    sim::SimTime since;
  };
  std::map<DeviceId, PendingTempReg> pending_temp_;

  std::unique_ptr<sim::PeriodicTimer> feeder_timer_;
  std::unique_ptr<sim::PeriodicTimer> verify_timer_;
  std::unique_ptr<sim::PeriodicTimer> block_timer_;
  std::unique_ptr<sim::PeriodicTimer> beacon_timer_;
  std::unique_ptr<sim::PeriodicTimer> expiry_timer_;

  AggregatorStats stats_;
  bool started_ = false;

  // Pipeline stage instruments (wall-clock timers are side-band; the
  // sim-time lag histogram records values the sim already computed).
  obs::Histogram ingest_frame_ns_;   // agg_ingest_frame_ns: decode+dispatch
  obs::Histogram report_append_ns_;  // agg_report_append_ns: accept_records
  obs::Histogram ingest_lag_ns_;     // agg_ingest_lag_ns: sim arrival - stamp
  obs::Counter reports_total_;       // agg_reports_total
  obs::Counter records_total_;       // agg_records_total

  /// Refreshes the stage_busy_ppm{stage=...} gauges from the stage
  /// histograms (ingest vs query vs rollup-pump busy fractions of wall time
  /// since construction) — the ingest/query worker-split sizing signal.
  /// Called from handle_stats before each snapshot so every scrape carries
  /// current values.
  void refresh_stage_saturation();
  /// Wall-clock uptime for the saturation gauges.  Regression note: this
  /// used to be a raw steady_clock::now() anchor held by the aggregator —
  /// the exact pattern the emon_lint `wall-clock` rule now rejects, because
  /// a member wall time is one refactor away from leaking into verification
  /// or billing logic.  obs::WallUptime keeps the clock reads inside the
  /// obs layer and reads as 0 when metrics are disabled/compiled out, so
  /// sim results can never depend on it (the EMON_OBS_OFF digest-parity
  /// gate in CI enforces exactly that).
  obs::WallUptime wall_uptime_;
  obs::Gauge ingest_busy_ppm_;       // stage_busy_ppm{stage="ingest"}
  obs::Gauge query_busy_ppm_;        // stage_busy_ppm{stage="query"}
  obs::Gauge rollup_pump_busy_ppm_;  // stage_busy_ppm{stage="rollup_pump"}
  std::vector<obs::Histogram> query_stage_ns_;  // query_ns{kind=...} handles
  obs::Histogram pump_stage_ns_;                // sub_pump_ns handle
};

}  // namespace emon::core
