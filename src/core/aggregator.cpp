#include "core/aggregator.hpp"

#include <algorithm>

#include "util/bytes.hpp"

namespace emon::core {

namespace {
/// Feeder sensors are calibrated for the whole-network load.
constexpr double kFeederMaxExpectedAmps = 3.2;
}  // namespace

Aggregator::Aggregator(sim::Kernel& kernel, std::string id, NetworkId network,
                       const SystemConfig& config,
                       grid::DistributionNetwork& grid_net,
                       net::Backhaul& backhaul, chain::PermissionedChain& chain,
                       const util::SeedSequence& seeds, sim::Trace* trace)
    : kernel_(kernel),
      id_(std::move(id)),
      network_(std::move(network)),
      config_(config),
      grid_(grid_net),
      backhaul_(backhaul),
      chain_(chain),
      chain_secret_("secret-" + id_),
      trace_(trace),
      log_(id_),
      metrics_(std::max<std::size_t>(8, config.aggregator.query_workers)),
      broker_(kernel, id_),
      tdma_(config.aggregator.tdma),
      detector_(AnomalyParams{
          grid_net.params().overhead_quiescent, grid_net.params().loss_fraction,
          config.aggregator.anomaly_abs_tolerance,
          config.aggregator.anomaly_rel_tolerance, 0.2}),
      tsdb_([this] {
        store::TsdbOptions o;
        o.metrics = &metrics_;
        return o;
      }()),
      query_engine_(tsdb_, store::QueryEngineOptions{
                               config.aggregator.query_workers, &metrics_,
                               config.aggregator.slow_query_warn_ns}),
      rollup_engine_(tsdb_, &metrics_),
      subscriptions_(broker_, rollup_engine_, kernel.now().ns(),
                     config.aggregator.rollup_lateness.ns(),
                     &query_engine_.pool(), &metrics_),
      billing_(network_, Tariff{}, query_engine_),
      feeder_meter_(feeder_bus_, *[&]() -> hw::Ina219* {
        // The feeder INA219 is created before EnergyMeter binds it; the
        // lambda keeps initialization order explicit.
        feeder_sensor_ = std::make_unique<hw::Ina219>(
            0x40, hw::Ina219Params{}, grid_net.feeder_probe(),
            seeds.stream("ina219.feeder." + id_));
        feeder_sensor_->calibrate_for(util::amps(kFeederMaxExpectedAmps));
        feeder_bus_.attach(*feeder_sensor_);
        return feeder_sensor_.get();
      }(), [&kernel] { return kernel.now(); }) {
  chain_.register_writer(chain::WriterKey{id_, chain_secret_});
  // Every accepted record folds into the maintained roll-ups as it lands.
  tsdb_.set_ingest_hook(&rollup_engine_);
  subscriptions_.attach();
  broker_.bind_metrics(metrics_);
  ingest_frame_ns_ = metrics_.histogram("agg_ingest_frame_ns");
  report_append_ns_ = metrics_.histogram("agg_report_append_ns");
  ingest_lag_ns_ = metrics_.histogram("agg_ingest_lag_ns");
  reports_total_ = metrics_.counter("agg_reports_total");
  records_total_ = metrics_.counter("agg_records_total");
  // Stage-saturation gauges: busy fraction per pipeline stage, refreshed on
  // each stats scrape from the stage histograms already recorded above /
  // by the query engine and subscription pump (see handle_stats).
  ingest_busy_ppm_ = metrics_.gauge("stage_busy_ppm{stage=\"ingest\"}");
  query_busy_ppm_ = metrics_.gauge("stage_busy_ppm{stage=\"query\"}");
  rollup_pump_busy_ppm_ =
      metrics_.gauge("stage_busy_ppm{stage=\"rollup_pump\"}");
  for (const char* kind :
       {"aggregate", "current_stats", "scan", "downsample",
        "network_breakdown"}) {
    query_stage_ns_.push_back(metrics_.histogram(
        std::string("query_ns{kind=\"") + kind + "\"}"));
  }
  pump_stage_ns_ = metrics_.histogram("sub_pump_ns");
  if (trace_ != nullptr) {
    broker_.bind_trace(trace_, "wire.mqtt." + id_);
    feeder_series_ = trace_->intern("feeder." + id_);
    verify_residual_series_ = trace_->intern("verify." + id_ + ".residual_ma");
    verify_reported_series_ = trace_->intern("verify." + id_ + ".reported_ma");
    verify_anomalous_series_ = trace_->intern("verify." + id_ + ".anomalous");
  }
  backhaul_.add_node(id_, [this](const net::Frame& f) { handle_backhaul(f); });
  broker_.subscribe_local(std::string(protocol::kFilterRegister),
                          [this](const net::MqttMessage& m) {
                            handle_device_frame(m);
                          });
  broker_.subscribe_local(std::string(protocol::kFilterReport),
                          [this](const net::MqttMessage& m) {
                            handle_device_frame(m);
                          });
  broker_.subscribe_local(std::string(protocol::kTopicMetrics),
                          [this](const net::MqttMessage& m) {
                            handle_stats(m);
                          });
}

void Aggregator::start() {
  if (started_) {
    return;
  }
  started_ = true;
  window_start_ = kernel_.now();
  // Maintained billing-preview roll-up, one window per verification
  // interval, grid anchored at the verify timer's epoch.  Specs are shared
  // by equality, so an MQTT dashboard watching the same view rides the same
  // maintained fold.
  store::RollupSpec preview_spec;
  preview_spec.window_ns = config_.aggregator.verify_interval.ns();
  preview_spec.slide_ns = preview_spec.window_ns;
  preview_spec.lateness_ns = config_.aggregator.rollup_lateness.ns();
  preview_spec.anchor_ns = window_start_.ns();
  preview_sub_ = subscriptions_.subscribe_local(
      preview_spec, [this](const store::ClosedWindow& window) {
        billing_.preview_observe(window);
      });
  feeder_timer_ = std::make_unique<sim::PeriodicTimer>(
      kernel_, config_.device.t_measure, [this] { on_feeder_sample(); });
  verify_timer_ = std::make_unique<sim::PeriodicTimer>(
      kernel_, config_.aggregator.verify_interval, [this] { on_verify_window(); });
  block_timer_ = std::make_unique<sim::PeriodicTimer>(
      kernel_, config_.aggregator.block_interval, [this] { on_block_timer(); });
  beacon_timer_ = std::make_unique<sim::PeriodicTimer>(
      kernel_, config_.aggregator.beacon_interval, [this] { on_beacon_timer(); });
  expiry_timer_ = std::make_unique<sim::PeriodicTimer>(
      kernel_, config_.aggregator.temp_member_timeout, [this] {
        on_expiry_sweep();
      });
  feeder_timer_->start();
  verify_timer_->start();
  block_timer_->start();
  beacon_timer_->start(/*fire_immediately=*/true);
  expiry_timer_->start();
}

void Aggregator::stop() {
  started_ = false;
  feeder_timer_.reset();
  verify_timer_.reset();
  block_timer_.reset();
  beacon_timer_.reset();
  expiry_timer_.reset();
  // Release the start()-registered roll-up consumer so a restart anchors a
  // fresh window grid instead of stacking subscriptions.
  if (preview_sub_ != 0) {
    subscriptions_.unsubscribe_local(preview_sub_);
    preview_sub_ = 0;
  }
}

// ---------------------------------------------------------------------------
// MQTT ingress
// ---------------------------------------------------------------------------

void Aggregator::handle_device_frame(const net::MqttMessage& msg) {
  const obs::ScopedTimer timer(ingest_frame_ns_);
  auto decoded = protocol::decode_any(msg.payload);
  if (!decoded) {
    ++stats_.malformed_frames;
    log_.warn("malformed frame on ", msg.topic, ": ",
              to_string(decoded.failure().fault), " (",
              decoded.failure().detail, ")");
    return;
  }
  std::visit(protocol::Overload{
                 [this](const RegisterRequest& req) { handle_register(req); },
                 [this](const Report& report) { handle_report(report); },
                 [this](const auto& other) {
                   ++stats_.unexpected_frames;
                   log_.warn("unexpected ", protocol::wire_name_of(other),
                             " on a device uplink topic");
                 },
             },
             decoded.value());
}

void Aggregator::handle_register(const RegisterRequest& req) {
  log_.debug("register request from ", req.device_id, " master='",
             req.master_addr, "'");

  if (MemberEntry* existing = members_.find(req.device_id)) {
    // Re-registration of a known member (e.g. device rebooted): re-accept
    // with the existing slot.
    CtrlMessage accept;
    accept.type = CtrlType::kRegisterAccept;
    accept.device_id = req.device_id;
    accept.assigned_addr = id_;
    accept.membership = existing->kind;
    accept.slot = static_cast<std::uint32_t>(existing->slot);
    send_ctrl(accept);
    return;
  }

  if (req.master_addr.empty() || req.master_addr == id_) {
    // Sequence 1: new home membership.
    const auto slot = tdma_.allocate(req.device_id);
    if (!slot) {
      ++stats_.registrations_rejected;
      CtrlMessage reject;
      reject.type = CtrlType::kRegisterReject;
      reject.device_id = req.device_id;
      reject.reason = "no free time-slot";
      send_ctrl(reject);
      return;
    }
    if (const auto added =
            members_.add_home(req.device_id, *slot, kernel_.now())) {
      bind_member_series(**added);
    }
    billing_.mark_billable(req.device_id);
    last_membership_change_ = kernel_.now();
    member_ids_stale_ = true;
    ++stats_.registrations_home;
    CtrlMessage accept;
    accept.type = CtrlType::kRegisterAccept;
    accept.device_id = req.device_id;
    accept.assigned_addr = id_;
    accept.membership = MembershipKind::kHome;
    accept.slot = static_cast<std::uint32_t>(*slot);
    send_ctrl(accept);
    log_.info("home membership created for ", req.device_id, " slot ", *slot);
    return;
  }

  // Sequence 2: temporary membership — verify the device with its master
  // before creating it ("after verifying the device ID with Aggregator 1").
  if (pending_temp_.find(req.device_id) != pending_temp_.end()) {
    return;  // verification already in flight
  }
  pending_temp_[req.device_id] =
      PendingTempReg{req.master_addr, kernel_.now()};
  VerifyDeviceQuery query{req.device_id, id_};
  backhaul_.send(net::Frame{id_, req.master_addr, protocol::seal(query)});
}

void Aggregator::handle_report(const Report& report) {
  MemberEntry* member = members_.find(report.device_id);
  if (member == nullptr) {
    // Figure 3: Nack — the device must (re-)register here first.
    ++stats_.nacks_sent;
    CtrlMessage nack;
    nack.type = CtrlType::kReportNack;
    nack.device_id = report.device_id;
    nack.reason = "no membership";
    send_ctrl(nack);
    return;
  }
  accept_records(*member, report);
}

void Aggregator::accept_records(MemberEntry& member, const Report& report) {
  const obs::ScopedTimer timer(report_append_ns_);
  ++stats_.reports_accepted;
  reports_total_.inc();
  member.last_seen = kernel_.now();
  const std::int64_t now_ns = kernel_.now().ns();
  const bool home = member.kind == MembershipKind::kHome;

  std::vector<ConsumptionRecord> forward;  // temporaries only
  for (const auto& record : report.records) {
    if (!accept_record(record, member)) {
      continue;
    }
    member.last_sequence = std::max(member.last_sequence, record.sequence);
    ++stats_.records_accepted;
    records_total_.inc();
    if (record.stored_offline) {
      ++stats_.offline_records_accepted;
    }
    // Sim-time staleness of the record at ingest (transport + buffering);
    // offline-stored backlogs dominate the tail by design.
    if (now_ns >= record.timestamp_ns) {
      ingest_lag_ns_.record(
          static_cast<std::uint64_t>(now_ns - record.timestamp_ns));
    }
    if (!home) {
      forward.push_back(record);
    }
  }

  if (!forward.empty()) {
    // Forward on behalf of the master ("These values are in turn
    // transmitted back to the home network using the Master address").
    RoamRecords roam{report.device_id, id_, std::move(forward)};
    backhaul_.send(net::Frame{id_, member.master_addr, protocol::seal(roam)});
    ++stats_.roam_batches_forwarded;
  }

  ++stats_.acks_sent;
  CtrlMessage ack;
  ack.type = CtrlType::kReportAck;
  ack.device_id = report.device_id;
  ack.ack_sequence = member.last_sequence;
  send_ctrl(ack);
  // Freshly folded records may have advanced a roll-up past a window close;
  // push any closed windows now (O(1) when none closed).
  subscriptions_.pump();
}

void Aggregator::handle_stats(const net::MqttMessage& msg) {
  auto decoded = protocol::decode_any(msg.payload);
  if (!decoded) {
    ++stats_.malformed_frames;
    log_.warn("malformed frame on ", msg.topic, ": ",
              to_string(decoded.failure().fault), " (",
              decoded.failure().detail, ")");
    return;
  }
  const auto* req = std::get_if<StatsRequest>(&decoded.value());
  if (req == nullptr) {
    ++stats_.unexpected_frames;
    log_.warn("unexpected ", protocol::wire_name(
                                 protocol::msg_type_of(decoded.value())),
              " on ", protocol::kTopicMetrics);
    return;
  }
  if (req->client_id.empty()) {
    return;  // no push topic to answer on
  }
  refresh_stage_saturation();
  const obs::MetricsSnapshot snap = metrics_.snapshot();
  StatsResponse resp;
  resp.request_id = req->request_id;
  resp.aggregator_id = id_;
  resp.sim_now_ns = kernel_.now().ns();
  resp.counters.reserve(snap.counters.size());
  for (const auto& [name, value] : snap.counters) {
    resp.counters.push_back(WireCounter{name, value});
  }
  resp.gauges.reserve(snap.gauges.size());
  for (const auto& [name, value] : snap.gauges) {
    resp.gauges.push_back(WireGauge{name, value});
  }
  resp.histograms.reserve(snap.histograms.size());
  for (const auto& [name, s] : snap.histograms) {
    WireHistogram h;
    h.name = name;
    h.count = s.count;
    h.sum = s.sum;
    h.min = s.min;
    h.max = s.max;
    h.p50 = s.p50;
    h.p95 = s.p95;
    h.p99 = s.p99;
    resp.histograms.push_back(std::move(h));
  }
  broker_.send(net::Frame{id_, protocol::topic_push(req->client_id),
                          protocol::seal(resp)});
}

void Aggregator::refresh_stage_saturation() {
  // Busy fraction (ppm of wall time since construction) per serving-path
  // stage, from the stage histograms' wall-clock sums: ingest = frame
  // decode+dispatch, query = every fleet query kind, rollup_pump = the
  // subscription window drains.  These are what size the ingest/query
  // worker split — a stage near 1e6 ppm is the bottleneck; the sum of all
  // three near 1e6 says one thread still suffices.  Gauges refresh on each
  // scrape, *before* the snapshot, so every StatsResponse carries them.
  // Wall time comes from the obs layer (obs::WallUptime): 0 when metrics
  // are disabled, which skips the refresh — the aggregator itself never
  // touches a wall clock (enforced by the emon_lint `wall-clock` rule).
  const std::uint64_t wall_ns = wall_uptime_.elapsed_ns();
  if (wall_ns == 0) {
    return;
  }
  const auto busy_ppm = [wall_ns](std::uint64_t busy_ns) {
    return static_cast<std::int64_t>(1e6 * static_cast<double>(busy_ns) /
                                     static_cast<double>(wall_ns));
  };
  ingest_busy_ppm_.set(busy_ppm(ingest_frame_ns_.summary().sum));
  std::uint64_t query_ns = 0;
  for (const obs::Histogram& h : query_stage_ns_) {
    query_ns += h.summary().sum;
  }
  query_busy_ppm_.set(busy_ppm(query_ns));
  rollup_pump_busy_ppm_.set(busy_ppm(pump_stage_ns_.summary().sum));
}

bool Aggregator::accept_record(const ConsumptionRecord& record,
                               const MemberEntry& member) {
  // A member files readings under its own id only; one carrying another
  // device's id would be stored, billed and chained as that device's.
  if (record.device_id != member.device_id) {
    ++stats_.foreign_records_refused;
    return false;
  }
  // A retransmission, probe/backlog overlap, double roam forward or resend
  // after re-registration stops here, at the store's sequence verdict.
  if (!tsdb_.ingest(record)) {
    return false;
  }
  if (trace_ != nullptr) {
    trace_->append(member.reported_series, sim::SimTime{record.timestamp_ns},
                   record.current_ma);
    trace_->append(member.arrival_series, kernel_.now(), record.current_ma);
  }
  if (member.kind == MembershipKind::kHome) {
    queue_for_chain(record);
  }
  return true;
}

void Aggregator::bind_member_series(MemberEntry& member) {
  if (trace_ != nullptr) {
    member.reported_series =
        trace_->intern("reported." + id_ + "." + member.device_id);
    member.arrival_series =
        trace_->intern("arrival." + id_ + "." + member.device_id);
  }
}

void Aggregator::queue_for_chain(const ConsumptionRecord& record) {
  pending_records_.push_back(serialize_record(record));
}

// ---------------------------------------------------------------------------
// Backhaul ingress
// ---------------------------------------------------------------------------

void Aggregator::handle_backhaul(const net::Frame& frame) {
  auto decoded = protocol::decode_any(frame.bytes);
  if (!decoded) {
    ++stats_.malformed_frames;
    log_.warn("malformed backhaul frame from ", frame.from, ": ",
              to_string(decoded.failure().fault), " (",
              decoded.failure().detail, ")");
    return;
  }
  std::visit(
      protocol::Overload{
          [this](const VerifyDeviceQuery& query) {
            const MemberEntry* member = members_.find(query.device_id);
            const bool known =
                member != nullptr && member->kind == MembershipKind::kHome;
            ++stats_.verify_queries_answered;
            VerifyDeviceResponse resp{query.device_id, known, id_};
            backhaul_.send(
                net::Frame{id_, query.origin, protocol::seal(resp)});
          },
          [this](const VerifyDeviceResponse& resp) {
            finish_temp_registration(resp.device_id, resp.known);
          },
          [this](const RoamRecords& roam) {
            MemberEntry* member = members_.find(roam.device_id);
            if (member == nullptr || member->kind != MembershipKind::kHome) {
              log_.warn("roam records for unknown device ", roam.device_id);
              return;
            }
            member->roaming_host = roam.collector;
            billing_.mark_billable(roam.device_id);
            stats_.roam_records_received += roam.records.size();
            for (const auto& record : roam.records) {
              accept_record(record, *member);
            }
            subscriptions_.pump();
          },
          [this](const TransferMembership& transfer) {
            // We are the receiving (new master) side: promote an existing
            // temporary membership, or pre-authorize a future registration.
            if (MemberEntry* member = members_.find(transfer.device_id)) {
              member->kind = MembershipKind::kHome;
              member->master_addr.clear();
              // Bill from the transfer on: the visiting-era history in our
              // store was forwarded home and invoiced by the old master.
              billing_.mark_billable(transfer.device_id,
                                     kernel_.now().ns());
              last_membership_change_ = kernel_.now();
              log_.info("membership of ", transfer.device_id,
                        " promoted to home (ownership transfer)");
            }
          },
          [this](const RemoveDevice& remove) {
            remove_membership(remove.device_id, remove.reason);
          },
          [this](const protocol::ChainBlock& msg) {
            sync_replica(msg.block);
          },
          [this, &frame](const auto& other) {
            ++stats_.unexpected_frames;
            log_.warn("unexpected ", protocol::wire_name_of(other),
                      " on the backhaul from ", frame.from);
          },
      },
      decoded.value());
}

void Aggregator::finish_temp_registration(const DeviceId& device,
                                          bool verified) {
  const auto it = pending_temp_.find(device);
  if (it == pending_temp_.end()) {
    return;
  }
  const std::string master = it->second.master;
  pending_temp_.erase(it);

  if (!verified) {
    ++stats_.registrations_rejected;
    CtrlMessage reject;
    reject.type = CtrlType::kRegisterReject;
    reject.device_id = device;
    reject.reason = "master does not recognise device";
    send_ctrl(reject);
    return;
  }
  const auto slot = tdma_.allocate(device);
  if (!slot) {
    ++stats_.registrations_rejected;
    CtrlMessage reject;
    reject.type = CtrlType::kRegisterReject;
    reject.device_id = device;
    reject.reason = "no free time-slot";
    send_ctrl(reject);
    return;
  }
  if (const auto added =
          members_.add_temporary(device, master, *slot, kernel_.now())) {
    bind_member_series(**added);
  }
  last_membership_change_ = kernel_.now();
  member_ids_stale_ = true;
  ++stats_.registrations_temporary;
  CtrlMessage accept;
  accept.type = CtrlType::kRegisterAccept;
  accept.device_id = device;
  accept.assigned_addr = id_;
  accept.membership = MembershipKind::kTemporary;
  accept.slot = static_cast<std::uint32_t>(*slot);
  send_ctrl(accept);
  log_.info("temporary membership created for ", device, " (master ", master,
            ")");
}

// ---------------------------------------------------------------------------
// Periodic duties
// ---------------------------------------------------------------------------

const std::vector<DeviceId>& Aggregator::sorted_member_ids() {
  if (member_ids_stale_) {
    member_ids_.clear();
    for (const MemberEntry* member : members_.all()) {
      member_ids_.push_back(member->device_id);
    }
    std::sort(member_ids_.begin(), member_ids_.end());
    member_ids_stale_ = false;
  }
  return member_ids_;
}

void Aggregator::on_feeder_sample() {
  const auto sample = feeder_meter_.sample();
  if (!sample) {
    return;
  }
  const double ma = util::as_milliamps(sample->current);
  window_feeder_ma_.add(ma);
  if (trace_ != nullptr) {
    trace_->append(feeder_series_, sample->taken_at, ma);
  }
}

void Aggregator::on_verify_window() {
  const sim::SimTime window_end = kernel_.now();
  // The reported side of the window is the mean live current per device
  // over [window_start, window_end), restricted to records drawn at *this*
  // grid-location (roamed history carries its host's network and must not
  // be checked against our feeder).
  // Only current members can have live records at this location in the
  // window (departed devices' history stays queryable but is not verified).
  // A record sampled in the window's last superframe may arrive after the
  // window closes and is then counted in no window — it carries the same
  // mean as its neighbours, so the per-device window mean is unbiased.
  // One fleet aggregate over the borrowed, presorted member list (shard-
  // parallel when the engine has workers; per_device comes back in sorted
  // device order, so the total folds in member order).  Devices with no
  // live records here this window are omitted, and an empty member list
  // skips the query, which would otherwise read every device.
  const std::vector<DeviceId>& members = sorted_member_ids();
  std::map<DeviceId, double> reported;
  double reported_total_ma = 0.0;
  if (!members.empty()) {
    store::QuerySpec window_spec;
    window_spec.borrowed_devices = &members;
    window_spec.devices_presorted = true;
    window_spec.t0_ns = window_start_.ns();
    window_spec.t1_ns = window_end.ns();
    window_spec.filter.network = network_;
    window_spec.filter.stored_offline = false;
    for (const auto& [device, agg] :
         query_engine_.aggregate(window_spec).per_device) {
      reported[device] = agg.avg_current_ma;
      reported_total_ma += agg.avg_current_ma;
    }
  }
  forecaster_.observe(reported_total_ma);
  const double feeder_ma =
      window_feeder_ma_.empty() ? 0.0 : window_feeder_ma_.mean();

  VerificationResult result =
      detector_.evaluate(window_start_, window_end, feeder_ma, reported);
  // Windows touching a membership change are transitional: devices may be
  // drawing before they can report (the handshake phase of Figure 6).
  if (last_membership_change_ >= window_start_ - sim::seconds(2)) {
    result.anomalous = false;
    result.suspect.clear();
  }
  if (result.anomalous) {
    log_.warn("anomaly: feeder=", result.feeder_ma,
              " mA, expected=", result.expected_feeder_ma,
              " mA, residual=", result.residual_ma, " mA, suspect='",
              result.suspect, "'");
  }
  // The trust check's verdict goes into the run's digest.
  if (trace_ != nullptr) {
    trace_->append(verify_residual_series_, window_end, result.residual_ma);
    trace_->append(verify_reported_series_, window_end,
                   result.reported_sum_ma);
    trace_->append(verify_anomalous_series_, window_end,
                   result.anomalous ? 1.0 : 0.0);
    if (!result.suspect.empty()) {
      trace_->append("verify." + id_ + ".suspect." + result.suspect,
                     window_end, 1.0);
    }
  }
  verification_history_.push_back(std::move(result));

  window_feeder_ma_.reset();
  window_start_ = window_end;
  // The verify window read is the natural "a window just ended" moment:
  // drain closeable roll-up windows and push them to subscribers.
  subscriptions_.pump();
}

void Aggregator::on_block_timer() {
  if (pending_records_.empty()) {
    return;  // no empty blocks: the chain commits data, not heartbeats
  }
  // Two-phase commit: stage the batch now (the block timestamp), collect
  // the sealed block one commit-latency later.  The deferred collect is
  // what lets sharded runs order same-instant blocks from different
  // threads identically to a sequential run (see chain/permissioned.hpp).
  const sim::SimTime at = kernel_.now();
  const std::uint64_t ticket = chain_.submit(
      id_, chain_secret_, std::move(pending_records_), at.ns());
  pending_records_.clear();
  kernel_.schedule_at(at + config_.aggregator.chain_commit_latency,
                      [this, ticket, at] {
                        auto block = chain_.collect(ticket, at.ns());
                        if (!block) {
                          log_.error(
                              "chain append rejected (writer not "
                              "authorized?)");
                          return;
                        }
                        ++stats_.blocks_written;
                        broadcast_block(*block);
                      });
}

void Aggregator::broadcast_block(const chain::Block& block) {
  // Seal once, fan the same frame bytes out to every peer.
  const auto frame_bytes = protocol::seal(protocol::ChainBlock{block});
  // Replicate to every other aggregator (and to our own replica directly).
  sync_replica(block);
  for (const auto& peer : backhaul_.nodes()) {
    if (peer != id_) {
      backhaul_.send(net::Frame{id_, peer, frame_bytes});
    }
  }
}

void Aggregator::sync_replica(chain::Block block) {
  if (block.header.index < replica_.size()) {
    return;  // already applied
  }
  replica_backlog_[block.header.index] = std::move(block);
  for (auto it = replica_backlog_.find(replica_.size());
       it != replica_backlog_.end();
       it = replica_backlog_.find(replica_.size())) {
    if (!replica_.append_external(it->second).ok) {
      log_.warn("replica rejected block ", it->second.header.index);
      replica_backlog_.erase(it);
      break;
    }
    replica_backlog_.erase(it);
  }
}

void Aggregator::on_beacon_timer() {
  Beacon beacon{id_, kernel_.now().ns()};
  broker_.send(net::Frame{id_, std::string(protocol::kTopicBeacon),
                          protocol::seal(beacon)});
}

void Aggregator::on_expiry_sweep() {
  const sim::SimTime cutoff =
      kernel_.now() - config_.aggregator.temp_member_timeout;
  for (const auto& device : members_.stale_temporaries(cutoff)) {
    log_.info("temporary membership of ", device, " expired");
    tdma_.release(device);
    members_.remove(device);
    last_membership_change_ = kernel_.now();
    member_ids_stale_ = true;
    ++stats_.memberships_expired;
  }
  // Expire stuck temp registrations (master unreachable).
  for (auto it = pending_temp_.begin(); it != pending_temp_.end();) {
    if (kernel_.now() - it->second.since > sim::seconds(5)) {
      CtrlMessage reject;
      reject.type = CtrlType::kRegisterReject;
      reject.device_id = it->first;
      reject.reason = "master verification timed out";
      send_ctrl(reject);
      ++stats_.registrations_rejected;
      it = pending_temp_.erase(it);
    } else {
      ++it;
    }
  }
}

// ---------------------------------------------------------------------------
// Administrative membership operations (sequence 3)
// ---------------------------------------------------------------------------

void Aggregator::remove_membership(const DeviceId& device,
                                   const std::string& reason) {
  if (members_.remove(device)) {
    tdma_.release(device);
    last_membership_change_ = kernel_.now();
    member_ids_stale_ = true;
    CtrlMessage removed;
    removed.type = CtrlType::kMembershipRemoved;
    removed.device_id = device;
    removed.reason = reason;
    send_ctrl(removed);
    log_.info("membership of ", device, " removed: ", reason);
  }
}

void Aggregator::transfer_membership(const DeviceId& device,
                                     const std::string& new_master) {
  TransferMembership transfer{device, new_master};
  backhaul_.send(net::Frame{id_, new_master, protocol::seal(transfer)});
  remove_membership(device, "ownership transferred to " + new_master);
}

void Aggregator::send_ctrl(const CtrlMessage& message) {
  broker_.send(net::Frame{id_, protocol::topic_ctrl(message.device_id),
                          protocol::seal(message)});
}

}  // namespace emon::core
