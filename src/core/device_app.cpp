#include "core/device_app.hpp"


#include "util/bytes.hpp"

namespace emon::core {

namespace {
/// Device sensors calibrated for up to 3.2 A (charger-class loads).
constexpr double kDeviceMaxExpectedAmps = 3.2;
/// Radio burst charged per MQTT transmission.
constexpr sim::Duration kTxBurst = sim::milliseconds(6);
}  // namespace

const char* to_string(DeviceState s) noexcept {
  switch (s) {
    case DeviceState::kUnplugged:
      return "unplugged";
    case DeviceState::kAcquiring:
      return "acquiring";
    case DeviceState::kConnected:
      return "connected";
    case DeviceState::kReporting:
      return "reporting";
  }
  return "?";
}

DeviceApp::DeviceApp(sim::Kernel& kernel, DeviceId id,
                     const SystemConfig& config, net::WifiMedium& medium,
                     GridResolver grids, BrokerResolver brokers,
                     const util::SeedSequence& seeds, sim::Trace* trace)
    : kernel_(&kernel),
      id_(std::move(id)),
      config_(config),
      grids_(std::move(grids)),
      brokers_(std::move(brokers)),
      trace_(trace),
      log_(id_),
      rng_(seeds.stream("device.app." + id_)),
      soc_(id_, hw::Esp32Params{}),
      sensor_(),
      rtc_(0x68, hw::Ds3231Params{}, [this] { return kernel_->now(); },
           seeds.stream("ds3231." + id_)),
      meter_(i2c_, *[&]() -> hw::Ina219* {
        // The device's INA219 probes whatever network the device is
        // currently plugged into; unplugged, it reads a dead bus.
        sensor_ = std::make_unique<hw::Ina219>(
            0x40, hw::Ina219Params{},
            [this]() -> hw::OperatingPoint {
              if (plugged_network_.empty()) {
                return hw::OperatingPoint{util::Amperes{0.0},
                                          util::Volts{0.0}};
              }
              grid::DistributionNetwork* net = grids_(plugged_network_);
              if (net == nullptr) {
                return hw::OperatingPoint{util::Amperes{0.0},
                                          util::Volts{0.0}};
              }
              return net->device_operating_point(id_, kernel_->now());
            },
            seeds.stream("ina219.device." + id_));
        sensor_->calibrate_for(util::amps(kDeviceMaxExpectedAmps));
        i2c_.attach(*sensor_);
        i2c_.attach(rtc_);
        return sensor_.get();
      }(), [this] { return kernel_->now(); }),
      wifi_(medium, id_, config.wifi, seeds.stream("wifi." + id_)),
      mqtt_(kernel, id_),
      timesync_(rtc_),
      store_(store::SeriesStoreOptions{
          config.device.local_store_bytes,
          config.device.local_store_capacity,
          config.device.local_store_seal_records}) {
  if (!grids_ || !brokers_) {
    throw std::invalid_argument("DeviceApp requires grid and broker resolvers");
  }
  wifi_.set_on_drop([this] { on_wifi_drop(); });
  bind_trace(trace);
  mqtt_.subscribe(protocol::topic_ctrl(id_),
                  [this](const net::MqttMessage& m) { on_downlink_frame(m); });
  mqtt_.subscribe(std::string(protocol::kTopicBeacon),
                  [this](const net::MqttMessage& m) { on_downlink_frame(m); });
}

void DeviceApp::on_downlink_frame(const net::MqttMessage& msg) {
  auto decoded = protocol::decode_any(msg.payload);
  if (!decoded) {
    ++stats_.malformed_frames;
    log_.warn("malformed frame on ", msg.topic, ": ",
              to_string(decoded.failure().fault), " (",
              decoded.failure().detail, ")");
    return;
  }
  std::visit(protocol::Overload{
                 [this](const CtrlMessage& ctrl) { on_ctrl(ctrl); },
                 [this](const Beacon& beacon) {
                   timesync_.on_beacon(sim::SimTime{beacon.master_time_ns});
                 },
                 [this](const auto& other) {
                   ++stats_.unexpected_frames;
                   log_.warn("unexpected ", protocol::wire_name_of(other),
                             " on a downlink topic");
                 },
             },
             decoded.value());
}

DeviceApp::~DeviceApp() { unplug(); }

void DeviceApp::attach_load(hw::LoadProfilePtr load) {
  soc_.attach_load(std::move(load));
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

void DeviceApp::plug_into(const NetworkId& network) {
  if (state_ != DeviceState::kUnplugged) {
    unplug();
  }
  grid::DistributionNetwork* grid_net = grids_(network);
  if (grid_net == nullptr) {
    log_.error("plug_into unknown network '", network, "'");
    return;
  }
  ++plug_epoch_;
  plugged_network_ = network;
  state_ = DeviceState::kAcquiring;
  handshake_started_ = kernel_->now();
  soc_.set_mode(hw::Esp32PowerMode::kActive);
  grid_net->plug(id_, [this](sim::SimTime t) { return soc_.current_demand(t); });

  // The measurement loop runs from the instant power is present —
  // consumption during the handshake goes to local storage (Figure 6).
  sample_timer_ = std::make_unique<sim::PeriodicTimer>(
      *kernel_, config_.device.t_measure, [this] { on_sample_tick(); });
  sample_timer_->start();
  meter_.clear_baseline();  // no integration across the power gap

  log_.info("plugged into ", network, " at t=", sim::to_string(kernel_->now()));
  begin_acquisition();
}

void DeviceApp::unplug() {
  if (state_ == DeviceState::kUnplugged) {
    return;
  }
  ++plug_epoch_;
  if (grid::DistributionNetwork* grid_net = grids_(plugged_network_)) {
    grid_net->unplug(id_);
  }
  sample_timer_.reset();
  mqtt_.drop();
  wifi_.disconnect();
  plugged_network_.clear();
  reporting_addr_.clear();
  registration_in_flight_ = false;
  handshake_started_.reset();
  state_ = DeviceState::kUnplugged;
  soc_.set_mode(hw::Esp32PowerMode::kDeepSleep);
  log_.info("unplugged at t=", sim::to_string(kernel_->now()));
}

void DeviceApp::move_to(const NetworkId& network, net::Position position,
                        sim::Duration transit) {
  unplug();
  const std::uint64_t epoch = plug_epoch_;
  kernel_->schedule_in(transit, [this, epoch, network, position] {
    if (epoch != plug_epoch_) {
      return;  // superseded by another lifecycle action
    }
    set_position(position);
    plug_into(network);
  });
}

void DeviceApp::set_position(net::Position p) { wifi_.set_position(p); }

void DeviceApp::detach_for_migration() {
  unplug();
  wifi_.detach_medium();
}

void DeviceApp::adopt(sim::Kernel& kernel, net::WifiMedium& medium,
                      sim::Trace* trace) {
  if (state_ != DeviceState::kUnplugged) {
    throw std::logic_error("DeviceApp::adopt while plugged in");
  }
  kernel_ = &kernel;
  mqtt_.rebind_kernel(kernel);
  wifi_.attach_medium(medium);
  bind_trace(trace);
}

void DeviceApp::bind_trace(sim::Trace* trace) {
  trace_ = trace;
  if (trace_ != nullptr) {
    mqtt_.bind_trace(trace_, "wire.device." + id_);
    current_series_ = trace_->intern("device." + id_ + ".current_ma");
    handshake_series_ = trace_->intern("handshake." + id_);
  }
}

// ---------------------------------------------------------------------------
// Acquisition: scan -> associate -> settle -> MQTT connect
// ---------------------------------------------------------------------------

void DeviceApp::begin_acquisition() {
  if (state_ != DeviceState::kAcquiring) {
    return;
  }
  ++stats_.scans;
  const sim::Duration scan_time =
      config_.wifi.scan_dwell * static_cast<std::int64_t>(config_.wifi.channels);
  soc_.radio_rx_until(kernel_->now() + scan_time);
  if (!wifi_.start_scan([this](std::vector<net::ScanEntry> results) {
        on_scan_done(std::move(results));
      })) {
    retry_acquisition(sim::milliseconds(500));
  }
}

void DeviceApp::retry_acquisition(sim::Duration delay) {
  const std::uint64_t epoch = plug_epoch_;
  kernel_->schedule_in(delay, [this, epoch] {
    if (epoch == plug_epoch_) {
      begin_acquisition();
    }
  });
}

void DeviceApp::on_scan_done(std::vector<net::ScanEntry> results) {
  if (state_ != DeviceState::kAcquiring) {
    return;
  }
  if (results.empty()) {
    // "it continuously scans the communication network to determine its
    // reporting aggregator" (§III-B).
    log_.debug("scan found no APs; rescanning");
    retry_acquisition(sim::milliseconds(200));
    return;
  }
  // RSSI rule (§II-C footnote 2): strongest AP is the reporting aggregator.
  const net::ScanEntry best = results.front();
  soc_.radio_rx_until(kernel_->now() + config_.wifi.assoc_max);
  if (!wifi_.associate(best.ap.ssid,
                       [this](bool ok) { on_associated(ok); })) {
    retry_acquisition(sim::milliseconds(500));
  }
}

void DeviceApp::on_associated(bool ok) {
  if (state_ != DeviceState::kAcquiring) {
    return;
  }
  if (!ok) {
    retry_acquisition(sim::milliseconds(500));
    return;
  }
  // Link-settle dwell before trusting the association (RSSI stability).
  const double settle_span = static_cast<double>(
      (config_.device.join_settle_max - config_.device.join_settle_min).ns());
  const sim::Duration settle =
      config_.device.join_settle_min +
      sim::nanoseconds(static_cast<std::int64_t>(rng_.uniform(0.0, settle_span)));
  const std::uint64_t epoch = plug_epoch_;
  kernel_->schedule_in(settle, [this, epoch] {
    if (epoch != plug_epoch_ || state_ != DeviceState::kAcquiring) {
      return;
    }
    net::MqttBroker* broker = brokers_(wifi_.connected_host());
    if (broker == nullptr) {
      log_.error("no broker for host '", wifi_.connected_host(), "'");
      retry_acquisition(sim::seconds(1));
      return;
    }
    mqtt_.connect(*broker, wifi_.uplink(), wifi_.downlink(),
                  [this](bool connected) { on_mqtt_connected(connected); });
  });
}

void DeviceApp::on_mqtt_connected(bool ok) {
  if (state_ != DeviceState::kAcquiring) {
    return;
  }
  if (!ok) {
    retry_acquisition(sim::seconds(1));
    return;
  }
  state_ = DeviceState::kConnected;
  reporting_addr_ = wifi_.connected_host();
  log_.info("MQTT connected to ", reporting_addr_);

  if (master_addr_.empty()) {
    // Sequence 1: never registered anywhere — request home membership.
    send_register();
  }
  // Otherwise follow the paper's roam flow: the next report draws an Ack
  // (still a member here) or a Nack that triggers temporary registration.
}

// ---------------------------------------------------------------------------
// Control-plane handling
// ---------------------------------------------------------------------------

void DeviceApp::on_ctrl(const CtrlMessage& msg) {
  if (msg.device_id != id_) {
    return;  // wildcard-subscribed sibling traffic
  }
  switch (msg.type) {
    case CtrlType::kRegisterAccept: {
      registration_in_flight_ = false;
      membership_ = msg.membership;
      slot_ = msg.slot;
      reporting_addr_ = msg.assigned_addr;
      if (msg.membership == MembershipKind::kHome) {
        master_addr_ = msg.assigned_addr;
      }
      state_ = DeviceState::kReporting;
      ++stats_.registrations_accepted;
      complete_handshake(msg.membership);
      log_.info("registered (", to_string(msg.membership), ") at ",
                reporting_addr_, ", slot ", msg.slot);
      break;
    }
    case CtrlType::kRegisterReject: {
      registration_in_flight_ = false;
      ++stats_.registrations_rejected;
      log_.warn("registration rejected: ", msg.reason);
      const std::uint64_t epoch = plug_epoch_;
      kernel_->schedule_in(config_.device.registration_retry, [this, epoch] {
        if (epoch == plug_epoch_ && state_ == DeviceState::kConnected) {
          send_register();
        }
      });
      break;
    }
    case CtrlType::kReportAck: {
      ++stats_.reports_acked;
      if (state_ == DeviceState::kConnected) {
        // Ack on first report after reconnect: membership still valid here
        // (home rejoin without re-registration, §II-C).
        state_ = DeviceState::kReporting;
        membership_ = reporting_addr_ == master_addr_
                          ? MembershipKind::kHome
                          : MembershipKind::kTemporary;
        complete_handshake(membership_);
      }
      break;
    }
    case CtrlType::kReportNack: {
      ++stats_.nacks_received;
      log_.info("Nack from ", reporting_addr_, " — requesting ",
                master_addr_.empty() ? "home" : "temporary", " membership");
      if (state_ == DeviceState::kReporting) {
        state_ = DeviceState::kConnected;
      }
      send_register();
      break;
    }
    case CtrlType::kMembershipRemoved: {
      log_.info("membership removed by aggregator: ", msg.reason);
      master_addr_.clear();
      if (state_ == DeviceState::kReporting) {
        state_ = DeviceState::kConnected;
        // Re-register as a fresh home member at the current network
        // (ownership transfer completes here).
        send_register();
      }
      break;
    }
  }
}

void DeviceApp::send_register() {
  if (registration_in_flight_ || state_ == DeviceState::kUnplugged ||
      !mqtt_.connected()) {
    return;
  }
  registration_in_flight_ = true;
  ++stats_.registrations_sent;
  RegisterRequest req{id_, master_addr_ == reporting_addr_ ? std::string{}
                                                           : master_addr_};
  soc_.radio_tx_until(kernel_->now() + kTxBurst);
  mqtt_.send(net::Frame{id_, protocol::topic_register(id_),
                        protocol::seal(req), 1},
             [this](bool acked) {
               if (!acked) {
                 registration_in_flight_ = false;
               }
             });
  // Response watchdog: the RegisterAccept/Reject rides a fire-and-forget
  // ctrl message that a lossy downlink can eat.  If no decision arrived by
  // the retry deadline, re-issue the request (the aggregator re-accepts
  // known members idempotently).
  const std::uint64_t epoch = plug_epoch_;
  kernel_->schedule_in(config_.device.registration_retry, [this, epoch] {
    if (epoch == plug_epoch_ && state_ == DeviceState::kConnected) {
      registration_in_flight_ = false;
      send_register();
    }
  });
}

void DeviceApp::complete_handshake(MembershipKind kind) {
  if (!handshake_started_) {
    return;
  }
  HandshakeRecord rec;
  rec.plugged_at = *handshake_started_;
  rec.completed_at = kernel_->now();
  rec.membership = kind;
  rec.network = plugged_network_;
  handshakes_.push_back(rec);
  handshake_started_.reset();
  if (trace_ != nullptr) {
    trace_->append(handshake_series_, rec.completed_at,
                   rec.duration().to_seconds());
  }
}

void DeviceApp::on_wifi_drop() {
  if (state_ == DeviceState::kUnplugged) {
    return;
  }
  log_.info("Wi-Fi link dropped");
  mqtt_.drop();
  if (state_ != DeviceState::kAcquiring) {
    state_ = DeviceState::kAcquiring;
    handshake_started_ = kernel_->now();
  }
  begin_acquisition();
}

// ---------------------------------------------------------------------------
// Measurement + reporting loop
// ---------------------------------------------------------------------------

void DeviceApp::on_sample_tick() {
  if (state_ == DeviceState::kUnplugged) {
    return;
  }
  const auto sample = meter_.sample();
  if (!sample) {
    return;
  }
  ++stats_.samples;

  ConsumptionRecord record;
  record.device_id = id_;
  record.sequence = next_sequence_++;
  record.timestamp_ns = rtc_.local_time().ns();
  record.interval_ns = config_.device.t_measure.ns();
  record.current_ma = util::as_milliamps(sample->current) * tamper_factor_;
  record.bus_voltage_mv = util::as_millivolts(sample->bus_voltage);
  record.energy_mwh =
      util::as_milliwatt_hours(meter_.take_interval_energy()) * tamper_factor_;
  record.network = plugged_network_;
  record.membership = membership_;

  if (trace_ != nullptr) {
    trace_->append(current_series_, sample->taken_at,
                   util::as_milliamps(sample->current));
  }

  if (state_ == DeviceState::kConnected && mqtt_.connected() &&
      !registration_in_flight_) {
    // Membership not yet confirmed here: keep the record locally AND send
    // it as a probe report (Figure 3 seq. 2: the first report after a
    // transition draws the Ack-or-Nack that reveals membership state).
    ConsumptionRecord copy = record;
    copy.stored_offline = true;
    store_.push(std::move(copy));
    ++stats_.records_buffered;
    send_report({std::move(record)});
    return;
  }
  if (state_ != DeviceState::kReporting || !mqtt_.connected()) {
    // Handshake/offline: buffer locally (Figure 6's blue stored segment).
    record.stored_offline = true;
    store_.push(std::move(record));
    ++stats_.records_buffered;
    return;
  }

  // Compose the report: stored backlog (bounded batch) + live record
  // ("the combination of stored data and the measurement", §II-C).
  std::vector<ConsumptionRecord> batch =
      store_.pop_batch(config_.device.flush_batch);
  const std::size_t flushed = batch.size();
  batch.push_back(std::move(record));

  // Transmit within the granted TDMA slot of the current superframe.
  const sim::Duration offset =
      config_.aggregator.tdma.slot_width * static_cast<std::int64_t>(slot_);
  const std::uint64_t epoch = plug_epoch_;
  kernel_->schedule_in(offset, [this, epoch, batch = std::move(batch),
                               flushed]() mutable {
    if (epoch != plug_epoch_) {
      return;
    }
    stats_.records_flushed += flushed;
    send_report(std::move(batch));
  });
}

void DeviceApp::send_report(std::vector<ConsumptionRecord> records) {
  if (!mqtt_.connected()) {
    for (auto& r : records) {
      r.stored_offline = true;
      store_.push(std::move(r));
      ++stats_.records_buffered;
    }
    return;
  }
  ++stats_.reports_sent;
  Report report{id_, records};
  soc_.radio_tx_until(kernel_->now() + kTxBurst);
  mqtt_.send(
      net::Frame{id_, protocol::topic_report(id_), protocol::seal(report), 1},
      [this, records = std::move(records)](bool acked) mutable {
        if (acked) {
          return;  // Ack handling happens on the ctrl topic
        }
        ++stats_.reports_failed;
        // Paper: on transmission failure the data is stored locally and
        // retransmitted with the next measurement.
        for (auto& r : records) {
          r.stored_offline = true;
          store_.push(std::move(r));
          ++stats_.records_buffered;
        }
      });
}

}  // namespace emon::core
