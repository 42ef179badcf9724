#pragma once
// IoT device firmware (Figure 2's layer stack, as one composable object):
//
//   physical   — Esp32Soc power model, INA219 + DS3231 on an I2C bus
//   middleware — sampling loop (EnergyMeter) on a periodic timer
//   network    — WifiStation (scan/associate by RSSI) + MqttClient + TDMA
//   data       — store::SeriesStore offline buffering (compressed columnar
//                segments under a byte budget), record serialization
//   application— registration state machine (Figure 3), reporting, billing
//                hooks, time-sync agent
//
// Mobility: `move_to()` unplugs the device (consumption ceases — the Idle
// phase of Figure 6), relocates it, replugs it at the target network, and
// drives the scan→associate→connect→report→Nack→temporary-registration
// sequence whose duration is T_handshake.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/energy_meter.hpp"
#include "core/membership.hpp"
#include "core/messages.hpp"
#include "core/protocol.hpp"
#include "grid/distribution.hpp"
#include "hw/ds3231.hpp"
#include "hw/esp32.hpp"
#include "hw/i2c.hpp"
#include "hw/ina219.hpp"
#include "net/mqtt.hpp"
#include "net/timesync.hpp"
#include "net/wifi.hpp"
#include "sim/timer.hpp"
#include "sim/trace.hpp"
#include "store/series_store.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace emon::core {

/// Firmware connection/registration state.
enum class DeviceState : std::uint8_t {
  kUnplugged,   // in transit: no grid connection, no consumption
  kAcquiring,   // plugged; scanning/associating/connecting
  kConnected,   // MQTT up, membership not yet confirmed
  kReporting,   // membership confirmed; live reporting
};

[[nodiscard]] const char* to_string(DeviceState s) noexcept;

struct DeviceStats {
  std::uint64_t samples = 0;
  std::uint64_t reports_sent = 0;
  std::uint64_t reports_acked = 0;
  std::uint64_t reports_failed = 0;
  std::uint64_t nacks_received = 0;
  std::uint64_t records_buffered = 0;
  std::uint64_t records_flushed = 0;
  std::uint64_t registrations_sent = 0;
  std::uint64_t registrations_accepted = 0;
  std::uint64_t registrations_rejected = 0;
  std::uint64_t scans = 0;
  /// Downlink frames that failed envelope or payload decode.
  std::uint64_t malformed_frames = 0;
  /// Well-formed downlink frames of a type devices never consume.
  std::uint64_t unexpected_frames = 0;
};

/// One measured network-transition handshake.
struct HandshakeRecord {
  sim::SimTime plugged_at{};
  sim::SimTime completed_at{};
  MembershipKind membership = MembershipKind::kTemporary;
  NetworkId network;

  [[nodiscard]] sim::Duration duration() const noexcept {
    return completed_at - plugged_at;
  }
};

class DeviceApp {
 public:
  using BrokerResolver =
      std::function<net::MqttBroker*(const std::string& host_id)>;
  using GridResolver =
      std::function<grid::DistributionNetwork*(const NetworkId& network)>;

  DeviceApp(sim::Kernel& kernel, DeviceId id, const SystemConfig& config,
            net::WifiMedium& medium, GridResolver grids,
            BrokerResolver brokers, const util::SeedSequence& seeds,
            sim::Trace* trace = nullptr);
  ~DeviceApp();

  DeviceApp(const DeviceApp&) = delete;
  DeviceApp& operator=(const DeviceApp&) = delete;

  // -- Lifecycle ---------------------------------------------------------------

  /// Plugs into `network` at the device's current position and starts the
  /// acquisition + registration sequence.
  void plug_into(const NetworkId& network);

  /// Unplugs (consumption ceases; membership state is retained).
  void unplug();

  /// Mobility: unplug now, travel for `transit` (the Idle time of
  /// Figure 6), then appear at `position` and plug into `network`.
  void move_to(const NetworkId& network, net::Position position,
               sim::Duration transit);

  void set_position(net::Position p);

  // -- Cross-shard migration ---------------------------------------------------
  // A roaming device whose destination WAN lives on another shard changes
  // event queues mid-transit.  The owning shard calls
  // `detach_for_migration()` at departure (unplug + leave the local radio
  // medium; afterwards no pending event on the old shard touches this
  // object beyond the epoch-guarded stragglers, which the horizon protocol
  // orders before the adopting shard's first access).  The destination
  // shard calls `adopt()` at arrival, before `set_position`/`plug_into`.

  /// Unplugs and leaves the current Wi-Fi medium (radio off, in transit).
  void detach_for_migration();
  /// Re-homes the device onto `kernel`, `medium` and `trace` (the
  /// destination shard's).  All timers, channels, clock reads and trace
  /// appends ride them afterwards.
  void adopt(sim::Kernel& kernel, net::WifiMedium& medium,
             sim::Trace* trace);

  // -- Application-load control ---------------------------------------------------

  /// Attaches an application load (e.g. a CC-CV charger) on top of the SoC.
  void attach_load(hw::LoadProfilePtr load);

  /// Tamper hook (for the anomaly experiments): scales every *reported*
  /// current/energy by `factor` while true consumption is unchanged.
  /// factor < 1 under-reports.  1.0 restores honesty.
  void set_tamper_factor(double factor) noexcept { tamper_factor_ = factor; }

  // -- Introspection ----------------------------------------------------------

  [[nodiscard]] const DeviceId& id() const noexcept { return id_; }
  [[nodiscard]] DeviceState state() const noexcept { return state_; }
  [[nodiscard]] const NetworkId& plugged_network() const noexcept {
    return plugged_network_;
  }
  [[nodiscard]] const std::string& master_addr() const noexcept {
    return master_addr_;
  }
  [[nodiscard]] MembershipKind membership() const noexcept {
    return membership_;
  }
  [[nodiscard]] bool registered() const noexcept {
    return state_ == DeviceState::kReporting;
  }
  [[nodiscard]] const DeviceStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const store::SeriesStore& local_store() const noexcept {
    return store_;
  }
  [[nodiscard]] const EnergyMeter& meter() const noexcept { return meter_; }
  [[nodiscard]] hw::Esp32Soc& soc() noexcept { return soc_; }
  [[nodiscard]] hw::Ds3231& rtc() noexcept { return rtc_; }
  [[nodiscard]] const std::vector<HandshakeRecord>& handshakes()
      const noexcept {
    return handshakes_;
  }
  [[nodiscard]] net::WifiStation& wifi() noexcept { return wifi_; }

 private:
  void begin_acquisition();
  void retry_acquisition(sim::Duration delay);
  void on_scan_done(std::vector<net::ScanEntry> results);
  void on_associated(bool ok);
  void on_mqtt_connected(bool ok);
  /// Decodes a downlink envelope and dispatches (ctrl / beacon).
  void on_downlink_frame(const net::MqttMessage& msg);
  void on_ctrl(const CtrlMessage& msg);
  void on_sample_tick();
  void send_report(std::vector<ConsumptionRecord> records);
  void send_register();
  void complete_handshake(MembershipKind kind);
  void on_wifi_drop();
  /// Points the device's trace appends (its own series and its MQTT
  /// client's wire series) at `trace`, interning each series once.
  void bind_trace(sim::Trace* trace);

  sim::Kernel* kernel_;  // rebindable: migration re-homes the device
  DeviceId id_;
  SystemConfig config_;
  GridResolver grids_;
  BrokerResolver brokers_;
  sim::Trace* trace_;
  sim::SeriesId current_series_;    // device.<id>.current_ma
  sim::SeriesId handshake_series_;  // handshake.<id>
  util::Logger log_;
  util::Rng rng_;

  // Physical layer.
  hw::Esp32Soc soc_;
  hw::I2cBus i2c_;
  std::unique_ptr<hw::Ina219> sensor_;
  hw::Ds3231 rtc_;

  // Middleware.
  EnergyMeter meter_;
  std::unique_ptr<sim::PeriodicTimer> sample_timer_;

  // Network layer.
  net::WifiStation wifi_;
  net::MqttClient mqtt_;
  net::TimeSyncAgent timesync_;

  // Data layer: compressed offline series (store/) — a push/pop_batch FIFO
  // over byte-budgeted history.
  store::SeriesStore store_;

  // Application state.
  DeviceState state_ = DeviceState::kUnplugged;
  NetworkId plugged_network_;
  std::string master_addr_;       // home aggregator address (empty = none)
  std::string reporting_addr_;    // aggregator currently reported to
  MembershipKind membership_ = MembershipKind::kHome;
  std::uint32_t slot_ = 0;
  std::uint64_t next_sequence_ = 1;
  bool registration_in_flight_ = false;
  std::optional<sim::SimTime> handshake_started_;
  std::vector<HandshakeRecord> handshakes_;
  double tamper_factor_ = 1.0;
  std::uint64_t plug_epoch_ = 0;  // invalidates scheduled continuations

  DeviceStats stats_;
};

}  // namespace emon::core
