#pragma once
// Application-layer protocol message bodies (Figure 3 of the paper).
//
// These structs are the *bodies* of protocol frames; the framing itself —
// versioned envelope, topic map — lives in core/protocol.hpp.  Every message
// below travels inside an envelope, device<->aggregator over MQTT and
// aggregator<->aggregator over the backhaul, through the net::Transport
// interface.
//
// Each message carries its own MsgType byte (`kType`), its wire name for
// logs and traces (`kWireName`) and its body layout: the `fields()` list
// that util::FieldWriter encodes and util::FieldReader decodes.  Seal and
// decode through protocol::seal()/protocol::decode_any().

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/records.hpp"

namespace emon::core {

namespace protocol {

/// The frame's message-type byte.
enum class MsgType : std::uint8_t {
  // Device -> aggregator (MQTT uplink).
  kRegisterRequest = 0x01,
  kReport = 0x02,
  // Aggregator -> device (MQTT downlink).
  kCtrl = 0x03,
  kBeacon = 0x04,
  // Aggregator <-> aggregator (backhaul).
  kVerifyDeviceQuery = 0x10,
  kVerifyDeviceResponse = 0x11,
  kRoamRecords = 0x12,
  kTransferMembership = 0x13,
  kRemoveDevice = 0x14,
  kChainBlock = 0x20,
  // Live dashboard subscription extension (client <-> aggregator, MQTT).
  kSubscribeRequest = 0x30,
  kSubscribeAck = 0x31,
  kRollupPush = 0x32,
  kUnsubscribe = 0x33,
  // Metrics scrape (client <-> aggregator, MQTT admin).
  kStatsRequest = 0x40,
  kStatsResponse = 0x41,
};

}  // namespace protocol

// -- Device -> aggregator -----------------------------------------------------

/// Membership registration request (Figure 3, sequences 1 and 2).
/// `master_addr` is empty for an initial (home) registration — the "NULL"
/// of the paper — and carries the home aggregator's address when a roaming
/// device requests temporary membership.
struct RegisterRequest {
  static constexpr auto kType = protocol::MsgType::kRegisterRequest;
  static constexpr std::string_view kWireName = "register_request";
  DeviceId device_id;
  std::string master_addr;

  template <class IO>
  friend void fields(IO& io, RegisterRequest& m) {
    io(m.device_id, m.master_addr);
  }
};

/// A consumption report: current measurement plus any locally stored
/// backlog ("The combination of stored data and the measurement are
/// transmitted to the aggregator in the next transmission", §II-C).
struct Report {
  static constexpr auto kType = protocol::MsgType::kReport;
  static constexpr std::string_view kWireName = "report";
  DeviceId device_id;
  std::vector<ConsumptionRecord> records;

  template <class IO>
  friend void fields(IO& io, Report& m) {
    io(m.device_id);
    io.nested(m.records);
  }
};

// -- Aggregator -> device -----------------------------------------------------

enum class CtrlType : std::uint8_t {
  kRegisterAccept = 0,   // carries assigned master/temp address + slot
  kRegisterReject = 1,   // e.g. no free time-slot
  kReportAck = 2,        // Ack of Figure 3
  kReportNack = 3,       // Nack: no membership here
  kMembershipRemoved = 4,  // sequence 3: device deregistered
};

[[nodiscard]] const char* to_string(CtrlType t) noexcept;

struct CtrlMessage {
  static constexpr auto kType = protocol::MsgType::kCtrl;
  static constexpr std::string_view kWireName = "ctrl";
  CtrlType type = CtrlType::kReportAck;
  DeviceId device_id;
  /// For kRegisterAccept: the network address the device should treat as
  /// its reporting address (Master or Temp per Figure 3).
  std::string assigned_addr;
  /// For kRegisterAccept: whether this is home or temporary membership.
  MembershipKind membership = MembershipKind::kHome;
  /// For kRegisterAccept: TDMA slot index.
  std::uint32_t slot = 0;
  /// For acks: highest record sequence accepted.
  std::uint64_t ack_sequence = 0;
  /// Free-form reason for rejects.
  std::string reason;

  template <class IO>
  friend void fields(IO& io, CtrlMessage& m) {
    io.enumeration(m.type, CtrlType::kMembershipRemoved);
    io(m.device_id, m.assigned_addr);
    io.enumeration(m.membership, MembershipKind::kTemporary);
    io(m.slot, m.ack_sequence, m.reason);
  }
};

/// Time-sync beacon payload.
struct Beacon {
  static constexpr auto kType = protocol::MsgType::kBeacon;
  static constexpr std::string_view kWireName = "beacon";
  std::string aggregator_id;
  std::int64_t master_time_ns = 0;

  template <class IO>
  friend void fields(IO& io, Beacon& m) {
    io(m.aggregator_id, m.master_time_ns);
  }
};

// -- Backhaul payloads ----------------------------------------------------------

/// verify_device: does `master` know `device_id` as a home member?
struct VerifyDeviceQuery {
  static constexpr auto kType = protocol::MsgType::kVerifyDeviceQuery;
  static constexpr std::string_view kWireName = "verify_device";
  DeviceId device_id;
  std::string origin;  // aggregator asking

  template <class IO>
  friend void fields(IO& io, VerifyDeviceQuery& m) {
    io(m.device_id, m.origin);
  }
};
struct VerifyDeviceResponse {
  static constexpr auto kType = protocol::MsgType::kVerifyDeviceResponse;
  static constexpr std::string_view kWireName = "verify_device_resp";
  DeviceId device_id;
  bool known = false;
  std::string master;  // responder id

  template <class IO>
  friend void fields(IO& io, VerifyDeviceResponse& m) {
    io(m.device_id, m.known, m.master);
  }
};
/// roam_records: records collected for a device under temporary membership,
/// forwarded to its master for billing.
struct RoamRecords {
  static constexpr auto kType = protocol::MsgType::kRoamRecords;
  static constexpr std::string_view kWireName = "roam_records";
  DeviceId device_id;
  std::string collector;  // temporary aggregator
  std::vector<ConsumptionRecord> records;

  template <class IO>
  friend void fields(IO& io, RoamRecords& m) {
    io(m.device_id, m.collector);
    io.nested(m.records);
  }
};
/// transfer_membership: home aggregator hands the device to a new master.
struct TransferMembership {
  static constexpr auto kType = protocol::MsgType::kTransferMembership;
  static constexpr std::string_view kWireName = "transfer_membership";
  DeviceId device_id;
  std::string new_master;

  template <class IO>
  friend void fields(IO& io, TransferMembership& m) {
    io(m.device_id, m.new_master);
  }
};
/// remove_device: membership removal notice (loss/reset/ownership change).
struct RemoveDevice {
  static constexpr auto kType = protocol::MsgType::kRemoveDevice;
  static constexpr std::string_view kWireName = "remove_device";
  DeviceId device_id;
  std::string reason;

  template <class IO>
  friend void fields(IO& io, RemoveDevice& m) {
    io(m.device_id, m.reason);
  }
};

// -- Live subscription payloads (dashboard push path) --------------------------
//
// A client registers a QuerySpec-shaped subscription; the aggregator's
// rollup engine maintains the window and pushes one RollupPush per closed
// window.  Doubles travel as IEEE-754 bit patterns (util::ByteWriter::f64),
// so a decoded push reproduces the aggregator's cold-query doubles
// bit-for-bit — the differential tests compare with == on doubles.

/// Wire form of one window aggregate, field for field the store's
/// DeviceAggregate.
struct WireAggregate {
  std::uint64_t count = 0;
  std::int64_t t_min_ns = 0;
  std::int64_t t_max_ns = 0;
  double min_current_ma = 0.0;
  double max_current_ma = 0.0;
  double avg_current_ma = 0.0;
  double sum_energy_mwh = 0.0;

  friend bool operator==(const WireAggregate&, const WireAggregate&) = default;
  template <class IO>
  friend void fields(IO& io, WireAggregate& m) {
    io(m.count, m.t_min_ns, m.t_max_ns, m.min_current_ma, m.max_current_ma,
       m.avg_current_ma, m.sum_energy_mwh);
  }
};

/// Wire form of one per-network usage subtotal.
struct WireNetworkUsage {
  NetworkId network;
  std::uint64_t records = 0;
  double energy_mwh = 0.0;

  friend bool operator==(const WireNetworkUsage&,
                         const WireNetworkUsage&) = default;
  template <class IO>
  friend void fields(IO& io, WireNetworkUsage& m) {
    io(m.network, m.records, m.energy_mwh);
  }
};

/// subscribe: register a live window over a device set (empty = the whole
/// fleet) with an optional record filter.  `client_id` names the push topic
/// (emon/push/<client_id>); `subscription_id` is the client-chosen handle
/// echoed in the ack and every push.
struct SubscribeRequest {
  static constexpr auto kType = protocol::MsgType::kSubscribeRequest;
  static constexpr std::string_view kWireName = "subscribe";
  std::string client_id;
  std::uint64_t subscription_id = 0;
  std::vector<DeviceId> devices;
  std::int64_t window_ns = 0;
  std::int64_t slide_ns = 0;
  std::int64_t lateness_ns = 0;
  /// Optional RecordFilter fields (each flagged on the wire).
  std::optional<NetworkId> network;
  std::optional<bool> stored_offline;
  /// Include per-device rows in each push (off = merged + breakdown only,
  /// bounding push size on large fleets).
  bool include_per_device = false;

  friend bool operator==(const SubscribeRequest&,
                         const SubscribeRequest&) = default;
  template <class IO>
  friend void fields(IO& io, SubscribeRequest& m) {
    io(m.client_id, m.subscription_id, m.devices, m.window_ns, m.slide_ns,
       m.lateness_ns, m.network, m.stored_offline, m.include_per_device);
  }
};

/// subscribe_ack: accept (with the anchor the window grid was pinned to) or
/// reject (with a reason).
struct SubscribeAck {
  static constexpr auto kType = protocol::MsgType::kSubscribeAck;
  static constexpr std::string_view kWireName = "subscribe_ack";
  std::uint64_t subscription_id = 0;
  bool accepted = false;
  std::int64_t anchor_ns = 0;
  std::string reason;

  friend bool operator==(const SubscribeAck&, const SubscribeAck&) = default;
  template <class IO>
  friend void fields(IO& io, SubscribeAck& m) {
    io(m.subscription_id, m.accepted, m.anchor_ns, m.reason);
  }
};

/// push: one closed window [t0, t1) — fleet merge, per-network breakdown,
/// and (when subscribed with include_per_device) the per-device rows sorted
/// by device id.
struct RollupPush {
  static constexpr auto kType = protocol::MsgType::kRollupPush;
  static constexpr std::string_view kWireName = "rollup_push";
  std::uint64_t subscription_id = 0;
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  /// Devices that contributed to `merged` (also sent when per-device rows
  /// are omitted).
  std::uint64_t device_count = 0;
  WireAggregate merged;
  std::vector<WireNetworkUsage> breakdown;
  struct DeviceRow {
    DeviceId device;
    WireAggregate aggregate;
    friend bool operator==(const DeviceRow&, const DeviceRow&) = default;
    template <class IO>
    friend void fields(IO& io, DeviceRow& m) {
      io(m.device, m.aggregate);
    }
  };
  std::vector<DeviceRow> per_device;

  friend bool operator==(const RollupPush&, const RollupPush&) = default;
  template <class IO>
  friend void fields(IO& io, RollupPush& m) {
    io(m.subscription_id, m.t0_ns, m.t1_ns, m.device_count, m.merged,
       m.breakdown, m.per_device);
  }
};

/// unsubscribe: drop one subscription of `client_id`.
struct Unsubscribe {
  static constexpr auto kType = protocol::MsgType::kUnsubscribe;
  static constexpr std::string_view kWireName = "unsubscribe";
  std::uint64_t subscription_id = 0;
  std::string client_id;

  friend bool operator==(const Unsubscribe&, const Unsubscribe&) = default;
  template <class IO>
  friend void fields(IO& io, Unsubscribe& m) {
    io(m.subscription_id, m.client_id);
  }
};

// -- Metrics scrape (client <-> aggregator, MQTT admin) -----------------------

/// stats_request: ask an aggregator for a point-in-time metrics snapshot.
/// Published on emon/metrics; the response arrives on the client's push
/// topic (emon/push/<client_id>).  `request_id` is echoed verbatim so a
/// client can match responses to in-flight scrapes.
struct StatsRequest {
  static constexpr auto kType = protocol::MsgType::kStatsRequest;
  static constexpr std::string_view kWireName = "stats_request";
  std::string client_id;
  std::uint64_t request_id = 0;

  friend bool operator==(const StatsRequest&, const StatsRequest&) = default;
  template <class IO>
  friend void fields(IO& io, StatsRequest& m) {
    io(m.client_id, m.request_id);
  }
};

/// One folded counter in a StatsResponse.
struct WireCounter {
  std::string name;
  std::uint64_t value = 0;

  friend bool operator==(const WireCounter&, const WireCounter&) = default;
  template <class IO>
  friend void fields(IO& io, WireCounter& m) {
    io(m.name);
    io.varint(m.value);
  }
};

/// One gauge in a StatsResponse.
struct WireGauge {
  std::string name;
  std::int64_t value = 0;

  friend bool operator==(const WireGauge&, const WireGauge&) = default;
  template <class IO>
  friend void fields(IO& io, WireGauge& m) {
    io(m.name);
    io.zigzag(m.value);
  }
};

/// One folded histogram in a StatsResponse (obs::HistogramSummary shape).
struct WireHistogram {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;

  friend bool operator==(const WireHistogram&, const WireHistogram&) = default;
  template <class IO>
  friend void fields(IO& io, WireHistogram& m) {
    io(m.name);
    io.varint(m.count, m.sum, m.min, m.max, m.p50, m.p95, m.p99);
  }
};

/// stats_response: the aggregator's MetricsSnapshot, instruments in sorted
/// name order (the snapshot's deterministic fold order).
struct StatsResponse {
  static constexpr auto kType = protocol::MsgType::kStatsResponse;
  static constexpr std::string_view kWireName = "stats_response";
  std::uint64_t request_id = 0;
  std::string aggregator_id;
  std::int64_t sim_now_ns = 0;
  std::vector<WireCounter> counters;
  std::vector<WireGauge> gauges;
  std::vector<WireHistogram> histograms;

  friend bool operator==(const StatsResponse&, const StatsResponse&) = default;
  template <class IO>
  friend void fields(IO& io, StatsResponse& m) {
    io(m.request_id, m.aggregator_id, m.sim_now_ns, m.counters, m.gauges,
       m.histograms);
  }
};

}  // namespace emon::core
