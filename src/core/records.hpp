#pragma once
// Consumption records — the unit of metering data.
//
// One record is one T_measure interval of one device: average current, bus
// voltage, integrated energy and provenance (which grid-location it was
// consumed at, and under which membership).  Records serialize to the
// canonical byte form stored in blocks and carried in MQTT/backhaul
// payloads.

#include <cstdint>
#include <string>
#include <vector>

#include "chain/block.hpp"
#include "util/units.hpp"

namespace emon::core {

using DeviceId = std::string;
using NetworkId = std::string;

/// Membership under which a record was reported.
enum class MembershipKind : std::uint8_t {
  kHome = 0,
  kTemporary = 1,
};

[[nodiscard]] const char* to_string(MembershipKind kind) noexcept;

struct ConsumptionRecord {
  DeviceId device_id;
  /// Monotone per-device sequence number (detects loss/duplication).
  std::uint64_t sequence = 0;
  /// Device-local timestamp at the end of the measurement interval (ns).
  std::int64_t timestamp_ns = 0;
  /// Measurement interval covered by this record (ns).
  std::int64_t interval_ns = 0;
  /// Average current over the interval, mA (the paper's reporting unit).
  double current_ma = 0.0;
  /// Bus voltage at the device input, mV.
  double bus_voltage_mv = 0.0;
  /// Energy consumed in this interval, mWh.
  double energy_mwh = 0.0;
  /// Grid-location where the energy was drawn.
  NetworkId network;
  /// Membership the device held when reporting.
  MembershipKind membership = MembershipKind::kHome;
  /// True if the record was buffered offline and flushed later.
  bool stored_offline = false;

  friend bool operator==(const ConsumptionRecord&,
                         const ConsumptionRecord&) = default;
};

/// Fixed-field wire size of `serialize_record` output (both strings empty):
/// 2 length prefixes + u64 + 2*i64 + 3*f64 + 2*u8.  The per-record cost of
/// uncompressed buffering.
inline constexpr std::size_t kRecordWireFixedBytes = 58;

/// The record's canonical layout (records.cpp), run by util::FieldWriter
/// and util::FieldReader.
template <class IO>
void fields(IO& io, ConsumptionRecord& r);

/// Canonical serialization (the byte form committed into blocks).
[[nodiscard]] chain::RecordBytes serialize_record(const ConsumptionRecord& r);

/// Parses `serialize_record` output; throws util::DecodeError on corruption.
[[nodiscard]] ConsumptionRecord deserialize_record(
    const chain::RecordBytes& bytes);

/// Serializes a batch (count-prefixed concatenation).
[[nodiscard]] std::vector<std::uint8_t> serialize_records(
    const std::vector<ConsumptionRecord>& records);
[[nodiscard]] std::vector<ConsumptionRecord> deserialize_records(
    const std::vector<std::uint8_t>& bytes);

}  // namespace emon::core
