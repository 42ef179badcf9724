#include "core/records.hpp"

#include "util/bytes.hpp"

namespace emon::core {

const char* to_string(MembershipKind kind) noexcept {
  switch (kind) {
    case MembershipKind::kHome:
      return "home";
    case MembershipKind::kTemporary:
      return "temporary";
  }
  return "?";
}

template <class IO>
void fields(IO& io, ConsumptionRecord& r) {
  io(r.device_id, r.sequence, r.timestamp_ns, r.interval_ns, r.current_ma,
     r.bus_voltage_mv, r.energy_mwh, r.network);
  io.enumeration(r.membership, MembershipKind::kTemporary);
  io(r.stored_offline);
}
template void fields(util::FieldWriter&, ConsumptionRecord&);
template void fields(util::FieldReader&, ConsumptionRecord&);

chain::RecordBytes serialize_record(const ConsumptionRecord& r) {
  return util::to_bytes(r);
}

ConsumptionRecord deserialize_record(const chain::RecordBytes& bytes) {
  return util::from_bytes<ConsumptionRecord>(bytes);
}

std::vector<std::uint8_t> serialize_records(
    const std::vector<ConsumptionRecord>& records) {
  return util::to_bytes(records);
}

std::vector<ConsumptionRecord> deserialize_records(
    const std::vector<std::uint8_t>& bytes) {
  return util::from_bytes<std::vector<ConsumptionRecord>>(bytes);
}

}  // namespace emon::core
