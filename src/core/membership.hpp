#pragma once
// Aggregator-side membership table (Figure 3 state).
//
// Home members register once ("a stationary device undergoes a single
// registration process in its lifetime"); roaming devices get temporary
// memberships that carry their master address so collected data can be
// routed home.  The home aggregator also tracks which of its members are
// currently away and through which host ("the home network retains the
// membership of the device at all times", §II-C).

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/records.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace emon::core {

struct MemberEntry {
  DeviceId device_id;
  MembershipKind kind = MembershipKind::kHome;
  /// For temporary members: the device's home aggregator address.
  std::string master_addr;
  /// TDMA slot granted to the member.
  std::size_t slot = 0;
  /// Last time a report was accepted from this member.
  sim::SimTime last_seen{};
  /// For home members currently roaming: the aggregator hosting them
  /// (empty when at home).
  std::string roaming_host;
  /// Highest sequence the store accepted from this member (sent in Acks);
  /// the aggregator's Tsdb ingest verdict is its only dedup.
  std::uint64_t last_sequence = 0;
  /// The member's reported.<agg>.<id> and arrival.<agg>.<id> trace series
  /// (digest keys only: the trace keeps no points), interned by the
  /// aggregator when it adds the member.
  sim::SeriesId reported_series;
  sim::SeriesId arrival_series;
};

class MembershipTable {
 public:
  /// Adds a home member.  Fails (nullopt) if already present.
  std::optional<MemberEntry*> add_home(const DeviceId& id, std::size_t slot,
                                       sim::SimTime now);

  /// Adds a temporary member with its master address.
  std::optional<MemberEntry*> add_temporary(const DeviceId& id,
                                            const std::string& master_addr,
                                            std::size_t slot, sim::SimTime now);

  /// Removes a member of any kind.  Returns the removed entry.
  std::optional<MemberEntry> remove(const DeviceId& id);

  [[nodiscard]] const MemberEntry* find(const DeviceId& id) const;
  [[nodiscard]] MemberEntry* find(const DeviceId& id);
  [[nodiscard]] bool has(const DeviceId& id) const { return find(id) != nullptr; }

  [[nodiscard]] std::size_t size() const noexcept { return members_.size(); }
  [[nodiscard]] std::vector<const MemberEntry*> all() const;
  [[nodiscard]] std::vector<const MemberEntry*> temporaries() const;

  /// Temporary members with last_seen older than `cutoff` (expiry sweep).
  [[nodiscard]] std::vector<DeviceId> stale_temporaries(
      sim::SimTime cutoff) const;

 private:
  std::map<DeviceId, MemberEntry> members_;
};

}  // namespace emon::core
