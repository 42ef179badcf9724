#include "core/membership.hpp"

namespace emon::core {

std::optional<MemberEntry*> MembershipTable::add_home(const DeviceId& id,
                                                      std::size_t slot,
                                                      sim::SimTime now) {
  const auto [it, inserted] = members_.emplace(
      id,
      MemberEntry{id, MembershipKind::kHome, "", slot, now, "", 0, {}, {}});
  if (!inserted) {
    return std::nullopt;
  }
  return &it->second;
}

std::optional<MemberEntry*> MembershipTable::add_temporary(
    const DeviceId& id, const std::string& master_addr, std::size_t slot,
    sim::SimTime now) {
  const auto [it, inserted] = members_.emplace(
      id, MemberEntry{id, MembershipKind::kTemporary, master_addr, slot, now,
                      "", 0, {}, {}});
  if (!inserted) {
    return std::nullopt;
  }
  return &it->second;
}

std::optional<MemberEntry> MembershipTable::remove(const DeviceId& id) {
  const auto it = members_.find(id);
  if (it == members_.end()) {
    return std::nullopt;
  }
  MemberEntry entry = std::move(it->second);
  members_.erase(it);
  return entry;
}

const MemberEntry* MembershipTable::find(const DeviceId& id) const {
  const auto it = members_.find(id);
  return it == members_.end() ? nullptr : &it->second;
}

MemberEntry* MembershipTable::find(const DeviceId& id) {
  const auto it = members_.find(id);
  return it == members_.end() ? nullptr : &it->second;
}

std::vector<const MemberEntry*> MembershipTable::all() const {
  std::vector<const MemberEntry*> out;
  out.reserve(members_.size());
  for (const auto& [_, entry] : members_) {
    out.push_back(&entry);
  }
  return out;
}

std::vector<const MemberEntry*> MembershipTable::temporaries() const {
  std::vector<const MemberEntry*> out;
  for (const auto& [_, entry] : members_) {
    if (entry.kind == MembershipKind::kTemporary) {
      out.push_back(&entry);
    }
  }
  return out;
}

std::vector<DeviceId> MembershipTable::stale_temporaries(
    sim::SimTime cutoff) const {
  std::vector<DeviceId> out;
  for (const auto& [id, entry] : members_) {
    if (entry.kind == MembershipKind::kTemporary && entry.last_seen < cutoff) {
      out.push_back(id);
    }
  }
  return out;
}

}  // namespace emon::core
