#include "gen.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <thread>

#include "core/messages.hpp"
#include "core/protocol.hpp"
#include "util/rng.hpp"

namespace pb {

namespace {

using emon::core::ConsumptionRecord;
using emon::util::Rng;

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  emon::util::SplitMix64 sm{a ^ (b * 0x9e3779b97f4a7c15ULL) ^
                            (c * 0xc2b2ae3d27d4eb4fULL)};
  sm.next();
  return sm.next();
}

constexpr std::uint64_t kDeviceStream = ~0ULL;
/// Sequence numbers count from this many seconds before event-second 0, so
/// backlog records keep positive sequences.
constexpr std::int64_t kSeqOriginS = 64;

}  // namespace

Population::Population(PopulationSpec spec) : spec_(spec) {
  const std::size_t n = spec_.devices;
  ids_.reserve(n);
  network_names_.reserve(spec_.networks);
  for (std::size_t i = 0; i < spec_.networks; ++i) {
    network_names_.push_back("wan-" + std::to_string(i));
  }
  network_devices_.resize(spec_.networks);
  roams_.assign(n, 0);
  roam_phase_.assign(n, 0);
  visited_.assign(n, 0);
  offset_ns_.assign(n, 0);
  backlog_.assign(n, 0);
  // Exactly devices / kRoamerOneIn roamers, picked by a seeded shuffle.
  std::vector<std::size_t> order(n);
  for (std::size_t d = 0; d < n; ++d) {
    order[d] = d;
  }
  Rng pick{mix(spec_.seed, 0x70616d, 0)};
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        pick.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }
  for (std::size_t i = 0; i < n / kRoamerOneIn; ++i) {
    roams_[order[i]] = 1;
  }
  for (std::size_t d = 0; d < n; ++d) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "dev-%05zu", d);
    ids_.emplace_back(buf);
    network_devices_[home(d)].push_back(ids_.back());
    Rng rng{mix(spec_.seed, d, kDeviceStream)};
    offset_ns_[d] = rng.uniform_int(0, kRecordIntervalNs - 1);
    roam_phase_[d] =
        static_cast<std::uint32_t>(rng.uniform_int(0, kRoamPeriodS - 1));
    const auto hop = static_cast<std::size_t>(rng.uniform_int(
        1, std::max<std::int64_t>(1, static_cast<std::int64_t>(spec_.networks) - 1)));
    visited_[d] = static_cast<std::uint32_t>((home(d) + hop) % spec_.networks);
    backlog_[d] =
        static_cast<std::uint32_t>(rng.uniform_int(0, kBacklogMax - 1));
  }
  for (auto& list : network_devices_) {
    std::sort(list.begin(), list.end());
  }
}

bool Population::away(std::size_t d, std::int64_t s) const {
  if (roams_[d] == 0 || s < 0) {
    return false;
  }
  const auto pos = static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(s) + roam_phase_[d]) % kRoamPeriodS);
  return pos < kRoamAwayS;
}

std::vector<ConsumptionRecord> Population::records(std::size_t d,
                                                   std::int64_t s) const {
  Rng rng{mix(spec_.seed, d, static_cast<std::uint64_t>(s))};
  const bool is_away = away(d, s);
  const double level = 120.0 + 35.0 * static_cast<double>(d % 9);
  std::vector<ConsumptionRecord> out(kRecordsPerFrame);
  for (std::size_t k = 0; k < kRecordsPerFrame; ++k) {
    ConsumptionRecord& r = out[k];
    r.device_id = ids_[d];
    r.sequence = static_cast<std::uint64_t>(s + kSeqOriginS) * kRecordsPerFrame +
                 k + 1;
    r.timestamp_ns = kBaseNs + s * kSecondNs +
                     static_cast<std::int64_t>(k) * kRecordIntervalNs +
                     offset_ns_[d];
    r.interval_ns = kRecordIntervalNs;
    r.current_ma = level + rng.uniform(-8.0, 8.0);
    r.bus_voltage_mv = 5000.0 + rng.uniform(-12.0, 12.0);
    r.energy_mwh = r.current_ma * r.bus_voltage_mv * 1e-3 * (0.1 / 3600.0);
    r.network = network_names_[is_away ? visited_[d] : home(d)];
    r.membership = is_away ? emon::core::MembershipKind::kTemporary
                           : emon::core::MembershipKind::kHome;
    r.stored_offline = rng.bernoulli(kOfflineShare);
  }
  return out;
}

std::vector<ConsumptionRecord> Population::held_slice(std::size_t d,
                                                      std::int64_t s) const {
  std::vector<ConsumptionRecord> slice;
  for (std::int64_t back = kRoamAwayS; back >= 1; --back) {
    if (away(d, s - back)) {
      auto recs = records(d, s - back);
      slice.insert(slice.end(), recs.begin(), recs.end());
    }
  }
  return slice;
}

std::vector<ConsumptionRecord> Population::backlog(std::size_t d) const {
  std::vector<ConsumptionRecord> out;
  const std::uint32_t want = backlog_[d];
  const auto seconds = static_cast<std::int64_t>(
      (want + kRecordsPerFrame - 1) / kRecordsPerFrame);
  for (std::int64_t s = -seconds; s < 0; ++s) {
    auto recs = records(d, s);
    out.insert(out.end(), recs.begin(), recs.end());
  }
  out.erase(out.begin(), out.end() - want);
  return out;
}

template <class Emit>
void Population::device_frames(std::size_t d, std::int64_t s,
                               Emit&& emit) const {
  if (away(d, s)) {
    return;  // held until the device is home again
  }
  if (s == 0 && backlog_[d] > 0) {
    emit(backlog(d), false);
  }
  emit(records(d, s), false);
  if (away(d, s - 1)) {
    std::vector<ConsumptionRecord> slice = held_slice(d, s);
    if (!slice.empty()) {
      emit(std::move(slice), true);
    }
  }
}

std::vector<ConsumptionRecord> Population::sent_records(
    std::size_t d, std::int64_t seconds) const {
  std::vector<ConsumptionRecord> out;
  for (std::int64_t s = 0; s < seconds; ++s) {
    device_frames(d, s, [&](std::vector<ConsumptionRecord> recs, bool) {
      out.insert(out.end(), recs.begin(), recs.end());
    });
  }
  return out;
}

void Population::frames_for_second(std::int64_t s,
                                   std::vector<Frame>& out) const {
  std::vector<std::size_t> retransmit;
  for (std::size_t d = 0; d < ids_.size(); ++d) {
    bool reported = false;
    std::size_t regular = 0;  // the device's own report this second
    device_frames(d, s, [&](std::vector<ConsumptionRecord> recs, bool roamed) {
      if (!roamed) {
        reported = true;
        regular = out.size();
      }
      Frame f;
      f.device = static_cast<std::uint32_t>(d);
      f.records = static_cast<std::uint32_t>(recs.size());
      f.roamed_slice = roamed;
      f.max_ts_ns = INT64_MIN;
      for (const auto& r : recs) {
        f.max_ts_ns = std::max(f.max_ts_ns, r.timestamp_ns);
        f.offline_records += r.stored_offline ? 1 : 0;
      }
      emon::core::Report report;
      report.device_id = ids_[d];
      report.records = std::move(recs);
      f.bytes = emon::core::protocol::seal(report);
      out.push_back(std::move(f));
    });
    if (reported &&
        Rng{mix(spec_.seed, d, static_cast<std::uint64_t>(s) ^ 0xd0d0)}
            .bernoulli(kDupShare)) {
      retransmit.push_back(regular);
    }
  }
  for (const std::size_t i : retransmit) {
    Frame dup = out[i];
    dup.duplicate = true;
    out.push_back(std::move(dup));
  }
}

std::vector<Frame> generate(const Population& pop, std::int64_t first,
                            std::int64_t count) {
  std::vector<std::vector<Frame>> per_second(static_cast<std::size_t>(count));
  std::vector<std::thread> threads;
  for (std::int64_t t = 0; t < std::min(count, kEncoderThreads); ++t) {
    threads.emplace_back([&, t] {
      for (std::int64_t s = t; s < count; s += kEncoderThreads) {
        pop.frames_for_second(first + s,
                              per_second[static_cast<std::size_t>(s)]);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  std::vector<Frame> frames;
  for (auto& second : per_second) {
    std::move(second.begin(), second.end(), std::back_inserter(frames));
  }
  return frames;
}

void Tally::add(const Frame& f) {
  ++frames;
  records += f.records;
  if (f.duplicate) {
    ++duplicate_frames;
    return;  // a retransmit's records were counted with the original
  }
  unique_records += f.records;
  offline_records += f.offline_records;
  if (f.roamed_slice) {
    late_records += f.records;
    if (f.device >= sent_slice_.size()) {
      sent_slice_.resize(f.device + 1, false);
    }
    sent_slice_[f.device] = true;
  }
}

double Tally::roamer_share(std::size_t devices) const {
  const auto n = std::count(sent_slice_.begin(), sent_slice_.end(), true);
  return devices == 0 ? 0.0
                      : static_cast<double>(n) / static_cast<double>(devices);
}

void CloseIndex::add(std::int64_t max_ts_ns, std::int64_t time_ns) {
  const std::int64_t wm = max_ts_.empty() ? start_ : max_ts_.back();
  if (max_ts_ns > wm) {
    max_ts_.push_back(max_ts_ns);
    time_.push_back(time_ns);
  }
}

std::int64_t CloseIndex::first_reaching(std::int64_t close_ns) const {
  if (close_ns <= start_) {
    return npos;
  }
  const auto it = std::lower_bound(max_ts_.begin(), max_ts_.end(), close_ns);
  return it == max_ts_.end() ? npos : time_[static_cast<std::size_t>(
                                          it - max_ts_.begin())];
}

std::uint64_t digest(const std::vector<Frame>& frames) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Frame& f : frames) {
    for (const std::uint8_t b : f.bytes) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
    h ^= 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace pb
