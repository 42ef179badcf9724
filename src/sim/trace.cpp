#include "sim/trace.hpp"

#include <bit>
#include <stdexcept>

namespace emon::sim {

namespace {

/// splitmix64's finalizer: a bijective, avalanching 64-bit mix.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t name_hash(std::string_view name) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const char c : name) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return mix64(h);
}

}  // namespace

SeriesId Trace::intern(std::string_view series) {
  SeriesId id{name_hash(series), 0};
  if (!retain_) {
    return id;
  }
  const auto it = index_.find(series);
  if (it != index_.end()) {
    id.index = it->second;
    return id;
  }
  id.index = static_cast<std::uint32_t>(series_.size());
  series_.push_back(Series{std::string(series), {}});
  index_.emplace(std::string(series), id.index);
  return id;
}

void Trace::append(SeriesId series, SimTime t, double value) {
  digest_ += mix64(mix64(series.hash ^ mix64(static_cast<std::uint64_t>(
                                           t.ns()))) ^
                   std::bit_cast<std::uint64_t>(value));
  ++points_;
  if (retain_) {
    keep(series.index, t, value);
  }
}

void Trace::append(std::string_view series, SimTime t, double value) {
  append(intern(series), t, value);
}

void Trace::keep(std::uint32_t index, SimTime t, double value) {
  series_[index].points.push_back(TracePoint{t, value});
}

void Trace::merge_shards(const std::vector<const Trace*>& shards) {
  clear();
  for (const Trace* shard : shards) {
    digest_ += shard->digest_;
    points_ += shard->points_;
  }
  if (!retain_) {
    return;
  }
  std::map<std::string_view, std::vector<const std::vector<TracePoint>*>>
      parts;
  for (const Trace* shard : shards) {
    for (const Series* s : shard->sorted_series()) {
      parts[s->name].push_back(&s->points);
    }
  }
  for (const auto& [name, lists] : parts) {
    std::vector<TracePoint>& merged = series_[intern(name).index].points;
    if (lists.size() == 1) {
      merged = *lists[0];
      continue;
    }
    std::vector<std::size_t> cursor(lists.size(), 0);
    std::size_t remaining = 0;
    for (const auto* list : lists) {
      remaining += list->size();
    }
    merged.reserve(remaining);
    for (; remaining > 0; --remaining) {
      std::size_t best = lists.size();
      for (std::size_t p = 0; p < lists.size(); ++p) {
        if (cursor[p] >= lists[p]->size()) {
          continue;
        }
        if (best == lists.size() ||
            (*lists[p])[cursor[p]].time < (*lists[best])[cursor[best]].time) {
          best = p;  // ties keep the lowest shard index
        }
      }
      merged.push_back((*lists[best])[cursor[best]++]);
    }
  }
}

void Trace::require_retention() const {
  if (!retain_) {
    throw std::logic_error(
        "trace series reads need retention (TestbedOptions::retain_trace); "
        "this trace keeps only its digest");
  }
}

const Trace::Series* Trace::find(std::string_view name) const {
  require_retention();
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &series_[it->second];
}

std::vector<const Trace::Series*> Trace::sorted_series() const {
  require_retention();
  std::vector<const Series*> out;
  out.reserve(index_.size());
  for (const auto& [name, index] : index_) {
    if (!series_[index].points.empty()) {
      out.push_back(&series_[index]);
    }
  }
  return out;
}

bool Trace::has(std::string_view series) const {
  const Series* s = find(series);
  return s != nullptr && !s->points.empty();
}

const std::vector<TracePoint>& Trace::series(std::string_view name) const {
  const Series* s = find(name);
  if (s == nullptr || s->points.empty()) {
    throw std::out_of_range("no trace series named '" + std::string(name) +
                            "'");
  }
  return s->points;
}

std::vector<std::string> Trace::series_names() const {
  std::vector<std::string> names;
  for (const Series* s : sorted_series()) {
    names.push_back(s->name);
  }
  return names;
}

double Trace::sum_in(std::string_view name, SimTime from, SimTime to) const {
  const Series* s = find(name);
  if (s == nullptr) {
    return 0.0;
  }
  double sum = 0.0;
  for (const auto& p : s->points) {
    if (p.time >= from && p.time < to) {
      sum += p.value;
    }
  }
  return sum;
}

double Trace::mean_in(std::string_view name, SimTime from, SimTime to) const {
  const Series* s = find(name);
  if (s == nullptr) {
    return 0.0;
  }
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& p : s->points) {
    if (p.time >= from && p.time < to) {
      sum += p.value;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

void Trace::write_csv(std::ostream& out) const {
  const auto all = sorted_series();
  out << "time_s,series,value\n";
  for (const Series* s : all) {
    for (const auto& p : s->points) {
      out << p.time.to_seconds() << ',' << s->name << ',' << p.value << '\n';
    }
  }
}

void Trace::clear() noexcept {
  series_.clear();
  index_.clear();
  digest_ = 0;
  points_ = 0;
}

}  // namespace emon::sim
