#include "sim/trace.hpp"

#include <bit>

namespace emon::sim {

namespace {

/// splitmix64's finalizer: a bijective, avalanching 64-bit mix.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

SeriesId Trace::intern(std::string_view series) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const char c : series) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return SeriesId{mix64(h)};
}

void Trace::append(SeriesId series, SimTime t, double value) noexcept {
  digest_ += mix64(mix64(series.hash ^ mix64(static_cast<std::uint64_t>(
                                           t.ns()))) ^
                   std::bit_cast<std::uint64_t>(value));
  ++points_;
}

void Trace::merge_shards(const std::vector<const Trace*>& shards) noexcept {
  clear();
  for (const Trace* shard : shards) {
    digest_ += shard->digest_;
    points_ += shard->points_;
  }
}

}  // namespace emon::sim
