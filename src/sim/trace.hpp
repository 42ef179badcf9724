#pragma once
// Time-series trace recorder: a run's reproducibility fingerprint.
//
// Components append (series, time, value) points.  Every append folds into
// digest(); no point is kept.  What a run accepted, verified and stored is
// read from the components themselves (the aggregators' stores, their
// verification history), never from the trace.
//
// Digest definition: the wrapping 64-bit sum, over every appended point, of
//
//     mix(mix(mix(fnv1a(name)) ^ mix(time_ns)) ^ bit_cast<u64>(value))
//
// where mix is the splitmix64 finalizer.  Each point's term depends only on
// the point, so the digest is a multiset fingerprint: it needs no retained
// point, and the digests of per-shard traces add up to the digest of one
// trace that saw every append.  The price is that the order of points that
// share (series, time) is invisible — two same-instant points of one series
// swapped leave the digest unchanged; everything else (a moved time, one
// flipped value bit, a point more or less) changes it.
//
// Hot append sites intern their series once, when they are bound, and
// append through the SeriesId; appending by name interns on every call and
// is for cold paths (fault marks, anomalous-window suspects).

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/time.hpp"
#include "util/contracts.hpp"

namespace emon::sim {

/// An interned series: the name's digest hash.
struct SeriesId {
  std::uint64_t hash = 0;
};

class Trace {
 public:
  [[nodiscard]] static SeriesId intern(std::string_view series) noexcept;

  /// One point on an interned series.  Allocation-free.
  void append(SeriesId series, SimTime t, double value) noexcept EMON_HOT;
  /// Interns `series` and appends — for cold paths only.
  void append(std::string_view series, SimTime t, double value) noexcept {
    append(intern(series), t, value);
  }

  /// Replaces this trace's content with the union of `shards`' appends:
  /// digests and point counts add.
  void merge_shards(const std::vector<const Trace*>& shards) noexcept;

  /// Points appended.
  [[nodiscard]] std::size_t total_points() const noexcept { return points_; }
  /// The multiset digest defined in the header comment.
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

  void clear() noexcept {
    digest_ = 0;
    points_ = 0;
  }

 private:
  std::uint64_t digest_ = 0;
  std::size_t points_ = 0;
};

}  // namespace emon::sim
