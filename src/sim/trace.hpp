#pragma once
// Time-series trace recorder: a run's reproducibility fingerprint, and on
// request the repository's stand-in for the paper's Grafana dashboards.
//
// Components append (series, time, value) points.  Every append folds into
// digest(); the points themselves are kept only when the trace retains
// (constructor flag; the testbed sets it from TestbedOptions::retain_trace,
// default off).  Reading a series back (has/series/sum_in/mean_in, the CSV
// and JSON dumps) needs retention and throws std::logic_error without it.
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
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"
#include "util/contracts.hpp"

namespace emon::sim {

struct TracePoint {
  SimTime time;
  double value = 0.0;
};

/// An interned series of one Trace: the name's digest hash, and with
/// retention its slot in that trace's series table.  Valid only with the
/// Trace that issued it (a migrating component re-interns on adoption).
struct SeriesId {
  std::uint64_t hash = 0;
  std::uint32_t index = 0;
};

class Trace {
 public:
  /// `retain` keeps every point for the read API; without it the trace
  /// keeps only digest() and total_points().
  explicit Trace(bool retain = true) : retain_(retain) {}

  /// Interns `series`: with retention, creates it (empty) on first use.
  [[nodiscard]] SeriesId intern(std::string_view series);

  /// One point on an interned series.  Allocation-free without retention.
  void append(SeriesId series, SimTime t, double value) EMON_HOT;
  /// Interns `series` and appends — for cold paths only.
  void append(std::string_view series, SimTime t, double value);

  /// Replaces this trace's content with the union of `shards`' appends:
  /// digests and point counts add; with retention (which every shard must
  /// share) each series is the (time, shard index) merge of its shard
  /// parts.  Single-writer series are time-monotone per shard, so a series
  /// written by one shard is copied verbatim and same-instant points of a
  /// multi-writer series tie-break in shard order.
  void merge_shards(const std::vector<const Trace*>& shards);

  /// Points appended (retained or not).
  [[nodiscard]] std::size_t total_points() const noexcept { return points_; }
  /// The multiset digest defined in the header comment.
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

  // -- Reads: need retention (std::logic_error otherwise) ----------------------

  /// True when the series holds at least one point.
  [[nodiscard]] bool has(std::string_view series) const;
  /// Throws std::out_of_range for a series with no points.
  [[nodiscard]] const std::vector<TracePoint>& series(
      std::string_view name) const;
  /// Names of the series holding points, sorted.
  [[nodiscard]] std::vector<std::string> series_names() const;

  /// Sums values of a series within [from, to); 0 for an unknown series.
  [[nodiscard]] double sum_in(std::string_view series, SimTime from,
                              SimTime to) const;

  /// Means of a series within [from, to); returns 0 for empty windows.
  [[nodiscard]] double mean_in(std::string_view series, SimTime from,
                               SimTime to) const;

  /// Writes "time_s,series,value" rows for all series (long format): one
  /// row per point, series in sorted name order, points in append order
  /// within a series; time_s is sim time in seconds.
  void write_csv(std::ostream& out) const;

  void clear() noexcept;

 private:
  struct Series {
    std::string name;
    std::vector<TracePoint> points;
  };

  /// The retained half of append(), kept out of the EMON_HOT body.
  void keep(std::uint32_t index, SimTime t, double value);
  void require_retention() const;
  /// The retained series named `name`, or nullptr.
  [[nodiscard]] const Series* find(std::string_view name) const;
  /// Retained series holding points, in name order.
  [[nodiscard]] std::vector<const Series*> sorted_series() const;

  bool retain_;
  std::uint64_t digest_ = 0;
  std::size_t points_ = 0;
  // Retention only: the series table and its name index.
  std::vector<Series> series_;
  std::map<std::string, std::uint32_t, std::less<>> index_;
};

}  // namespace emon::sim
