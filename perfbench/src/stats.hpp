#pragma once
// Measurement helpers shared by every workload: raw-sample percentiles,
// the wall clock, peak RSS, the host-speed probe and the result record a
// run prints.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since an arbitrary process epoch.
[[nodiscard]] std::int64_t now_ns();

/// Nearest-rank percentile of raw samples: the value at rank ceil(p * n)
/// of the sorted samples (rank 1 = smallest).  `p` is a fraction in (0, 1].
/// Sorts `samples` in place.  Throws std::invalid_argument on an empty
/// sample set.
[[nodiscard]] double percentile(std::vector<double>& samples, double p);

/// Samples ranked strictly above the nearest-rank percentile p of n.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// True when a percentile p over n samples has at least `min_beyond`
/// samples beyond it — the rule a reported tail must meet.
[[nodiscard]] bool percentile_supported(std::size_t n, double p,
                                        std::size_t min_beyond = 10);

/// Peak resident set size of this process in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Host-speed probe: iterations of a fixed integer loop per millisecond,
/// the median of five 20 ms slices.  Recorded beside a run to explain
/// noise; it never normalizes a metric.
[[nodiscard]] double host_probe();

/// CPU time the hypervisor stole from this machine so far, in seconds
/// summed over CPUs (/proc/stat); 0 where unavailable.  Recorded beside a
/// run to explain noise.
[[nodiscard]] double steal_seconds();

/// One run's result: metrics by name with units, plus operation accounting
/// and the correctness checks that ran.
class RunResult {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a named correctness check; a false `ok` fails the run.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t n = 1) { failed_ += n; }
  /// Environment facts printed in the stamp line (not metrics).
  void note(const std::string& key, const std::string& value);
  void note(const std::string& key, double value);

  [[nodiscard]] bool correct() const noexcept { return checks_failed_ == 0; }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

  /// The stamp line: one JSON object of the notes and check outcomes.
  [[nodiscard]] std::string stamp_json() const;
  /// The result line: {"correct","attempted","failed","metrics"}.
  [[nodiscard]] std::string result_json() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::pair<std::string, bool>> checks_;
  std::uint64_t checks_failed_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// JSON string literal with escapes.
[[nodiscard]] std::string json_str(const std::string& s);
/// Shortest round-tripping decimal form of a double (all its digits).
[[nodiscard]] std::string json_num(double v);

}  // namespace pb
