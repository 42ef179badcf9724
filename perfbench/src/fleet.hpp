#pragma once
// Fleet-simulation pieces shared by the fleet_sim workload and the traced
// run.

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "store/rollup.hpp"

namespace pb {

inline constexpr std::size_t kFleetShards = 4;
/// Registration warm-up covered by set-up (the fleet is reporting after it).
inline constexpr emon::sim::Duration kFleetWarmup = emon::sim::seconds(15);
/// Simulated time per step of the measured phase.
inline constexpr emon::sim::Duration kFleetStep = emon::sim::milliseconds(500);
/// Simulated time during which every push is compared with a cold query.
inline constexpr emon::sim::Duration kFleetCheckSpan = emon::sim::seconds(4);

/// Builds metro_fleet(32, 10'000, seed) on `shards` shards, starts it and
/// runs the registration warm-up.
[[nodiscard]] std::unique_ptr<emon::core::Testbed> build_fleet(
    std::uint64_t seed, std::size_t shards);
/// Share of devices in the reporting state.
[[nodiscard]] double reporting_share(emon::core::Testbed& bed);
/// Records accepted by every aggregator so far.
[[nodiscard]] std::uint64_t records_accepted(emon::core::Testbed& bed);

/// A local push subscription on every aggregator, sharing the aggregator's
/// billing-preview roll-up.  While recording it keeps, per push, the sim
/// time from the window's newest record to the push; while checking it
/// compares each pushed window with a cold query of the aggregator's store.
/// Toggle only between run_for() calls (the shard threads are parked).
class PushProbe {
 public:
  /// The testbed must outlive the probe.
  explicit PushProbe(emon::core::Testbed& bed);
  /// Unsubscribes (call between run_for() calls).
  ~PushProbe();
  PushProbe(const PushProbe&) = delete;
  PushProbe& operator=(const PushProbe&) = delete;

  void record(bool on) { recording_.store(on); }
  void check(bool on) { checking_.store(on); }
  [[nodiscard]] std::vector<double> delays_ms() const;
  [[nodiscard]] std::uint64_t checked() const;
  [[nodiscard]] std::uint64_t failed() const;
  /// Late drops and pane patches of the shared roll-up, over every
  /// aggregator.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> rollup_totals() const;

 private:
  emon::store::RollupSpec spec_;
  std::vector<emon::core::Aggregator*> aggs_;
  std::vector<std::uint64_t> handles_;
  // One slot per aggregator: each is written only by that aggregator's
  // shard thread.
  std::vector<std::vector<double>> delays_;
  std::vector<std::uint64_t> checked_;
  std::vector<std::uint64_t> failed_;
  std::atomic<bool> recording_{false};
  std::atomic<bool> checking_{false};
};

}  // namespace pb
