#pragma once
// The wired testbed: takes a declarative ScenarioSpec (core/fleet.hpp) and
// constructs the whole deployment — kernels, radio media, per-WAN
// distribution grids, aggregators (broker + feeder meter + chain writer +
// backhaul node) and devices (SoC + sensors + firmware) at their home
// networks — then runs it.
//
// Wiring is registry-based: device->aggregator broker resolution and
// device->grid resolution are O(1) hash lookups however many networks the
// scenario declares.  start() additionally materializes the spec's
// generated churn plans and scripted fault injections onto the kernels.
//
// Sharded execution (TestbedOptions::shards > 1): networks are grouped
// into *radio islands* — connected components of the worst-case AP
// audibility/ambiguity graph, fused across scripted AP outages — and
// islands are packed into at most `shards` contiguous shards.  Each shard
// owns a Kernel, a WifiMedium, a Trace and a Backhaul segment, and runs on
// its own thread under the conservative-lookahead ShardedKernel; the
// lookahead is the minimum backhaul link latency.  Cross-shard traffic:
//   * aggregator frames hop shards through the BackhaulFabric mailboxes,
//   * chain blocks commit through the PermissionedChain's deferred
//     submit/collect, in (submit time, writer rank) order,
//   * roaming devices whose churn plan crosses a shard boundary migrate —
//     detach_for_migration() at departure, adopt() at arrival (transit
//     must exceed the firmware's longest in-flight continuation, checked
//     at start()).
// With shards=1 (the default) every path above degenerates to the
// sequential kernel (one queue, no threads, no mailboxes); shards=N runs
// reproduce the shards=1 Trace::digest() of the same revision: every
// trace point is appended on exactly one shard, and the digest is a sum
// over points (sim/trace.hpp), so the shard digests add up to the
// sequential one whatever the interleaving.  (Note:
// chain commits are deferred by chain_commit_latency in *both* modes, a
// deliberate behavioural change from pre-sharding revisions.)
//
// This is the entry point examples, benches and integration tests use.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "chain/permissioned.hpp"
#include "core/aggregator.hpp"
#include "core/device_app.hpp"
#include "core/fleet.hpp"
#include "core/mobility.hpp"
#include "grid/distribution.hpp"
#include "net/backhaul.hpp"
#include "net/wifi.hpp"
#include "sim/kernel.hpp"
#include "sim/sharded_kernel.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace emon::core {

struct TestbedOptions {
  /// Upper bound on worker shards; the effective count is capped by the
  /// number of radio islands the scenario decomposes into.
  std::size_t shards = 1;
};

/// The fully wired testbed.  Owns everything; movable only via unique_ptr.
class Testbed {
 public:
  explicit Testbed(ScenarioSpec spec, TestbedOptions options = {});

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// Starts aggregators, plugs every device into its home network
  /// (staggered by the spec's plug_stagger so registrations don't run in
  /// lockstep), schedules the generated churn plans and the scripted
  /// fault injections.
  void start();

  /// Advances simulated time by `d` (across every shard).
  void run_for(sim::Duration d);

  // -- Accessors ---------------------------------------------------------------
  /// Shard 0's kernel — *the* kernel when shards == 1.
  [[nodiscard]] sim::Kernel& kernel() noexcept { return engine_.shard(0); }
  [[nodiscard]] sim::ShardedKernel& engine() noexcept { return engine_; }
  /// The run's trace.  With shards > 1 this is the merge of the per-shard
  /// traces (rebuilt lazily after each run_for): summed digests and point
  /// counts; treat it as read-only.
  [[nodiscard]] sim::Trace& trace();
  [[nodiscard]] const util::SeedSequence& seeds() const noexcept {
    return seeds_;
  }
  [[nodiscard]] chain::PermissionedChain& chain() noexcept { return chain_; }
  /// Shard 0's backhaul segment (the whole mesh when shards == 1; fabric
  /// APIs — nodes, routing, node_up — work from any segment).
  [[nodiscard]] net::Backhaul& backhaul() noexcept { return *segments_[0]; }
  [[nodiscard]] net::WifiMedium& medium() noexcept { return *mediums_[0]; }

  [[nodiscard]] std::size_t network_count() const noexcept {
    return grids_.size();
  }
  [[nodiscard]] std::size_t device_count() const noexcept {
    return devices_.size();
  }
  /// Effective shard count (<= TestbedOptions::shards; 1 when the radio
  /// graph is one island).
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return engine_.shard_count();
  }
  [[nodiscard]] std::size_t shard_of_network(std::size_t n) const {
    return network_shard_.at(n);
  }
  /// Kernel events executed across all shards.
  [[nodiscard]] std::uint64_t executed_events() const noexcept {
    return engine_.total_executed();
  }

  [[nodiscard]] NetworkId network_name(std::size_t i) const;
  [[nodiscard]] net::Position network_position(std::size_t i) const;
  /// Physical socket position of the `ordinal`-th device of a network
  /// (a 16-wide grid around the AP, so big populations stay clustered).
  [[nodiscard]] net::Position device_position(std::size_t network,
                                              std::size_t ordinal) const;
  [[nodiscard]] grid::DistributionNetwork& grid_of(std::size_t i);
  [[nodiscard]] Aggregator& aggregator(std::size_t i);
  [[nodiscard]] DeviceApp& device(std::size_t global_index);
  /// Home network index of a device by global index.
  [[nodiscard]] std::size_t home_of(std::size_t global_index) const;
  /// Load archetype the device was populated with.
  [[nodiscard]] LoadArchetype archetype_of(std::size_t global_index) const;

  [[nodiscard]] const ScenarioSpec& spec() const noexcept { return spec_; }

  /// Determinism audit aid: rehashes every unordered registry in the
  /// testbed (wiring registries, churn table, per-shard fault maps) to a
  /// different bucket count, scrambling their iteration order while leaving
  /// point lookups untouched.  Because nothing iterates these containers
  /// (see the audit note below), a run's Trace::digest() must be identical
  /// with or without any perturbation — tests/test_fleet.cpp
  /// FleetDeterminism.HashOrderIndependence pins that.  Call between
  /// run_for() calls only (the shard threads must be parked).
  void perturb_hash_order(std::size_t extra_buckets);

 private:
  /// Per-shard fault bookkeeping (only ever touched from its own shard).
  struct ShardFaultState {
    std::unordered_map<std::string, net::AccessPoint> downed_aps;
    std::unordered_map<std::string, int> active_outages;
    std::unordered_map<std::string, int> active_partitions;
  };

  /// Maps every network to a shard: connected components of the radio
  /// coupling graph, packed contiguously into at most `requested` shards
  /// balanced by device count.
  static std::vector<std::size_t> assign_network_shards(
      const ScenarioSpec& spec, std::size_t requested);
  static std::size_t shard_count_of(const std::vector<std::size_t>& assign);
  [[nodiscard]] sim::Duration lookahead() const;

  void schedule_churn();
  void schedule_fault(const FaultSpec& fault);
  /// Network a (possibly roaming) device sits at, at time `t`.
  [[nodiscard]] std::size_t network_of_device_at(std::size_t device,
                                                 sim::SimTime t) const;
  /// Longest delay any firmware continuation can still be pending after an
  /// unplug — cross-shard transits must exceed it (plus the lookahead).
  [[nodiscard]] sim::Duration max_straggler_horizon() const;
  void rebuild_merged_trace();

  ScenarioSpec spec_;
  std::vector<std::size_t> network_shard_;
  sim::ShardedKernel engine_;
  util::SeedSequence seeds_;
  std::vector<std::unique_ptr<sim::Trace>> traces_;
  sim::Trace merged_trace_;
  bool merged_dirty_ = true;
  std::vector<std::unique_ptr<net::WifiMedium>> mediums_;
  std::shared_ptr<net::BackhaulFabric> fabric_;
  std::vector<std::unique_ptr<net::Backhaul>> segments_;
  chain::PermissionedChain chain_;
  std::vector<std::unique_ptr<grid::DistributionNetwork>> grids_;
  std::vector<std::unique_ptr<Aggregator>> aggregators_;
  std::vector<std::unique_ptr<DeviceApp>> devices_;
  std::vector<std::size_t> device_home_;
  std::vector<LoadArchetype> device_archetype_;
  std::vector<std::size_t> device_ordinal_;  // index within home network
  // O(1) wiring registries (devices resolve through these on every
  // connect/report instead of scanning all networks).  Read-only once
  // construction finishes, so shard threads share them safely.
  //
  // Determinism audit (emon_lint unordered-iter-escape): every unordered
  // container in this class — these two registries, device_moves_, and the
  // three ShardFaultState maps above — is accessed exclusively by point
  // lookup (find/emplace/operator[]/erase-by-iterator).  Nothing ever
  // range-fors over them, so hash order cannot leak into the Trace; the
  // FleetHashOrderIndependence test pins this by perturbing bucket counts.
  // If you add an iteration over any of them, sort the view first or
  // annotate the function EMON_ORDER_INSENSITIVE with a justification.
  std::unordered_map<std::string, net::MqttBroker*> brokers_by_host_;
  std::unordered_map<NetworkId, grid::DistributionNetwork*> grids_by_name_;
  std::vector<std::unique_ptr<ShardFaultState>> fault_state_;
  // Overlapping tamper windows per device, global across shards: a burst
  // can start while its target sits on one shard and end on another, so
  // the counter cannot live in per-shard state.  Cross-shard accesses are
  // serialized by the horizon protocol (validated at start(): per-device
  // tamper events on different shards must be > lookahead apart).
  std::vector<int> active_tampers_;
  // Where each roaming device is over time: (from `at` on, at network n).
  // Built with the churn plans; resolves fault targets and migrations.
  std::unordered_map<std::size_t,
                     std::vector<std::pair<sim::SimTime, std::size_t>>>
      device_moves_;
  bool started_ = false;
};

}  // namespace emon::core
