// Sharded scenario execution: digest parity between sequential (shards=1)
// and parallel (shards=N) runs, radio-island shard assignment, cross-shard
// frame routing under partitions, and cross-shard device migration.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "util/log.hpp"

namespace emon::core {
namespace {

using sim::seconds;

struct RunResult {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t blocks = 0;
  /// The shared chain's tip: commits the blocks' records, order and writers.
  std::string tip_hash;
  std::size_t shards = 0;
  /// Per aggregator, in network order.  The trace digest sees only each
  /// window's residual, reported sum, verdict and suspect; this compares
  /// every field.
  std::vector<std::vector<VerificationResult>> verification;
};

RunResult run(ScenarioSpec spec, std::size_t shards, double duration_s) {
  util::LogConfig::set_level(util::LogLevel::kError);
  Testbed bed{std::move(spec), TestbedOptions{shards}};
  bed.start();
  bed.run_for(sim::seconds_f(duration_s));
  RunResult result;
  result.digest = bed.trace().digest();
  result.events = bed.executed_events();
  result.blocks = bed.chain().ledger().size();
  result.tip_hash = chain::to_hex(bed.chain().ledger().tip_hash());
  result.shards = bed.shard_count();
  for (std::size_t n = 0; n < bed.network_count(); ++n) {
    result.verification.push_back(bed.aggregator(n).verification_history());
  }
  return result;
}

void expect_verification_parity(const RunResult& seq, const RunResult& par,
                                const std::string& name) {
  ASSERT_EQ(seq.verification.size(), par.verification.size()) << name;
  for (std::size_t n = 0; n < seq.verification.size(); ++n) {
    const auto& s = seq.verification[n];
    const auto& p = par.verification[n];
    EXPECT_FALSE(s.empty()) << name << " network " << n;
    ASSERT_EQ(s.size(), p.size()) << name << " network " << n;
    for (std::size_t w = 0; w < s.size(); ++w) {
      SCOPED_TRACE(name + " network " + std::to_string(n) + " window " +
                   std::to_string(w));
      EXPECT_EQ(s[w].window_start, p[w].window_start);
      EXPECT_EQ(s[w].window_end, p[w].window_end);
      EXPECT_EQ(s[w].feeder_ma, p[w].feeder_ma);
      EXPECT_EQ(s[w].reported_sum_ma, p[w].reported_sum_ma);
      EXPECT_EQ(s[w].expected_feeder_ma, p[w].expected_feeder_ma);
      EXPECT_EQ(s[w].residual_ma, p[w].residual_ma);
      EXPECT_EQ(s[w].anomalous, p[w].anomalous);
      EXPECT_EQ(s[w].suspect, p[w].suspect);
      EXPECT_EQ(s[w].scores, p[w].scores);
    }
  }
}

void expect_parity(const std::string& name, std::uint64_t seed,
                   double duration_s) {
  const RunResult seq = run(canned_scenario(name, seed), 1, duration_s);
  const RunResult par = run(canned_scenario(name, seed), 4, duration_s);
  EXPECT_EQ(seq.digest, par.digest) << name;
  EXPECT_EQ(seq.events, par.events) << name;
  EXPECT_EQ(seq.blocks, par.blocks) << name;
  EXPECT_EQ(seq.tip_hash, par.tip_hash) << name;
  expect_verification_parity(seq, par, name);
}

// ---------------------------------------------------------------------------
// Digest parity: every canned scenario, shards=1 vs shards=4
// ---------------------------------------------------------------------------

TEST(ShardParity, PaperFigure4) { expect_parity("paper_figure4", 42, 25.0); }

TEST(ShardParity, CampusRoaming) { expect_parity("campus_roaming", 7, 45.0); }

TEST(ShardParity, BlackoutDrill) { expect_parity("blackout_drill", 5, 65.0); }

TEST(ShardParity, FlashCrowd) { expect_parity("flash_crowd", 3, 10.0); }

TEST(ShardParity, MetroFleetReduced) {
  // The benchmark shape at test scale: 8 radio-isolated WANs, 200 devices,
  // light churn whose random destinations cross shard boundaries.  25 s
  // covers the first departures (12 s) and arrivals (+6 s transit).
  const RunResult seq = run(metro_fleet(8, 200, 1), 1, 25.0);
  const RunResult par = run(metro_fleet(8, 200, 1), 4, 25.0);
  EXPECT_EQ(par.shards, 4u);
  EXPECT_EQ(seq.digest, par.digest);
  EXPECT_EQ(seq.events, par.events);
  EXPECT_EQ(seq.blocks, par.blocks);
  EXPECT_EQ(seq.tip_hash, par.tip_hash);
  expect_verification_parity(seq, par, "metro_fleet");
}

// ---------------------------------------------------------------------------
// Shard assignment: radio islands
// ---------------------------------------------------------------------------

TEST(ShardAssignment, RadioCoupledNetworksStayTogether) {
  // 150 m spacing: a far-corner device can plausibly prefer the neighbour
  // AP, so the networks are one island and the effective count is 1.
  Testbed bed{campus_roaming(7), TestbedOptions{4}};
  EXPECT_EQ(bed.shard_count(), 1u);
}

TEST(ShardAssignment, IsolatedNetworksSplitContiguously) {
  Testbed bed{metro_fleet(8, 64, 1), TestbedOptions{4}};
  EXPECT_EQ(bed.shard_count(), 4u);
  // Contiguous, monotone assignment: shard order == network order.
  std::size_t prev = 0;
  for (std::size_t n = 0; n < bed.network_count(); ++n) {
    const std::size_t s = bed.shard_of_network(n);
    EXPECT_GE(s, prev);
    EXPECT_LE(s, prev + 1);
    prev = s;
  }
  EXPECT_EQ(bed.shard_of_network(bed.network_count() - 1), 3u);
}

TEST(ShardAssignment, OneShardPerIslandWhenRequested) {
  // Regression: requesting exactly as many shards as there are islands
  // used to collapse everything into shard 0 (packing off-by-one).
  Testbed bed{metro_fleet(8, 64, 1), TestbedOptions{8}};
  EXPECT_EQ(bed.shard_count(), 8u);
  for (std::size_t n = 0; n < bed.network_count(); ++n) {
    EXPECT_EQ(bed.shard_of_network(n), n);
  }
  // Requests beyond the island count cap at the island count.
  Testbed more{metro_fleet(8, 64, 1), TestbedOptions{32}};
  EXPECT_EQ(more.shard_count(), 8u);
}

TEST(ShardAssignment, OutOfRangeFaultRejectedBeforePartitioning) {
  // Shard assignment runs in the member-init list, before the constructor
  // body validates faults; an out-of-range outage target must still end
  // in the clean invalid_argument, not an out-of-bounds access.
  ScenarioSpec spec = FleetBuilder{}
                          .name("bad_fault")
                          .networks(4, 2)
                          .spacing_m(400.0)
                          .ap_outage(999, sim::SimTime{seconds(5).ns()},
                                     seconds(5))
                          .seed(3)
                          .spec();
  EXPECT_THROW((Testbed{std::move(spec), TestbedOptions{4}}),
               std::invalid_argument);
}

TEST(ShardAssignment, OutageFaultFusesNeighbours) {
  // Same isolated spacing, but an AP outage makes audible neighbours
  // legitimate failover targets — at 400 m nothing is audible, so the
  // count still splits; at 200 m the outage fuses the pair.
  ScenarioSpec spec = FleetBuilder{}
                          .name("outage_fuse")
                          .networks(4, 2)
                          .spacing_m(200.0)
                          .ap_outage(1, sim::SimTime{seconds(5).ns()},
                                     seconds(5))
                          .seed(9)
                          .spec();
  Testbed bed{std::move(spec), TestbedOptions{4}};
  EXPECT_EQ(bed.shard_of_network(0), bed.shard_of_network(1))
      << "outage target and its audible neighbour must co-shard";
}

// ---------------------------------------------------------------------------
// Cross-shard behaviour: partition window spanning a shard boundary
// ---------------------------------------------------------------------------

ScenarioSpec partitioned_isolated(std::uint64_t seed) {
  ChurnSpec churn;
  churn.roamer_fraction = 0.3;
  churn.trips_per_roamer = 2;
  churn.first_departure = seconds(8);
  churn.dwell_min = seconds(6);
  churn.dwell_max = seconds(12);
  churn.transit = seconds(6);
  return FleetBuilder{}
      .name("partitioned_isolated")
      .networks(8, 6)
      .spacing_m(400.0)  // radio-isolated: 4-way shardable
      .churn(churn)
      .backhaul_partition(3, sim::SimTime{seconds(12).ns()}, seconds(10))
      .tamper_burst(10, sim::SimTime{seconds(9).ns()}, seconds(8), 0.4)
      .seed(seed)
      .spec();
}

TEST(ShardParity, PartitionAcrossShardBoundary) {
  // wan-4 sits mid-fleet, so during [12 s, 22 s) every frame from other
  // shards toward agg-4 (temporary-registration verifies, roam forwards,
  // block broadcasts) must be refused identically in both modes.
  const RunResult seq = run(partitioned_isolated(11), 1, 40.0);
  const RunResult par = run(partitioned_isolated(11), 4, 40.0);
  EXPECT_EQ(par.shards, 4u);
  EXPECT_EQ(seq.digest, par.digest);
  EXPECT_EQ(seq.events, par.events);
  EXPECT_EQ(seq.blocks, par.blocks);
  EXPECT_EQ(seq.tip_hash, par.tip_hash);
  EXPECT_GT(seq.blocks, 0u);  // the run commits blocks across shards
}

TEST(ShardFaults, PartitionWindowDropsAndRestores) {
  Testbed bed{partitioned_isolated(11), TestbedOptions{4}};
  bed.start();
  bed.run_for(seconds(14));  // inside the window
  EXPECT_FALSE(bed.backhaul().node_up("agg-4"));
  EXPECT_FALSE(bed.backhaul().route("agg-1", "agg-4").has_value());
  bed.run_for(seconds(11));  // past 22 s: restored
  EXPECT_TRUE(bed.backhaul().node_up("agg-4"));
  EXPECT_TRUE(bed.backhaul().route("agg-1", "agg-4").has_value());
}

// ---------------------------------------------------------------------------
// Cross-shard migration: roamers keep working after changing threads
// ---------------------------------------------------------------------------

TEST(ShardMigration, RoamersReportFromForeignShards) {
  Testbed bed{partitioned_isolated(11), TestbedOptions{4}};
  bed.start();
  bed.run_for(seconds(40));
  std::size_t migrated_and_reporting = 0;
  for (std::size_t i = 0; i < bed.device_count(); ++i) {
    const auto& dev = bed.device(i);
    if (dev.state() != DeviceState::kReporting) {
      continue;
    }
    // Find devices now living on a different shard than their home.
    for (std::size_t n = 0; n < bed.network_count(); ++n) {
      if (bed.network_name(n) == dev.plugged_network() &&
          bed.shard_of_network(n) !=
              bed.shard_of_network(bed.home_of(i))) {
        ++migrated_and_reporting;
      }
    }
  }
  EXPECT_GT(migrated_and_reporting, 0u)
      << "at least one roamer must report from a foreign shard";
}

// ---------------------------------------------------------------------------
// Determinism of the sharded mode itself (same-mode repeatability)
// ---------------------------------------------------------------------------

TEST(ShardParity, ShardedRunIsRepeatable) {
  const RunResult a = run(partitioned_isolated(13), 4, 30.0);
  const RunResult b = run(partitioned_isolated(13), 4, 30.0);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
}

}  // namespace
}  // namespace emon::core
