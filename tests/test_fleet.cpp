// Scenario-engine tests: FleetBuilder/ScenarioSpec shapes, canned
// scenarios, paper-testbed parity, O(1) wiring registries, generated churn,
// fault injection, and whole-run determinism (same spec + seed ==> same
// trace digest).

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/scenario.hpp"

namespace emon::core {
namespace {

using sim::seconds;
using sim::SimTime;

// ---------------------------------------------------------------------------
// Spec / builder shapes
// ---------------------------------------------------------------------------

TEST(FleetBuilder, AssemblesSpecShape) {
  const ScenarioSpec spec = FleetBuilder{}
                                .name("shape")
                                .networks(3, 2, LoadArchetype::kThermostat)
                                .population(1, LoadArchetype::kEvCharge)
                                .spacing_m(250.0)
                                .mesh(MeshTopology::kStar)
                                .seed(123)
                                .spec();
  EXPECT_EQ(spec.name, "shape");
  EXPECT_EQ(spec.sys.seed, 123u);
  EXPECT_EQ(spec.networks.size(), 3u);
  EXPECT_EQ(spec.device_count(), 9u);
  EXPECT_EQ(spec.max_devices_per_network(), 3u);
  EXPECT_EQ(spec.mesh, MeshTopology::kStar);
  for (const auto& net : spec.networks) {
    ASSERT_EQ(net.populations.size(), 2u);
    EXPECT_EQ(net.populations[0].archetype, LoadArchetype::kThermostat);
    EXPECT_EQ(net.populations[1].archetype, LoadArchetype::kEvCharge);
  }
}

TEST(FleetBuilder, CannedScenariosResolveByName) {
  const auto names = canned_scenario_names();
  EXPECT_EQ(names.size(), 5u);
  for (const auto& name : names) {
    const ScenarioSpec spec = canned_scenario(name, 1);
    EXPECT_EQ(spec.name, name);
    EXPECT_GT(spec.device_count(), 0u) << name;
  }
  EXPECT_THROW((void)canned_scenario("no_such_scenario", 1),
               std::invalid_argument);
}

TEST(FleetBuilder, MetroFleetSplitsDevicesEvenly) {
  const ScenarioSpec spec = metro_fleet(32, 10'000, 1);
  EXPECT_EQ(spec.networks.size(), 32u);
  EXPECT_EQ(spec.device_count(), 10'000u);
  // Every network carries the full archetype mix.
  for (const auto& net : spec.networks) {
    EXPECT_GE(net.device_count(), 10'000u / 32u);
    EXPECT_EQ(net.populations.size(), 5u);
  }
}

TEST(FleetBuilder, ArchetypeLoadsAreDeterministicAndFinite) {
  const util::SeedSequence seeds{99};
  for (const LoadArchetype archetype :
       {LoadArchetype::kDutyCycle, LoadArchetype::kBursty,
        LoadArchetype::kEvCharge, LoadArchetype::kThermostat,
        LoadArchetype::kIdleHeavy}) {
    const auto load = make_archetype_load(archetype, "dev-1", 0, seeds);
    const auto load2 = make_archetype_load(archetype, "dev-1", 0, seeds);
    ASSERT_NE(load, nullptr) << to_string(archetype);
    for (int s = 0; s < 50; ++s) {
      const SimTime t{seconds(s).ns()};
      const double ma = util::as_milliamps(load->current_at(t));
      EXPECT_TRUE(std::isfinite(ma)) << to_string(archetype);
      EXPECT_GE(ma, 0.0) << to_string(archetype);
      // Same archetype + id + index + seeds => identical waveform.
      EXPECT_DOUBLE_EQ(ma, util::as_milliamps(load2->current_at(t)))
          << to_string(archetype);
    }
  }
}

TEST(FleetBuilder, TdmaAutoSizeWidensOnlyWhenNeeded) {
  ScenarioSpec big =
      FleetBuilder{}.networks(1, 50).auto_size_tdma().seed(1).spec();
  Testbed bed{std::move(big)};
  const auto& tdma = bed.spec().sys.aggregator.tdma;
  EXPECT_GE(static_cast<std::size_t>(tdma.superframe / tdma.slot_width), 50u);

  // A population that fits leaves the configured schedule untouched.
  ScenarioSpec small =
      FleetBuilder{}.networks(1, 2).auto_size_tdma().seed(1).spec();
  const auto before = small.sys.aggregator.tdma.slot_width;
  Testbed small_bed{std::move(small)};
  EXPECT_EQ(small_bed.spec().sys.aggregator.tdma.slot_width, before);
}

// ---------------------------------------------------------------------------
// Paper-testbed parity + registries
// ---------------------------------------------------------------------------

TEST(FleetTestbed, PaperFigure4ReproducesSeedShape) {
  Testbed bed{paper_figure4(42)};
  EXPECT_EQ(bed.network_count(), 2u);
  EXPECT_EQ(bed.device_count(), 4u);
  EXPECT_EQ(bed.network_name(0), "wan-1");
  EXPECT_EQ(bed.network_name(1), "wan-2");
  EXPECT_DOUBLE_EQ(bed.network_position(1).x, 120.0);
  EXPECT_EQ(bed.device(0).id(), "dev-1");
  EXPECT_EQ(bed.device(3).id(), "dev-4");
  EXPECT_EQ(bed.home_of(0), 0u);
  EXPECT_EQ(bed.home_of(2), 1u);
  EXPECT_EQ(bed.archetype_of(0), LoadArchetype::kDutyCycle);
  // The seed layout: single row, 1.5 m apart, starting 1.5 m from the AP.
  EXPECT_DOUBLE_EQ(bed.device_position(0, 0).x, 1.5);
  EXPECT_DOUBLE_EQ(bed.device_position(0, 1).x, 3.0);
  EXPECT_DOUBLE_EQ(bed.device_position(0, 1).y, 0.0);

  bed.start();
  bed.run_for(seconds(10));
  for (std::size_t i = 0; i < bed.device_count(); ++i) {
    EXPECT_EQ(bed.device(i).state(), DeviceState::kReporting)
        << bed.device(i).id();
    EXPECT_EQ(bed.device(i).membership(), MembershipKind::kHome);
  }
}

TEST(FleetTestbed, RegistriesResolveAcrossManyNetworks) {
  // 12 networks: with the O(n)-scan resolvers this shape was the worst
  // case; the hash registries must wire every device to its own WAN.
  Testbed bed{FleetBuilder{}
                  .name("wide")
                  .networks(12, 1)
                  .spacing_m(300.0)
                  .seed(17)
                  .spec()};
  bed.start();
  bed.run_for(seconds(12));
  for (std::size_t i = 0; i < bed.device_count(); ++i) {
    EXPECT_EQ(bed.device(i).state(), DeviceState::kReporting)
        << bed.device(i).id();
    EXPECT_EQ(bed.device(i).master_addr(), bed.aggregator(i).id());
    EXPECT_EQ(bed.aggregator(i).members().size(), 1u);
  }
}

// ---------------------------------------------------------------------------
// Generated churn
// ---------------------------------------------------------------------------

TEST(FleetChurn, GeneratedPlansMoveEveryRoamer) {
  ChurnSpec churn;
  churn.roamer_fraction = 1.0;
  churn.trips_per_roamer = 1;
  churn.first_departure = seconds(15);
  churn.dwell_min = seconds(1);
  churn.dwell_max = seconds(2);
  churn.transit = seconds(3);
  Testbed bed{FleetBuilder{}
                  .name("churny")
                  .networks(3, 2)
                  .spacing_m(150.0)
                  .churn(churn)
                  .seed(77)
                  .spec()};
  bed.start();
  bed.run_for(seconds(45));
  std::size_t roamed = 0;
  for (std::size_t i = 0; i < bed.device_count(); ++i) {
    const auto& dev = bed.device(i);
    EXPECT_EQ(dev.state(), DeviceState::kReporting) << dev.id();
    if (dev.handshakes().size() >= 2) {
      ++roamed;
      EXPECT_NE(dev.plugged_network(),
                bed.network_name(bed.home_of(i)))
          << dev.id();
    }
  }
  // Every device roams once under fraction 1.0.
  EXPECT_EQ(roamed, bed.device_count());
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

TEST(FleetFaults, ApOutageDropsLinksAndRestores) {
  Testbed bed{FleetBuilder{}
                  .name("outage")
                  .networks(1, 2)
                  .ap_outage(0, SimTime{seconds(15).ns()}, seconds(10))
                  .seed(3)
                  .spec()};
  bed.start();
  bed.run_for(seconds(14));
  ASSERT_EQ(bed.device(0).state(), DeviceState::kReporting);
  const auto scans_before = bed.device(0).stats().scans;

  bed.run_for(seconds(6));  // inside the outage window
  EXPECT_EQ(bed.medium().access_point_count(), 0u);
  EXPECT_NE(bed.device(0).state(), DeviceState::kReporting);
  EXPECT_GT(bed.device(0).stats().scans, scans_before);  // rescanning

  bed.run_for(seconds(20));  // outage over at t=25, reacquire
  EXPECT_EQ(bed.medium().access_point_count(), 1u);
  EXPECT_EQ(bed.device(0).state(), DeviceState::kReporting);
}

TEST(FleetFaults, BackhaulPartitionIsolatesAndHeals) {
  Testbed bed{FleetBuilder{}
                  .name("partition")
                  .networks(3, 1)
                  .backhaul_partition(1, SimTime{seconds(5).ns()},
                                      seconds(10))
                  .seed(4)
                  .spec()};
  bed.start();
  bed.run_for(seconds(7));  // inside the partition
  EXPECT_FALSE(bed.backhaul().node_up("agg-2"));
  EXPECT_FALSE(bed.backhaul().route("agg-1", "agg-2").has_value());
  bed.run_for(seconds(10));  // healed at t=15
  EXPECT_TRUE(bed.backhaul().node_up("agg-2"));
  EXPECT_TRUE(bed.backhaul().route("agg-1", "agg-2").has_value());
}

TEST(FleetFaults, TamperBurstFlagsAnomaliesThenClears) {
  Testbed bed{FleetBuilder{}
                  .name("tamper")
                  .networks(1, 3)
                  .tamper_burst(0, SimTime{seconds(30).ns()}, seconds(15),
                                0.3)
                  .seed(13)
                  .spec()};
  bed.start();
  bed.run_for(seconds(35));
  EXPECT_DOUBLE_EQ(bed.device(0).tamper_factor(), 0.3);
  bed.run_for(seconds(25));
  EXPECT_DOUBLE_EQ(bed.device(0).tamper_factor(), 1.0);
  const auto& history = bed.aggregator(0).verification_history();
  ASSERT_FALSE(history.empty());
  std::size_t flagged_in_burst = 0;
  std::size_t flagged_after = 0;
  for (const auto& window : history) {
    const double end_s = window.window_end.to_seconds();
    if (window.anomalous && end_s > 31.0 && end_s <= 45.0) {
      ++flagged_in_burst;
    }
    if (window.anomalous && end_s > 50.0) {
      ++flagged_after;
    }
  }
  EXPECT_GT(flagged_in_burst, 5u);
  EXPECT_EQ(flagged_after, 0u);  // honesty restored after the burst
}

TEST(FleetFaults, OverlappingWindowsRestoreAtLastEnd) {
  // [10,30) at 0.5 overlapping [20,40) at 0.3: honesty returns only when
  // the later window closes, not when the first one ends.
  Testbed bed{FleetBuilder{}
                  .name("overlap")
                  .networks(1, 2)
                  .tamper_burst(0, SimTime{seconds(10).ns()}, seconds(20),
                                0.5)
                  .tamper_burst(0, SimTime{seconds(20).ns()}, seconds(20),
                                0.3)
                  .seed(8)
                  .spec()};
  bed.start();
  auto& dev = bed.device(0);
  bed.run_for(seconds(15));
  EXPECT_DOUBLE_EQ(dev.tamper_factor(), 0.5);
  bed.run_for(seconds(20));  // first window over, second still active
  EXPECT_DOUBLE_EQ(dev.tamper_factor(), 0.3);
  bed.run_for(seconds(5) - sim::Duration{1});
  EXPECT_DOUBLE_EQ(dev.tamper_factor(), 0.3);
  bed.run_for(sim::Duration{1});  // t = 40 s: the later window closes
  EXPECT_DOUBLE_EQ(dev.tamper_factor(), 1.0);
}

TEST(FleetFaults, OutOfRangeTargetsThrow) {
  EXPECT_THROW(
      Testbed{FleetBuilder{}
                  .networks(1, 1)
                  .ap_outage(5, SimTime{seconds(1).ns()}, seconds(1))
                  .spec()},
      std::invalid_argument);
  EXPECT_THROW(
      Testbed{FleetBuilder{}
                  .networks(1, 1)
                  .tamper_burst(9, SimTime{seconds(1).ns()}, seconds(1), 0.5)
                  .spec()},
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(FleetDeterminism, SameSpecSameSeedSameTraceDigest) {
  ChurnSpec churn;
  churn.roamer_fraction = 0.5;
  churn.trips_per_roamer = 1;
  churn.first_departure = seconds(12);
  churn.dwell_min = seconds(1);
  churn.dwell_max = seconds(3);
  churn.transit = seconds(4);
  const auto run = [&churn](std::uint64_t seed) {
    Testbed bed{FleetBuilder{}
                    .name("repro")
                    .networks(3, 2)
                    .spacing_m(150.0)
                    .churn(churn)
                    .seed(seed)
                    .spec()};
    bed.start();
    bed.run_for(seconds(40));
    return bed.trace().digest();
  };
  EXPECT_EQ(run(2024), run(2024));
  EXPECT_NE(run(2024), run(2025));
}

// Pins the unordered-container audit in scenario.hpp: the testbed's hash
// maps (wiring registries, churn table, per-shard fault maps) are lookup-
// only, so scrambling their bucket counts — which permutes unordered_map
// iteration order — must not move a single trace event.  The run includes
// churn and an AP outage so every one of the six audited maps is populated
// and exercised while perturbed.
TEST(FleetDeterminism, HashOrderIndependence) {
  ChurnSpec churn;
  churn.roamer_fraction = 0.5;
  churn.trips_per_roamer = 1;
  churn.first_departure = seconds(12);
  churn.dwell_min = seconds(1);
  churn.dwell_max = seconds(3);
  churn.transit = seconds(4);
  const auto run = [&churn](std::size_t extra_buckets) {
    Testbed bed{FleetBuilder{}
                    .name("hash-order")
                    .networks(3, 2)
                    .spacing_m(150.0)
                    .churn(churn)
                    .ap_outage(1, SimTime{seconds(15).ns()}, seconds(5))
                    .seed(2024)
                    .spec()};
    bed.start();
    if (extra_buckets != 0) {
      bed.perturb_hash_order(extra_buckets);
    }
    bed.run_for(seconds(40));
    return bed.trace().digest();
  };
  const auto baseline = run(0);
  EXPECT_EQ(baseline, run(7));
  EXPECT_EQ(baseline, run(97));
}

}  // namespace
}  // namespace emon::core
