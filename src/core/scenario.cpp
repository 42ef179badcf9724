#include "core/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <stdexcept>

#include "core/mobility.hpp"

namespace emon::core {

namespace {

/// Worst-case per-pair shadowing excursion of the Irwin-Hall(4) model in
/// net/wifi.cpp: |unit| <= 2 * sqrt(3) ~= 3.47 sigma.
constexpr double kShadowingWorstUnits = 3.47;
/// Device sockets sit on a 16-wide, 1.5 m grid around their AP; allow a
/// generous bounding radius for any population plus roamed-in visitors.
constexpr double kDeviceRadiusM = 45.0;

/// Worst-case RSSI an AP at distance `d` metres can present to a device.
double best_case_rssi(const net::PathLossParams& radio, double d) {
  const double dist = std::max(1.0, d);
  const double path_loss =
      radio.pl0_db + 10.0 * radio.exponent * std::log10(dist);
  return radio.tx_power_dbm - path_loss +
         kShadowingWorstUnits * radio.shadowing_sigma_db;
}

/// Worst-case (weakest plausible) RSSI of a device's own home AP — the
/// floor a neighbour AP must reach before the scan ranking is ambiguous.
double worst_case_home_rssi(const net::PathLossParams& radio) {
  const double path_loss =
      radio.pl0_db + 10.0 * radio.exponent * std::log10(kDeviceRadiusM);
  return radio.tx_power_dbm - path_loss -
         kShadowingWorstUnits * radio.shadowing_sigma_db;
}

struct UnionFind {
  std::vector<std::size_t> parent;
  explicit UnionFind(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent[find(a)] = find(b); }
};

}  // namespace

// ---------------------------------------------------------------------------
// Shard assignment: radio islands -> contiguous shards
// ---------------------------------------------------------------------------

std::vector<std::size_t> Testbed::assign_network_shards(
    const ScenarioSpec& spec, std::size_t requested) {
  const std::size_t n = spec.networks.size();
  std::vector<std::size_t> assign(n, 0);
  if (requested <= 1 || n <= 1) {
    return assign;
  }

  // Couple two networks when a device of one could plausibly *associate*
  // with the other's AP — then their mediums cannot be split:
  //  * ambiguity: the neighbour AP's best-case RSSI reaches the home AP's
  //    worst case, so an RSSI-ranked scan could genuinely prefer it;
  //  * scripted AP outages: with the home AP dark, any audible neighbour
  //    becomes the failover target.
  // Everything weaker is invisible to behaviour (scans only use the
  // strongest hit), so it cannot couple islands.
  std::vector<bool> has_outage(n, false);
  for (const auto& fault : spec.faults) {
    // Runs from the member-init list, before the constructor body throws
    // on malformed faults — out-of-range targets are skipped here and
    // rejected there.
    if (fault.kind == FaultSpec::Kind::kApOutage && fault.network < n) {
      has_outage[fault.network] = true;
    }
  }
  const net::PathLossParams radio{};  // Testbed APs use default radio params
  const double home_floor = worst_case_home_rssi(radio);
  UnionFind uf(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dx = spec.network_spacing_m *
                        (static_cast<double>(j) - static_cast<double>(i));
      const double d_min = std::max(1.0, std::abs(dx) - kDeviceRadiusM);
      const double reach = best_case_rssi(radio, d_min);
      const bool audible = reach >= radio.sensitivity_dbm;
      const bool ambiguous = reach >= home_floor;
      if (audible && (ambiguous || has_outage[i] || has_outage[j])) {
        uf.unite(i, j);
      }
    }
  }

  // Islands in first-network order.
  std::vector<std::size_t> island_of(n);
  std::vector<std::size_t> island_devices;
  std::map<std::size_t, std::size_t> root_to_island;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = uf.find(i);
    auto [it, fresh] = root_to_island.emplace(root, island_devices.size());
    if (fresh) {
      island_devices.push_back(0);
    }
    island_of[i] = it->second;
    island_devices[it->second] += spec.networks[i].device_count();
  }

  // Pack islands (which are contiguous index ranges by construction of the
  // coupling graph on a line) into `requested` shards, balancing device
  // count while preserving network order.
  const std::size_t shards = std::min(requested, island_devices.size());
  const std::size_t total =
      std::accumulate(island_devices.begin(), island_devices.end(),
                      static_cast<std::size_t>(0));
  std::vector<std::size_t> island_shard(island_devices.size(), 0);
  const std::size_t target = (total + shards - 1) / shards;
  std::size_t shard = 0;
  std::size_t filled = 0;
  for (std::size_t isl = 0; isl < island_devices.size(); ++isl) {
    const std::size_t remaining = island_devices.size() - isl;
    const std::size_t later_shards = shards - shard - 1;  // beyond current
    // Advance (never leaving a shard empty) when the current shard met its
    // fill target — provided the remaining islands can still seed every
    // later shard — or when staying would starve a later shard outright.
    if (later_shards > 0 && filled > 0 &&
        ((filled >= target && remaining >= later_shards) ||
         remaining <= later_shards)) {
      ++shard;
      filled = 0;
    }
    island_shard[isl] = shard;
    filled += island_devices[isl];
  }
  for (std::size_t i = 0; i < n; ++i) {
    assign[i] = island_shard[island_of[i]];
  }
  return assign;
}

std::size_t Testbed::shard_count_of(const std::vector<std::size_t>& assign) {
  std::size_t count = 1;
  for (const std::size_t s : assign) {
    count = std::max(count, s + 1);
  }
  return count;
}

sim::Duration Testbed::lookahead() const {
  // Conservative lookahead = the smallest cross-shard physical latency:
  // the backhaul's base link latency (every aggregator frame pays it per
  // hop).  Device migrations are pre-scheduled, so transits don't bound
  // it.  The 2 ns floor only matters for shards=1 (where the engine never
  // uses it); multi-shard runs require base_latency >= 2ns anyway.
  return std::max(spec_.sys.backhaul.base_latency, sim::Duration{2});
}

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Testbed::Testbed(ScenarioSpec spec, TestbedOptions options)
    : spec_(std::move(spec)),
      network_shard_(assign_network_shards(spec_, options.shards)),
      engine_(shard_count_of(network_shard_),
              std::max(spec_.sys.backhaul.base_latency, sim::Duration{2})),
      seeds_(spec_.sys.seed) {
  if (spec_.networks.empty()) {
    throw std::invalid_argument("Testbed needs at least one network");
  }
  for (const auto& fault : spec_.faults) {
    if ((fault.kind == FaultSpec::Kind::kApOutage ||
         fault.kind == FaultSpec::Kind::kBackhaulPartition) &&
        fault.network >= spec_.networks.size()) {
      throw std::invalid_argument("fault targets unknown network");
    }
    if (fault.kind == FaultSpec::Kind::kTamperBurst &&
        fault.device >= spec_.device_count()) {
      throw std::invalid_argument("fault targets unknown device");
    }
  }
  const std::size_t n_shards = engine_.shard_count();
  if (n_shards > 1) {
    if (spec_.sys.backhaul.base_latency < sim::Duration{2}) {
      throw std::invalid_argument(
          "sharded execution needs a backhaul base latency >= 2ns "
          "(it is the conservative lookahead)");
    }
    if (spec_.sys.aggregator.chain_commit_latency < lookahead()) {
      throw std::invalid_argument(
          "chain_commit_latency must be >= the shard lookahead");
    }
  }

  // TDMA auto-fit: widen the schedule when a population exceeds the
  // configured slot capacity (opt-in — capacity tests under-provision on
  // purpose).  25 % headroom leaves room for roamed-in temporaries.
  if (spec_.auto_size_tdma) {
    auto& tdma = spec_.sys.aggregator.tdma;
    const std::size_t max_dev = spec_.max_devices_per_network();
    const std::size_t want = max_dev + max_dev / 4 + 1;
    const auto capacity =
        static_cast<std::size_t>(tdma.superframe / tdma.slot_width);
    if (want > capacity) {
      const sim::Duration width{tdma.superframe.ns() /
                                static_cast<std::int64_t>(want)};
      if (width <= sim::Duration{0}) {
        throw std::invalid_argument(
            "population too large for the TDMA superframe");
      }
      tdma.slot_width = width;
    }
  }

  // Per-shard substrates: trace, radio medium, backhaul segment, fault
  // bookkeeping.  The fabric draws per-edge channel seeds in add_link
  // order, so sequential and sharded wirings of one spec agree bit-for-bit.
  fabric_ = std::make_shared<net::BackhaulFabric>(seeds_.stream("backhaul"));
  for (std::size_t s = 0; s < n_shards; ++s) {
    traces_.push_back(std::make_unique<sim::Trace>());
    mediums_.push_back(std::make_unique<net::WifiMedium>(engine_.shard(s)));
    segments_.push_back(std::make_unique<net::Backhaul>(
        engine_.shard(s), fabric_, s, n_shards > 1 ? &engine_ : nullptr));
    segments_.back()->bind_trace(traces_[s].get(), "wire.backhaul");
    fault_state_.push_back(std::make_unique<ShardFaultState>());
  }

  // Grids + access points, each on its network's shard.
  const std::size_t n_networks = spec_.networks.size();
  for (std::size_t n = 0; n < n_networks; ++n) {
    const std::size_t s = network_shard_[n];
    sim::Kernel* clock = &engine_.shard(s);
    grids_.push_back(std::make_unique<grid::DistributionNetwork>(
        network_name(n), spec_.grid, [clock] { return clock->now(); }));
    grids_by_name_.emplace(network_name(n), grids_.back().get());
    net::AccessPoint ap;
    ap.ssid = network_name(n);
    ap.host_id = "agg-" + std::to_string(n + 1);
    ap.position = network_position(n);
    ap.channel = static_cast<std::uint8_t>(1 + (n * 5) % 11);
    mediums_[s]->add_access_point(ap);
  }

  // Aggregators (backhaul nodes + chain writers) on their shards.
  for (std::size_t n = 0; n < n_networks; ++n) {
    const std::size_t s = network_shard_[n];
    aggregators_.push_back(std::make_unique<Aggregator>(
        engine_.shard(s), "agg-" + std::to_string(n + 1), network_name(n),
        spec_.sys, *grids_[n], *segments_[s], chain_, seeds_,
        traces_[s].get()));
    brokers_by_host_.emplace(aggregators_.back()->id(),
                             &aggregators_.back()->broker());
  }

  // Inter-aggregator mesh in the spec's topology.
  switch (spec_.mesh) {
    case MeshTopology::kFullMesh:
      for (std::size_t a = 0; a < n_networks; ++a) {
        for (std::size_t b = a + 1; b < n_networks; ++b) {
          fabric_->add_link(aggregators_[a]->id(), aggregators_[b]->id(),
                            spec_.sys.backhaul);
        }
      }
      break;
    case MeshTopology::kRing:
      for (std::size_t a = 0; a + 1 < n_networks; ++a) {
        fabric_->add_link(aggregators_[a]->id(), aggregators_[a + 1]->id(),
                          spec_.sys.backhaul);
      }
      if (n_networks > 2) {
        fabric_->add_link(aggregators_[n_networks - 1]->id(),
                          aggregators_[0]->id(), spec_.sys.backhaul);
      }
      break;
    case MeshTopology::kStar:
      for (std::size_t a = 1; a < n_networks; ++a) {
        fabric_->add_link(aggregators_[0]->id(), aggregators_[a]->id(),
                          spec_.sys.backhaul);
      }
      break;
  }

  // The engine's lookahead was fixed from the spec's uniform backhaul
  // params before wiring; verify no link undercuts it now that the mesh
  // exists (a link with a smaller base latency could stamp a cross-shard
  // delivery inside the "safe" bound).
  if (n_shards > 1 && fabric_->min_link_latency() < engine_.lookahead()) {
    throw std::invalid_argument(
        "a backhaul link's base latency undercuts the shard lookahead");
  }

  // Devices at their home networks, on their home shards.  Resolution is
  // O(1) via the registries regardless of network count.
  auto broker_resolver = [this](const std::string& host) -> net::MqttBroker* {
    const auto it = brokers_by_host_.find(host);
    return it == brokers_by_host_.end() ? nullptr : it->second;
  };
  auto grid_resolver =
      [this](const NetworkId& network) -> grid::DistributionNetwork* {
    const auto it = grids_by_name_.find(network);
    return it == grids_by_name_.end() ? nullptr : it->second;
  };
  std::size_t global = 0;
  for (std::size_t n = 0; n < n_networks; ++n) {
    const std::size_t s = network_shard_[n];
    std::size_t ordinal = 0;
    for (const auto& population : spec_.networks[n].populations) {
      for (std::size_t d = 0; d < population.count; ++d) {
        const DeviceId id = "dev-" + std::to_string(global + 1);
        auto device = std::make_unique<DeviceApp>(
            engine_.shard(s), id, spec_.sys, *mediums_[s], grid_resolver,
            broker_resolver, seeds_, traces_[s].get());
        device->attach_load(
            spec_.load_factory
                ? spec_.load_factory(id, global, seeds_)
                : make_archetype_load(population.archetype, id, global,
                                      seeds_));
        device->set_position(device_position(n, ordinal));
        devices_.push_back(std::move(device));
        device_home_.push_back(n);
        device_archetype_.push_back(population.archetype);
        device_ordinal_.push_back(ordinal);
        ++ordinal;
        ++global;
      }
    }
  }
  active_tampers_.assign(devices_.size(), 0);
}

void Testbed::start() {
  if (started_) {
    return;
  }
  started_ = true;
  for (const auto& agg : aggregators_) {
    agg->start();
  }
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    DeviceApp* device = devices_[i].get();
    const NetworkId home = network_name(device_home_[i]);
    // Stagger plug-ins so registration bursts don't collide.
    engine_.shard(network_shard_[device_home_[i]])
        .schedule_in(spec_.plug_stagger * static_cast<std::int64_t>(i),
                     [device, home] { device->plug_into(home); });
  }
  schedule_churn();
  if (engine_.shard_count() > 1) {
    // Per-device tamper events that land on different shards share the
    // device's overlap counter; the horizon protocol only orders them when
    // they are more than the lookahead apart in simulated time.
    std::map<std::size_t, std::vector<std::pair<sim::SimTime, std::size_t>>>
        tamper_events;
    for (const auto& fault : spec_.faults) {
      if (fault.kind != FaultSpec::Kind::kTamperBurst) {
        continue;
      }
      const sim::SimTime at = std::max(fault.at, engine_.now());
      const sim::SimTime until = at + fault.duration;
      auto& events = tamper_events[fault.device];
      events.emplace_back(
          at, network_shard_[network_of_device_at(fault.device, at)]);
      events.emplace_back(
          until, network_shard_[network_of_device_at(fault.device, until)]);
    }
    for (auto& [device, events] : tamper_events) {
      std::sort(events.begin(), events.end());
      for (std::size_t i = 1; i < events.size(); ++i) {
        if (events[i].second != events[i - 1].second &&
            events[i].first - events[i - 1].first <= lookahead()) {
          throw std::invalid_argument(
              "tamper windows on device " + std::to_string(device) +
              " have cross-shard events closer than the lookahead");
        }
      }
      // A tamper event on the device's *old* shard less than one lookahead
      // before a cross-shard arrival could run concurrently with the new
      // shard adopting the object — the horizon protocol cannot order the
      // two.  Reject such specs instead of racing.
      const auto moves = device_moves_.find(device);
      if (moves == device_moves_.end()) {
        continue;
      }
      std::size_t prev_net = device_home_[device];
      for (const auto& [arrive, dest_net] : moves->second) {
        if (network_shard_[prev_net] != network_shard_[dest_net]) {
          for (const auto& [t, shard] : events) {
            (void)shard;
            if (t < arrive && arrive - t < lookahead()) {
              throw std::invalid_argument(
                  "tamper window on device " + std::to_string(device) +
                  " lands within one lookahead of its cross-shard arrival");
            }
          }
        }
        prev_net = dest_net;
      }
    }
  }
  for (const auto& fault : spec_.faults) {
    schedule_fault(fault);
  }
}

void Testbed::schedule_churn() {
  const ChurnSpec& churn = spec_.churn;
  if (!churn.enabled() || network_count() < 2) {
    return;
  }
  util::Rng rng = seeds_.stream("fleet.churn");
  const double dwell_span =
      std::max(0.0, (churn.dwell_max - churn.dwell_min).to_seconds());
  // Cross-shard migrations hand the device object between threads at the
  // arrival instant; every firmware continuation left on the old shard
  // must have fired before then (the horizon protocol orders them), which
  // needs transit > the longest pending delay + the lookahead.
  const sim::Duration min_cross_transit =
      max_straggler_horizon() + lookahead() + sim::milliseconds(1);
  std::unordered_map<NetworkId, std::size_t> network_index;
  network_index.reserve(network_count());
  for (std::size_t n = 0; n < network_count(); ++n) {
    network_index.emplace(network_name(n), n);
  }
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (!rng.bernoulli(churn.roamer_fraction)) {
      continue;
    }
    MobilityPlan plan;
    std::size_t at_net = device_home_[i];
    sim::SimTime depart = engine_.now() + churn.first_departure +
                          sim::seconds_f(rng.uniform(0.0, dwell_span));
    for (std::size_t trip = 0; trip < churn.trips_per_roamer; ++trip) {
      // Uniform choice among the other networks.
      auto dest = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(network_count()) - 2));
      if (dest >= at_net) {
        ++dest;
      }
      plan.push_back(MobilityStep{depart, network_name(dest),
                                  device_position(dest, device_ordinal_[i]),
                                  churn.transit});
      depart = depart + churn.transit + churn.dwell_min +
               sim::seconds_f(rng.uniform(0.0, dwell_span));
      at_net = dest;
    }

    // Materialize the plan: same-shard steps ride move_to() exactly as
    // before; shard-crossing steps split into a departure on the old shard
    // and a pre-scheduled adoption + plug-in on the new one.
    DeviceApp* device = devices_[i].get();
    std::size_t cur_net = device_home_[i];
    auto& moves = device_moves_[i];
    for (const auto& step : plan) {
      const std::size_t from_shard = network_shard_[cur_net];
      const auto dest_it = network_index.find(step.to);
      if (dest_it == network_index.end()) {
        throw std::logic_error("churn step targets unknown network " +
                               step.to);
      }
      const std::size_t dest_net = dest_it->second;
      const std::size_t to_shard = network_shard_[dest_net];
      const sim::SimTime arrive = step.depart + step.transit;
      if (from_shard == to_shard) {
        engine_.shard(from_shard).schedule_at(step.depart, [device, step] {
          device->move_to(step.to, step.position, step.transit);
        });
      } else {
        if (step.transit < min_cross_transit) {
          throw std::invalid_argument(
              "churn transit too short for cross-shard roaming: needs > " +
              sim::to_string(min_cross_transit));
        }
        engine_.shard(from_shard).schedule_at(step.depart, [device] {
          device->detach_for_migration();
        });
        sim::Kernel* dest_kernel = &engine_.shard(to_shard);
        net::WifiMedium* dest_medium = mediums_[to_shard].get();
        sim::Trace* dest_trace = traces_[to_shard].get();
        engine_.shard(to_shard).schedule_at(
            arrive, [device, dest_kernel, dest_medium, dest_trace, step] {
              if (device->state() != DeviceState::kUnplugged) {
                return;  // superseded by another lifecycle action
              }
              device->adopt(*dest_kernel, *dest_medium, dest_trace);
              device->set_position(step.position);
              device->plug_into(step.to);
            });
      }
      moves.emplace_back(arrive, dest_net);
      cur_net = dest_net;
    }
  }
}

std::size_t Testbed::network_of_device_at(std::size_t device,
                                          sim::SimTime t) const {
  std::size_t net = device_home_.at(device);
  const auto it = device_moves_.find(device);
  if (it == device_moves_.end()) {
    return net;
  }
  for (const auto& [at, dest] : it->second) {
    if (at <= t) {
      net = dest;
    }
  }
  return net;
}

sim::Duration Testbed::max_straggler_horizon() const {
  // The longest delay any epoch-guarded firmware continuation can still be
  // scheduled for after an unplug: a full passive scan, an association,
  // the settle dwell, the registration watchdog, a QoS1 ack timeout chain,
  // or a TDMA slot offset.  (These never chain past an epoch bump.)
  const auto& wifi = spec_.sys.wifi;
  const auto& dev = spec_.sys.device;
  sim::Duration horizon =
      wifi.scan_dwell * static_cast<std::int64_t>(wifi.channels);
  horizon = std::max(horizon, wifi.assoc_max);
  horizon = std::max(horizon, dev.join_settle_max);
  horizon = std::max(horizon, dev.registration_retry);
  const net::MqttClientParams mqtt{};  // DeviceApp uses the defaults
  horizon = std::max(horizon,
                     mqtt.ack_timeout * static_cast<std::int64_t>(
                                            std::max(mqtt.max_attempts, 1)));
  horizon = std::max(horizon, spec_.sys.aggregator.tdma.superframe);
  return horizon;
}

void Testbed::schedule_fault(const FaultSpec& fault) {
  const sim::SimTime at = std::max(fault.at, engine_.now());
  const sim::SimTime until = at + fault.duration;
  switch (fault.kind) {
    case FaultSpec::Kind::kApOutage: {
      const std::size_t s = network_shard_[fault.network];
      const NetworkId ssid = network_name(fault.network);
      net::WifiMedium* medium = mediums_[s].get();
      sim::Trace* trace = traces_[s].get();
      ShardFaultState* state = fault_state_[s].get();
      sim::Kernel* kernel = &engine_.shard(s);
      kernel->schedule_at(at, [medium, trace, state, kernel, ssid] {
        if (state->active_outages[ssid]++ > 0) {
          return;  // already dark from an overlapping window
        }
        if (const auto ap = medium->find(ssid)) {
          state->downed_aps.emplace(ssid, *ap);
          medium->remove_access_point(ssid);
          trace->append("fault.ap_outage." + ssid, kernel->now(), 1.0);
        }
      });
      kernel->schedule_at(until, [medium, trace, state, kernel, ssid] {
        if (--state->active_outages[ssid] > 0) {
          return;  // an overlapping window is still active
        }
        const auto it = state->downed_aps.find(ssid);
        if (it != state->downed_aps.end()) {
          medium->add_access_point(it->second);
          state->downed_aps.erase(it);
          trace->append("fault.ap_outage." + ssid, kernel->now(), 0.0);
        }
      });
      break;
    }
    case FaultSpec::Kind::kBackhaulPartition: {
      const std::size_t s = network_shard_[fault.network];
      const std::string agg_id = "agg-" + std::to_string(fault.network + 1);
      // The partition itself is a static down-window on the fabric: a pure
      // function of the scenario, readable from any shard without races —
      // routing on every shard sees the node vanish at `at` and return at
      // `until`.  The kernel events below only mark the trace.
      fabric_->add_down_window(agg_id, at, until);
      sim::Trace* trace = traces_[s].get();
      ShardFaultState* state = fault_state_[s].get();
      sim::Kernel* kernel = &engine_.shard(s);
      kernel->schedule_at(at, [trace, state, kernel, agg_id] {
        if (state->active_partitions[agg_id]++ == 0) {
          trace->append("fault.partition." + agg_id, kernel->now(), 1.0);
        }
      });
      kernel->schedule_at(until, [trace, state, kernel, agg_id] {
        if (--state->active_partitions[agg_id] == 0) {
          trace->append("fault.partition." + agg_id, kernel->now(), 0.0);
        }
      });
      break;
    }
    case FaultSpec::Kind::kTamperBurst: {
      const std::size_t device = fault.device;
      const double factor = fault.tamper_factor;
      // Target the shard owning the device at each endpoint (roamers
      // change owners).  The overlap counter is global per device — a
      // burst can start on one shard and end on another — and the horizon
      // protocol serializes the accesses because per-device tamper events
      // on different shards are required to be > lookahead apart (checked
      // in start()).
      const std::size_t s_on = network_shard_[network_of_device_at(device, at)];
      const std::size_t s_off =
          network_shard_[network_of_device_at(device, until)];
      DeviceApp* dev = devices_[device].get();
      int* active = &active_tampers_[device];
      {
        sim::Trace* trace = traces_[s_on].get();
        sim::Kernel* kernel = &engine_.shard(s_on);
        kernel->schedule_at(at, [dev, trace, active, kernel, factor] {
          ++*active;
          // Overlapping bursts: the most recent onset wins while any is
          // active; honesty returns only when the last window closes.
          dev->set_tamper_factor(factor);
          trace->append("fault.tamper." + dev->id(), kernel->now(), factor);
        });
      }
      {
        sim::Trace* trace = traces_[s_off].get();
        sim::Kernel* kernel = &engine_.shard(s_off);
        kernel->schedule_at(until, [dev, trace, active, kernel] {
          if (--*active > 0) {
            return;
          }
          dev->set_tamper_factor(1.0);
          trace->append("fault.tamper." + dev->id(), kernel->now(), 1.0);
        });
      }
      break;
    }
  }
}

void Testbed::run_for(sim::Duration d) {
  engine_.run_until(engine_.now() + d);
  merged_dirty_ = true;
}

// ---------------------------------------------------------------------------
// Trace merge
// ---------------------------------------------------------------------------

void Testbed::perturb_hash_order(std::size_t extra_buckets) {
  // Rehashing only permutes bucket (= iteration) order; find/emplace are
  // untouched.  Any digest drift after this call would mean somebody
  // started iterating one of these containers — see the audit note in
  // scenario.hpp.
  brokers_by_host_.rehash(brokers_by_host_.bucket_count() + extra_buckets);
  grids_by_name_.rehash(grids_by_name_.bucket_count() + extra_buckets);
  device_moves_.rehash(device_moves_.bucket_count() + extra_buckets);
  for (auto& state : fault_state_) {
    state->downed_aps.rehash(state->downed_aps.bucket_count() + extra_buckets);
    state->active_outages.rehash(state->active_outages.bucket_count() +
                                 extra_buckets);
    state->active_partitions.rehash(state->active_partitions.bucket_count() +
                                    extra_buckets);
  }
}

sim::Trace& Testbed::trace() {
  if (engine_.shard_count() == 1) {
    return *traces_[0];
  }
  if (merged_dirty_) {
    rebuild_merged_trace();
    merged_dirty_ = false;
  }
  return merged_trace_;
}

void Testbed::rebuild_merged_trace() {
  // Shard digests add up (sim/trace.hpp).
  std::vector<const sim::Trace*> shards;
  shards.reserve(traces_.size());
  for (const auto& trace : traces_) {
    shards.push_back(trace.get());
  }
  merged_trace_.merge_shards(shards);
}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

NetworkId Testbed::network_name(std::size_t i) const {
  return "wan-" + std::to_string(i + 1);
}

net::Position Testbed::network_position(std::size_t i) const {
  return net::Position{spec_.network_spacing_m * static_cast<double>(i), 0.0};
}

net::Position Testbed::device_position(std::size_t network,
                                       std::size_t ordinal) const {
  // 16-wide grid: matches the seed's single-row layout for small networks
  // and keeps 300-device populations within ~30 m of their AP.
  net::Position pos = network_position(network);
  pos.x += 1.5 * static_cast<double>(ordinal % 16 + 1);
  pos.y += 1.5 * static_cast<double>(ordinal / 16);
  return pos;
}

grid::DistributionNetwork& Testbed::grid_of(std::size_t i) {
  return *grids_.at(i);
}

Aggregator& Testbed::aggregator(std::size_t i) { return *aggregators_.at(i); }

DeviceApp& Testbed::device(std::size_t global_index) {
  return *devices_.at(global_index);
}

std::size_t Testbed::home_of(std::size_t global_index) const {
  return device_home_.at(global_index);
}

LoadArchetype Testbed::archetype_of(std::size_t global_index) const {
  return device_archetype_.at(global_index);
}

}  // namespace emon::core
