// Smart building — a scaled deployment of the architecture.
//
// Four floors (WANs), each with its own aggregator and six devices with
// heterogeneous loads (HVAC duty cycles, chargers, IT equipment).  A
// cleaning robot roams across floors during the run.  Demonstrates:
//  * many concurrent TDMA-slotted reporters per aggregator,
//  * building-level energy accounting from the shared chain,
//  * Grafana-style CSV export of each floor's store, 1 s windows per device.

#include <fstream>
#include <iostream>

#include "core/mobility.hpp"
#include "core/scenario.hpp"
#include "util/table.hpp"

int main() {
  using namespace emon;

  const auto floor_loads = [](const core::DeviceId& id, std::size_t index,
                              const util::SeedSequence& seeds) {
    switch (index % 3) {
      case 0:  // HVAC-style: slow heavy duty cycle
        return hw::LoadProfilePtr(std::make_shared<hw::NoisyLoad>(
            std::make_shared<hw::DutyCycleLoad>(
                util::milliamps(15), util::milliamps(350),
                sim::seconds(20), 0.4,
                sim::seconds(static_cast<std::int64_t>(index))),
            0.04, sim::milliseconds(100), seeds.derive("load." + id)));
      case 1:  // charger: CC-CV
        return hw::LoadProfilePtr(std::make_shared<hw::CcCvChargeLoad>(
            util::milliamps(800), sim::SimTime{sim::seconds(45).ns()},
            sim::seconds(25), util::milliamps(40)));
      default:  // IT equipment: noisy constant
        return hw::LoadProfilePtr(std::make_shared<hw::NoisyLoad>(
            std::make_shared<hw::ConstantLoad>(util::milliamps(120)),
            0.08, sim::milliseconds(50), seeds.derive("load." + id)));
    }
  };

  core::Testbed bed{core::FleetBuilder{}
                        .name("smart_building")
                        .networks(4, 6)
                        .spacing_m(200.0)
                        .seed(88)
                        .load_factory(floor_loads)
                        .spec()};

  // The cleaning robot (dev-1, home floor 1) visits floors 2 and 3.
  core::MobilityPlan plan{
      {sim::SimTime{sim::seconds(50).ns()}, bed.network_name(1),
       net::Position{bed.network_position(1).x + 3.0, 0.0}, sim::seconds(8)},
      {sim::SimTime{sim::seconds(90).ns()}, bed.network_name(2),
       net::Position{bed.network_position(2).x + 3.0, 0.0}, sim::seconds(8)},
  };
  core::schedule_plan(bed.kernel(), bed.device(0), plan);

  bed.start();
  bed.run_for(sim::seconds(130));

  std::cout << "=== Smart building: 4 floors x 6 devices, roaming robot ===\n\n";

  util::Table floors({"floor", "aggregator", "members", "records", "blocks",
                      "feeder energy [mWh]", "anomalous windows"});
  for (std::size_t n = 0; n < bed.network_count(); ++n) {
    auto& agg = bed.aggregator(n);
    std::size_t anomalies = 0;
    for (const auto& v : agg.verification_history()) {
      anomalies += v.anomalous ? 1 : 0;
    }
    floors.row(n + 1, agg.id(), agg.members().size(),
               agg.stats().records_accepted, agg.stats().blocks_written,
               util::Table::num(
                   util::as_milliwatt_hours(agg.feeder_meter().total_energy()),
                   1),
               anomalies);
  }
  std::cout << floors.render() << '\n';

  // Building-level accounting straight from the shared chain.
  const core::LedgerAudit building =
      core::audit_ledger(bed.chain().ledger(), "building", core::Tariff{});
  double total_device_mwh = 0.0;
  for (std::size_t i = 0; i < bed.device_count(); ++i) {
    total_device_mwh +=
        util::as_milliwatt_hours(bed.device(i).meter().total_energy());
  }
  std::cout << "chain-accounted energy : "
            << util::Table::num(building.total_energy_mwh(), 1) << " mWh ("
            << building.records << " records, " << building.duplicates
            << " duplicates skipped)\n";
  std::cout << "device-metered energy  : "
            << util::Table::num(total_device_mwh, 1) << " mWh\n";

  // The robot's consolidated bill at its home floor.
  const auto invoice = bed.aggregator(0).billing().invoice_for("dev-1");
  util::Table robot({"floor network", "energy [mWh]", "roamed"});
  for (const auto& line : invoice.lines) {
    robot.row(line.network, util::Table::num(line.energy_mwh, 2),
              line.roamed ? "yes" : "no");
  }
  std::cout << "\nrobot (dev-1) bill at home floor:\n" << robot.render();

  // Grafana-replacement export: each floor's store, 1 s windows per device.
  std::ofstream csv("smart_building_store.csv");
  csv << "time_s,aggregator,device,records,avg_current_ma,max_current_ma,"
         "energy_mwh\n";
  std::size_t windows = 0;
  std::size_t series = 0;
  for (std::size_t n = 0; n < bed.network_count(); ++n) {
    const auto& agg = bed.aggregator(n);
    store::QuerySpec spec;
    spec.t0_ns = 0;
    spec.t1_ns = bed.kernel().now().ns();
    spec.window_ns = sim::seconds(1).ns();
    for (const auto& [device, per_window] :
         agg.query_engine().downsample(spec).per_device) {
      ++series;
      for (const auto& w : per_window) {
        if (w.count == 0) {
          continue;
        }
        ++windows;
        csv << sim::SimTime{w.start_ns}.to_seconds() << ',' << agg.id() << ','
            << device << ',' << w.count << ',' << w.avg_current_ma << ','
            << w.max_current_ma << ',' << w.sum_energy_mwh << '\n';
      }
    }
  }
  std::cout << "\nstore exported         : smart_building_store.csv ("
            << windows << " windows, " << series << " device series)\n";
  const auto validation = bed.chain().validate();
  std::cout << "blockchain             : " << bed.chain().ledger().size()
            << " blocks, " << (validation.ok ? "valid" : "INVALID") << '\n';
  return validation.ok ? 0 : 1;
}
