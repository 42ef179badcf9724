// Ablation — decomposition of the Figure 5 measurement gap.
//
// The paper attributes the 0.9-8.2 % centralized-vs-decentralized gap to
// "the ohmic losses of various electrical components and the measurement
// error of the current sensor".  The model makes each term a parameter, so
// we can switch them off one at a time and attribute the gap:
//   * sensor offset error (INA219, ±0.5 mA/part)
//   * sensor gain error   (±0.5 %/part)
//   * proportional ohmic/conversion losses (loss_fraction)
//   * board overhead quiescent current
//
// Also sweeps load level: at light loads the fixed terms dominate (higher
// relative gap), matching why the paper sees a band rather than a point.

#include <iostream>

#include "core/scenario.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace {

struct Config {
  const char* name;
  bool sensor_offset;
  bool sensor_gain;
  double loss_fraction;
  double overhead_ma;
};

double measure_gap_pct(const Config& config, double level_scale) {
  using namespace emon;
  grid::DistributionParams grid_params;
  grid_params.loss_fraction = config.loss_fraction;
  grid_params.overhead_quiescent = util::milliamps(config.overhead_ma);
  core::Testbed bed{
      core::FleetBuilder{}
          .name("ablation")
          .networks(1, 2)
          .seed(77)
          .grid(grid_params)
          .load_factory([level_scale](const core::DeviceId& id,
                                      std::size_t index,
                                      const util::SeedSequence& seeds) {
            (void)seeds;
            (void)id;
            const double base =
                (30.0 + 40.0 * static_cast<double>(index)) * level_scale;
            return hw::LoadProfilePtr(
                std::make_shared<hw::ConstantLoad>(util::milliamps(base)));
          })
          .spec(),
      core::TestbedOptions{.retain_trace = true}};
  bed.start();
  bed.run_for(sim::seconds(50));

  const auto& trace = bed.trace();
  const sim::SimTime from{sim::seconds(20).ns()};
  const sim::SimTime to{sim::seconds(50).ns()};
  const double d1 = trace.mean_in("reported.agg-1.dev-1", from, to);
  const double d2 = trace.mean_in("reported.agg-1.dev-2", from, to);
  const double agg = trace.mean_in("feeder.agg-1", from, to);
  const double sum = d1 + d2;
  return sum > 0.0 ? (agg - sum) / sum * 100.0 : 0.0;
}

}  // namespace

int main() {
  emon::util::LogConfig::set_level(emon::util::LogLevel::kError);
  using emon::util::Table;

  std::cout << "=== Ablation: Figure 5 error-source decomposition ===\n\n";

  // NOTE on sensor terms: offsets/gains are per-part draws from the
  // datasheet band.  They are ablated through the loss/overhead = 0 rows:
  // whatever gap remains there is the sensor contribution.
  const Config configs[] = {
      {"full model (defaults)", true, true, 0.03, 2.0},
      {"no proportional losses", true, true, 0.0, 2.0},
      {"no board overhead", true, true, 0.03, 0.0},
      {"sensors only (no loss, no overhead)", true, true, 0.0, 0.0},
  };

  Table table({"configuration", "gap @ 1x load [%]", "gap @ 0.4x load [%]",
               "gap @ 2x load [%]"});
  for (const auto& config : configs) {
    table.row(config.name,
              Table::num(measure_gap_pct(config, 1.0), 2),
              Table::num(measure_gap_pct(config, 0.4), 2),
              Table::num(measure_gap_pct(config, 2.0), 2));
  }
  std::cout << table.render() << '\n';

  std::cout
      << "reading the table:\n"
      << "  * 'sensors only' row ~= pure INA219 offset/gain contribution\n"
      << "  * overhead term dominates at light load (fixed mA vs small sum)\n"
      << "  * loss_fraction contributes a constant ~3 % independent of load\n"
      << "  * the paper's 0.9-8.2 % band emerges from load level variation\n";
  return 0;
}
