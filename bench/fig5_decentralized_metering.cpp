// Figure 5 — "Comparison of individual device measurements with the network
// aggregator measurement."
//
// Paper setup: one network, two ESP32 devices with INA219 sensors, plus the
// aggregator's own (centralized) measurement of the whole network.  The
// paper reports the aggregator value 0.9-8.2 % HIGHER than the sum of the
// device self-reports, attributed to ohmic losses and the sensors' 0.5 mA
// offset error.
//
// This bench reproduces the stacked-bar data: per 10 s bin, each device's
// reported mean current, their sum, and the aggregator's feeder measurement,
// with the relative gap.  The shape to check: gap always positive, inside
// (or near) the paper's 0.9-8.2 % band.

#include <fstream>
#include <iostream>

#include "core/scenario.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

int main() {
  emon::util::LogConfig::set_level(emon::util::LogLevel::kError);
  using namespace emon;

  // Strongly varying duty cycles so the 10 s bins span light and heavy
  // load mixes — at light load the fixed overhead terms dominate and the
  // relative gap rises, which is how the paper's band reaches 8.2 %.
  const auto wide_duty = [](const core::DeviceId& id, std::size_t index,
                            const util::SeedSequence& seeds) {
    const double low_ma = 3.0 + 2.0 * static_cast<double>(index);
    const double high_ma = 120.0 + 60.0 * static_cast<double>(index);
    const auto period =
        sim::milliseconds(17'000 + 6'000 * static_cast<std::int64_t>(index));
    const auto phase =
        sim::milliseconds(4'000 * static_cast<std::int64_t>(index));
    auto duty = std::make_shared<hw::DutyCycleLoad>(
        util::milliamps(low_ma), util::milliamps(high_ma), period, 0.45,
        phase);
    return hw::LoadProfilePtr(std::make_shared<hw::NoisyLoad>(
        std::move(duty), 0.05, sim::milliseconds(50),
        seeds.derive("load." + id)));
  };

  core::Testbed bed{core::FleetBuilder{}
                        .name("fig5")
                        .networks(1, 2)
                        .seed(11)
                        .load_factory(wide_duty)
                        .spec()};
  bed.start();
  const auto warmup = sim::seconds(20);  // registration handshakes
  const int bins = 10;
  const auto bin_width = sim::seconds(10);
  bed.run_for(warmup + bin_width * bins + sim::seconds(2));

  std::cout
      << "=== Figure 5: decentralized vs centralized metering ===\n"
      << "1 network, 2 devices, T_measure = 100 ms, " << bins
      << " bins x 10 s (20 s warm-up skipped)\n"
      << "paper result: aggregator reads 0.9-8.2 % above the device sum\n\n";

  util::Table table({"bin", "dev-1 [mA]", "dev-2 [mA]", "sum [mA]",
                     "aggregator [mA]", "gap [mA]", "gap [%]"});
  const core::Aggregator& aggregator = bed.aggregator(0);
  // Device self-reports as accepted at the aggregator, read back from its
  // store by measurement timestamp — the decentralized reading.
  const auto reported_ma = [&aggregator](const char* device,
                                         sim::SimTime from, sim::SimTime to) {
    store::QuerySpec spec;
    spec.devices = {device};
    spec.t0_ns = from.ns();
    spec.t1_ns = to.ns();
    return aggregator.query_engine().aggregate(spec).merged.avg_current_ma;
  };
  // The aggregator's own feeder meter — the centralized reading: the mean
  // of the 1 s verification windows that tile the bin.
  const auto feeder_ma = [&aggregator](sim::SimTime from, sim::SimTime to) {
    double sum = 0.0;
    int windows = 0;
    for (const auto& window : aggregator.verification_history()) {
      if (window.window_start >= from && window.window_end <= to) {
        sum += window.feeder_ma;
        ++windows;
      }
    }
    return windows == 0 ? 0.0 : sum / windows;
  };
  double min_gap = 1e9;
  double max_gap = -1e9;
  std::ofstream csv("fig5_decentralized_metering.csv");
  csv << "bin,dev1_ma,dev2_ma,sum_ma,aggregator_ma,gap_pct\n";

  for (int bin = 0; bin < bins; ++bin) {
    const sim::SimTime from = sim::SimTime::zero() + warmup +
                              bin_width * bin;
    const sim::SimTime to = from + bin_width;
    const double d1 = reported_ma("dev-1", from, to);
    const double d2 = reported_ma("dev-2", from, to);
    const double agg = feeder_ma(from, to);
    const double sum = d1 + d2;
    const double gap_pct = sum > 0.0 ? (agg - sum) / sum * 100.0 : 0.0;
    min_gap = std::min(min_gap, gap_pct);
    max_gap = std::max(max_gap, gap_pct);
    table.row(bin + 1, util::Table::num(d1, 2), util::Table::num(d2, 2),
              util::Table::num(sum, 2), util::Table::num(agg, 2),
              util::Table::num(agg - sum, 2), util::Table::num(gap_pct, 2));
    csv << bin + 1 << ',' << d1 << ',' << d2 << ',' << sum << ',' << agg
        << ',' << gap_pct << '\n';
  }
  std::cout << table.render() << '\n';
  std::cout << "measured gap range: " << util::Table::num(min_gap, 2) << " - "
            << util::Table::num(max_gap, 2) << " %   (paper: 0.9 - 8.2 %)\n";
  std::cout << "shape check        : "
            << (min_gap > 0.0 ? "PASS — aggregator always reads high"
                              : "FAIL — gap went negative")
            << '\n';
  std::cout << "error attribution  : INA219 offsets (|offset| <= 0.5 mA/part) "
               "+ ohmic losses + board overhead (see ablation bench)\n";
  std::cout << "csv                : fig5_decentralized_metering.csv\n";
  return min_gap > 0.0 ? 0 : 1;
}
