// Quickstart: the paper's testbed (Figure 4) in ~60 lines.
//
// Two WANs x two devices + one aggregator each.  Devices register, report
// every 100 ms over MQTT, the aggregators verify reports against their
// feeder meters and write validated records into the shared permissioned
// blockchain.  We run 30 simulated seconds and print what happened.

#include <iostream>

#include "core/scenario.hpp"
#include "util/table.hpp"

int main() {
  using namespace emon;

  // The paper's testbed shape, as a canned scenario spec.
  core::Testbed bed{core::paper_figure4(/*seed=*/7)};
  bed.start();
  bed.run_for(sim::seconds(30));

  std::cout << "=== emon quickstart: 30 simulated seconds ===\n\n";

  util::Table devices({"device", "state", "network", "samples", "reports",
                       "acked", "buffered", "energy [mWh]"});
  for (std::size_t i = 0; i < bed.device_count(); ++i) {
    auto& dev = bed.device(i);
    devices.row(dev.id(), core::to_string(dev.state()), dev.plugged_network(),
                dev.stats().samples, dev.stats().reports_sent,
                dev.stats().reports_acked, dev.stats().records_buffered,
                util::as_milliwatt_hours(dev.meter().total_energy()));
  }
  std::cout << devices.render() << '\n';

  util::Table aggs({"aggregator", "members", "records", "blocks", "anomalies",
                    "feeder energy [mWh]"});
  for (std::size_t i = 0; i < bed.network_count(); ++i) {
    auto& agg = bed.aggregator(i);
    std::size_t anomalies = 0;
    for (const auto& v : agg.verification_history()) {
      anomalies += v.anomalous ? 1 : 0;
    }
    aggs.row(agg.id(), agg.members().size(), agg.stats().records_accepted,
             agg.stats().blocks_written, anomalies,
             util::as_milliwatt_hours(agg.feeder_meter().total_energy()));
  }
  std::cout << aggs.render() << '\n';

  const auto validation = bed.chain().validate();
  std::cout << "blockchain: " << bed.chain().ledger().size() << " blocks, "
            << bed.chain().ledger().record_count() << " records, "
            << (validation.ok ? "valid" : "INVALID: " + validation.reason)
            << "\n\n";

  // Per-device billing at each home aggregator.
  util::Table bills({"device", "billed by", "energy [mWh]", "cost"});
  for (std::size_t i = 0; i < bed.network_count(); ++i) {
    auto& agg = bed.aggregator(i);
    for (const auto& id : agg.billing().billed_devices()) {
      const auto invoice = agg.billing().invoice_for(id);
      bills.row(id, agg.id(), invoice.total_energy_mwh,
                util::Table::num(invoice.total_cost, 6));
    }
  }
  std::cout << bills.render() << '\n';

  // Historical queries against the aggregator's embedded time-series store:
  // "energy for dev-1 over [10 s, 20 s)", downsampled into 2 s windows — a
  // one-device query through the store's query engine.
  const auto& engine = bed.aggregator(0).query_engine();
  store::QuerySpec dev1;
  dev1.devices = {"dev-1"};
  dev1.t0_ns = sim::seconds(10).ns();
  dev1.t1_ns = sim::seconds(20).ns();
  dev1.window_ns = sim::seconds(2).ns();
  util::Table windows({"window start [s]", "records", "avg current [mA]",
                       "energy [mWh]"});
  for (const auto& [id, series] : engine.downsample(dev1).per_device) {
    for (const auto& w : series) {
      windows.row(util::Table::num(static_cast<double>(w.start_ns) / 1e9, 0),
                  w.count, util::Table::num(w.avg_current_ma, 1),
                  util::Table::num(w.sum_energy_mwh, 3));
    }
  }
  std::cout << "store query: dev-1 over [10 s, 20 s), 2 s windows\n"
            << windows.render();
  if (const auto range = engine.aggregate(dev1); !range.empty()) {
    std::cout << "range total: "
              << util::Table::num(range.merged.sum_energy_mwh, 3)
              << " mWh across " << range.merged.count << " records\n";
  }
  return 0;
}
