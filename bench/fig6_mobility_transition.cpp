// Figure 6 — "Current consumption reported at Aggregator 1 for a mobile
// device transiting from network 1 to network 2, before and after
// connection establishment with Aggregator 2."
//
// Timeline reproduced:
//   * device reports to Aggregator 1 every 100 ms (left half),
//   * device unplugs and transits (Idle: no consumption, flat zero),
//   * device plugs into network 2 and handshakes for T_handshake
//     (consumption happens but is stored locally — it appears in the plot
//     with its measurement timestamps once flushed),
//   * after temporary membership, buffered + live data reach Aggregator 1
//     via Aggregator 2 and the backhaul.
//
// Output: 1 s-binned series of (a) current by measurement time as known to
// Aggregator 1 at the end, (b) arrival times showing the backfill burst.

#include <fstream>
#include <iostream>

#include "core/scenario.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

int main() {
  emon::util::LogConfig::set_level(emon::util::LogLevel::kError);
  using namespace emon;

  core::Testbed bed{core::paper_figure4(/*seed=*/2020),
                    core::TestbedOptions{.retain_trace = true}};
  bed.start();

  const auto depart = sim::seconds(60);
  const auto transit = sim::seconds(20);
  bed.kernel().schedule_at(sim::SimTime::zero() + depart, [&bed] {
    bed.device(0).move_to(
        bed.network_name(1),
        net::Position{bed.network_position(1).x + 2.0, 0.0},
        sim::seconds(20));
  });
  const auto total = sim::seconds(120);
  bed.run_for(total);

  auto& dev = bed.device(0);
  const auto& handshakes = dev.handshakes();

  std::cout << "=== Figure 6: mobile device transiting wan-1 -> wan-2 ===\n"
            << "T_measure = 100 ms; depart t=60 s; transit (Idle) = 20 s\n\n";

  // Timeline annotations, as in the figure.
  util::Table events({"event", "t [s]"});
  events.row("device disconnected from network 1",
             util::Table::num(depart.to_seconds(), 1));
  events.row("device connected to network 2 (plug-in)",
             util::Table::num((depart + transit).to_seconds(), 1));
  if (handshakes.size() >= 2) {
    const auto& roam = handshakes[1];
    events.row("temporary membership established",
               util::Table::num(roam.completed_at.to_seconds(), 1));
    events.row("T_handshake", util::Table::num(roam.duration().to_seconds(), 2));
  }
  // First arrival of roamed data at the master.
  const auto& arrivals = bed.trace().series("arrival.agg-1.dev-1");
  for (const auto& p : arrivals) {
    if (p.time > sim::SimTime::zero() + depart) {
      events.row("device data received from network 2 (at agg-1)",
                 util::Table::num(p.time.to_seconds(), 1));
      break;
    }
  }
  std::cout << events.render() << '\n';

  // The reported-current series (by measurement timestamp), binned at 1 s —
  // this is the curve of Figure 6 as Aggregator 1 can reconstruct it.
  const auto& trace = bed.trace();
  std::ofstream csv("fig6_mobility_transition.csv");
  csv << "time_s,reported_ma,phase\n";
  util::Table series({"t [s]", "reported at agg-1 [mA]", "phase"});
  const double hs_end = handshakes.size() >= 2
                            ? handshakes[1].completed_at.to_seconds()
                            : 0.0;
  for (int s = 0; s < static_cast<int>(total.to_seconds()); s += 2) {
    const sim::SimTime from{sim::seconds(s).ns()};
    const sim::SimTime to{sim::seconds(s + 2).ns()};
    const double ma = trace.mean_in("reported.agg-1.dev-1", from, to);
    const char* phase = "reporting to agg-1";
    const double t0 = depart.to_seconds();
    const double t1 = (depart + transit).to_seconds();
    if (s >= t0 && s < t1) {
      phase = "Idle (transit)";
    } else if (s >= t1 && s < hs_end) {
      phase = "T_handshake (stored locally, backfilled)";
    } else if (s >= t1) {
      phase = "reporting via agg-2 (temporary member)";
    }
    series.row(s, util::Table::num(ma, 2), phase);
    csv << s << ',' << ma << ',' << phase << '\n';
  }
  std::cout << series.render() << '\n';

  // Shape checks mirroring the paper's claims.
  bool idle_flat = true;
  for (const auto& p : trace.series("reported.agg-1.dev-1")) {
    const double t = p.time.to_seconds();
    if (t > depart.to_seconds() + 0.2 &&
        t < (depart + transit).to_seconds() - 0.2 && p.value > 1.0) {
      idle_flat = false;
    }
  }
  int backfilled = 0;
  for (const auto& p : trace.series("reported.agg-1.dev-1")) {
    const double t = p.time.to_seconds();
    if (t >= (depart + transit).to_seconds() && t < hs_end && p.value > 1.0) {
      ++backfilled;
    }
  }
  std::cout << "idle window flat at zero   : " << (idle_flat ? "PASS" : "FAIL")
            << '\n';
  std::cout << "handshake window backfilled: " << backfilled
            << " records (expect ~" << static_cast<int>((hs_end - 80.0) * 10)
            << " at 10 Hz) — " << (backfilled > 30 ? "PASS" : "FAIL") << '\n';
  std::cout << "records forwarded by agg-2 : "
            << bed.aggregator(0).stats().roam_records_received << '\n';
  std::cout << "csv                        : fig6_mobility_transition.csv\n";
  return (idle_flat && backfilled > 30) ? 0 : 1;
}
