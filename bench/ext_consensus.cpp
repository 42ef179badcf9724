// Extension — device-level consensus (the paper's future work, §IV).
//
// Compares the trusted-aggregator chain (no consensus, paper §II-A) with
// rotating-leader quorum consensus among the devices themselves:
//   * commit latency per block,
//   * messages per committed block,
//   * behaviour under crash faults.

#include <chrono>
#include <iostream>

#include "chain/permissioned.hpp"
#include "core/consensus.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace {

emon::chain::RecordBytes record_bytes(int i) {
  emon::chain::RecordBytes bytes;
  const std::string payload = "record-" + std::to_string(i) + "-padding-to-64B-"
                              "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx";
  bytes.assign(payload.begin(), payload.end());
  return bytes;
}

}  // namespace

int main() {
  emon::util::LogConfig::set_level(emon::util::LogLevel::kError);
  using namespace emon;
  using util::Table;

  std::cout << "=== Extension: consensus among devices vs trusted "
               "aggregator ===\n\n";

  // Baseline: the trusted-aggregator hash chain commits instantly (one
  // submit and collect, no messages) — that is the point of §II-A's design
  // choice.
  {
    chain::PermissionedChain chain;
    chain.register_writer({"agg-1", "s"});
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 100; ++i) {
      const auto ticket = chain.submit("agg-1", "s", {record_bytes(i)}, i);
      (void)chain.collect(ticket, i);
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double us_per_block =
        std::chrono::duration<double, std::micro>(t1 - t0).count() / 100.0;
    std::cout << "baseline (trusted aggregator, no consensus): 0 network "
                 "messages, "
              << Table::num(us_per_block, 1)
              << " us CPU per block, 0 s protocol latency\n\n";
  }

  Table table({"devices", "faulty", "rounds ok", "rounds failed",
               "msgs/committed block", "commit latency mean [ms]",
               "p99 [ms]", "consistent"});

  for (std::size_t members : {std::size_t{3}, std::size_t{5}, std::size_t{9}, std::size_t{15}}) {
    for (std::size_t faulty : {std::size_t{0}, std::size_t{1}, members / 3}) {
      sim::Kernel kernel;
      core::ConsensusGroup group{kernel, members, core::ConsensusParams{},
                                 util::Rng{5}};
      for (std::size_t f = 0; f < faulty; ++f) {
        group.set_faulty(members - 1 - f, true);  // avoid leader 0 first
      }
      group.start();
      int next_record = 0;
      // Feed records at 20/s for 30 simulated seconds.
      sim::PeriodicTimer feeder{kernel, sim::milliseconds(50), [&] {
        group.submit(record_bytes(next_record++));
      }};
      feeder.start();
      kernel.run_until(sim::SimTime{sim::seconds(30).ns()});
      feeder.stop();
      group.stop();

      const auto& m = group.metrics();
      const double msgs_per_block =
          m.rounds_committed > 0
              ? static_cast<double>(m.messages_sent) /
                    static_cast<double>(m.rounds_committed)
              : 0.0;
      table.row(members, faulty, m.rounds_committed, m.rounds_failed,
                Table::num(msgs_per_block, 1),
                m.commit_latency_s.empty()
                    ? std::string("-")
                    : Table::num(m.commit_latency_s.mean() * 1e3, 2),
                m.commit_latency_s.empty()
                    ? std::string("-")
                    : Table::num(m.commit_latency_s.quantile(0.99) * 1e3, 2),
                group.replicas_consistent() ? "yes" : "NO");
    }
  }
  std::cout << table.render() << '\n';
  std::cout
      << "shape: message cost grows ~3(n-1) per block and latency adds two\n"
      << "radio hops vs zero for the trusted aggregator — quantifying the\n"
      << "paper's rationale for deferring consensus to future work.\n";
  return 0;
}
