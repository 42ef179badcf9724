// Benchmark binary: runs one workload and prints, as its last stdout line,
// {"correct", "attempted", "failed", "metrics"}.  The line before it is the
// run's environment stamp and check outcomes ("stamp: {...}").
//
//   emon_perfbench --workload serve_ingest|serve_mixed|fleet_sim
//                  --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 measures the workload's end-to-end metrics; --trace 1 runs the
// traced per-layer procedure instead.  Exits 1 when any output check or
// operation failed, 2 on bad arguments.

#include <algorithm>
#include <iostream>
#include <string>
#include <thread>

#include "util/log.hpp"
#include "workloads.hpp"

namespace {

/// An end-to-end run during which the hypervisor stole more than this share
/// of the machine's CPU time measured the host, not the program: it is run
/// once more if that fits in kAttemptBudgetS, and the run with the least
/// steal is reported.  A run that failed a check or an operation is
/// reported at once.  One retry at most keeps a host with steady steal from
/// tripling every run's wall time.
constexpr double kMaxStealShare = 0.02;
constexpr int kMaxAttempts = 2;
constexpr double kAttemptBudgetS = 100.0;

pb::RunResult run_workload(const pb::RunArgs& args) {
  if (args.workload == "serve_ingest") {
    return pb::run_serve_ingest(args);
  }
  if (args.workload == "serve_mixed") {
    return pb::run_serve_mixed(args);
  }
  return pb::run_fleet_sim(args);
}

pb::RunResult run_end_to_end(const pb::RunArgs& args) {
  const double cpus =
      std::max(1.0, static_cast<double>(std::thread::hardware_concurrency()));
  const std::int64_t start = pb::now_ns();
  pb::RunResult best;
  double best_share = 0.0;
  std::string shares;
  for (int attempt = 1;; ++attempt) {
    const std::int64_t t0 = pb::now_ns();
    const double steal0 = pb::steal_seconds();
    pb::RunResult run = run_workload(args);
    const std::int64_t t1 = pb::now_ns();
    const double share = (pb::steal_seconds() - steal0) /
                         (static_cast<double>(t1 - t0) / 1e9 * cpus);
    if (!shares.empty()) {
      shares += ' ';
    }
    shares += std::to_string(share);
    if (attempt == 1 || share < best_share || !run.correct() ||
        run.failed() != 0) {
      best = std::move(run);
      best_share = share;
    }
    const double elapsed_s = static_cast<double>(t1 - start) / 1e9;
    const double attempt_s = static_cast<double>(t1 - t0) / 1e9;
    if (!best.correct() || best.failed() != 0 || best_share <= kMaxStealShare ||
        attempt == kMaxAttempts || elapsed_s + attempt_s > kAttemptBudgetS) {
      break;
    }
  }
  best.note("steal_share_per_attempt", shares);
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  emon::util::LogConfig::set_level(emon::util::LogLevel::kError);
  pb::RunArgs args;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      std::cerr << "unknown flag " << flag << '\n';
      return 2;
    }
  }
  if (args.seconds <= 0.0) {
    std::cerr << "--seconds must be positive\n";
    return 2;
  }
  pb::RunResult result;
  if (args.workload != "serve_ingest" && args.workload != "serve_mixed" &&
      args.workload != "fleet_sim") {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  result = trace ? pb::run_traced(args) : run_end_to_end(args);
  std::cout << "stamp: " << result.stamp_json() << '\n'
            << result.result_json() << std::endl;
  return result.correct() && result.failed() == 0 ? 0 : 1;
}
