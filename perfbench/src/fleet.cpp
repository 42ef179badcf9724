// fleet_sim: metro_fleet(32, 10'000, seed) on 4 shards.  The only workload
// that runs the device side (hw, SeriesStore, protocol encode), net, both
// sim kernels and chain.  Set-up covers building the testbed, start() and
// the registration warm-up; the measured phase is steady reporting.

#include "fleet.hpp"

#include <algorithm>
#include <iostream>

#include "core/scenario.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

namespace pb {

namespace store = emon::store;
namespace core = emon::core;
namespace sim = emon::sim;

namespace {
constexpr int kSetupReps = 3;
constexpr std::size_t kFleetNetworks = 32;
constexpr std::size_t kFleetDevices = 10'000;
/// Dashboard queries per requested second.  Each costs ~2 ms, so p99 is
/// estimated from 3,000 samples at 15 s: with ~1,000 it spread 0.22
/// (IQR / median) over ten seeds.
constexpr double kFleetQueriesPerSec = 200.0;
}  // namespace

std::unique_ptr<core::Testbed> build_fleet(std::uint64_t seed,
                                           std::size_t shards) {
  auto bed = std::make_unique<core::Testbed>(
      core::metro_fleet(kFleetNetworks, kFleetDevices, seed),
      core::TestbedOptions{shards});
  bed->start();
  bed->run_for(kFleetWarmup);
  return bed;
}

double reporting_share(core::Testbed& bed) {
  std::size_t reporting = 0;
  for (std::size_t i = 0; i < bed.device_count(); ++i) {
    reporting += bed.device(i).state() == core::DeviceState::kReporting ? 1 : 0;
  }
  return static_cast<double>(reporting) /
         static_cast<double>(bed.device_count());
}

std::uint64_t records_accepted(core::Testbed& bed) {
  std::uint64_t n = 0;
  for (std::size_t a = 0; a < bed.network_count(); ++a) {
    n += bed.aggregator(a).stats().records_accepted;
  }
  return n;
}

PushProbe::PushProbe(core::Testbed& bed) {
  const auto& cfg = bed.spec().sys.aggregator;
  // The aggregator's own billing-preview roll-up geometry: subscribing with
  // an equal spec shares its maintained fold instead of adding one.
  spec_.window_ns = cfg.verify_interval.ns();
  spec_.slide_ns = spec_.window_ns;
  spec_.lateness_ns = cfg.rollup_lateness.ns();
  spec_.anchor_ns = 0;
  delays_.resize(bed.network_count());
  checked_.assign(bed.network_count(), 0);
  failed_.assign(bed.network_count(), 0);
  for (std::size_t a = 0; a < bed.network_count(); ++a) {
    core::Aggregator& agg = bed.aggregator(a);
    sim::Kernel& kernel = bed.engine().shard(bed.shard_of_network(a));
    aggs_.push_back(&agg);
    handles_.push_back(agg.subscriptions().subscribe_local(
        spec_, [this, a, &agg, &kernel](const store::ClosedWindow& w) {
          if (recording_.load(std::memory_order_relaxed)) {
            delays_[a].push_back(
                static_cast<double>(kernel.now().ns() - w.merged.t_max_ns) / 1e6);
          }
          if (checking_.load(std::memory_order_relaxed)) {
            ++checked_[a];
            if (!window_equals_cold(
                    w, agg.query_engine().aggregate(
                           window_query(spec_, w.t0_ns, w.t1_ns)))) {
              ++failed_[a];
            }
          }
        }));
  }
}

PushProbe::~PushProbe() {
  for (std::size_t a = 0; a < aggs_.size(); ++a) {
    aggs_[a]->subscriptions().unsubscribe_local(handles_[a]);
  }
}

std::vector<double> PushProbe::delays_ms() const {
  std::vector<double> out;
  for (const auto& d : delays_) {
    out.insert(out.end(), d.begin(), d.end());
  }
  return out;
}

std::uint64_t PushProbe::checked() const {
  std::uint64_t n = 0;
  for (const auto c : checked_) {
    n += c;
  }
  return n;
}

std::uint64_t PushProbe::failed() const {
  std::uint64_t n = 0;
  for (const auto c : failed_) {
    n += c;
  }
  return n;
}

std::pair<std::uint64_t, std::uint64_t> PushProbe::rollup_totals() const {
  std::uint64_t late = 0;
  std::uint64_t patches = 0;
  for (std::size_t a = 0; a < aggs_.size(); ++a) {
    const store::RollupStats* st = aggs_[a]->rollup_engine().stats(
        aggs_[a]->subscriptions().backing_rollup(handles_[a]));
    if (st != nullptr) {
      late += st->records_dropped_late;
      patches += st->pane_patches;
    }
  }
  return {late, patches};
}

RunResult run_fleet_sim(const RunArgs& args) {
  emon::util::LogConfig::set_level(emon::util::LogLevel::kError);
  RunResult res;
  stamp_environment(res, args);

  std::vector<double> setup_s;
  std::unique_ptr<core::Testbed> bed;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    bed.reset();
    const std::int64_t t0 = now_ns();
    bed = build_fleet(args.seed, kFleetShards);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const double formed = reporting_share(*bed);
  res.note("reporting_share_after_warmup", formed);
  res.check("fleet_formed", formed >= 0.98,
            std::to_string(formed) + " of devices reporting");

  // -- Measured phase: steady reporting ---------------------------------------
  PushProbe probe(*bed);
  probe.record(true);
  const std::uint64_t before = records_accepted(*bed);
  // A fixed simulated span sized from --seconds, so every run covers the
  // same stretch of the scenario and ends with stores of the same size.
  const auto steps = static_cast<std::int64_t>(
      args.seconds * kFleetSimSecondsPerSecond * 1e9 /
      static_cast<double>(kFleetStep.ns()));
  // Dashboard queries against the aggregators' stores run between steps,
  // while the shards are parked: query i reads aggregator i % 32 with kind
  // (i / 32) % 3 over the trailing 10 sim-s.  Spreading them over the run
  // samples the same host conditions as the steps.
  const std::size_t nets = bed->network_count();
  const auto n_queries = static_cast<std::size_t>(
      std::max(1000.0, kFleetQueriesPerSec * args.seconds));
  const auto per_step = static_cast<std::size_t>(
      (n_queries + static_cast<std::size_t>(steps) - 1) /
      static_cast<std::size_t>(std::max<std::int64_t>(1, steps)));
  const auto query = [&](std::size_t i, std::int64_t now) {
    const core::Aggregator& agg = bed->aggregator(i % nets);
    store::QuerySpec q;
    q.t0_ns = now - kTrailingNs;
    q.t1_ns = now;
    switch ((i / nets) % 3) {
      case 0:
        (void)agg.query_engine().aggregate(q);
        break;
      case 1:
        q.filter.stored_offline = false;
        (void)agg.query_engine().current_stats(q);
        break;
      default:
        q.window_ns = kSecondNs;
        (void)agg.query_engine().downsample(q);
        break;
    }
  };
  std::vector<double> lat_us;
  std::size_t next_query = 0;
  // Per step, records accepted per wall second; the median over steps
  // rides out host-speed dips that a whole-run mean absorbs.
  std::vector<double> step_rates;
  std::uint64_t step_before = before;
  std::int64_t stepping_ns = 0;
  for (std::int64_t step = 0; step < steps; ++step) {
    const std::int64_t s0 = now_ns();
    bed->run_for(kFleetStep);
    const std::int64_t s1 = now_ns();
    stepping_ns += s1 - s0;
    const std::uint64_t now_accepted = records_accepted(*bed);
    step_rates.push_back(static_cast<double>(now_accepted - step_before) /
                         (static_cast<double>(s1 - s0) / 1e9));
    step_before = now_accepted;
    const std::int64_t sim_now = bed->engine().now().ns();
    for (std::size_t k = 0; k < per_step && next_query < n_queries; ++k) {
      const std::size_t i = next_query++;
      res.attempt();
      const std::int64_t q0 = now_ns();
      try {
        query(i, sim_now);
      } catch (const std::exception& e) {
        res.fail();
        std::cerr << "query " << i << " threw: " << e.what() << '\n';
        continue;
      }
      lat_us.push_back(static_cast<double>(now_ns() - q0) / 1e3);
    }
  }
  probe.record(false);
  const std::uint64_t accepted = records_accepted(*bed) - before;
  res.metric("ingest_rec_per_s", percentile(step_rates, 0.5), "rec/s");
  res.note("ingest_rec_per_s_mean",
           static_cast<double>(accepted) /
               (static_cast<double>(stepping_ns) / 1e9));
  res.note("measured_sim_s", static_cast<double>(steps) *
                                 static_cast<double>(kFleetStep.ns()) / 1e9);
  std::vector<double> delays = probe.delays_ms();
  res.check("push_delay_samples_support_p95",
            percentile_supported(delays.size(), 0.95),
            std::to_string(delays.size()) + " samples");
  if (!delays.empty()) {
    res.metric("push_delay_p50_ms", percentile(delays, 0.5), "ms");
    res.metric("push_delay_p95_ms", percentile(delays, 0.95), "ms");
    res.note("push_delay_samples", static_cast<double>(delays.size()));
  }

  // -- Output check: every aggregator's pushes equal cold queries -------------
  probe.check(true);
  bed->run_for(kFleetCheckSpan);
  probe.check(false);
  res.check("pushes_equal_cold_queries",
            probe.checked() >= bed->network_count() && probe.failed() == 0,
            std::to_string(probe.failed()) + " of " +
                std::to_string(probe.checked()) + " differ");

  res.check("query_samples_support_p99", percentile_supported(lat_us.size(), 0.99));
  if (!lat_us.empty()) {
    res.metric("query_p50_us", percentile(lat_us, 0.5), "us");
    res.metric("query_p99_us", percentile(lat_us, 0.99), "us");
  }

  // Malformed or misrouted frames anywhere are failed operations.
  std::uint64_t reports = 0;
  std::uint64_t bad = 0;
  for (std::size_t a = 0; a < bed->network_count(); ++a) {
    const auto& st = bed->aggregator(a).stats();
    reports += st.reports_accepted;
    bad += st.malformed_frames + st.unexpected_frames;
  }
  res.attempt(reports + bad);
  res.fail(bad);
  res.check("no_malformed_frames", bad == 0, std::to_string(bad));

  res.metric("setup_s", percentile(setup_s, 0.5), "s");
  res.metric("rss_peak_mb", peak_rss_mb(), "MB");
  res.note("host_probe_after", host_probe());
  res.note("steal_s_after", steal_seconds());
  return res;
}

}  // namespace pb
