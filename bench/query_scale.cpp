// Query-engine scaling benchmark — fleet-wide Tsdb reads vs worker count
// under a 10,000-device / 32-network metro_fleet-shaped ingest.
//
// The store is populated directly with the metro_fleet record shape
// (per-device jittered 10 Hz streams across 32 WANs, a roaming slice per
// 8th device arriving out of order, 1-in-5 offline-buffered records) so the
// bench isolates the query path: the same four dashboard/billing/
// verification-style fleet queries run at every requested worker count and
// are compared bit-for-bit against the workers=1 sequential reference —
// parity is the hard gate, the latency table is the measurement.
//
//   Q1 aggregate        whole-history roll-up (summary fast path heavy)
//   Q2 current_stats    live-only filter over the mid 60% window (decode)
//   Q3 downsample       1 s fleet windows over the full span (merge heavy)
//   Q4 breakdown        per-network billing read via BillingService
//
// Flags: --devices N     (default 10000)
//        --networks N    (default 32)
//        --records N     per device (default 120)
//        --shards N      Tsdb shards (default 64)
//        --max-workers N (default 8; measured at 1,2,4,...,max)
//        --repeat N      timed repetitions per point, best kept (default 3)
//        --seed N        (default 1)
//        --out FILE      (default BENCH_query.json)
//        --min-speedup X best-worker-count floor, enforced only when the
//                        machine has >= that many hardware threads
//                        (default 0 = record only)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/billing.hpp"
#include "core/records.hpp"
#include "store/query_engine.hpp"
#include "store/tsdb.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using emon::core::ConsumptionRecord;
using emon::core::DeviceId;
using emon::core::NetworkId;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Workload {
  std::vector<ConsumptionRecord> arrival_order;
  std::vector<DeviceId> devices;
  std::int64_t t_min_ns = 0;
  std::int64_t t_max_ns = 0;
};

/// metro_fleet-shaped ingest: round-robin interleaved device streams, every
/// 8th device roams to the neighbouring WAN for the middle sixth of its
/// stream and that slice arrives last (roam-forwarded batch).
Workload make_workload(std::size_t devices, std::size_t networks,
                       std::size_t per_device, std::uint64_t seed) {
  Workload w;
  std::vector<std::vector<ConsumptionRecord>> streams(devices);
  emon::util::Rng rng{seed};
  for (std::size_t d = 0; d < devices; ++d) {
    const DeviceId id = "dev-" + std::to_string(d + 1);
    const NetworkId home = "wan-" + std::to_string(d % networks);
    const NetworkId visited = "wan-" + std::to_string((d + 1) % networks);
    const bool roams = d % 8 == 0;
    w.devices.push_back(id);
    std::vector<ConsumptionRecord> live;
    std::vector<ConsumptionRecord> roamed;
    std::int64_t t = static_cast<std::int64_t>(d) * 9'000'000;
    for (std::size_t i = 0; i < per_device; ++i) {
      t += 100'000'000 + static_cast<std::int64_t>(rng.uniform(-50e3, 50e3));
      ConsumptionRecord r;
      r.device_id = id;
      r.sequence = i + 1;
      r.timestamp_ns = t;
      r.interval_ns = 100'000'000;
      r.current_ma = 150.0 + 40.0 * static_cast<double>(d % 7) +
                     rng.uniform(-5.0, 5.0);
      r.bus_voltage_mv = 5000.0 + rng.uniform(-10.0, 10.0);
      r.energy_mwh = r.current_ma * 5.0 * (0.1 / 3600.0);
      const bool away = roams && i >= per_device / 3 && i < per_device / 2;
      r.network = away ? visited : home;
      r.stored_offline = i % 5 == 0;
      (away ? roamed : live).push_back(std::move(r));
    }
    live.insert(live.end(), std::make_move_iterator(roamed.begin()),
                std::make_move_iterator(roamed.end()));
    streams[d] = std::move(live);
  }
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (auto& stream : streams) {
      if (i < stream.size()) {
        w.arrival_order.push_back(std::move(stream[i]));
        any = true;
      }
    }
    if (!any) {
      break;
    }
  }
  w.t_min_ns = INT64_MAX;
  w.t_max_ns = INT64_MIN;
  for (const auto& r : w.arrival_order) {
    w.t_min_ns = std::min(w.t_min_ns, r.timestamp_ns);
    w.t_max_ns = std::max(w.t_max_ns, r.timestamp_ns);
  }
  return w;
}

/// One worker count's answers, kept whole for the parity comparison.
struct QueryAnswers {
  emon::store::FleetAggregate agg;
  emon::store::FleetStats stats;
  emon::store::FleetWindows windows;
  std::vector<emon::core::Invoice> invoices;
};

bool aggregates_equal(const emon::store::DeviceAggregate& a,
                      const emon::store::DeviceAggregate& b) {
  return a.count == b.count && a.t_min_ns == b.t_min_ns &&
         a.t_max_ns == b.t_max_ns && a.min_current_ma == b.min_current_ma &&
         a.max_current_ma == b.max_current_ma &&
         a.avg_current_ma == b.avg_current_ma &&
         a.sum_energy_mwh == b.sum_energy_mwh;
}

bool answers_equal(const QueryAnswers& a, const QueryAnswers& b) {
  if (a.agg.per_device.size() != b.agg.per_device.size() ||
      !aggregates_equal(a.agg.merged, b.agg.merged)) {
    return false;
  }
  for (std::size_t i = 0; i < a.agg.per_device.size(); ++i) {
    if (a.agg.per_device[i].first != b.agg.per_device[i].first ||
        !aggregates_equal(a.agg.per_device[i].second,
                          b.agg.per_device[i].second)) {
      return false;
    }
  }
  const auto running_stats_equal = [](const emon::util::RunningStats& x,
                                      const emon::util::RunningStats& y) {
    if (x.count() != y.count()) {
      return false;
    }
    return x.empty() || (x.mean() == y.mean() && x.min() == y.min() &&
                         x.max() == y.max() && x.variance() == y.variance());
  };
  if (a.stats.per_device.size() != b.stats.per_device.size() ||
      !running_stats_equal(a.stats.merged, b.stats.merged)) {
    return false;
  }
  for (std::size_t i = 0; i < a.stats.per_device.size(); ++i) {
    if (a.stats.per_device[i].first != b.stats.per_device[i].first ||
        !running_stats_equal(a.stats.per_device[i].second,
                             b.stats.per_device[i].second)) {
      return false;
    }
  }
  const auto windows_equal = [](const emon::store::WindowAggregate& x,
                                const emon::store::WindowAggregate& y) {
    return x.start_ns == y.start_ns && x.count == y.count &&
           x.avg_current_ma == y.avg_current_ma &&
           x.max_current_ma == y.max_current_ma &&
           x.sum_energy_mwh == y.sum_energy_mwh;
  };
  if (a.windows.merged.size() != b.windows.merged.size() ||
      a.windows.per_device.size() != b.windows.per_device.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.windows.merged.size(); ++i) {
    if (!windows_equal(a.windows.merged[i], b.windows.merged[i])) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.windows.per_device.size(); ++i) {
    const auto& da = a.windows.per_device[i];
    const auto& db_ = b.windows.per_device[i];
    if (da.first != db_.first || da.second.size() != db_.second.size()) {
      return false;
    }
    for (std::size_t w = 0; w < da.second.size(); ++w) {
      if (!windows_equal(da.second[w], db_.second[w])) {
        return false;
      }
    }
  }
  if (a.invoices.size() != b.invoices.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.invoices.size(); ++i) {
    if (a.invoices[i].device_id != b.invoices[i].device_id ||
        a.invoices[i].total_energy_mwh != b.invoices[i].total_energy_mwh ||
        a.invoices[i].total_cost != b.invoices[i].total_cost) {
      return false;
    }
  }
  return true;
}

struct Timings {
  std::size_t workers = 0;
  // Best (minimum) over the --repeat runs.
  double aggregate_ms = 1e300;
  double stats_ms = 1e300;
  double downsample_ms = 1e300;
  double billing_ms = 1e300;
  [[nodiscard]] double total_ms() const {
    return aggregate_ms + stats_ms + downsample_ms + billing_ms;
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace emon;
  util::LogConfig::set_level(util::LogLevel::kError);

  std::size_t devices = 10'000;
  std::size_t networks = 32;
  std::size_t per_device = 120;
  std::size_t shards = 64;
  std::size_t max_workers = 8;
  std::size_t repeat = 3;
  std::uint64_t seed = 1;
  std::string out_path = "BENCH_query.json";
  double min_speedup = 0.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--devices") {
      devices = std::stoul(value);
    } else if (flag == "--networks") {
      networks = std::stoul(value);
    } else if (flag == "--records") {
      per_device = std::stoul(value);
    } else if (flag == "--shards") {
      shards = std::stoul(value);
    } else if (flag == "--max-workers") {
      max_workers = std::stoul(value);
    } else if (flag == "--repeat") {
      repeat = std::stoul(value);
    } else if (flag == "--seed") {
      seed = std::stoull(value);
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--min-speedup") {
      min_speedup = std::stod(value);
    } else {
      std::cerr << "unknown flag " << flag << '\n';
      return 2;
    }
  }
  max_workers = std::max<std::size_t>(1, max_workers);
  repeat = std::max<std::size_t>(1, repeat);

  // -- Ingest -----------------------------------------------------------------
  const Workload workload = make_workload(devices, networks, per_device, seed);
  // Seal every 32 records so the default --records 120 produces several
  // sealed segments per device (the summary fast path must be in play).
  store::Tsdb db{store::TsdbOptions{shards, 32}};
  const auto ingest_t0 = Clock::now();
  for (const auto& r : workload.arrival_order) {
    db.ingest(r);
  }
  const double ingest_ms = ms_since(ingest_t0);
  const auto db_stats = db.stats();
  std::cout << "=== Query scaling: " << devices << " devices / " << networks
            << " networks, " << db_stats.records_ingested
            << " records ingested in " << util::Table::num(ingest_ms, 0)
            << " ms (" << db_stats.segments_sealed << " sealed segments, "
            << db.shard_count() << " shards) ===\n\n";

  // -- Query specs ------------------------------------------------------------
  const std::int64_t span = workload.t_max_ns - workload.t_min_ns;
  store::QuerySpec whole;  // Q1: whole-history fleet roll-up
  store::QuerySpec live_mid;  // Q2: live-only, mid 60% (verification read)
  live_mid.t0_ns = workload.t_min_ns + span / 5;
  live_mid.t1_ns = workload.t_max_ns - span / 5;
  live_mid.filter.stored_offline = false;
  store::QuerySpec windows = whole;  // Q3: 1 s fleet windows
  windows.window_ns = 1'000'000'000;

  const auto run_queries = [&](const store::QueryEngine& engine,
                               const core::BillingService& billing,
                               Timings& timings) {
    QueryAnswers answers;
    auto t0 = Clock::now();
    answers.agg = engine.aggregate(whole);
    timings.aggregate_ms = std::min(timings.aggregate_ms, ms_since(t0));
    t0 = Clock::now();
    answers.stats = engine.current_stats(live_mid);
    timings.stats_ms = std::min(timings.stats_ms, ms_since(t0));
    t0 = Clock::now();
    answers.windows = engine.downsample(windows);
    timings.downsample_ms = std::min(timings.downsample_ms, ms_since(t0));
    t0 = Clock::now();
    answers.invoices = billing.invoice_all();
    timings.billing_ms = std::min(timings.billing_ms, ms_since(t0));
    return answers;
  };

  // -- Measure per worker count -----------------------------------------------
  std::vector<std::size_t> worker_counts;
  for (std::size_t w = 1; w <= max_workers; w *= 2) {
    worker_counts.push_back(w);
  }
  if (worker_counts.back() != max_workers) {
    worker_counts.push_back(max_workers);
  }

  std::vector<Timings> results;
  QueryAnswers reference;
  bool parity = true;
  for (const std::size_t w : worker_counts) {
    const store::QueryEngine engine{db, store::QueryEngineOptions{w}};
    core::BillingService billing{"wan-0", core::Tariff{}};
    billing.bind_engine(&engine);
    for (const auto& id : workload.devices) {
      billing.mark_billable(id);
    }
    Timings timings;
    timings.workers = w;
    QueryAnswers answers;
    for (std::size_t rep = 0; rep < repeat; ++rep) {
      answers = run_queries(engine, billing, timings);
    }
    if (w == 1) {
      reference = std::move(answers);
    } else if (!answers_equal(reference, answers)) {
      parity = false;
      std::cerr << "PARITY FAIL at workers=" << w << '\n';
    }
    results.push_back(timings);
  }

  const double base_total = results.front().total_ms();
  util::Table table({"workers", "aggregate [ms]", "stats [ms]",
                     "downsample [ms]", "billing [ms]", "total [ms]",
                     "speedup"});
  for (const auto& t : results) {
    table.row(t.workers, util::Table::num(t.aggregate_ms, 2),
              util::Table::num(t.stats_ms, 2),
              util::Table::num(t.downsample_ms, 2),
              util::Table::num(t.billing_ms, 2),
              util::Table::num(t.total_ms(), 2),
              util::Table::num(base_total / t.total_ms(), 2) + " x");
  }
  std::cout << table.render() << '\n';

  // Fleet shape checks: the queries actually saw the whole fleet.
  const bool coverage_ok =
      reference.agg.per_device.size() == devices &&
      reference.agg.merged.count == db_stats.records_ingested &&
      reference.invoices.size() == devices;

  double best_speedup = 1.0;
  std::size_t best_workers = 1;
  for (const auto& t : results) {
    const double s = base_total / t.total_ms();
    if (s > best_speedup) {
      best_speedup = s;
      best_workers = t.workers;
    }
  }
  const unsigned hw_threads = std::thread::hardware_concurrency();

  // -- JSON artifact ----------------------------------------------------------
  std::ofstream json(out_path);
  json << "{\n"
       << "  \"devices\": " << devices << ", \"networks\": " << networks
       << ", \"records_per_device\": " << per_device
       << ", \"records_ingested\": " << db_stats.records_ingested
       << ", \"shards\": " << db.shard_count()
       << ", \"segments_sealed\": " << db_stats.segments_sealed
       << ", \"ingest_ms\": " << ingest_ms
       << ", \"hardware_threads\": " << hw_threads << ",\n"
       << "  \"points\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& t = results[i];
    json << "    {\"workers\": " << t.workers
         << ", \"aggregate_ms\": " << t.aggregate_ms
         << ", \"stats_ms\": " << t.stats_ms
         << ", \"downsample_ms\": " << t.downsample_ms
         << ", \"billing_ms\": " << t.billing_ms
         << ", \"total_ms\": " << t.total_ms()
         << ", \"speedup\": " << base_total / t.total_ms() << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"best_speedup\": " << best_speedup
       << ", \"best_workers\": " << best_workers
       << ", \"parity\": " << (parity ? "true" : "false")
       << ", \"coverage_ok\": " << (coverage_ok ? "true" : "false") << "\n"
       << "}\n";
  std::cout << "json: " << out_path << '\n';

  // -- Shape gate -------------------------------------------------------------
  bool ok = parity && coverage_ok;
  std::cout << "shape check: parity " << (parity ? "PASS" : "FAIL")
            << "; coverage " << (coverage_ok ? "PASS" : "FAIL");
  if (min_speedup > 0.0) {
    const bool enforceable = hw_threads >= best_workers && hw_threads > 1;
    const bool speedup_ok = best_speedup >= min_speedup;
    if (enforceable && !speedup_ok) {
      ok = false;
    }
    std::cout << "; speedup >= " << min_speedup << ": "
              << (speedup_ok ? "PASS" : (enforceable ? "FAIL" : "SKIP (cores)"));
  }
  std::cout << '\n';
  return ok ? 0 : 1;
}
