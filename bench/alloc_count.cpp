// Allocation-count bench — the EMON_HOT runtime witness as a CI artifact.
//
// Replays the serve workload's ingest path (Tsdb::ingest + the
// RollupEngine hook — the EMON_HOT functions tools/emon_lint.py polices)
// through util/alloc_probe.hpp's counting operator new, in four phases:
//
//   cold     the first record of every device: series creation, chunk and
//            dedup-run setup, rollup series/net-pane layout.  Allocations
//            here are by design (init_series and friends are the cold
//            branches the lint lets the hot bodies call into).
//   warmup   records 2..warmup: capacity doublings amortizing out.
//   steady   `measure` further records per device: the window the EMON_HOT
//            contract covers.  HARD GATE: zero operator-new calls, same
//            bar as tests/test_hot_alloc.cpp — plus the duplicate-drop
//            path re-ingesting one stale record per device, also zero.
//   seal     further records until every device's head reaches the seal
//            threshold (TsdbOptions' default, 256) and seals once.
//            RECORDED-ONLY (no gate): operator-new calls per Tsdb seal —
//            encoding the head chunk, the successor view and a fresh chunk.
//
// Writes BENCH_alloc.json (allocs per phase, per record, gate verdicts),
// which CI uploads as an artifact; exits 1 if a gate fails.
//
// Flags: --devices N   (default 2000)
//        --networks N  (default 8)
//        --warmup N    records per device before measuring (default 160)
//        --measure N   measured records per device (default 64); warmup +
//                      measure must stay below the seal threshold
//        --shards N    Tsdb shards (default 4)
//        --out FILE    (default BENCH_alloc.json)

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/records.hpp"
#include "store/rollup.hpp"
#include "store/tsdb.hpp"
#include "util/alloc_probe.hpp"

EMON_DEFINE_ALLOC_COUNTING_NEW

namespace {

using emon::core::ConsumptionRecord;
using emon::util::AllocProbe;

ConsumptionRecord make_record(std::size_t device, std::uint64_t seq,
                              std::size_t networks) {
  ConsumptionRecord r;
  r.device_id = "dev-" + std::to_string(device);
  r.sequence = seq;
  r.timestamp_ns = static_cast<std::int64_t>(seq) * 1'000'000;
  r.interval_ns = 1'000'000;
  r.current_ma = 100.0 + static_cast<double>((device + seq) % 50);
  r.bus_voltage_mv = 5'000.0;
  r.energy_mwh = 0.125 + static_cast<double>(seq % 7) * 0.001;
  r.network = "net-" + std::to_string(device % networks);
  return r;
}

/// Ingests rounds [seq_first, seq_last] across all devices with the probe
/// armed; returns the operator-new count.
std::uint64_t measured_rounds(emon::store::Tsdb& tsdb, std::size_t devices,
                              std::size_t networks, std::uint64_t seq_first,
                              std::uint64_t seq_last) {
  // Records are pre-built per round so the probe sees the store, not the
  // generator.
  std::vector<ConsumptionRecord> round;
  round.reserve(devices);
  std::uint64_t total = 0;
  for (std::uint64_t seq = seq_first; seq <= seq_last; ++seq) {
    round.clear();
    for (std::size_t d = 0; d < devices; ++d) {
      round.push_back(make_record(d, seq, networks));
    }
    AllocProbe::arm();
    for (const auto& r : round) {
      (void)tsdb.ingest(r);
    }
    total += AllocProbe::disarm();
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace emon;

  std::size_t devices = 2000;
  std::size_t networks = 8;
  std::uint64_t warmup = 160;
  std::uint64_t measure = 64;
  std::size_t shards = 4;
  std::string out_path = "BENCH_alloc.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--devices") {
      devices = std::stoul(value);
    } else if (flag == "--networks") {
      networks = std::stoul(value);
    } else if (flag == "--warmup") {
      warmup = std::stoull(value);
    } else if (flag == "--measure") {
      measure = std::stoull(value);
    } else if (flag == "--shards") {
      shards = std::stoul(value);
    } else if (flag == "--out") {
      out_path = value;
    } else {
      std::cerr << "unknown flag: " << flag << '\n';
      return 2;
    }
  }

  store::TsdbOptions opt;
  opt.shards = shards;
  const std::uint64_t seal_at = opt.seal_threshold;
  if (warmup + measure >= seal_at) {
    std::cerr << "warmup + measure must stay below the seal threshold ("
              << seal_at << ")\n";
    return 2;
  }
  store::Tsdb tsdb(opt);
  store::RollupEngine rollups(tsdb);
  tsdb.set_ingest_hook(&rollups);
  // A tumbling hour and a 2 h / 1 h sliding rollup: every record lands in
  // pane 0 of both, and no window closes mid-run.
  store::RollupSpec spec;
  spec.window_ns = 3'600'000'000'000;
  spec.slide_ns = 3'600'000'000'000;
  (void)rollups.register_rollup(spec);
  store::RollupSpec sliding = spec;
  sliding.window_ns = 2 * spec.slide_ns;
  (void)rollups.register_rollup(sliding);

  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t cold_allocs =
      measured_rounds(tsdb, devices, networks, 1, 1);
  const std::uint64_t warm_allocs =
      warmup > 1 ? measured_rounds(tsdb, devices, networks, 2, warmup) : 0;
  const std::uint64_t steady_allocs = measured_rounds(
      tsdb, devices, networks, warmup + 1, warmup + measure);

  // Duplicate-drop path: one stale (already admitted) record per device.
  std::vector<ConsumptionRecord> stale;
  stale.reserve(devices);
  for (std::size_t d = 0; d < devices; ++d) {
    stale.push_back(make_record(d, warmup + 1, networks));
  }
  AllocProbe::arm();
  for (const auto& r : stale) {
    (void)tsdb.ingest(r);
  }
  const std::uint64_t dup_allocs = AllocProbe::disarm();
  // Seal phase: every device's head fills up and seals exactly once.
  const std::uint64_t seal_allocs = measured_rounds(
      tsdb, devices, networks, warmup + measure + 1, seal_at);
  const double wall_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const std::uint64_t steady_records = devices * measure;
  const double cold_per_device =
      static_cast<double>(cold_allocs) / static_cast<double>(devices);
  const double steady_per_record = static_cast<double>(steady_allocs) /
                                   static_cast<double>(steady_records);
  const store::TsdbStats stats = tsdb.stats();
  const double seal_per_seal = static_cast<double>(seal_allocs) /
                               static_cast<double>(stats.segments_sealed);
  const bool steady_ok = steady_allocs == 0;
  const bool dup_ok = dup_allocs == 0;
  const bool counts_ok = stats.records_ingested == devices * seal_at &&
                         stats.duplicates_dropped == devices &&
                         stats.segments_sealed == devices;

  std::cout << "alloc_count: " << devices << " devices, " << warmup
            << " warmup + " << measure << " measured records/device\n"
            << "  cold:   " << cold_allocs << " allocs ("
            << cold_per_device << " per device)\n"
            << "  warmup: " << warm_allocs << " allocs\n"
            << "  steady: " << steady_allocs << " allocs over "
            << steady_records << " records (" << steady_per_record
            << " per record)\n"
            << "  dup:    " << dup_allocs << " allocs over " << devices
            << " duplicate drops\n"
            << "  seal:   " << seal_allocs << " allocs over "
            << stats.segments_sealed << " seals (" << seal_per_seal
            << " per seal; recorded-only, no gate)\n";

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"devices\": " << devices << ", \"networks\": " << networks
       << ", \"warmup_per_device\": " << warmup
       << ", \"measure_per_device\": " << measure
       << ", \"shards\": " << shards << ",\n"
       << "  \"cold_allocs\": " << cold_allocs
       << ", \"cold_allocs_per_device\": " << cold_per_device
       << ", \"warmup_allocs\": " << warm_allocs << ",\n"
       << "  \"steady_allocs\": " << steady_allocs
       << ", \"steady_records\": " << steady_records
       << ", \"steady_allocs_per_record\": " << steady_per_record
       << ", \"dup_allocs\": " << dup_allocs << ",\n"
       << "  \"seal_allocs\": " << seal_allocs
       << ", \"seals\": " << stats.segments_sealed
       << ", \"seal_allocs_per_seal\": " << seal_per_seal
       << ", \"seal_gate\": \"recorded-only\",\n"
       << "  \"wall_secs\": " << wall_secs
       << ", \"steady_zero_alloc\": " << (steady_ok ? "true" : "false")
       << ", \"dup_zero_alloc\": " << (dup_ok ? "true" : "false")
       << ", \"counts_ok\": " << (counts_ok ? "true" : "false") << "\n}\n";
  std::cout << "json: " << out_path << '\n';

  const bool ok = steady_ok && dup_ok && counts_ok;
  std::cout << "gates: steady zero-alloc " << (steady_ok ? "PASS" : "FAIL")
            << "; dup zero-alloc " << (dup_ok ? "PASS" : "FAIL")
            << "; counters " << (counts_ok ? "PASS" : "FAIL") << '\n';
  return ok ? 0 : 1;
}
