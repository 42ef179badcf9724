// Microbenchmarks for the embedded time-series store (src/store/): ingest
// throughput, sealed-segment compression vs the serialize_record wire
// baseline, lazy decode rate, query latencies and roll-up window closes.  Counters carry the
// storage metrics (bytes_per_record, compression_x, records pruned) so the
// google-benchmark JSON output (--benchmark_format/--benchmark_out=json, the
// CI bench-smoke step) is machine-readable end to end.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/records.hpp"
#include "store/query_engine.hpp"
#include "store/rollup.hpp"
#include "store/segment.hpp"
#include "store/series_store.hpp"
#include "store/tsdb.hpp"
#include "util/rng.hpp"

namespace {

using namespace emon;

/// The benchmark workload: a realistic 10 Hz stream — jittered timestamps,
/// noisy current over a slow ramp, occasional network changes.
std::vector<core::ConsumptionRecord> workload(std::size_t n,
                                              std::uint64_t seed,
                                              const std::string& device) {
  util::Rng rng{seed};
  std::vector<core::ConsumptionRecord> out;
  out.reserve(n);
  std::int64_t t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += 100'000'000 + static_cast<std::int64_t>(rng.uniform(-50e3, 50e3));
    core::ConsumptionRecord r;
    r.device_id = device;
    r.sequence = i + 1;
    r.timestamp_ns = t;
    r.interval_ns = 100'000'000;
    r.current_ma =
        250.0 + 0.05 * static_cast<double>(i % 4096) + rng.uniform(-4.0, 4.0);
    r.bus_voltage_mv = 5000.0 + rng.uniform(-8.0, 8.0);
    r.energy_mwh = r.current_ma * 5.0 * (0.1 / 3600.0);
    r.network = i % 97 == 0 ? "wan-2" : "wan-1";
    out.push_back(std::move(r));
  }
  return out;
}

// -- Compression vs the wire baseline ----------------------------------------

void BM_SegmentSealCompression(benchmark::State& state) {
  const auto records =
      workload(static_cast<std::size_t>(state.range(0)), 1, "dev-1");
  std::size_t baseline_bytes = 0;
  for (const auto& r : records) {
    baseline_bytes += core::serialize_record(r).size();
  }
  std::size_t sealed_bytes = 0;
  for (auto _ : state) {
    store::SegmentBuilder builder;
    for (const auto& r : records) {
      builder.append(r);
    }
    store::Segment seg = builder.seal();
    sealed_bytes = seg.byte_size();
    benchmark::DoNotOptimize(seg);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  const auto n = static_cast<double>(records.size());
  state.counters["sealed_bytes"] = static_cast<double>(sealed_bytes);
  state.counters["baseline_bytes"] = static_cast<double>(baseline_bytes);
  state.counters["bytes_per_record"] = static_cast<double>(sealed_bytes) / n;
  state.counters["baseline_bytes_per_record"] =
      static_cast<double>(baseline_bytes) / n;
  // The acceptance bar: sealed storage >= 3x smaller than serialize_record.
  state.counters["compression_x"] =
      static_cast<double>(baseline_bytes) / static_cast<double>(sealed_bytes);
}
BENCHMARK(BM_SegmentSealCompression)->Arg(64)->Arg(256)->Arg(4096);

/// fold = 0: SegmentCursor, every column decoded and each record
/// materialized (the foreign-bytes path).  fold = 1: the range queries'
/// Segment::fold over timestamp, current and energy only.
void BM_SegmentDecode(benchmark::State& state) {
  const auto records =
      workload(static_cast<std::size_t>(state.range(0)), 2, "dev-1");
  store::SegmentBuilder builder;
  for (const auto& r : records) {
    builder.append(r);
  }
  const store::Segment seg = builder.seal();
  const bool fold = state.range(1) != 0;
  for (auto _ : state) {
    if (fold) {
      std::int64_t energy_q = 0;
      const bool clean = seg.fold<0>([&energy_q](const store::StoredRecord& r) {
        energy_q += r.energy_q;
      });
      benchmark::DoNotOptimize(clean);
      benchmark::DoNotOptimize(energy_q);
    } else {
      store::SegmentCursor cur = seg.cursor();
      while (auto rec = cur.next()) {
        benchmark::DoNotOptimize(*rec);
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SegmentDecode)
    ->ArgNames({"records", "fold"})
    ->ArgsProduct({{256, 4096}, {0, 1}});

// -- Ingest throughput --------------------------------------------------------

void BM_TsdbIngest(benchmark::State& state) {
  const auto records = workload(100'000, 3, "dev-1");
  std::size_t i = 0;
  // unique_ptr: Tsdb is immovable (it embeds the reader-epoch domain), so a
  // fresh store means a fresh allocation.
  auto db = std::make_unique<store::Tsdb>();
  std::uint64_t rebuilds = 0;
  for (auto _ : state) {
    if (i == records.size()) {
      // Fresh store once the prepared stream is exhausted (sequence dedup
      // would otherwise reject everything).
      state.PauseTiming();
      db = std::make_unique<store::Tsdb>();
      i = 0;
      ++rebuilds;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(db->ingest(records[i++]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["sealed_bytes"] =
      static_cast<double>(db->stats().sealed_bytes);
}
BENCHMARK(BM_TsdbIngest);

void BM_SeriesStorePush(benchmark::State& state) {
  const auto records = workload(100'000, 4, "dev-1");
  store::SeriesStoreOptions opt;
  opt.byte_budget = 256 * 1024;
  store::SeriesStore series{opt};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(series.push(records[i])) ;
    i = (i + 1) % records.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["bytes_used"] = static_cast<double>(series.bytes_used());
  state.counters["dropped"] = static_cast<double>(series.dropped());
}
BENCHMARK(BM_SeriesStorePush);

// -- Query latency ------------------------------------------------------------

store::Tsdb& query_fixture() {
  static store::Tsdb db{store::TsdbOptions{8, 256}};
  [[maybe_unused]] static const bool loaded = [] {
    for (std::size_t d = 0; d < 8; ++d) {
      for (const auto& r :
           workload(20'000, 10 + d, "dev-" + std::to_string(d + 1))) {
        db.ingest(r);
      }
    }
    return true;
  }();
  return db;
}

void BM_TsdbRangeAggregate(benchmark::State& state) {
  // ~2000 s of history per device; aggregate the middle half.
  store::Tsdb& db = query_fixture();
  const std::int64_t t0 = 500'000'000'000;
  const std::int64_t t1 = 1'500'000'000'000;
  for (auto _ : state) {
    const store::ReadGuard guard = db.read_guard();
    auto agg = db.aggregate(db.lookup("dev-3"), t0, t1);
    benchmark::DoNotOptimize(agg);
  }
  state.counters["summary_hits"] =
      static_cast<double>(db.stats().summary_hits);
}
BENCHMARK(BM_TsdbRangeAggregate);

void BM_TsdbTrailingAggregate(benchmark::State& state) {
  // The dashboard read: a trailing 10 s aggregate at 10 Hz over a device
  // whose open head holds 60 records, so the window takes those plus the
  // last 40 of one straddled sealed segment (4 sealed segments of 256
  // before it).  network_filter = 1 adds the per-network dashboard's
  // filter.  Items are the 100 in-window records.
  static store::Tsdb db{store::TsdbOptions{1, 256}};
  static const std::vector<core::ConsumptionRecord> records = [] {
    auto out = workload(4 * 256 + 60, 20, "dev-1");
    for (const auto& r : out) {
      db.ingest(r);
    }
    return out;
  }();
  const std::int64_t t1 = records.back().timestamp_ns + 1;
  const std::int64_t t0 = records[records.size() - 100].timestamp_ns;
  store::RecordFilter filter;
  if (state.range(0) != 0) {
    filter.network = "wan-1";
  }
  for (auto _ : state) {
    const store::ReadGuard guard = db.read_guard();
    auto agg = db.aggregate(db.lookup("dev-1"), t0, t1, filter);
    benchmark::DoNotOptimize(agg);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          100);
}
BENCHMARK(BM_TsdbTrailingAggregate)->ArgName("network_filter")->Arg(0)->Arg(1);

void BM_FleetTrailingAggregate(benchmark::State& state) {
  // The dashboard's fleet read, cache-cold: a trailing 10 s QueryEngine
  // aggregate over 4,000 devices at 10 Hz, 8 shards, one worker.  Each
  // device first flushes a backlog of 0-255 older records (staggered like
  // perfbench's serving population), then reports 60 s, so heads and seal
  // points differ per device and the window reaches into a sealed segment
  // for about a third of them.  Items are devices; records_decoded and
  // blocks_skipped are per query.
  constexpr std::size_t kDevices = 4000;
  constexpr std::int64_t kStepNs = 100'000'000;
  constexpr std::int64_t kLiveRecords = 600;
  static store::Tsdb db{store::TsdbOptions{8, 256}};
  [[maybe_unused]] static const bool loaded = [] {
    util::Rng rng{30};
    std::vector<std::int64_t> backlog(kDevices);
    std::vector<std::string> ids(kDevices);
    for (std::size_t d = 0; d < kDevices; ++d) {
      backlog[d] = rng.uniform_int(0, 255);
      ids[d] = "dev-" + std::to_string(d);
    }
    // Event-second order, as an aggregator receives it: every device's
    // frame for one second before the next second's.
    for (std::int64_t s = -26; s < kLiveRecords / 10; ++s) {
      for (std::size_t d = 0; d < kDevices; ++d) {
        for (std::int64_t k = 0; k < 10; ++k) {
          const std::int64_t i = s * 10 + k;  // record index, 0 = first live
          if (i < -backlog[d]) {
            continue;
          }
          core::ConsumptionRecord r;
          r.device_id = ids[d];
          r.sequence = static_cast<std::uint64_t>(i + 1000);
          r.timestamp_ns = i * kStepNs + static_cast<std::int64_t>(d) * 1000;
          r.interval_ns = kStepNs;
          r.current_ma = 120.0 + rng.uniform(-8.0, 8.0);
          r.bus_voltage_mv = 5000.0 + rng.uniform(-12.0, 12.0);
          r.energy_mwh = r.current_ma * 5.0 * (0.1 / 3600.0);
          r.network = "wan-" + std::to_string(d % 32);
          db.ingest(r);
        }
      }
    }
    return true;
  }();
  const store::QueryEngine engine{db};
  store::QuerySpec spec;
  spec.t1_ns = kLiveRecords * kStepNs;
  spec.t0_ns = spec.t1_ns - 10'000'000'000;
  const store::TsdbStats before = db.stats();
  for (auto _ : state) {
    auto fleet = engine.aggregate(spec);
    benchmark::DoNotOptimize(fleet);
  }
  const store::TsdbStats after = db.stats();
  const auto queries = static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kDevices));
  state.counters["records_decoded"] =
      static_cast<double>(after.records_decoded - before.records_decoded) /
      queries;
  state.counters["blocks_skipped"] =
      static_cast<double>(after.blocks_skipped - before.blocks_skipped) /
      queries;
  state.counters["bytes_per_rec"] =
      static_cast<double>(after.sealed_bytes) /
      static_cast<double>(after.segments_sealed * 256);
}
BENCHMARK(BM_FleetTrailingAggregate)->Unit(benchmark::kMicrosecond);

void BM_TsdbWindowScan(benchmark::State& state) {
  // The aggregator's verification-window read: 1 s of live records.
  store::Tsdb& db = query_fixture();
  store::RecordFilter live;
  live.network = "wan-1";
  live.stored_offline = false;
  std::int64_t t0 = 0;
  for (auto _ : state) {
    const store::ReadGuard guard = db.read_guard();
    auto stats =
        db.current_stats(db.lookup("dev-5"), t0, t0 + 1'000'000'000, live);
    benchmark::DoNotOptimize(stats);
    t0 = (t0 + 1'000'000'000) % 1'900'000'000'000;
  }
}
BENCHMARK(BM_TsdbWindowScan);

void BM_TsdbDownsample(benchmark::State& state) {
  // Dashboard-style query: 100 s of history in 10 s buckets.
  store::Tsdb& db = query_fixture();
  for (auto _ : state) {
    const store::ReadGuard guard = db.read_guard();
    auto windows = db.downsample(db.lookup("dev-2"), 0, 100'000'000'000,
                                 10'000'000'000);
    benchmark::DoNotOptimize(windows);
  }
}
BENCHMARK(BM_TsdbDownsample);

void BM_TsdbNetworkBreakdown(benchmark::State& state) {
  // The billing read: per-network subtotals from segment dictionaries.
  store::Tsdb& db = query_fixture();
  for (auto _ : state) {
    const store::ReadGuard guard = db.read_guard();
    auto breakdown = db.network_breakdown(db.lookup("dev-7"));
    benchmark::DoNotOptimize(breakdown);
  }
}
BENCHMARK(BM_TsdbNetworkBreakdown);

}  // namespace

// -- Roll-up window close ----------------------------------------------------

void BM_RollupWindowClose(benchmark::State& state) {
  // One window close of a 1 s-slide roll-up over 4,000 series at 10 Hz on
  // 8 shards, drained without a pool: the fold reads `panes` panes per
  // series, then merges the per-device results in device order.  Each
  // iteration feeds the next event second straight into the engine's ingest
  // hook (untimed; no store behind it, so memory stays flat) and times the
  // drain that closes exactly one full window.
  constexpr std::size_t kDevices = 4000;
  constexpr std::size_t kShards = 8;
  constexpr std::int64_t kSecondNs = 1'000'000'000;
  constexpr std::int64_t kStepNs = 100'000'000;
  const std::int64_t panes = state.range(0);
  const store::Tsdb db{store::TsdbOptions{kShards, 256}};
  store::RollupEngine engine{db};
  store::RollupSpec spec;
  spec.window_ns = panes * kSecondNs;
  spec.slide_ns = kSecondNs;
  const std::uint64_t id = engine.register_rollup(spec);

  util::Rng rng{41};
  std::vector<core::ConsumptionRecord> devices(kDevices);
  for (std::size_t d = 0; d < kDevices; ++d) {
    core::ConsumptionRecord& r = devices[d];
    r.device_id = "dev-" + std::to_string(d);
    r.interval_ns = kStepNs;
    r.bus_voltage_mv = 5000.0;
    r.network = "wan-" + std::to_string(d % 32);
  }
  std::int64_t second = 0;
  const auto feed_second = [&] {
    for (std::int64_t k = 0; k < kSecondNs / kStepNs; ++k) {
      for (std::size_t d = 0; d < kDevices; ++d) {
        core::ConsumptionRecord& r = devices[d];
        r.sequence += 1;
        r.timestamp_ns = second * kSecondNs + k * kStepNs +
                         static_cast<std::int64_t>(d) * 1000;
        r.current_ma = 120.0 + rng.uniform(-8.0, 8.0);
        r.energy_mwh = r.current_ma * 5.0 * (0.1 / 3600.0);
        engine.on_ingest(r, d % kShards, d);
      }
    }
    ++second;
  };
  // Fill the first window's panes; closes before it hold fewer panes.
  for (std::int64_t i = 0; i < panes; ++i) {
    feed_second();
  }
  (void)engine.drain(id);

  std::size_t closed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    feed_second();
    state.ResumeTiming();
    auto windows = engine.drain(id);
    closed += windows.size();
    benchmark::DoNotOptimize(windows);
  }
  if (closed != static_cast<std::size_t>(state.iterations())) {
    state.SkipWithError("expected exactly one window per drain");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kDevices));
}
BENCHMARK(BM_RollupWindowClose)
    ->ArgName("panes")
    ->Arg(1)
    ->Arg(10)
    ->Arg(60)
    ->Unit(benchmark::kMicrosecond);
