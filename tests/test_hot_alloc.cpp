// The EMON_HOT dynamic witness (util/alloc_probe.hpp): after warming the
// store past every capacity-growth knee, a steady-state window of the
// 2000-device serve workload — Tsdb::ingest plus the RollupEngine ingest
// hook, the paths tools/emon_lint.py marks EMON_HOT — must execute ZERO
// operator-new calls.  The static hot-alloc rule proves the bodies
// allocation-free textually; this proves the libraries they lean on
// (vector appends below capacity, try_emplace hits, the dedup runs) stay
// allocation-free too.
//
// Warmup covers every cold branch the hot path legitimately takes:
//   * head-chunk column doublings (16 -> 256 slots covers 160 records),
//   * the SequenceDedup run vector's first (and, for in-order sequences,
//     only) run,
//   * first-seen series creation, network-dictionary interning, and the
//     rollup's series/net-pane setup.
// The measurement window then replays 64 more records per device with the
// seal threshold parked far away, so nothing cold can fire.
//
// The same witness covers the simulator's per-record trace append: through
// an interned SeriesId, sim::Trace::append only folds the point into the
// digest.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/records.hpp"
#include "sim/trace.hpp"
#include "store/rollup.hpp"
#include "store/tsdb.hpp"
#include "util/alloc_probe.hpp"

EMON_DEFINE_ALLOC_COUNTING_NEW

namespace emon::store {
namespace {

constexpr std::size_t kDevices = 2000;
constexpr std::size_t kNetworks = 8;
constexpr std::uint64_t kWarmupPerDevice = 160;
constexpr std::uint64_t kMeasurePerDevice = 64;

core::ConsumptionRecord make_record(std::size_t device, std::uint64_t seq) {
  core::ConsumptionRecord r;
  r.device_id = "dev-" + std::to_string(device);
  r.sequence = seq;
  r.timestamp_ns = static_cast<std::int64_t>(seq) * 1'000'000;  // 1 ms apart
  r.interval_ns = 1'000'000;
  r.current_ma = 100.0 + static_cast<double>((device + seq) % 50);
  r.bus_voltage_mv = 5'000.0;
  r.energy_mwh = 0.125 + static_cast<double>(seq % 7) * 0.001;
  r.network = "net-" + std::to_string(device % kNetworks);
  return r;
}

TEST(HotAllocHarness, SteadyStateIngestAllocatesNothing) {
  TsdbOptions opt;
  opt.shards = 4;
  // Park sealing far beyond the workload so no measurement-window record
  // can trigger a chunk seal (a legitimate cold allocation).
  opt.seal_threshold = 1u << 20;
  Tsdb tsdb(opt);
  RollupEngine rollups(tsdb);
  tsdb.set_ingest_hook(&rollups);

  // A tumbling-hour rollup and a 2 h / 1 h sliding one, so both serve
  // rollup shapes fold every record: it lands in pane 0, and no window
  // closes (no ClosedWindow materializes) mid-measurement.
  RollupSpec spec;
  spec.window_ns = 3'600'000'000'000;
  spec.slide_ns = 3'600'000'000'000;
  (void)rollups.register_rollup(spec);
  RollupSpec sliding = spec;
  sliding.window_ns = 2 * spec.slide_ns;
  (void)rollups.register_rollup(sliding);

  // Warmup: past every capacity knee (see header comment).
  for (std::uint64_t seq = 1; seq <= kWarmupPerDevice; ++seq) {
    for (std::size_t d = 0; d < kDevices; ++d) {
      ASSERT_TRUE(tsdb.ingest(make_record(d, seq)));
    }
  }

  // Pre-build the measurement records: the harness measures the store's
  // hot path, not the test's own record construction.
  std::vector<core::ConsumptionRecord> window;
  window.reserve(kDevices * kMeasurePerDevice);
  for (std::uint64_t seq = kWarmupPerDevice + 1;
       seq <= kWarmupPerDevice + kMeasurePerDevice; ++seq) {
    for (std::size_t d = 0; d < kDevices; ++d) {
      window.push_back(make_record(d, seq));
    }
  }

  util::AllocProbe::arm();
  std::size_t accepted = 0;
  for (const auto& r : window) {
    accepted += tsdb.ingest(r) ? 1 : 0;
  }
  const std::uint64_t steady_allocs = util::AllocProbe::disarm();

  EXPECT_EQ(accepted, window.size());
  EXPECT_EQ(steady_allocs, 0u)
      << "EMON_HOT steady state performed " << steady_allocs
      << " operator-new calls over " << window.size() << " records";

  // The duplicate-drop path (dedup run hit) is equally hot and equally
  // allocation-free.
  util::AllocProbe::arm();
  std::size_t dropped = 0;
  for (std::size_t d = 0; d < kDevices; ++d) {
    dropped += tsdb.ingest(window[d]) ? 0 : 1;
  }
  const std::uint64_t dup_allocs = util::AllocProbe::disarm();
  EXPECT_EQ(dropped, kDevices);
  EXPECT_EQ(dup_allocs, 0u);

  const TsdbStats stats = tsdb.stats();
  EXPECT_EQ(stats.records_ingested,
            kDevices * (kWarmupPerDevice + kMeasurePerDevice));
  EXPECT_EQ(stats.duplicates_dropped, kDevices);
  EXPECT_EQ(stats.devices, kDevices);

  // Sanity: the probe itself works — an allocation while armed is seen.
  // (A bare new/delete pair can be elided under -O2; a vector's buffer
  // handed to a gtest assertion cannot.)
  util::AllocProbe::arm();
  std::vector<std::uint64_t> canary;
  canary.reserve(1024);
  const std::uint64_t canary_allocs = util::AllocProbe::disarm();
  EXPECT_GE(canary_allocs, 1u);
  EXPECT_EQ(canary.capacity(), 1024u);
}

TEST(HotAllocHarness, TraceHandleAppendAllocatesNothing) {
  sim::Trace trace;
  const sim::SeriesId reported = sim::Trace::intern("reported.agg-1.dev-1");
  const sim::SeriesId arrival = sim::Trace::intern("arrival.agg-1.dev-1");
  constexpr std::int64_t kPoints = 10'000;

  util::AllocProbe::arm();
  for (std::int64_t i = 0; i < kPoints; ++i) {
    trace.append(reported, sim::SimTime{i}, static_cast<double>(i));
    trace.append(arrival, sim::SimTime{i + 1}, static_cast<double>(i));
  }
  const std::uint64_t allocs = util::AllocProbe::disarm();
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(trace.total_points(), static_cast<std::size_t>(2 * kPoints));
}

}  // namespace
}  // namespace emon::store
