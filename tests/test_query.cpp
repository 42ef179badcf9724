// The shard-parallel query engine (store/query_engine.{hpp,cpp}): bit
// parity of workers=N with the sequential workers=1 path across every fleet
// query type, fleet merges against naive per-device references, device
// subsets and per-device billing-scope overrides, pool reuse, per-shard
// query-counter folding, store-backed billing through fleet queries, and a
// query/ingest interleaving differential fuzz over randomized ingest orders
// including out-of-order roamed batches.
//
// Equality here is exact (==, including doubles): the engine's determinism
// rule promises bit-identical results for any worker count.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/billing.hpp"
#include "core/records.hpp"
#include "reference_billing.hpp"
#include "store/query_engine.hpp"
#include "store/tsdb.hpp"
#include "util/rng.hpp"

namespace emon::store {
namespace {

using core::ConsumptionRecord;
using core::MembershipKind;

// ---------------------------------------------------------------------------
// Workload generation
// ---------------------------------------------------------------------------

/// One device's jittered 10 Hz stream; a slice in the middle carries a
/// foreign network (roamed-era records).
std::vector<ConsumptionRecord> device_stream(const core::DeviceId& id,
                                             std::size_t n, std::uint64_t seed,
                                             const core::NetworkId& home,
                                             const core::NetworkId& visited,
                                             std::int64_t t0_ns = 0) {
  util::Rng rng{seed};
  std::vector<ConsumptionRecord> out;
  out.reserve(n);
  std::int64_t t = t0_ns;
  for (std::size_t i = 0; i < n; ++i) {
    t += 100'000'000 + static_cast<std::int64_t>(rng.uniform(-50e3, 50e3));
    ConsumptionRecord r;
    r.device_id = id;
    r.sequence = i + 1;
    r.timestamp_ns = t;
    r.interval_ns = 100'000'000;
    r.current_ma = 180.0 + 0.04 * static_cast<double>(i) +
                   rng.uniform(-3.0, 3.0);
    r.bus_voltage_mv = 5000.0 + rng.uniform(-8.0, 8.0);
    r.energy_mwh = r.current_ma * 5.0 * (0.1 / 3600.0);
    const bool roamed = i >= n / 3 && i < n / 2;
    r.network = roamed ? visited : home;
    r.membership = roamed ? MembershipKind::kTemporary : MembershipKind::kHome;
    r.stored_offline = i % 4 == 0;
    out.push_back(std::move(r));
  }
  return out;
}

/// A fleet of per-device streams, ingested with shard-mixing interleave and
/// each device's roamed-era slice re-ordered to arrive *after* its later
/// live records (the offline-flush / roam-forward arrival pattern).
struct FleetWorkload {
  std::vector<core::DeviceId> devices;
  std::vector<ConsumptionRecord> arrival_order;
  std::int64_t t_min_ns = 0;
  std::int64_t t_max_ns = 0;
};

FleetWorkload make_fleet(std::size_t devices, std::size_t per_device,
                         std::size_t networks, std::uint64_t seed) {
  FleetWorkload fleet;
  std::vector<std::vector<ConsumptionRecord>> streams;
  for (std::size_t d = 0; d < devices; ++d) {
    const core::DeviceId id = "dev-" + std::to_string(d + 1);
    const core::NetworkId home = "wan-" + std::to_string(d % networks);
    const core::NetworkId visited =
        "wan-" + std::to_string((d + 1) % networks);
    auto stream = device_stream(id, per_device, seed + d, home, visited,
                                static_cast<std::int64_t>(d) * 7'000'000);
    fleet.devices.push_back(id);
    // Move the roamed-era slice to the end of the device's arrival order:
    // those records reach the home aggregator late, via roam_records.
    std::vector<ConsumptionRecord> arrival;
    std::vector<ConsumptionRecord> roamed;
    for (auto& r : stream) {
      (r.membership == MembershipKind::kTemporary ? roamed : arrival)
          .push_back(std::move(r));
    }
    arrival.insert(arrival.end(), std::make_move_iterator(roamed.begin()),
                   std::make_move_iterator(roamed.end()));
    streams.push_back(std::move(arrival));
  }
  // Round-robin interleave across devices so every shard ingests mixed.
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (auto& stream : streams) {
      if (i < stream.size()) {
        fleet.arrival_order.push_back(std::move(stream[i]));
        any = true;
      }
    }
    if (!any) {
      break;
    }
  }
  fleet.t_min_ns = INT64_MAX;
  fleet.t_max_ns = INT64_MIN;
  for (const auto& r : fleet.arrival_order) {
    fleet.t_min_ns = std::min(fleet.t_min_ns, r.timestamp_ns);
    fleet.t_max_ns = std::max(fleet.t_max_ns, r.timestamp_ns);
  }
  return fleet;
}

void ingest_all(Tsdb& db, const std::vector<ConsumptionRecord>& records) {
  for (const auto& r : records) {
    db.ingest(r);
  }
}

// ---------------------------------------------------------------------------
// Exact-equality helpers (doubles compared with ==; see file comment)
// ---------------------------------------------------------------------------

bool operator==(const DeviceAggregate& a, const DeviceAggregate& b) {
  return a.count == b.count && a.t_min_ns == b.t_min_ns &&
         a.t_max_ns == b.t_max_ns && a.min_current_ma == b.min_current_ma &&
         a.max_current_ma == b.max_current_ma &&
         a.avg_current_ma == b.avg_current_ma &&
         a.sum_energy_mwh == b.sum_energy_mwh;
}

bool operator==(const WindowAggregate& a, const WindowAggregate& b) {
  return a.start_ns == b.start_ns && a.count == b.count &&
         a.avg_current_ma == b.avg_current_ma &&
         a.max_current_ma == b.max_current_ma &&
         a.sum_energy_mwh == b.sum_energy_mwh;
}

bool stats_equal(const util::RunningStats& a, const util::RunningStats& b) {
  if (a.count() != b.count()) {
    return false;
  }
  if (a.empty()) {
    return true;
  }
  return a.mean() == b.mean() && a.min() == b.min() && a.max() == b.max() &&
         a.variance() == b.variance();
}

bool usage_equal(const std::map<core::NetworkId, NetworkUsage>& a,
                 const std::map<core::NetworkId, NetworkUsage>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
    if (ia->first != ib->first || ia->second.records != ib->second.records ||
        ia->second.energy_mwh != ib->second.energy_mwh) {
      return false;
    }
  }
  return true;
}

/// Runs every query type on both engines and asserts exact equality.
void expect_engines_agree(const QueryEngine& a, const QueryEngine& b,
                          const QuerySpec& spec, const std::string& label) {
  // aggregate
  const FleetAggregate agg_a = a.aggregate(spec);
  const FleetAggregate agg_b = b.aggregate(spec);
  ASSERT_EQ(agg_a.per_device.size(), agg_b.per_device.size()) << label;
  for (std::size_t i = 0; i < agg_a.per_device.size(); ++i) {
    EXPECT_EQ(agg_a.per_device[i].first, agg_b.per_device[i].first) << label;
    EXPECT_TRUE(agg_a.per_device[i].second == agg_b.per_device[i].second)
        << label << " device " << agg_a.per_device[i].first;
  }
  EXPECT_TRUE(agg_a.merged == agg_b.merged) << label;
  // current_stats
  const FleetStats st_a = a.current_stats(spec);
  const FleetStats st_b = b.current_stats(spec);
  ASSERT_EQ(st_a.per_device.size(), st_b.per_device.size()) << label;
  for (std::size_t i = 0; i < st_a.per_device.size(); ++i) {
    EXPECT_EQ(st_a.per_device[i].first, st_b.per_device[i].first) << label;
    EXPECT_TRUE(stats_equal(st_a.per_device[i].second, st_b.per_device[i].second))
        << label << " device " << st_a.per_device[i].first;
  }
  EXPECT_TRUE(stats_equal(st_a.merged, st_b.merged)) << label;
  // scan
  const FleetScan sc_a = a.scan(spec);
  const FleetScan sc_b = b.scan(spec);
  ASSERT_EQ(sc_a.records.size(), sc_b.records.size()) << label;
  for (std::size_t i = 0; i < sc_a.records.size(); ++i) {
    EXPECT_EQ(sc_a.records[i], sc_b.records[i]) << label << " record " << i;
  }
  ASSERT_EQ(sc_a.per_device.size(), sc_b.per_device.size()) << label;
  for (std::size_t i = 0; i < sc_a.per_device.size(); ++i) {
    EXPECT_EQ(sc_a.per_device[i].device, sc_b.per_device[i].device) << label;
    EXPECT_EQ(sc_a.per_device[i].offset, sc_b.per_device[i].offset) << label;
    EXPECT_EQ(sc_a.per_device[i].count, sc_b.per_device[i].count) << label;
  }
  // downsample (only when the spec carries a window)
  if (spec.window_ns > 0) {
    const FleetWindows dw_a = a.downsample(spec);
    const FleetWindows dw_b = b.downsample(spec);
    ASSERT_EQ(dw_a.per_device.size(), dw_b.per_device.size()) << label;
    for (std::size_t i = 0; i < dw_a.per_device.size(); ++i) {
      EXPECT_EQ(dw_a.per_device[i].first, dw_b.per_device[i].first) << label;
      ASSERT_EQ(dw_a.per_device[i].second.size(),
                dw_b.per_device[i].second.size())
          << label;
      for (std::size_t w = 0; w < dw_a.per_device[i].second.size(); ++w) {
        EXPECT_TRUE(dw_a.per_device[i].second[w] == dw_b.per_device[i].second[w])
            << label;
      }
    }
    ASSERT_EQ(dw_a.merged.size(), dw_b.merged.size()) << label;
    for (std::size_t w = 0; w < dw_a.merged.size(); ++w) {
      EXPECT_TRUE(dw_a.merged[w] == dw_b.merged[w]) << label;
    }
  }
  // network_breakdown
  const FleetBreakdown nb_a = a.network_breakdown(spec);
  const FleetBreakdown nb_b = b.network_breakdown(spec);
  ASSERT_EQ(nb_a.per_device.size(), nb_b.per_device.size()) << label;
  for (std::size_t i = 0; i < nb_a.per_device.size(); ++i) {
    EXPECT_EQ(nb_a.per_device[i].first, nb_b.per_device[i].first) << label;
    EXPECT_TRUE(usage_equal(nb_a.per_device[i].second, nb_b.per_device[i].second))
        << label;
  }
  EXPECT_TRUE(usage_equal(nb_a.merged, nb_b.merged)) << label;
  EXPECT_EQ(nb_a.total_energy_mwh(), nb_b.total_energy_mwh()) << label;
}

// ---------------------------------------------------------------------------
// Worker-count bit parity
// ---------------------------------------------------------------------------

TEST(QueryEngine, WorkerCountsAreBitIdentical) {
  Tsdb db{TsdbOptions{16, 48}};
  const auto fleet = make_fleet(120, 90, 6, 7);
  ingest_all(db, fleet.arrival_order);
  const QueryEngine seq{db, QueryEngineOptions{1}};
  const QueryEngine par3{db, QueryEngineOptions{3}};
  const QueryEngine par8{db, QueryEngineOptions{8}};

  QuerySpec all;
  all.window_ns = 2'000'000'000;
  expect_engines_agree(seq, par3, all, "all-devices w3");
  expect_engines_agree(seq, par8, all, "all-devices w8");

  QuerySpec mid = all;
  mid.t0_ns = fleet.t_min_ns + (fleet.t_max_ns - fleet.t_min_ns) / 4;
  mid.t1_ns = fleet.t_max_ns - (fleet.t_max_ns - fleet.t_min_ns) / 4;
  mid.filter.stored_offline = false;
  expect_engines_agree(seq, par3, mid, "mid-range filtered w3");
  expect_engines_agree(seq, par8, mid, "mid-range filtered w8");
}

// ---------------------------------------------------------------------------
// Fleet merges vs naive per-device references
// ---------------------------------------------------------------------------

TEST(QueryEngine, MergedAggregateMatchesNaiveDeviceOrderFold) {
  Tsdb db{TsdbOptions{8, 32}};
  const auto fleet = make_fleet(40, 120, 4, 11);
  ingest_all(db, fleet.arrival_order);
  const QueryEngine engine{db, QueryEngineOptions{4}};

  QuerySpec spec;
  const FleetAggregate got = engine.aggregate(spec);
  // Reference: sorted per-device Tsdb aggregates, merged in device order.
  auto devices = db.devices();
  std::uint64_t count = 0;
  double energy = 0.0;
  std::size_t present = 0;
  const ReadGuard guard = db.read_guard();
  for (const auto& id : devices) {
    const auto agg = db.aggregate(db.lookup(id), INT64_MIN, INT64_MAX);
    ASSERT_TRUE(agg.has_value());
    ++present;
    count += agg->count;
    energy += agg->sum_energy_mwh;
    const auto it = std::find_if(
        got.per_device.begin(), got.per_device.end(),
        [&](const auto& entry) { return entry.first == id; });
    ASSERT_NE(it, got.per_device.end()) << id;
    EXPECT_TRUE(it->second == *agg) << id;
  }
  EXPECT_EQ(got.per_device.size(), present);
  EXPECT_EQ(got.merged.count, count);
  EXPECT_NEAR(got.merged.sum_energy_mwh, energy, 1e-9);
  // per_device is sorted by device id.
  EXPECT_TRUE(std::is_sorted(
      got.per_device.begin(), got.per_device.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
}

TEST(QueryEngine, ScanIsDeviceOrderedAndSpanned) {
  Tsdb db{TsdbOptions{4, 40}};
  const auto fleet = make_fleet(12, 150, 3, 23);
  ingest_all(db, fleet.arrival_order);
  const QueryEngine engine{db, QueryEngineOptions{4}};

  QuerySpec spec;
  spec.t0_ns = fleet.t_min_ns + 2'000'000'000;
  spec.t1_ns = fleet.t_max_ns - 2'000'000'000;
  const FleetScan got = engine.scan(spec);
  // Spans tile the flat array in sorted device order.
  std::size_t expected_offset = 0;
  for (std::size_t i = 0; i < got.per_device.size(); ++i) {
    EXPECT_EQ(got.per_device[i].offset, expected_offset);
    if (i > 0) {
      EXPECT_LT(got.per_device[i - 1].device, got.per_device[i].device);
    }
    expected_offset += got.per_device[i].count;
  }
  EXPECT_EQ(expected_offset, got.records.size());
  // Each span reproduces the device's own sequential scan exactly.
  const ReadGuard guard = db.read_guard();
  for (const auto& span : got.per_device) {
    const auto want = db.scan(db.lookup(span.device), spec.t0_ns, spec.t1_ns);
    ASSERT_EQ(span.count, want.size()) << span.device;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got.records[span.offset + i], want[i]) << span.device;
    }
  }
}

TEST(QueryEngine, DownsampleMergesAcrossDevicesOnOneGrid) {
  Tsdb db{TsdbOptions{4, 64}};
  const auto fleet = make_fleet(10, 200, 2, 31);
  ingest_all(db, fleet.arrival_order);
  const QueryEngine engine{db, QueryEngineOptions{4}};

  QuerySpec spec;
  spec.t0_ns = fleet.t_min_ns;
  spec.t1_ns = fleet.t_max_ns + 1;
  spec.window_ns = 1'000'000'000;
  const FleetWindows got = engine.downsample(spec);
  ASSERT_FALSE(got.merged.empty());
  // Every merged window start sits on the t0-anchored grid.
  for (const auto& w : got.merged) {
    EXPECT_EQ((w.start_ns - spec.t0_ns) % spec.window_ns, 0);
  }
  // The merged fold equals a naive fold over the per-device windows.
  std::map<std::int64_t, std::uint64_t> counts;
  std::map<std::int64_t, double> energy;
  for (const auto& [id, windows] : got.per_device) {
    (void)id;
    for (const auto& w : windows) {
      counts[w.start_ns] += w.count;
      energy[w.start_ns] += w.sum_energy_mwh;
    }
  }
  ASSERT_EQ(counts.size(), got.merged.size());
  std::uint64_t total = 0;
  for (const auto& w : got.merged) {
    EXPECT_EQ(w.count, counts[w.start_ns]);
    EXPECT_EQ(w.sum_energy_mwh, energy[w.start_ns]);
    total += w.count;
  }
  // Everything ingested lands in exactly one merged window.
  EXPECT_EQ(total, db.stats().records_ingested);
  // t0 overrides are billing scope marks and must not re-anchor any
  // device's grid: downsample ignores them entirely.
  QuerySpec with_override = spec;
  with_override.t0_overrides["dev-1"] = spec.t0_ns + 500'000'000;
  const FleetWindows again = engine.downsample(with_override);
  ASSERT_EQ(again.merged.size(), got.merged.size());
  for (std::size_t i = 0; i < got.merged.size(); ++i) {
    EXPECT_TRUE(again.merged[i] == got.merged[i]) << "window " << i;
  }
}

// ---------------------------------------------------------------------------
// Device subsets and billing-scope overrides
// ---------------------------------------------------------------------------

TEST(QueryEngine, DeviceSubsetAndT0OverridesMatchSequentialCalls) {
  Tsdb db{TsdbOptions{8, 32}};
  const auto fleet = make_fleet(30, 100, 4, 41);
  ingest_all(db, fleet.arrival_order);
  const QueryEngine engine{db, QueryEngineOptions{4}};

  QuerySpec spec;
  spec.devices = {"dev-3", "dev-7", "dev-7", "dev-12", "dev-29", "dev-999"};
  const std::int64_t cut =
      fleet.t_min_ns + (fleet.t_max_ns - fleet.t_min_ns) / 2;
  spec.t0_overrides["dev-7"] = cut;
  spec.t0_overrides["dev-12"] = INT64_MAX;  // everything out of scope

  const FleetAggregate got = engine.aggregate(spec);
  // dev-12 (scope excludes all) and dev-999 (absent) are omitted;
  // duplicates collapse.
  ASSERT_EQ(got.per_device.size(), 3u);
  EXPECT_EQ(got.per_device[0].first, "dev-29");  // sorted lexicographically
  EXPECT_EQ(got.per_device[1].first, "dev-3");
  EXPECT_EQ(got.per_device[2].first, "dev-7");
  const ReadGuard guard = db.read_guard();
  const Tsdb::SeriesRef dev7 = db.lookup("dev-7");
  const auto want3 = db.aggregate(db.lookup("dev-3"), INT64_MIN, INT64_MAX);
  const auto want7 = db.aggregate(dev7, cut, INT64_MAX);
  ASSERT_TRUE(want3 && want7);
  EXPECT_TRUE(got.per_device[1].second == *want3);
  EXPECT_TRUE(got.per_device[2].second == *want7);

  const FleetBreakdown nb = engine.network_breakdown(spec);
  ASSERT_EQ(nb.per_device.size(), 3u);
  EXPECT_TRUE(usage_equal(nb.per_device[2].second,
                          db.network_breakdown(dev7, cut)));
}

// ---------------------------------------------------------------------------
// Per-shard query counters fold on read (the TSan-pinned satellite)
// ---------------------------------------------------------------------------

TEST(QueryEngine, ShardLocalCountersFoldIntoStats) {
  Tsdb db{TsdbOptions{8, 24}};
  const auto fleet = make_fleet(24, 120, 4, 53);
  ingest_all(db, fleet.arrival_order);
  const QueryEngine engine{db, QueryEngineOptions{4}};

  EXPECT_EQ(db.stats().segments_pruned, 0u);
  EXPECT_EQ(db.stats().summary_hits, 0u);
  // A narrow fleet query prunes segments on every shard's workers...
  QuerySpec narrow;
  narrow.t0_ns = fleet.t_max_ns - 1'000'000'000;
  (void)engine.aggregate(narrow);
  const auto after_narrow = db.stats();
  EXPECT_GT(after_narrow.segments_pruned, 0u);
  // ...and a whole-history aggregate answers from summaries, in parallel.
  QuerySpec whole;
  (void)engine.aggregate(whole);
  const auto after_whole = db.stats();
  EXPECT_GT(after_whole.summary_hits, 0u);
  EXPECT_GE(after_whole.segments_pruned, after_narrow.segments_pruned);
}

// ---------------------------------------------------------------------------
// Pool reuse
// ---------------------------------------------------------------------------

TEST(QueryEngine, PoolSurvivesManyQueriesAndEmptySpecs) {
  Tsdb db{TsdbOptions{4, 32}};
  const auto fleet = make_fleet(16, 60, 3, 61);
  ingest_all(db, fleet.arrival_order);
  const QueryEngine engine{db, QueryEngineOptions{4}};
  EXPECT_EQ(engine.workers(), 4u);

  QuerySpec all;
  all.window_ns = 1'000'000'000;
  const FleetAggregate first = engine.aggregate(all);
  for (int i = 0; i < 200; ++i) {
    const FleetAggregate again = engine.aggregate(all);
    ASSERT_EQ(again.per_device.size(), first.per_device.size());
    ASSERT_TRUE(again.merged == first.merged) << "query " << i;
  }
  // Degenerate inputs: unknown devices only, and a window-less downsample.
  QuerySpec unknown;
  unknown.devices = {"nope-1", "nope-2"};
  EXPECT_TRUE(engine.aggregate(unknown).empty());
  EXPECT_TRUE(engine.scan(unknown).records.empty());
  QuerySpec no_window;
  EXPECT_TRUE(engine.downsample(no_window).per_device.empty());
}

TEST(QueryEngine, PoolJoinsBeforeRethrowingAStrideException) {
  // A throwing stride must (a) not std::terminate when it runs on a pool
  // thread, (b) join every other stride before the exception unwinds the
  // caller (captured state must stay valid), and (c) leave the pool
  // reusable for the next job.
  const QueryPool pool{4};
  for (int round = 0; round < 20; ++round) {
    std::vector<int> touched(64, 0);
    bool threw = false;
    try {
      pool.parallel_for(touched.size(), [&](std::size_t i) {
        touched[i] = 1;
        if (i == 13) {
          throw std::runtime_error("stride 13 failed");
        }
      });
    } catch (const std::runtime_error& e) {
      threw = true;
      EXPECT_STREQ(e.what(), "stride 13 failed");
    }
    ASSERT_TRUE(threw) << "round " << round;
    // The throwing worker's stride stops where it threw, but every *other*
    // stride runs to completion before the exception reaches the caller
    // (worker k owns indices k, k+W, ... — the documented static striping).
    for (std::size_t i = 0; i < touched.size(); ++i) {
      if (i % pool.workers() != 13 % pool.workers() || i <= 13) {
        EXPECT_EQ(touched[i], 1) << "index " << i << " round " << round;
      }
    }
    // The pool is intact: a clean job right after succeeds.
    std::vector<int> clean(32, 0);
    pool.parallel_for(clean.size(), [&](std::size_t i) { clean[i] = 1; });
    for (const int v : clean) {
      EXPECT_EQ(v, 1);
    }
  }
  // Caller-stride throws (index 3 of 4 workers) take the same join path.
  bool caller_threw = false;
  try {
    pool.parallel_for(4, [](std::size_t i) {
      if (i == 3) {  // stride owned by the participating caller
        throw std::logic_error("caller stride");
      }
    });
  } catch (const std::logic_error&) {
    caller_threw = true;
  }
  EXPECT_TRUE(caller_threw);
}

// ---------------------------------------------------------------------------
// Store-backed billing through fleet queries
// ---------------------------------------------------------------------------

TEST(QueryEngine, StoreBackedBillingViaEngineMatchesExactAccumulator) {
  Tsdb db{TsdbOptions{8, 64}};
  reference::ReferenceBilling exact{"wan-0", core::Tariff{}};
  const auto fleet = make_fleet(20, 300, 4, 71);
  for (const auto& r : fleet.arrival_order) {
    db.ingest(r);
    exact.ingest(r);
  }
  const QueryEngine engine{db, QueryEngineOptions{4}};
  core::BillingService backed{"wan-0", core::Tariff{}, engine};
  // One billable device's scope mark lies after all of its history (an
  // ownership transfer after its last record): it is billed nothing.
  const core::DeviceId late_mark = fleet.devices.back();
  for (const auto& id : fleet.devices) {
    backed.mark_billable(id, id == late_mark ? fleet.t_max_ns + 1 : INT64_MIN);
  }

  const double tolerance = 300.0 * kEnergyToleranceMwh;
  EXPECT_NEAR(backed.total_energy_mwh(),
              exact.total_energy_mwh() -
                  exact.invoice_for(late_mark).total_energy_mwh,
              tolerance * static_cast<double>(fleet.devices.size()));
  const auto invoices = backed.invoice_all();
  ASSERT_EQ(invoices.size(), fleet.devices.size());
  for (const auto& invoice : invoices) {
    // invoice_all agrees with the per-device read bit-for-bit, line by line.
    const auto single = backed.invoice_for(invoice.device_id);
    ASSERT_EQ(invoice.lines.size(), single.lines.size()) << invoice.device_id;
    for (std::size_t l = 0; l < invoice.lines.size(); ++l) {
      EXPECT_EQ(invoice.lines[l].network, single.lines[l].network);
      EXPECT_EQ(invoice.lines[l].records, single.lines[l].records);
      EXPECT_EQ(invoice.lines[l].energy_mwh, single.lines[l].energy_mwh);
      EXPECT_EQ(invoice.lines[l].cost, single.lines[l].cost);
    }
    EXPECT_EQ(invoice.total_energy_mwh, single.total_energy_mwh);
    EXPECT_EQ(invoice.total_cost, single.total_cost);
    if (invoice.device_id == late_mark) {
      EXPECT_TRUE(invoice.lines.empty());
      EXPECT_EQ(invoice.total_energy_mwh, 0.0);
      EXPECT_EQ(invoice.total_cost, 0.0);
      continue;
    }
    const auto want = exact.invoice_for(invoice.device_id);
    EXPECT_NEAR(invoice.total_energy_mwh, want.total_energy_mwh, tolerance)
        << invoice.device_id;
    ASSERT_EQ(invoice.lines.size(), want.lines.size()) << invoice.device_id;
    for (std::size_t l = 0; l < invoice.lines.size(); ++l) {
      EXPECT_EQ(invoice.lines[l].network, want.lines[l].network);
      EXPECT_EQ(invoice.lines[l].records, want.lines[l].records);
      EXPECT_NEAR(invoice.lines[l].cost, want.lines[l].cost, 1e-6);
    }
  }
  // Billing-scope marks ride the fleet query as t0 overrides.
  core::BillingService scoped{"wan-0", core::Tariff{}, engine};
  const std::int64_t cut =
      fleet.t_min_ns + (fleet.t_max_ns - fleet.t_min_ns) / 2;
  scoped.mark_billable("dev-1", cut);
  double want_energy = 0.0;
  const ReadGuard guard = db.read_guard();
  for (const auto& [network, use] :
       db.network_breakdown(db.lookup("dev-1"), cut)) {
    (void)network;
    want_energy += use.energy_mwh;
  }
  EXPECT_NEAR(scoped.total_energy_mwh(), want_energy, 1e-9);
  // No billable devices: the engine path must not widen to every device.
  core::BillingService empty{"wan-0", core::Tariff{}, engine};
  EXPECT_EQ(empty.total_energy_mwh(), 0.0);
  EXPECT_TRUE(empty.invoice_all().empty());
}

// ---------------------------------------------------------------------------
// Query/ingest interleaving differential fuzz
// ---------------------------------------------------------------------------

TEST(QueryEngine, DifferentialFuzzParallelVsSequentialOverRandomIngest) {
  // Randomized ingest orders (shuffled bursts, duplicated retransmissions,
  // out-of-order roamed batches) interleaved with fleet queries; after every
  // ingest stage the parallel engines must agree bit-for-bit with the
  // sequential one on every query type.
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    util::Rng rng{0xfeed + trial};
    const std::size_t devices = 8 + rng() % 24;
    const std::size_t per_device = 40 + rng() % 80;
    auto fleet = make_fleet(devices, per_device, 2 + rng() % 4, 100 + trial);
    // Shuffle arrival order in bursts to randomize shard interleave beyond
    // the round-robin default.
    for (std::size_t i = fleet.arrival_order.size(); i > 1; --i) {
      std::swap(fleet.arrival_order[i - 1], fleet.arrival_order[rng() % i]);
    }
    Tsdb db{TsdbOptions{1 + rng() % 12, 8 + rng() % 56}};
    const QueryEngine seq{db, QueryEngineOptions{1}};
    const QueryEngine par{db, QueryEngineOptions{2 + rng() % 6}};

    const std::size_t stages = 3;
    std::size_t next = 0;
    for (std::size_t stage = 0; stage < stages; ++stage) {
      const std::size_t until = stage + 1 == stages
                                    ? fleet.arrival_order.size()
                                    : fleet.arrival_order.size() *
                                          (stage + 1) / stages;
      for (; next < until; ++next) {
        db.ingest(fleet.arrival_order[next]);
        if (rng() % 16 == 0) {  // QoS-1 retransmission
          db.ingest(fleet.arrival_order[rng() % (next + 1)]);
        }
      }
      QuerySpec spec;
      spec.window_ns = 500'000'000 + static_cast<std::int64_t>(rng() % 4) *
                                         500'000'000;
      switch (rng() % 4) {
        case 0:
          break;  // whole history, all devices
        case 1:
          spec.t0_ns = fleet.t_min_ns +
                       static_cast<std::int64_t>(rng() % 30) * 1'000'000'000;
          spec.t1_ns = fleet.t_max_ns -
                       static_cast<std::int64_t>(rng() % 10) * 1'000'000'000;
          break;
        case 2:
          spec.filter.stored_offline = rng() % 2 == 0;
          break;
        default:
          spec.filter.network = "wan-" + std::to_string(rng() % 4);
          for (std::size_t d = 0; d < devices; d += 1 + rng() % 3) {
            spec.devices.push_back("dev-" + std::to_string(d + 1));
          }
          break;
      }
      if (rng() % 3 == 0 && !fleet.devices.empty()) {
        spec.t0_overrides[fleet.devices[rng() % fleet.devices.size()]] =
            fleet.t_min_ns +
            static_cast<std::int64_t>(rng() % 60) * 1'000'000'000;
      }
      expect_engines_agree(seq, par, spec,
                           "trial " + std::to_string(trial) + " stage " +
                               std::to_string(stage));
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrent ingest racing live queries (the MVCC tentpole gate)
// ---------------------------------------------------------------------------

/// Per-device acceptance order: the device's subsequence of the fleet
/// arrival order.  Sequences are unique per device, so the store accepts
/// every record — duplicates injected later are rejected and do not move
/// the cut.
std::map<core::DeviceId, std::vector<ConsumptionRecord>> acceptance_order(
    const FleetWorkload& fleet) {
  std::map<core::DeviceId, std::vector<ConsumptionRecord>> accepted;
  for (const auto& r : fleet.arrival_order) {
    accepted[r.device_id].push_back(r);
  }
  return accepted;
}

/// Quiesced oracle for a query answered mid-ingest: a fresh store with the
/// same options holding, per device, exactly the first `n` accepted records
/// the live query's cut reported.  Bit parity against this store is the
/// snapshot-consistency contract of store/tsdb.hpp.
std::unique_ptr<Tsdb> replay_at_cut(
    const TsdbOptions& options,
    const std::map<core::DeviceId, std::vector<ConsumptionRecord>>& accepted,
    const FleetCut& cut) {
  auto replay = std::make_unique<Tsdb>(options);
  for (const auto& [id, n] : cut.per_device) {
    const auto it = accepted.find(id);
    if (it == accepted.end()) {
      EXPECT_EQ(n, 0u) << id << ": cut for a device the workload never sent";
      continue;
    }
    EXPECT_LE(n, it->second.size()) << id << ": cut past the accepted stream";
    const std::uint64_t take =
        std::min<std::uint64_t>(n, it->second.size());
    for (std::uint64_t i = 0; i < take; ++i) {
      replay->ingest(it->second[i]);
    }
  }
  return replay;
}

/// Draws a random spec in the shape of the sequential fuzz above; always
/// carries a window so downsample is exercised too.
QuerySpec random_live_spec(util::Rng& rng, const FleetWorkload& fleet) {
  QuerySpec spec;
  spec.window_ns =
      500'000'000 + static_cast<std::int64_t>(rng() % 4) * 500'000'000;
  switch (rng() % 4) {
    case 0:
      break;  // whole history, all devices
    case 1:
      spec.t0_ns = fleet.t_min_ns +
                   static_cast<std::int64_t>(rng() % 30) * 1'000'000'000;
      spec.t1_ns = fleet.t_max_ns -
                   static_cast<std::int64_t>(rng() % 10) * 1'000'000'000;
      break;
    case 2:
      spec.filter.stored_offline = rng() % 2 == 0;
      break;
    default:
      spec.filter.network = "wan-" + std::to_string(rng() % 4);
      for (std::size_t d = 0; d < fleet.devices.size(); d += 1 + rng() % 3) {
        spec.devices.push_back(fleet.devices[d]);
      }
      break;
  }
  if (rng() % 3 == 0 && !fleet.devices.empty()) {
    spec.t0_overrides[fleet.devices[rng() % fleet.devices.size()]] =
        fleet.t_min_ns + static_cast<std::int64_t>(rng() % 60) * 1'000'000'000;
  }
  return spec;
}

TEST(QueryEngine, ConcurrentIngestMatchesQuiescedReplayAtCut) {
  // A writer thread ingests the fleet (with QoS-1 duplicate retransmissions
  // mixed in) while this thread fires randomized fleet queries.  Every
  // answer captures its per-device cut and must be bit-identical to the
  // same query over a quiesced replay of exactly that cut — mid-ingest
  // answers are real answers, not approximations.
  for (std::uint64_t trial = 0; trial < 3; ++trial) {
    util::Rng rng{0xace0 + trial};
    const auto fleet =
        make_fleet(10 + rng() % 14, 60 + rng() % 60, 3, 0x900d + trial);
    const auto accepted = acceptance_order(fleet);
    const TsdbOptions opts{1 + rng() % 8, 8 + rng() % 40};
    // The head fold's dictionary race: a device whose roamed slice starts
    // in a non-empty head chunk gains a network mid-chunk, i.e. the writer
    // fills a fresh dict slot while network-filtered readers (case 2
    // below) walk the same chunk.
    std::size_t mid_chunk_gains = 0;
    for (const auto& [id, stream] : accepted) {
      const auto first_roamed = std::find_if(
          stream.begin(), stream.end(), [](const ConsumptionRecord& r) {
            return r.membership == MembershipKind::kTemporary;
          });
      const auto before =
          static_cast<std::size_t>(first_roamed - stream.begin());
      if (first_roamed != stream.end() && before % opts.seal_threshold != 0) {
        ++mid_chunk_gains;
      }
    }
    ASSERT_GT(mid_chunk_gains, 0u) << "trial " << trial;
    Tsdb db{opts};
    const QueryEngine live{db, QueryEngineOptions{2 + rng() % 4}};

    std::atomic<bool> done{false};
    std::thread writer([&db, &fleet, &done, trial] {
      util::Rng wrng{0x417 + trial};
      for (std::size_t i = 0; i < fleet.arrival_order.size(); ++i) {
        db.ingest(fleet.arrival_order[i]);
        if (wrng() % 13 == 0) {  // retransmission: rejected by dedup
          db.ingest(fleet.arrival_order[wrng() % (i + 1)]);
        }
      }
      done.store(true, std::memory_order_release);
    });

    std::size_t checked = 0;
    // Keep querying until the writer finished AND at least a dozen answers
    // were replay-checked (most of them genuinely mid-ingest).
    while (checked < 12 || !done.load(std::memory_order_acquire)) {
      QuerySpec spec = random_live_spec(rng, fleet);
      FleetCut cut;
      spec.capture_cut = &cut;
      const std::string label =
          "trial " + std::to_string(trial) + " query " + std::to_string(checked);
      // Void lambda so ASSERT_* bails out of the check, not the test body —
      // the writer thread below must always be joined.
      [&]() -> void {
      switch (checked % 5) {
        case 0: {
          const FleetAggregate got = live.aggregate(spec);
          const auto replay = replay_at_cut(opts, accepted, cut);
          spec.capture_cut = nullptr;
          const QueryEngine oracle{*replay, QueryEngineOptions{1}};
          const FleetAggregate want = oracle.aggregate(spec);
          ASSERT_EQ(got.per_device.size(), want.per_device.size()) << label;
          for (std::size_t i = 0; i < got.per_device.size(); ++i) {
            EXPECT_EQ(got.per_device[i].first, want.per_device[i].first)
                << label;
            EXPECT_TRUE(got.per_device[i].second == want.per_device[i].second)
                << label << " device " << got.per_device[i].first;
          }
          EXPECT_TRUE(got.merged == want.merged) << label;
          break;
        }
        case 1: {
          const FleetScan got = live.scan(spec);
          const auto replay = replay_at_cut(opts, accepted, cut);
          spec.capture_cut = nullptr;
          const QueryEngine oracle{*replay, QueryEngineOptions{1}};
          const FleetScan want = oracle.scan(spec);
          ASSERT_EQ(got.records.size(), want.records.size()) << label;
          for (std::size_t i = 0; i < got.records.size(); ++i) {
            EXPECT_EQ(got.records[i], want.records[i]) << label;
          }
          ASSERT_EQ(got.per_device.size(), want.per_device.size()) << label;
          for (std::size_t i = 0; i < got.per_device.size(); ++i) {
            EXPECT_EQ(got.per_device[i].device, want.per_device[i].device)
                << label;
            EXPECT_EQ(got.per_device[i].offset, want.per_device[i].offset)
                << label;
            EXPECT_EQ(got.per_device[i].count, want.per_device[i].count)
                << label;
          }
          break;
        }
        case 2: {
          // Always network-filtered: every network is some device's
          // visited one, gained mid-chunk while this query runs.
          spec.filter.network = "wan-" + std::to_string(checked / 5 % 3);
          const FleetStats got = live.current_stats(spec);
          const auto replay = replay_at_cut(opts, accepted, cut);
          spec.capture_cut = nullptr;
          const QueryEngine oracle{*replay, QueryEngineOptions{1}};
          const FleetStats want = oracle.current_stats(spec);
          ASSERT_EQ(got.per_device.size(), want.per_device.size()) << label;
          for (std::size_t i = 0; i < got.per_device.size(); ++i) {
            EXPECT_EQ(got.per_device[i].first, want.per_device[i].first)
                << label;
            EXPECT_TRUE(
                stats_equal(got.per_device[i].second, want.per_device[i].second))
                << label << " device " << got.per_device[i].first;
          }
          EXPECT_TRUE(stats_equal(got.merged, want.merged)) << label;
          break;
        }
        case 3: {
          const FleetWindows got = live.downsample(spec);
          const auto replay = replay_at_cut(opts, accepted, cut);
          spec.capture_cut = nullptr;
          const QueryEngine oracle{*replay, QueryEngineOptions{1}};
          const FleetWindows want = oracle.downsample(spec);
          ASSERT_EQ(got.per_device.size(), want.per_device.size()) << label;
          for (std::size_t i = 0; i < got.per_device.size(); ++i) {
            EXPECT_EQ(got.per_device[i].first, want.per_device[i].first)
                << label;
            ASSERT_EQ(got.per_device[i].second.size(),
                      want.per_device[i].second.size())
                << label;
            for (std::size_t w = 0; w < got.per_device[i].second.size(); ++w) {
              EXPECT_TRUE(
                  got.per_device[i].second[w] == want.per_device[i].second[w])
                  << label;
            }
          }
          ASSERT_EQ(got.merged.size(), want.merged.size()) << label;
          for (std::size_t w = 0; w < got.merged.size(); ++w) {
            EXPECT_TRUE(got.merged[w] == want.merged[w]) << label;
          }
          break;
        }
        default: {
          const FleetBreakdown got = live.network_breakdown(spec);
          const auto replay = replay_at_cut(opts, accepted, cut);
          spec.capture_cut = nullptr;
          const QueryEngine oracle{*replay, QueryEngineOptions{1}};
          const FleetBreakdown want = oracle.network_breakdown(spec);
          ASSERT_EQ(got.per_device.size(), want.per_device.size()) << label;
          for (std::size_t i = 0; i < got.per_device.size(); ++i) {
            EXPECT_EQ(got.per_device[i].first, want.per_device[i].first)
                << label;
            EXPECT_TRUE(
                usage_equal(got.per_device[i].second, want.per_device[i].second))
                << label;
          }
          EXPECT_TRUE(usage_equal(got.merged, want.merged)) << label;
          EXPECT_EQ(got.total_energy_mwh(), want.total_energy_mwh()) << label;
          break;
        }
      }
      }();
      if (::testing::Test::HasFatalFailure()) {
        break;
      }
      ++checked;
    }
    writer.join();
  }
}

TEST(QueryEngine, ParallelReaderThreadsObserveMonotoneCuts) {
  // Two query threads (own engines, pool workers inside) race one writer.
  // Each thread checks snapshot sanity per answer — merged count equals the
  // per-device fold, and for an unfiltered whole-history aggregate every
  // per-device count equals the captured cut exactly — and that successive
  // cuts never move backwards (epochs only advance).  After the writer
  // joins, a final quiesced answer must be bit-identical to a fresh
  // single-threaded store of the whole fleet.
  const auto fleet = make_fleet(16, 160, 4, 0x51ab);
  Tsdb db{TsdbOptions{4, 32}};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    ingest_all(db, fleet.arrival_order);
    done.store(true, std::memory_order_release);
  });

  auto reader = [&db, &done](unsigned workers) {
    const QueryEngine engine{db, QueryEngineOptions{workers}};
    std::map<core::DeviceId, std::uint64_t> last;
    bool final_pass = false;
    while (!final_pass) {
      final_pass = done.load(std::memory_order_acquire);
      QuerySpec spec;  // whole history, all devices, no filter
      FleetCut cut;
      spec.capture_cut = &cut;
      const FleetAggregate got = engine.aggregate(spec);
      std::map<core::DeviceId, std::uint64_t> cut_by_device;
      for (const auto& [id, n] : cut.per_device) {
        // Cuts only advance: a later snapshot can never show fewer records.
        const auto it = last.find(id);
        if (it != last.end()) {
          EXPECT_GE(n, it->second) << id;
        }
        last[id] = n;
        cut_by_device.emplace(id, n);
      }
      std::uint64_t fold = 0;
      for (const auto& [id, agg] : got.per_device) {
        fold += agg.count;
        // Unfiltered whole-history fold: the answer *is* the cut.
        const auto it = cut_by_device.find(id);
        ASSERT_TRUE(it != cut_by_device.end()) << id;
        EXPECT_EQ(agg.count, it->second) << id;
      }
      EXPECT_EQ(got.merged.count, fold);
    }
  };
  std::thread r1(reader, 2);
  std::thread r2(reader, 3);
  r1.join();
  r2.join();
  writer.join();

  // Quiesced epilogue: the raced store answers bit-identically to a store
  // that never saw a concurrent reader.
  Tsdb clean{TsdbOptions{4, 32}};
  ingest_all(clean, fleet.arrival_order);
  const QueryEngine raced{db, QueryEngineOptions{3}};
  const QueryEngine quiet{clean, QueryEngineOptions{1}};
  QuerySpec spec;
  spec.window_ns = 1'000'000'000;
  expect_engines_agree(raced, quiet, spec, "post-race vs clean store");
}

}  // namespace
}  // namespace emon::store
