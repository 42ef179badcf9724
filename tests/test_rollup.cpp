// The incremental roll-up engine (store/rollup.{hpp,cpp}) and the push
// subscription service (core/subscription.{hpp,cpp}).
//
// The load-bearing contract is bit-parity: every ClosedWindow a rollup
// emits — per-device aggregates, their count-weighted merge, the
// per-network breakdown — must compare == (doubles included) to
// QueryEngine::aggregate / network_breakdown over the same range, filter
// and device set, and the same equality must survive the MQTT wire (f64
// bit-pattern encoding).  Covered here:
//   * tumbling / sliding / filtered / device-scoped windows vs cold queries
//   * mid-stream registration backfill, pool-parallel drain determinism
//   * seeded out-of-order ingest fuzz with drains interleaved
//   * beyond-horizon late records: counted, dropped to the cold path
//   * late folds into a pane an emitted window covered: counted as pane
//     patches, later windows still exact
//   * subscribe/ack/push/unsubscribe over a real broker + client pair,
//     rollup sharing, re-subscribe, rejects, malformed frames
//   * broker fan-out batching (one wire frame, N recipients)

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/protocol.hpp"
#include "core/records.hpp"
#include "core/subscription.hpp"
#include "net/channel.hpp"
#include "net/mqtt.hpp"
#include "obs/metrics.hpp"
#include "sim/kernel.hpp"
#include "store/query_engine.hpp"
#include "store/rollup.hpp"
#include "store/segment.hpp"
#include "store/tsdb.hpp"
#include "util/rng.hpp"

namespace emon::store {
namespace {

using core::ConsumptionRecord;
using core::MembershipKind;

constexpr std::int64_t kSecond = 1'000'000'000;
constexpr std::int64_t kMs = 1'000'000;

// ---------------------------------------------------------------------------
// Workload generation
// ---------------------------------------------------------------------------

/// One device's jittered 10 Hz stream with a roamed-network slice in the
/// middle and every fourth record offline-buffered.
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
    t += 100 * kMs + static_cast<std::int64_t>(rng.uniform(-40e3, 40e3));
    ConsumptionRecord r;
    r.device_id = id;
    r.sequence = i + 1;
    r.timestamp_ns = t;
    r.interval_ns = 100 * kMs;
    r.current_ma =
        160.0 + 0.05 * static_cast<double>(i) + rng.uniform(-4.0, 4.0);
    r.bus_voltage_mv = 5000.0 + rng.uniform(-9.0, 9.0);
    r.energy_mwh = r.current_ma * 5.0 * (0.1 / 3600.0);
    const bool roamed = i >= n / 3 && i < n / 2;
    r.network = roamed ? visited : home;
    r.membership = roamed ? MembershipKind::kTemporary : MembershipKind::kHome;
    r.stored_offline = i % 4 == 0;
    out.push_back(std::move(r));
  }
  return out;
}

/// Round-robin interleave of D device streams — the shard-mixing arrival
/// order an aggregator actually sees.
std::vector<ConsumptionRecord> make_fleet(std::size_t devices,
                                          std::size_t per_device,
                                          std::size_t networks,
                                          std::uint64_t seed) {
  std::vector<std::vector<ConsumptionRecord>> streams;
  for (std::size_t d = 0; d < devices; ++d) {
    streams.push_back(device_stream(
        "dev-" + std::to_string(d + 1), per_device, seed + d,
        "wan-" + std::to_string(d % networks),
        "wan-" + std::to_string((d + 1) % networks),
        static_cast<std::int64_t>(d) * 7 * kMs));
  }
  std::vector<ConsumptionRecord> arrival;
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (auto& stream : streams) {
      if (i < stream.size()) {
        arrival.push_back(std::move(stream[i]));
        any = true;
      }
    }
    if (!any) {
      break;
    }
  }
  return arrival;
}

/// Advances every rollup's watermark without adding in-range data: a sane
/// record from a sentinel device far past the range under test.
ConsumptionRecord watermark_record(std::int64_t ts_ns,
                                   std::uint64_t seq = 1) {
  ConsumptionRecord r;
  r.device_id = "zz-watermark";
  r.sequence = seq;
  r.timestamp_ns = ts_ns;
  r.interval_ns = 100 * kMs;
  r.current_ma = 1.0;
  r.bus_voltage_mv = 5000.0;
  r.energy_mwh = 0.001;
  r.network = "wan-0";
  r.membership = MembershipKind::kHome;
  r.stored_offline = false;
  return r;
}

// ---------------------------------------------------------------------------
// Exact-equality helpers (doubles compared with ==; see file comment)
// ---------------------------------------------------------------------------

bool agg_equal(const DeviceAggregate& a, const DeviceAggregate& b) {
  return a.count == b.count && a.t_min_ns == b.t_min_ns &&
         a.t_max_ns == b.t_max_ns && a.min_current_ma == b.min_current_ma &&
         a.max_current_ma == b.max_current_ma &&
         a.avg_current_ma == b.avg_current_ma &&
         a.sum_energy_mwh == b.sum_energy_mwh;
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

/// Naive per-network oracle: re-fold a cold scan of the window in the same
/// quantized integer domain the engine uses — one fleet-wide integer
/// record/energy sum per network, a single dequantize per network (the
/// engine keeps these sums in a rollup-global pane ring, so no per-device
/// double addition ever happens).  QueryEngine::network_breakdown is not
/// usable here — it is a billing read with lower-bound-only range
/// semantics.
std::map<core::NetworkId, NetworkUsage> naive_breakdown(
    const FleetScan& scan) {
  std::map<core::NetworkId, std::pair<std::uint64_t, std::int64_t>> sums;
  for (const auto& span : scan.per_device) {
    for (std::size_t i = span.offset; i < span.offset + span.count; ++i) {
      const auto& r = scan.records[i];
      auto& [records, energy_q] = sums[r.network];
      records += 1;
      energy_q += quantize(r.energy_mwh, kEnergyScale);
    }
  }
  std::map<core::NetworkId, NetworkUsage> merged;
  for (const auto& [network, e] : sums) {
    auto& total = merged[network];
    total.records = e.first;
    total.energy_mwh = dequantize(e.second, kEnergyScale);
  }
  return merged;
}

/// The differential oracle: the window must be bit-identical to the cold
/// fleet query over its range with the rollup's own filter/device scope.
void expect_window_matches_cold(const QueryEngine& engine,
                                const RollupSpec& spec,
                                const ClosedWindow& w,
                                const std::string& label) {
  QuerySpec q;
  q.devices = spec.devices;
  q.t0_ns = w.t0_ns;
  q.t1_ns = w.t1_ns;
  q.filter = spec.filter;
  const FleetAggregate cold = engine.aggregate(q);
  ASSERT_EQ(w.per_device.size(), cold.per_device.size()) << label;
  for (std::size_t i = 0; i < w.per_device.size(); ++i) {
    EXPECT_EQ(w.per_device[i].first, cold.per_device[i].first) << label;
    EXPECT_TRUE(agg_equal(w.per_device[i].second, cold.per_device[i].second))
        << label << " device " << w.per_device[i].first;
  }
  EXPECT_TRUE(agg_equal(w.merged, cold.merged)) << label;
  EXPECT_TRUE(usage_equal(w.breakdown, naive_breakdown(engine.scan(q))))
      << label;
}

void ingest_all(Tsdb& db, const std::vector<ConsumptionRecord>& records) {
  for (const auto& r : records) {
    db.ingest(r);
  }
}

// ---------------------------------------------------------------------------
// Spec validation
// ---------------------------------------------------------------------------

TEST(RollupSpec, InvalidSpecsRejected) {
  Tsdb db{TsdbOptions{4, 32}};
  RollupEngine engine{db};

  RollupSpec zero_window;
  zero_window.window_ns = 0;
  zero_window.slide_ns = kSecond;
  EXPECT_THROW(engine.register_rollup(zero_window), std::invalid_argument);

  RollupSpec bad_slide;
  bad_slide.window_ns = 10 * kSecond;
  bad_slide.slide_ns = 3 * kSecond;  // does not divide the width
  EXPECT_THROW(engine.register_rollup(bad_slide), std::invalid_argument);

  RollupSpec negative_lateness;
  negative_lateness.window_ns = kSecond;
  negative_lateness.slide_ns = kSecond;
  negative_lateness.lateness_ns = -1;
  EXPECT_THROW(engine.register_rollup(negative_lateness),
               std::invalid_argument);

  RollupSpec far_anchor;
  far_anchor.window_ns = kSecond;
  far_anchor.slide_ns = kSecond;
  far_anchor.anchor_ns = std::int64_t{1} << 62;
  EXPECT_THROW(engine.register_rollup(far_anchor), std::invalid_argument);

  // 65,536 one-second panes per window: a ring of that many 64-byte slots
  // per series is memory one subscribe request must not be able to claim.
  RollupSpec wide;
  wide.window_ns = 65'536 * kSecond;
  wide.slide_ns = kSecond;
  EXPECT_FALSE(wide.valid());
  EXPECT_THROW(engine.register_rollup(wide), std::invalid_argument);

  // The widest ring still admitted: a 1 h window on a 1 min slide.
  RollupSpec hour;
  hour.window_ns = 3600 * kSecond;
  hour.slide_ns = 60 * kSecond;
  EXPECT_TRUE(hour.valid());

  EXPECT_EQ(engine.rollup_count(), 0u);
}

// ---------------------------------------------------------------------------
// Differential: maintained windows vs cold fleet queries
// ---------------------------------------------------------------------------

TEST(RollupDifferential, TumblingWindowsMatchColdFleetQuery) {
  Tsdb db{TsdbOptions{8, 32}};
  RollupEngine rollups{db};
  db.set_ingest_hook(&rollups);

  RollupSpec spec;
  spec.window_ns = kSecond;
  spec.slide_ns = kSecond;
  spec.lateness_ns = 500 * kMs;
  const std::uint64_t id = rollups.register_rollup(spec);

  const auto fleet = make_fleet(6, 120, 3, 77);
  ingest_all(db, fleet);
  db.ingest(watermark_record(60 * kSecond));

  const QueryEngine engine{db, QueryEngineOptions{1}};
  const auto windows = rollups.drain(id);
  ASSERT_GE(windows.size(), 10u);
  for (const auto& w : windows) {
    EXPECT_EQ(w.t1_ns - w.t0_ns, kSecond);
    expect_window_matches_cold(engine, spec, w, "tumbling");
  }
  const RollupStats* stats = rollups.stats(id);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->records_dropped_late, 0u);
  EXPECT_GE(stats->windows_closed, windows.size());
  // A second drain with nothing new is empty, not a re-emission.
  EXPECT_TRUE(rollups.drain(id).empty());
}

TEST(RollupDifferential, SlidingWindowsOverlapAndMatch) {
  Tsdb db{TsdbOptions{4, 32}};
  RollupEngine rollups{db};
  db.set_ingest_hook(&rollups);

  RollupSpec spec;
  spec.window_ns = kSecond;
  spec.slide_ns = 250 * kMs;  // 4 panes per window
  spec.lateness_ns = 500 * kMs;
  const std::uint64_t id = rollups.register_rollup(spec);

  ingest_all(db, make_fleet(4, 80, 2, 11));
  db.ingest(watermark_record(40 * kSecond));

  const QueryEngine engine{db, QueryEngineOptions{1}};
  const auto windows = rollups.drain(id);
  ASSERT_GE(windows.size(), 20u);
  for (std::size_t i = 0; i + 1 < windows.size(); ++i) {
    EXPECT_EQ(windows[i + 1].t0_ns - windows[i].t0_ns, 250 * kMs);
  }
  for (const auto& w : windows) {
    expect_window_matches_cold(engine, spec, w, "sliding");
  }
}

TEST(RollupDifferential, FilteredRollupMatchesFilteredColdQuery) {
  Tsdb db{TsdbOptions{4, 32}};
  RollupEngine rollups{db};
  db.set_ingest_hook(&rollups);

  RollupSpec spec;
  spec.window_ns = 2 * kSecond;
  spec.slide_ns = kSecond;
  spec.lateness_ns = 500 * kMs;
  spec.filter.network = "wan-0";
  spec.filter.stored_offline = false;
  const std::uint64_t id = rollups.register_rollup(spec);

  ingest_all(db, make_fleet(5, 100, 3, 23));
  db.ingest(watermark_record(50 * kSecond));

  const QueryEngine engine{db, QueryEngineOptions{1}};
  const auto windows = rollups.drain(id);
  ASSERT_GE(windows.size(), 5u);
  for (const auto& w : windows) {
    for (const auto& [network, usage] : w.breakdown) {
      EXPECT_EQ(network, "wan-0");
      (void)usage;
    }
    expect_window_matches_cold(engine, spec, w, "filtered");
  }
}

TEST(RollupDifferential, DeviceScopeLimitsAndMatches) {
  Tsdb db{TsdbOptions{4, 32}};
  RollupEngine rollups{db};
  db.set_ingest_hook(&rollups);

  RollupSpec spec;
  spec.window_ns = kSecond;
  spec.slide_ns = kSecond;
  spec.lateness_ns = 500 * kMs;
  spec.devices = {"dev-2", "dev-4"};
  const std::uint64_t id = rollups.register_rollup(spec);

  ingest_all(db, make_fleet(5, 60, 2, 31));
  db.ingest(watermark_record(30 * kSecond));

  const QueryEngine engine{db, QueryEngineOptions{1}};
  const auto windows = rollups.drain(id);
  ASSERT_GE(windows.size(), 3u);
  for (const auto& w : windows) {
    for (const auto& [device, agg] : w.per_device) {
      EXPECT_TRUE(device == "dev-2" || device == "dev-4") << device;
      (void)agg;
    }
    expect_window_matches_cold(engine, spec, w, "scoped");
  }
}

TEST(RollupDifferential, MidStreamRegistrationBackfillsFromStore) {
  Tsdb db{TsdbOptions{4, 32}};
  RollupEngine rollups{db};
  db.set_ingest_hook(&rollups);

  const auto fleet = make_fleet(4, 100, 2, 91);
  const std::size_t half = fleet.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    db.ingest(fleet[i]);
  }

  // Register mid-stream: open panes are backfilled from the sealed store,
  // so the first windows to close are still exact.
  RollupSpec spec;
  spec.window_ns = kSecond;
  spec.slide_ns = kSecond;
  spec.lateness_ns = 500 * kMs;
  const std::uint64_t id = rollups.register_rollup(spec);
  const RollupStats* stats = rollups.stats(id);
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->backfilled_records, 0u);

  for (std::size_t i = half; i < fleet.size(); ++i) {
    db.ingest(fleet[i]);
  }
  db.ingest(watermark_record(50 * kSecond));

  const QueryEngine engine{db, QueryEngineOptions{1}};
  const auto windows = rollups.drain(id);
  ASSERT_GE(windows.size(), 3u);
  for (const auto& w : windows) {
    expect_window_matches_cold(engine, spec, w, "backfill");
  }
}

TEST(RollupDifferential, PoolDrainBitIdenticalToSequential) {
  // The same workload through two identical engines; one drains on a
  // 4-worker pool, the other sequentially.  Windows must be bit-identical.
  const auto fleet = make_fleet(6, 100, 3, 55);

  RollupSpec spec;
  spec.window_ns = kSecond;
  spec.slide_ns = kSecond;
  spec.lateness_ns = 500 * kMs;

  Tsdb db_a{TsdbOptions{8, 32}};
  RollupEngine rollups_a{db_a};
  db_a.set_ingest_hook(&rollups_a);
  const std::uint64_t id_a = rollups_a.register_rollup(spec);
  ingest_all(db_a, fleet);
  db_a.ingest(watermark_record(60 * kSecond));

  Tsdb db_b{TsdbOptions{8, 32}};
  RollupEngine rollups_b{db_b};
  db_b.set_ingest_hook(&rollups_b);
  const std::uint64_t id_b = rollups_b.register_rollup(spec);
  ingest_all(db_b, fleet);
  db_b.ingest(watermark_record(60 * kSecond));

  const QueryEngine pooled{db_a, QueryEngineOptions{4}};
  const auto with_pool = rollups_a.drain(id_a, &pooled.pool());
  const auto sequential = rollups_b.drain(id_b, nullptr);

  ASSERT_EQ(with_pool.size(), sequential.size());
  ASSERT_GE(with_pool.size(), 5u);
  for (std::size_t i = 0; i < with_pool.size(); ++i) {
    const auto& a = with_pool[i];
    const auto& b = sequential[i];
    EXPECT_EQ(a.t0_ns, b.t0_ns);
    EXPECT_EQ(a.t1_ns, b.t1_ns);
    ASSERT_EQ(a.per_device.size(), b.per_device.size());
    for (std::size_t d = 0; d < a.per_device.size(); ++d) {
      EXPECT_EQ(a.per_device[d].first, b.per_device[d].first);
      EXPECT_TRUE(agg_equal(a.per_device[d].second, b.per_device[d].second));
    }
    EXPECT_TRUE(agg_equal(a.merged, b.merged));
    EXPECT_TRUE(usage_equal(a.breakdown, b.breakdown));
  }
}

TEST(RollupDifferential, EmptyWindowsAreSuppressed) {
  // A 5 s silence in the stream: the windows inside it close but are not
  // emitted, so idle fleets do not flood subscribers.
  std::vector<ConsumptionRecord> records;
  auto early = device_stream("dev-1", 20, 5, "wan-0", "wan-1", 0);
  auto late = device_stream("dev-1", 20, 6, "wan-0", "wan-1", 8 * kSecond);
  for (std::size_t i = 0; i < late.size(); ++i) {
    late[i].sequence = 1000 + i;  // keep per-device sequences unique
  }
  records.insert(records.end(), early.begin(), early.end());
  records.insert(records.end(), late.begin(), late.end());

  Tsdb db{TsdbOptions{2, 32}};
  RollupEngine rollups{db};
  db.set_ingest_hook(&rollups);

  RollupSpec quiet;
  quiet.window_ns = kSecond;
  quiet.slide_ns = kSecond;
  quiet.lateness_ns = 0;
  const std::uint64_t quiet_id = rollups.register_rollup(quiet);

  ingest_all(db, records);
  db.ingest(watermark_record(20 * kSecond));

  const auto suppressed = rollups.drain(quiet_id);
  ASSERT_FALSE(suppressed.empty());
  EXPECT_LE(suppressed.front().t1_ns, 2 * kSecond);
  EXPECT_GE(suppressed.back().t0_ns, 8 * kSecond);
  for (const auto& w : suppressed) {
    EXPECT_FALSE(w.empty());
    EXPECT_FALSE(w.t0_ns >= 3 * kSecond && w.t1_ns <= 8 * kSecond)
        << "window [" << w.t0_ns << ", " << w.t1_ns << ") inside the silence";
  }
  EXPECT_GT(rollups.stats(quiet_id)->windows_closed, suppressed.size());
}

// ---------------------------------------------------------------------------
// Out-of-order / late ingest fuzz
// ---------------------------------------------------------------------------

/// Bounded local shuffle: Fisher-Yates within disjoint blocks, so no record
/// is displaced more than `block - 1` positions.  With ~25 ms between
/// interleaved arrivals and block 10 the worst timestamp disorder stays
/// well inside the 500 ms lateness horizon — the rollup must drop nothing
/// and stay exact.
std::vector<ConsumptionRecord> bounded_shuffle(
    std::vector<ConsumptionRecord> records, std::size_t block,
    std::uint64_t seed) {
  util::Rng rng{seed};
  for (std::size_t start = 0; start < records.size(); start += block) {
    const std::size_t end = std::min(start + block, records.size());
    for (std::size_t i = end - 1; i > start; --i) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform(0.0, static_cast<double>(i - start + 1)));
      std::swap(records[i], records[start + std::min(pick, i - start)]);
    }
  }
  return records;
}

TEST(RollupFuzz, OutOfOrderIngestInterleavedWithDrains) {
  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    Tsdb db{TsdbOptions{8, 32}};
    RollupEngine rollups{db};
    db.set_ingest_hook(&rollups);

    RollupSpec plain;
    plain.window_ns = kSecond;
    plain.slide_ns = kSecond;
    plain.lateness_ns = 500 * kMs;
    const std::uint64_t plain_id = rollups.register_rollup(plain);

    RollupSpec filtered;
    filtered.window_ns = 2 * kSecond;
    filtered.slide_ns = 500 * kMs;
    filtered.lateness_ns = 500 * kMs;
    filtered.filter.stored_offline = false;
    const std::uint64_t filtered_id = rollups.register_rollup(filtered);

    const auto arrival =
        bounded_shuffle(make_fleet(4, 150, 2, seed), 10, seed * 7);
    const QueryEngine engine{db, QueryEngineOptions{2}};

    std::size_t total_windows = 0;
    std::size_t ingested = 0;
    for (const auto& r : arrival) {
      db.ingest(r);
      if (++ingested % 100 == 0) {
        // Drain mid-stream and verify immediately: each emitted window is
        // final (nothing later may change it), so the cold query over the
        // same range must already agree bit-for-bit.
        for (const auto& [id, spec] :
             {std::make_pair(plain_id, plain),
              std::make_pair(filtered_id, filtered)}) {
          for (const auto& w : rollups.drain(id)) {
            expect_window_matches_cold(engine, spec, w,
                                       "fuzz seed " + std::to_string(seed));
            ++total_windows;
          }
        }
      }
    }
    db.ingest(watermark_record(120 * kSecond));
    for (const auto& [id, spec] : {std::make_pair(plain_id, plain),
                                   std::make_pair(filtered_id, filtered)}) {
      for (const auto& w : rollups.drain(id)) {
        expect_window_matches_cold(engine, spec, w,
                                   "fuzz tail seed " + std::to_string(seed));
        ++total_windows;
      }
      const RollupStats* stats = rollups.stats(id);
      ASSERT_NE(stats, nullptr);
      // Disorder stayed inside the horizon: exactness may never be bought
      // by silently dropping records.
      EXPECT_EQ(stats->records_dropped_late, 0u);
      EXPECT_GT(stats->records_folded, 0u);
    }
    EXPECT_GE(total_windows, 20u);
  }
}

TEST(RollupFuzz, ConcurrentColdQueriesDuringMaintainedIngest) {
  // The serving-path split (core/serve_pipeline.hpp): the rollup engine
  // stays owner-thread state on the ingest thread — which ingests the fleet
  // and drains mid-stream — while this thread hammers cold fleet queries
  // against the same MVCC store.  Racing answers must stay internally
  // consistent (merged count == per-device fold over one snapshot), and
  // once the owner joins, every window it drained must match the quiesced
  // cold oracle bit-for-bit.
  Tsdb db{TsdbOptions{4, 32}};
  RollupEngine rollups{db};
  db.set_ingest_hook(&rollups);

  RollupSpec spec;
  spec.window_ns = kSecond;
  spec.slide_ns = kSecond;
  spec.lateness_ns = 500 * kMs;
  const std::uint64_t id = rollups.register_rollup(spec);

  const auto arrival = make_fleet(6, 160, 3, 0xc01d);
  std::vector<ClosedWindow> windows;  // owner-thread only until join
  std::atomic<bool> done{false};
  std::thread owner([&] {
    std::size_t ingested = 0;
    for (const auto& r : arrival) {
      db.ingest(r);
      if (++ingested % 64 == 0) {
        auto batch = rollups.drain(id);
        windows.insert(windows.end(),
                       std::make_move_iterator(batch.begin()),
                       std::make_move_iterator(batch.end()));
      }
    }
    db.ingest(watermark_record(120 * kSecond));
    auto tail = rollups.drain(id);
    windows.insert(windows.end(), std::make_move_iterator(tail.begin()),
                   std::make_move_iterator(tail.end()));
    done.store(true, std::memory_order_release);
  });

  const QueryEngine engine{db, QueryEngineOptions{3}};
  std::size_t raced = 0;
  while (!done.load(std::memory_order_acquire)) {
    QuerySpec q;  // whole history, all devices
    const FleetAggregate got = engine.aggregate(q);
    std::uint64_t fold = 0;
    for (const auto& [device, agg] : got.per_device) {
      (void)device;
      fold += agg.count;
    }
    EXPECT_EQ(got.merged.count, fold) << "raced query " << raced;
    ++raced;
  }
  owner.join();

  ASSERT_GE(windows.size(), 10u);
  for (const auto& w : windows) {
    expect_window_matches_cold(engine, spec, w, "concurrent-drain");
  }
}

TEST(RollupLateness, BeyondHorizonRecordFallsToColdPath) {
  Tsdb db{TsdbOptions{2, 32}};
  RollupEngine rollups{db};
  db.set_ingest_hook(&rollups);

  RollupSpec spec;
  spec.window_ns = kSecond;
  spec.slide_ns = kSecond;
  spec.lateness_ns = 100 * kMs;
  const std::uint64_t id = rollups.register_rollup(spec);

  auto stream = device_stream("dev-1", 8, 3, "wan-0", "wan-1", 0);
  ingest_all(db, stream);
  db.ingest(watermark_record(5 * kSecond));

  const QueryEngine engine{db, QueryEngineOptions{1}};
  const auto windows = rollups.drain(id);
  ASSERT_FALSE(windows.empty());
  const ClosedWindow first = windows.front();
  expect_window_matches_cold(engine, spec, first, "pre-late");
  const std::uint64_t emitted_count = first.merged.count;

  // A record landing inside the already-emitted window: the rollup must
  // count + drop it, never rewrite history.
  ConsumptionRecord late = stream.front();
  late.sequence = 999;
  late.timestamp_ns = first.t0_ns + 200 * kMs;
  ASSERT_TRUE(db.ingest(late));

  const RollupStats* stats = rollups.stats(id);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->records_dropped_late, 1u);
  EXPECT_TRUE(rollups.drain(id).empty());  // no re-emission

  // The cold path still has the record — it now counts one more than the
  // emitted window did.
  QuerySpec q;
  q.t0_ns = first.t0_ns;
  q.t1_ns = first.t1_ns;
  EXPECT_EQ(engine.aggregate(q).merged.count, emitted_count + 1);
}

TEST(RollupLateness, PatchIntoAnEmittedPaneIsCountedAndLaterWindowsStayExact) {
  // A 2 s / 500 ms sliding rollup emits windows up to E = 4.5 s; then a
  // record at 3.2 s arrives.  Its pane [3.0, 3.5) was covered by the
  // emitted windows ending 3.5-4.5 s, but the window ending 5.0 s is still
  // open, so the record folds (a pane patch) and every later window must
  // still equal the cold query.
  Tsdb db{TsdbOptions{4, 32}};
  RollupEngine rollups{db};
  db.set_ingest_hook(&rollups);

  RollupSpec sliding;
  sliding.window_ns = 2 * kSecond;
  sliding.slide_ns = 500 * kMs;
  sliding.lateness_ns = 0;
  const std::uint64_t id = rollups.register_rollup(sliding);
  RollupSpec tumbling = sliding;
  tumbling.window_ns = tumbling.slide_ns;
  const std::uint64_t tumbling_id = rollups.register_rollup(tumbling);

  const auto stream = device_stream("dev-1", 100, 7, "wan-0", "wan-1", 0);
  const std::size_t head = 48;  // through ~4.8 s
  for (std::size_t i = 0; i < head; ++i) {
    db.ingest(stream[i]);
  }
  const auto before = rollups.drain(id);
  ASSERT_FALSE(before.empty());
  EXPECT_EQ(before.back().t1_ns, 4500 * kMs);
  (void)rollups.drain(tumbling_id);

  ConsumptionRecord late = stream[31];
  late.sequence = 10'000;
  late.timestamp_ns = 3200 * kMs;
  ASSERT_TRUE(db.ingest(late));

  const RollupStats* stats = rollups.stats(id);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->pane_patches, 1u);
  EXPECT_EQ(stats->records_dropped_late, 0u);
  // Tumbling: the pane's only window was emitted, so the record drops.
  const RollupStats* tumbling_stats = rollups.stats(tumbling_id);
  ASSERT_NE(tumbling_stats, nullptr);
  EXPECT_EQ(tumbling_stats->pane_patches, 0u);
  EXPECT_EQ(tumbling_stats->records_dropped_late, 1u);

  // A mid-stream registration backfills the patched pane; backfill counts
  // no patches.
  const std::uint64_t backfilled_id = rollups.register_rollup(sliding);
  const RollupStats* backfilled_stats = rollups.stats(backfilled_id);
  ASSERT_NE(backfilled_stats, nullptr);
  EXPECT_GT(backfilled_stats->backfilled_records, 0u);
  EXPECT_EQ(backfilled_stats->pane_patches, 0u);

  for (std::size_t i = head; i < stream.size(); ++i) {
    db.ingest(stream[i]);
  }
  db.ingest(watermark_record(20 * kSecond));

  const QueryEngine engine{db, QueryEngineOptions{1}};
  for (const std::uint64_t rid : {id, backfilled_id}) {
    const auto after = rollups.drain(rid);
    ASSERT_GE(after.size(), 10u);
    EXPECT_EQ(after.front().t1_ns, 5 * kSecond);
    for (const auto& w : after) {
      expect_window_matches_cold(engine, sliding, w, "after patch");
    }
  }
  EXPECT_EQ(stats->pane_patches, 1u);
  EXPECT_EQ(backfilled_stats->pane_patches, 0u);
  EXPECT_EQ(tumbling_stats->pane_patches, 0u);
}

TEST(RollupLateness, LateDropsSplitByCauseInStatsAndScrape) {
  // Late records of each cause — offline-flushed (temporary or not),
  // roamed-live, home-live — land in an already-emitted window.  The stats
  // split and the registry mirrors must agree and sum to the total.
  obs::MetricsRegistry reg(2);
  Tsdb db{TsdbOptions{2, 32}};
  RollupEngine rollups{db, &reg};
  db.set_ingest_hook(&rollups);
  RollupSpec spec;
  spec.window_ns = kSecond;
  spec.slide_ns = kSecond;
  spec.lateness_ns = 100 * kMs;
  const std::uint64_t id = rollups.register_rollup(spec);
  ingest_all(db, device_stream("dev-1", 8, 3, "wan-0", "wan-1", 0));
  db.ingest(watermark_record(5 * kSecond));
  const auto windows = rollups.drain(id);
  ASSERT_FALSE(windows.empty());

  struct Late {
    bool offline;
    MembershipKind membership;
  };
  const std::vector<Late> lates{
      {true, MembershipKind::kHome},      {true, MembershipKind::kTemporary},
      {true, MembershipKind::kHome},      {false, MembershipKind::kTemporary},
      {false, MembershipKind::kTemporary}, {false, MembershipKind::kHome}};
  std::uint64_t seq = 100;
  for (const Late& l : lates) {
    ConsumptionRecord r = watermark_record(windows.front().t0_ns + 300 * kMs);
    r.device_id = "dev-2";
    r.sequence = ++seq;
    r.stored_offline = l.offline;
    r.membership = l.membership;
    ASSERT_TRUE(db.ingest(r));
  }

  const RollupStats* stats = rollups.stats(id);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->late_stored_offline, 3u);
  EXPECT_EQ(stats->late_temporary, 2u);
  EXPECT_EQ(stats->late_other, 1u);
  EXPECT_EQ(stats->records_dropped_late, 6u);
  const obs::MetricsSnapshot scrape = reg.snapshot();
  const auto counter = [&scrape](const char* name) {
    const std::uint64_t* v = scrape.counter(name);
    return v == nullptr ? UINT64_MAX : *v;
  };
  EXPECT_EQ(counter("rollup_records_dropped_late"), 6u);
  EXPECT_EQ(counter("rollup_late_dropped{cause=\"stored_offline\"}"), 3u);
  EXPECT_EQ(counter("rollup_late_dropped{cause=\"temporary\"}"), 2u);
  EXPECT_EQ(counter("rollup_late_dropped{cause=\"other\"}"), 1u);
}

TEST(RollupLateness, RunawayWatermarkGapSkipsInsteadOfFlooding) {
  Tsdb db{TsdbOptions{2, 32}};
  RollupEngine rollups{db};
  db.set_ingest_hook(&rollups);

  RollupSpec spec;
  spec.window_ns = kSecond;
  spec.slide_ns = kSecond;
  spec.lateness_ns = 0;
  const std::uint64_t id = rollups.register_rollup(spec);

  ingest_all(db, device_stream("dev-1", 5, 9, "wan-0", "wan-1", 0));
  // A 2000 s watermark jump: the guard seals at most kMaxWindowsPerDrain
  // windows and counts the skipped span instead of folding 2000 of them.
  db.ingest(watermark_record(2000 * kSecond));
  const auto windows = rollups.drain(id);
  EXPECT_LE(windows.size(), 2u);  // only the data-bearing window(s) emit
  const RollupStats* stats = rollups.stats(id);
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->windows_skipped, 0u);
}

}  // namespace
}  // namespace emon::store

// ===========================================================================
// Push subscriptions over MQTT
// ===========================================================================

namespace emon::core {
namespace {

using net::MqttBroker;
using net::MqttClient;
using net::MqttMessage;
using store::ClosedWindow;
using store::QueryEngine;
using store::QueryEngineOptions;
using store::QuerySpec;
using store::RollupEngine;
using store::RollupSpec;
using store::Tsdb;
using store::TsdbOptions;

constexpr std::int64_t kSecond = 1'000'000'000;
constexpr std::int64_t kMs = 1'000'000;

WireAggregate to_wire(const store::DeviceAggregate& a) {
  WireAggregate w;
  w.count = a.count;
  w.t_min_ns = a.t_min_ns;
  w.t_max_ns = a.t_max_ns;
  w.min_current_ma = a.min_current_ma;
  w.max_current_ma = a.max_current_ma;
  w.avg_current_ma = a.avg_current_ma;
  w.sum_energy_mwh = a.sum_energy_mwh;
  return w;
}

struct SubscriptionFixture : ::testing::Test {
  sim::Kernel kernel;
  MqttBroker broker{kernel, "agg-1"};
  Tsdb db{TsdbOptions{4, 32}};
  RollupEngine rollups{db};
  SubscriptionService service{broker, rollups, /*anchor_ns=*/0,
                              /*default_lateness_ns=*/500 * kMs};

  SubscriptionFixture() {
    db.set_ingest_hook(&rollups);
    service.attach();
  }

  std::pair<std::shared_ptr<net::Channel>, std::shared_ptr<net::Channel>>
  channels() {
    net::ChannelParams params;
    params.base_latency = sim::milliseconds(2);
    params.jitter = sim::Duration{0};
    return {std::make_shared<net::Channel>(kernel, params, util::Rng{1}),
            std::make_shared<net::Channel>(kernel, params, util::Rng{2})};
  }

  /// A connected dashboard client collecting everything on its push topic.
  struct Dashboard {
    std::unique_ptr<MqttClient> client;
    std::vector<protocol::Message> inbox;
  };

  Dashboard dashboard(const std::string& client_id) {
    Dashboard d;
    d.client = std::make_unique<MqttClient>(kernel, client_id);
    auto [up, down] = channels();
    d.client->connect(broker, up, down, [](bool) {});
    kernel.run();
    return d;
  }

  static void collect(Dashboard& d) {
    d.client->subscribe(protocol::topic_push(d.client->client_id()),
                        [&d](const MqttMessage& m) {
                          auto decoded = protocol::decode_any(m.payload);
                          ASSERT_TRUE(decoded.ok());
                          d.inbox.push_back(std::move(decoded.value()));
                        });
  }

  void subscribe(Dashboard& d, SubscribeRequest req) {
    d.client->publish(std::string(protocol::kTopicSubscribe),
                      protocol::seal(req), 1);
    kernel.run();
  }

  void ingest_fleet_and_close() {
    store::ingest_all(db, store::make_fleet(3, 40, 2, 13));
    db.ingest(store::watermark_record(30 * kSecond));
  }
};

TEST_F(SubscriptionFixture, SubscribeAckAndPushMatchColdQuery) {
  auto dash = dashboard("dash-1");
  collect(dash);
  kernel.run();

  SubscribeRequest req;
  req.client_id = "dash-1";
  req.subscription_id = 7;
  req.window_ns = kSecond;
  req.slide_ns = 0;      // tumbling
  req.lateness_ns = -1;  // service default
  req.include_per_device = true;
  subscribe(dash, req);

  ASSERT_EQ(dash.inbox.size(), 1u);
  const auto& ack = std::get<SubscribeAck>(dash.inbox[0]);
  EXPECT_TRUE(ack.accepted);
  EXPECT_EQ(ack.subscription_id, 7u);
  EXPECT_EQ(ack.anchor_ns, 0);
  EXPECT_EQ(service.active_subscriptions(), 1u);
  EXPECT_EQ(service.active_rollups(), 1u);

  ingest_fleet_and_close();
  service.pump();
  kernel.run();

  ASSERT_GT(dash.inbox.size(), 2u);
  const QueryEngine engine{db, QueryEngineOptions{1}};
  std::size_t pushes = 0;
  for (std::size_t i = 1; i < dash.inbox.size(); ++i) {
    const auto& push = std::get<RollupPush>(dash.inbox[i]);
    EXPECT_EQ(push.subscription_id, 7u);
    EXPECT_EQ(push.t1_ns - push.t0_ns, kSecond);
    // The decoded push must equal the cold fleet query bit-for-bit — the
    // f64 wire codec preserves exact IEEE-754 patterns.
    QuerySpec q;
    q.t0_ns = push.t0_ns;
    q.t1_ns = push.t1_ns;
    const auto cold = engine.aggregate(q);
    EXPECT_TRUE(push.merged == to_wire(cold.merged));
    EXPECT_EQ(push.device_count, cold.per_device.size());
    ASSERT_EQ(push.per_device.size(), cold.per_device.size());
    for (std::size_t d = 0; d < push.per_device.size(); ++d) {
      EXPECT_EQ(push.per_device[d].device, cold.per_device[d].first);
      EXPECT_TRUE(push.per_device[d].aggregate ==
                  to_wire(cold.per_device[d].second));
    }
    const auto bd = store::naive_breakdown(engine.scan(q));
    ASSERT_EQ(push.breakdown.size(), bd.size());
    auto it = bd.begin();
    for (const auto& wire : push.breakdown) {
      EXPECT_EQ(wire.network, it->first);
      EXPECT_EQ(wire.records, it->second.records);
      EXPECT_EQ(wire.energy_mwh, it->second.energy_mwh);
      ++it;
    }
    ++pushes;
  }
  EXPECT_EQ(service.stats().pushes_sent, pushes);
  EXPECT_EQ(service.stats().windows_pushed, pushes);
}

TEST_F(SubscriptionFixture, EqualSpecsShareOneRollup) {
  auto a = dashboard("dash-a");
  auto b = dashboard("dash-b");
  collect(a);
  collect(b);
  kernel.run();

  SubscribeRequest req;
  req.client_id = "dash-a";
  req.subscription_id = 1;
  req.window_ns = kSecond;
  subscribe(a, req);
  req.client_id = "dash-b";
  subscribe(b, req);

  EXPECT_EQ(service.active_subscriptions(), 2u);
  EXPECT_EQ(service.active_rollups(), 1u);  // shared backing rollup
  EXPECT_EQ(rollups.rollup_count(), 1u);

  // Fan-out: every window the shared rollup closes reaches both
  // subscribers, and each push equals the cold query of its window.
  ingest_fleet_and_close();
  service.pump();
  kernel.run();
  ASSERT_GT(a.inbox.size(), 2u);
  ASSERT_EQ(a.inbox.size(), b.inbox.size());
  const QueryEngine engine{db, QueryEngineOptions{1}};
  for (std::size_t i = 1; i < a.inbox.size(); ++i) {
    const auto& pa = std::get<RollupPush>(a.inbox[i]);
    const auto& pb = std::get<RollupPush>(b.inbox[i]);
    EXPECT_EQ(pa.t0_ns, pb.t0_ns);
    EXPECT_EQ(pa.t1_ns, pb.t1_ns);
    EXPECT_TRUE(pa.merged == pb.merged);
    EXPECT_EQ(pa.device_count, pb.device_count);
    QuerySpec q;
    q.t0_ns = pa.t0_ns;
    q.t1_ns = pa.t1_ns;
    const auto cold = engine.aggregate(q);
    EXPECT_TRUE(pa.merged == to_wire(cold.merged));
    EXPECT_EQ(pa.device_count, cold.per_device.size());
  }
  EXPECT_EQ(service.stats().windows_pushed, a.inbox.size() - 1);
  EXPECT_EQ(service.stats().pushes_sent, service.stats().windows_pushed * 2);

  // A different geometry gets its own rollup.
  req.client_id = "dash-a";
  req.subscription_id = 2;
  req.window_ns = 2 * kSecond;
  subscribe(a, req);
  EXPECT_EQ(service.active_rollups(), 2u);

  // Refcounting: the shared rollup survives the first unsubscribe.
  a.client->publish(std::string(protocol::kTopicSubscribe),
                    protocol::seal(Unsubscribe{1, "dash-a"}), 1);
  kernel.run();
  EXPECT_EQ(service.active_rollups(), 2u);
  b.client->publish(std::string(protocol::kTopicSubscribe),
                    protocol::seal(Unsubscribe{1, "dash-b"}), 1);
  kernel.run();
  EXPECT_EQ(service.active_rollups(), 1u);
  EXPECT_EQ(rollups.rollup_count(), 1u);
  EXPECT_EQ(service.stats().unsubscribes, 2u);
}

TEST_F(SubscriptionFixture, ResubscribeSameHandleReplaces) {
  auto dash = dashboard("dash-1");
  collect(dash);
  kernel.run();

  SubscribeRequest req;
  req.client_id = "dash-1";
  req.subscription_id = 4;
  req.window_ns = kSecond;
  subscribe(dash, req);
  req.window_ns = 2 * kSecond;
  subscribe(dash, req);

  EXPECT_EQ(service.active_subscriptions(), 1u);
  EXPECT_EQ(service.active_rollups(), 1u);  // old shape released
  ASSERT_EQ(dash.inbox.size(), 2u);
  EXPECT_TRUE(std::get<SubscribeAck>(dash.inbox[1]).accepted);
}

TEST_F(SubscriptionFixture, InvalidGeometryRejectedWithReason) {
  auto dash = dashboard("dash-1");
  collect(dash);
  kernel.run();

  SubscribeRequest req;
  req.client_id = "dash-1";
  req.subscription_id = 9;
  req.window_ns = 0;  // invalid
  subscribe(dash, req);

  ASSERT_EQ(dash.inbox.size(), 1u);
  const auto& ack = std::get<SubscribeAck>(dash.inbox[0]);
  EXPECT_FALSE(ack.accepted);
  EXPECT_EQ(ack.reason, "invalid window geometry");
  EXPECT_EQ(service.stats().subscriptions_rejected, 1u);
  EXPECT_EQ(service.active_subscriptions(), 0u);

  req.window_ns = 10 * kSecond;
  req.slide_ns = 3 * kSecond;  // does not divide the width
  subscribe(dash, req);
  ASSERT_EQ(dash.inbox.size(), 2u);
  EXPECT_FALSE(std::get<SubscribeAck>(dash.inbox[1]).accepted);
  EXPECT_EQ(service.stats().subscriptions_rejected, 2u);

  // A 65,536-pane ring: too much memory for one request to claim.
  req.window_ns = 65'536 * kSecond;
  req.slide_ns = kSecond;
  subscribe(dash, req);
  ASSERT_EQ(dash.inbox.size(), 3u);
  const auto& wide = std::get<SubscribeAck>(dash.inbox[2]);
  EXPECT_FALSE(wide.accepted);
  EXPECT_EQ(wide.reason, "invalid window geometry");
  EXPECT_EQ(service.stats().subscriptions_rejected, 3u);
  EXPECT_EQ(service.active_subscriptions(), 0u);
  EXPECT_EQ(rollups.rollup_count(), 0u);
}

TEST_F(SubscriptionFixture, MalformedAndUnexpectedFramesCounted) {
  auto dash = dashboard("dash-1");
  kernel.run();

  // Garbage bytes: not even an envelope.
  dash.client->publish(std::string(protocol::kTopicSubscribe), {1, 2, 3}, 1);
  kernel.run();
  EXPECT_EQ(service.stats().malformed_frames, 1u);

  // A truncated but once-valid subscribe frame.
  SubscribeRequest req;
  req.client_id = "dash-1";
  req.subscription_id = 1;
  req.window_ns = kSecond;
  auto frame = protocol::seal(req);
  frame.resize(frame.size() - 3);
  dash.client->publish(std::string(protocol::kTopicSubscribe),
                       std::move(frame), 1);
  kernel.run();
  EXPECT_EQ(service.stats().malformed_frames, 2u);

  // A well-formed envelope of the wrong type for this topic.
  dash.client->publish(std::string(protocol::kTopicSubscribe),
                       protocol::seal(Beacon{"agg-1", 5}), 1);
  kernel.run();
  EXPECT_EQ(service.stats().unexpected_frames, 1u);

  EXPECT_EQ(service.active_subscriptions(), 0u);
  EXPECT_EQ(service.stats().subscriptions_accepted, 0u);
}

TEST_F(SubscriptionFixture, UnsubscribeStopsPushes) {
  auto dash = dashboard("dash-1");
  collect(dash);
  kernel.run();

  SubscribeRequest req;
  req.client_id = "dash-1";
  req.subscription_id = 2;
  req.window_ns = kSecond;
  subscribe(dash, req);
  dash.client->publish(std::string(protocol::kTopicSubscribe),
                       protocol::seal(Unsubscribe{2, "dash-1"}), 1);
  kernel.run();

  ingest_fleet_and_close();
  service.pump();
  kernel.run();

  ASSERT_EQ(dash.inbox.size(), 1u);  // the ack only, no pushes
  EXPECT_EQ(service.stats().pushes_sent, 0u);
  EXPECT_EQ(rollups.rollup_count(), 0u);
}

TEST_F(SubscriptionFixture, LocalSubscriptionsShareRollupsWithRemote) {
  std::vector<ClosedWindow> seen;
  RollupSpec spec;
  spec.window_ns = kSecond;
  spec.slide_ns = kSecond;
  spec.lateness_ns = 500 * kMs;  // matches the service default
  const std::uint64_t handle = service.subscribe_local(
      spec, [&seen](const ClosedWindow& w) { seen.push_back(w); });
  ASSERT_NE(handle, 0u);
  EXPECT_NE(service.backing_rollup(handle), 0u);

  // A remote subscription with the same canonical shape rides the same
  // rollup.
  auto dash = dashboard("dash-1");
  collect(dash);
  kernel.run();
  SubscribeRequest req;
  req.client_id = "dash-1";
  req.subscription_id = 1;
  req.window_ns = kSecond;
  req.lateness_ns = -1;  // service default, matching the local spec above
  subscribe(dash, req);
  EXPECT_EQ(service.active_rollups(), 1u);

  ingest_fleet_and_close();
  service.pump();
  kernel.run();

  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.size() + 1, dash.inbox.size());  // same windows + the ack
  EXPECT_EQ(service.stats().local_deliveries, seen.size());
  const QueryEngine engine{db, QueryEngineOptions{1}};
  for (const auto& w : seen) {
    store::expect_window_matches_cold(engine, spec, w, "local sub");
  }

  service.unsubscribe_local(handle);
  EXPECT_EQ(service.backing_rollup(handle), 0u);
  EXPECT_EQ(service.active_rollups(), 1u);  // remote still holds it
}

TEST_F(SubscriptionFixture, FanOutRidesOneWireFrame) {
  // Satellite: broker-side fan-out batching.  Three sessions subscribed to
  // the same topic receive one publish as one sent frame + two coalesced
  // copies — all three still delivered.
  auto a = dashboard("dev-a");
  auto b = dashboard("dev-b");
  auto c = dashboard("dev-c");
  int got = 0;
  for (auto* d : {&a, &b, &c}) {
    d->client->subscribe("emon/beacon", [&got](const MqttMessage&) { ++got; });
  }
  kernel.run();

  const auto before = broker.transport_stats();
  broker.publish_from_host(MqttMessage{"emon/beacon", {0xAB}, 0, "agg-1"});
  kernel.run();

  const auto& after = broker.transport_stats();
  EXPECT_EQ(got, 3);
  EXPECT_EQ(after.frames_sent - before.frames_sent, 1u);
  EXPECT_EQ(after.frames_coalesced - before.frames_coalesced, 2u);
  EXPECT_GT(after.bytes_coalesced, before.bytes_coalesced);
}

}  // namespace
}  // namespace emon::core
