// The concurrent serving-path pipeline (core/serve_pipeline.{hpp,cpp}):
// the thread harness that runs protocol decode -> Tsdb ingest -> rollup
// pump on a dedicated worker while producers and query threads race it.
//
// The load-bearing claims pinned here:
//   * frames pushed through the pipeline leave the store bit-identical to
//     direct single-threaded ingest of the same records;
//   * malformed / non-Report / duplicate input is counted, never ingested;
//   * rollup windows fan out to registered sinks and match cold fleet
//     queries exactly (the engine stayed owner-thread state throughout);
//   * producers block on the bounded queue instead of dropping or growing
//     without bound, while concurrent cold queries stay self-consistent;
//   * flush() is a real quiesce point and stop() is idempotent.
//
// Equality is exact (==, doubles included), same as tests/test_query.cpp.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/messages.hpp"
#include "core/protocol.hpp"
#include "core/records.hpp"
#include "core/serve_pipeline.hpp"
#include "obs/metrics.hpp"
#include "store/query_engine.hpp"
#include "store/rollup.hpp"
#include "store/tsdb.hpp"
#include "util/rng.hpp"

namespace emon::core {
namespace {

using store::ClosedWindow;
using store::DeviceAggregate;
using store::FleetAggregate;
using store::QueryEngine;
using store::QueryEngineOptions;
using store::QuerySpec;
using store::RollupEngine;
using store::RollupSpec;
using store::Tsdb;
using store::TsdbOptions;

constexpr std::int64_t kMs = 1'000'000;
constexpr std::int64_t kSecond = 1'000'000'000;

std::vector<ConsumptionRecord> device_stream(const DeviceId& id,
                                             std::size_t n,
                                             std::uint64_t seed,
                                             const NetworkId& network,
                                             std::int64_t t0_ns) {
  util::Rng rng{seed};
  std::vector<ConsumptionRecord> out;
  out.reserve(n);
  std::int64_t t = t0_ns;
  for (std::size_t i = 0; i < n; ++i) {
    t += 100 * kMs + static_cast<std::int64_t>(rng.uniform(-30e3, 30e3));
    ConsumptionRecord r;
    r.device_id = id;
    r.sequence = i + 1;
    r.timestamp_ns = t;
    r.interval_ns = 100 * kMs;
    r.current_ma = 150.0 + 0.03 * static_cast<double>(i) +
                   rng.uniform(-2.0, 2.0);
    r.bus_voltage_mv = 5000.0 + rng.uniform(-6.0, 6.0);
    r.energy_mwh = r.current_ma * 5.0 * (0.1 / 3600.0);
    r.network = network;
    r.membership = MembershipKind::kHome;
    r.stored_offline = i % 4 == 0;
    out.push_back(std::move(r));
  }
  return out;
}

/// Per-device streams chunked into Report uplink frames, plus the flat
/// record list for the direct-ingest control store.
struct Uplinks {
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<ConsumptionRecord> records;
};

Uplinks make_uplinks(std::size_t devices, std::size_t per_device,
                     std::size_t per_frame, std::uint64_t seed) {
  Uplinks up;
  std::vector<std::vector<std::vector<std::uint8_t>>> per_dev_frames;
  for (std::size_t d = 0; d < devices; ++d) {
    const DeviceId id = "dev-" + std::to_string(d + 1);
    const auto stream = device_stream(
        id, per_device, seed + d, "wan-" + std::to_string(d % 3),
        static_cast<std::int64_t>(d) * 11 * kMs);
    auto& frames = per_dev_frames.emplace_back();
    for (std::size_t off = 0; off < stream.size(); off += per_frame) {
      Report report;
      report.device_id = id;
      for (std::size_t i = off; i < std::min(off + per_frame, stream.size());
           ++i) {
        report.records.push_back(stream[i]);
      }
      frames.push_back(protocol::seal(report));
    }
    up.records.insert(up.records.end(), stream.begin(), stream.end());
  }
  // Round-robin interleave across devices — the arrival pattern a live
  // fleet produces.  Devices advance the watermark together, so no record
  // lands behind an already-emitted rollup window.
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (auto& frames : per_dev_frames) {
      if (i < frames.size()) {
        up.frames.push_back(std::move(frames[i]));
        any = true;
      }
    }
    if (!any) {
      break;
    }
  }
  return up;
}

bool agg_equal(const DeviceAggregate& a, const DeviceAggregate& b) {
  return a.count == b.count && a.t_min_ns == b.t_min_ns &&
         a.t_max_ns == b.t_max_ns && a.min_current_ma == b.min_current_ma &&
         a.max_current_ma == b.max_current_ma &&
         a.avg_current_ma == b.avg_current_ma &&
         a.sum_energy_mwh == b.sum_energy_mwh;
}

void expect_stores_agree(const Tsdb& got, const Tsdb& want,
                         const std::string& label) {
  const QueryEngine ge{got, QueryEngineOptions{2}};
  const QueryEngine we{want, QueryEngineOptions{1}};
  const QuerySpec spec;  // whole history, all devices
  const FleetAggregate a = ge.aggregate(spec);
  const FleetAggregate b = we.aggregate(spec);
  ASSERT_EQ(a.per_device.size(), b.per_device.size()) << label;
  for (std::size_t i = 0; i < a.per_device.size(); ++i) {
    EXPECT_EQ(a.per_device[i].first, b.per_device[i].first) << label;
    EXPECT_TRUE(agg_equal(a.per_device[i].second, b.per_device[i].second))
        << label << " device " << a.per_device[i].first;
  }
  EXPECT_TRUE(agg_equal(a.merged, b.merged)) << label;
}

TEST(ServePipeline, FrameIngestMatchesDirectIngestBitForBit) {
  const auto up = make_uplinks(8, 120, 16, 0x5e47e);
  Tsdb control{TsdbOptions{4, 32}};
  for (const auto& r : up.records) {
    control.ingest(r);
  }

  Tsdb db{TsdbOptions{4, 32}};
  obs::MetricsRegistry metrics;
  ServePipelineOptions opts;
  opts.metrics = &metrics;
  ServePipeline pipeline{db, nullptr, opts};
  pipeline.start();
  for (const auto& frame : up.frames) {
    ASSERT_TRUE(pipeline.submit_frame(frame));
  }
  pipeline.flush();

  const ServePipelineStats stats = pipeline.stats();
  EXPECT_EQ(stats.frames_ingested, up.frames.size());
  EXPECT_EQ(stats.records_accepted, up.records.size());
  EXPECT_EQ(stats.records_duplicate, 0u);
  EXPECT_EQ(stats.malformed_frames, 0u);
  expect_stores_agree(db, control, "frames vs direct");

  pipeline.stop();
  // Stats survive the stop exactly.
  EXPECT_EQ(pipeline.stats().records_accepted, up.records.size());
}

TEST(ServePipeline, CountsMalformedUnexpectedAndDuplicateInput) {
  Tsdb db{TsdbOptions{2, 16}};
  ServePipeline pipeline{db, nullptr};
  pipeline.start();

  const auto up = make_uplinks(2, 24, 8, 0xbad);
  for (const auto& frame : up.frames) {
    ASSERT_TRUE(pipeline.submit_frame(frame));
  }
  // Same frames again: every record is a QoS-1 duplicate by sequence.
  for (const auto& frame : up.frames) {
    ASSERT_TRUE(pipeline.submit_frame(frame));
  }
  // Garbage bytes and a well-formed non-Report frame.
  ASSERT_TRUE(pipeline.submit_frame({0xde, 0xad, 0xbe, 0xef}));
  Beacon beacon;
  beacon.aggregator_id = "agg-1";
  ASSERT_TRUE(pipeline.submit_frame(protocol::seal(beacon)));
  pipeline.flush();

  const ServePipelineStats stats = pipeline.stats();
  EXPECT_EQ(stats.frames_ingested, up.frames.size() * 2);
  EXPECT_EQ(stats.records_accepted, up.records.size());
  EXPECT_EQ(stats.records_duplicate, up.records.size());
  EXPECT_EQ(stats.malformed_frames, 1u);
  EXPECT_EQ(stats.unexpected_frames, 1u);
  EXPECT_EQ(db.stats().records_ingested, up.records.size());
}

TEST(ServePipeline, RollupWindowsFanOutToSinksAndMatchColdQueries) {
  Tsdb db{TsdbOptions{4, 32}};
  RollupEngine rollups{db};
  db.set_ingest_hook(&rollups);

  RollupSpec spec;
  spec.window_ns = kSecond;
  spec.slide_ns = kSecond;
  spec.lateness_ns = 500 * kMs;
  const std::uint64_t id = rollups.register_rollup(spec);

  ServePipelineOptions opts;
  opts.pump_every = 32;  // drains mid-stream, not only at flush
  ServePipeline pipeline{db, &rollups, opts};
  std::vector<ClosedWindow> windows;  // worker/flush-caller only; read after
  pipeline.add_window_sink(
      id, [&windows](const ClosedWindow& w) { windows.push_back(w); });
  pipeline.start();

  const auto up = make_uplinks(6, 150, 10, 0x1207);
  for (const auto& frame : up.frames) {
    ASSERT_TRUE(pipeline.submit_frame(frame));
  }
  // Watermark push: one sane far-future record closes everything behind it.
  ConsumptionRecord mark;
  mark.device_id = "zz-watermark";
  mark.sequence = 1;
  mark.timestamp_ns = 300 * kSecond;
  mark.interval_ns = 100 * kMs;
  mark.current_ma = 1.0;
  mark.bus_voltage_mv = 5000.0;
  mark.energy_mwh = 0.001;
  mark.network = "wan-0";
  mark.membership = MembershipKind::kHome;
  ASSERT_TRUE(
      pipeline.submit_frame(protocol::seal(Report{mark.device_id, {mark}})));
  pipeline.flush();

  ASSERT_GE(windows.size(), 10u);
  EXPECT_EQ(pipeline.stats().windows_pushed, windows.size());
  EXPECT_GE(pipeline.stats().rollup_pumps, 2u);
  const store::RollupStats* rstats = rollups.stats(id);
  ASSERT_NE(rstats, nullptr);
  // Interleaved arrival keeps every record inside the lateness horizon, so
  // exactness below is never bought by silent drops.
  EXPECT_EQ(rstats->records_dropped_late, 0u);

  // Quiesced oracle: every pushed window equals the cold fleet query over
  // its range — merged and per-device (window sinks saw real answers).
  const QueryEngine engine{db, QueryEngineOptions{2}};
  for (const auto& w : windows) {
    EXPECT_EQ(w.t1_ns - w.t0_ns, kSecond);
    QuerySpec q;
    q.t0_ns = w.t0_ns;
    q.t1_ns = w.t1_ns;
    const FleetAggregate cold = engine.aggregate(q);
    ASSERT_EQ(w.per_device.size(), cold.per_device.size());
    for (std::size_t i = 0; i < w.per_device.size(); ++i) {
      EXPECT_EQ(w.per_device[i].first, cold.per_device[i].first);
      EXPECT_TRUE(agg_equal(w.per_device[i].second, cold.per_device[i].second))
          << w.per_device[i].first;
    }
    EXPECT_TRUE(agg_equal(w.merged, cold.merged));
  }
}

TEST(ServePipeline, ConcurrentProducersAndLiveQueriesUnderBackpressure) {
  // Tiny queue so producers genuinely block; two producer threads feed
  // disjoint device halves while this thread runs live fleet queries
  // against the same store.  Afterwards the store must equal the
  // single-threaded control bit-for-bit and nothing may have been dropped.
  const auto up = make_uplinks(8, 100, 5, 0xfeed);
  Tsdb control{TsdbOptions{4, 24}};
  for (const auto& r : up.records) {
    control.ingest(r);
  }

  Tsdb db{TsdbOptions{4, 24}};
  ServePipelineOptions opts;
  opts.queue_capacity = 4;
  opts.pump_every = 16;
  ServePipeline pipeline{db, nullptr, opts};
  pipeline.start();

  std::atomic<bool> done{false};
  auto producer = [&pipeline, &up](std::size_t parity) {
    for (std::size_t i = parity; i < up.frames.size(); i += 2) {
      ASSERT_TRUE(pipeline.submit_frame(up.frames[i]));
    }
  };
  std::thread p1(producer, 0);
  std::thread p2(producer, 1);
  std::thread closer([&] {
    p1.join();
    p2.join();
    done.store(true, std::memory_order_release);
  });

  const QueryEngine live{db, QueryEngineOptions{2}};
  std::size_t raced = 0;
  while (!done.load(std::memory_order_acquire)) {
    const QuerySpec q;
    const FleetAggregate got = live.aggregate(q);
    std::uint64_t fold = 0;
    for (const auto& [device, agg] : got.per_device) {
      (void)device;
      fold += agg.count;
    }
    EXPECT_EQ(got.merged.count, fold) << "raced query " << raced;
    ++raced;
  }
  closer.join();
  pipeline.flush();

  EXPECT_EQ(pipeline.stats().records_accepted, up.records.size());
  EXPECT_EQ(pipeline.stats().frames_ingested, up.frames.size());
  expect_stores_agree(db, control, "raced vs control");
}

TEST(ServePipeline, StopIsIdempotentAndRefusesLateWork) {
  Tsdb db{TsdbOptions{1, 16}};
  ServePipeline pipeline{db, nullptr};
  pipeline.start();
  pipeline.start();  // idempotent

  const auto up = make_uplinks(1, 8, 4, 0x57);
  for (const auto& frame : up.frames) {
    ASSERT_TRUE(pipeline.submit_frame(frame));
  }
  pipeline.stop();
  EXPECT_EQ(pipeline.stats().records_accepted, up.records.size());
  pipeline.stop();  // idempotent

  EXPECT_FALSE(pipeline.submit_frame(up.frames.front()));
  EXPECT_EQ(pipeline.stats().records_accepted, up.records.size());
}

// The worker reads the sink list unlocked (frozen at start()), so late
// registration must be refused, not raced.
TEST(ServePipeline, AddWindowSinkAfterStartThrows) {
  Tsdb db{TsdbOptions{1, 16}};
  store::RollupEngine rollups{db};
  ServePipeline pipeline{db, &rollups};
  pipeline.add_window_sink(1, [](const ClosedWindow&) {});  // pre-start: ok
  pipeline.start();
  EXPECT_THROW(pipeline.add_window_sink(2, [](const ClosedWindow&) {}),
               std::logic_error);
  pipeline.stop();
  // With the worker joined, registration is safe again (restart support).
  pipeline.add_window_sink(3, [](const ClosedWindow&) {});
}

}  // namespace
}  // namespace emon::core
