// The unified metrics layer (obs/metrics.{hpp,cpp}, obs/export.{hpp,cpp})
// and its integration points:
//   * log-linear bucket scheme properties (containment, monotonicity, the
//     1/16 relative-width bound)
//   * differential quantile fuzz against a sorted-vector reference across
//     adversarial value ranges (sub-microsecond, hours, all-equal, bimodal,
//     log-uniform) with the |est - exact| <= exact/16 + 1 bound
//   * registry get-or-create identity, kind-mismatch errors, sharded
//     counter folds, snapshot determinism and finders
//   * runtime enable gating (histograms pause, counters stay live)
//   * multi-threaded record/merge parity: concurrent recording folds to the
//     same summary as sequential recording (and stays TSan-clean, with a
//     concurrent snapshot reader in the mix)
//   * LogConfig thread-safety and the log_messages{level} registry counter
//   * text/JSON exporters
//   * a live end-to-end scrape: a dashboard client publishes StatsRequest
//     on emon/metrics mid-run and gets back non-zero ingest/query/push
//     numbers from a running testbed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/fleet.hpp"
#include "core/protocol.hpp"
#include "core/scenario.hpp"
#include "net/channel.hpp"
#include "net/mqtt.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace emon::obs {
namespace {

// ---------------------------------------------------------------------------
// Bucket scheme
// ---------------------------------------------------------------------------

TEST(Buckets, SmallValuesAreExact) {
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(bucket_index(v), v);
    EXPECT_EQ(bucket_lower(bucket_index(v)), v);
    EXPECT_EQ(bucket_width(bucket_index(v)), 1u);
  }
}

TEST(Buckets, EveryValueLandsInsideItsBucket) {
  std::mt19937_64 rng(42);
  std::vector<std::uint64_t> values = {0, 1, 15, 16, 17, 31, 32, 33,
                                       1'000, 1'000'000, ~std::uint64_t{0}};
  for (int shift = 4; shift < 64; ++shift) {
    values.push_back(std::uint64_t{1} << shift);
    values.push_back((std::uint64_t{1} << shift) - 1);
    values.push_back((std::uint64_t{1} << shift) + 1);
    values.push_back(rng() >> (63 - shift));
  }
  for (const std::uint64_t v : values) {
    const std::size_t i = bucket_index(v);
    ASSERT_LT(i, kHistogramBuckets) << "v=" << v;
    EXPECT_GE(v, bucket_lower(i)) << "v=" << v;
    // lower + width can wrap at the very top octave; compare via subtraction.
    EXPECT_LT(v - bucket_lower(i), bucket_width(i)) << "v=" << v;
  }
}

TEST(Buckets, IndexIsMonotonicAndWidthBounded) {
  std::uint64_t prev_lower = 0;
  for (std::size_t i = 1; i < kHistogramBuckets; ++i) {
    EXPECT_GT(bucket_lower(i), prev_lower) << "i=" << i;
    prev_lower = bucket_lower(i);
    // Relative quantization error bound: width <= max(1, lower / 16).
    EXPECT_LE(bucket_width(i), std::max<std::uint64_t>(1, bucket_lower(i) / 16))
        << "i=" << i;
  }
}

// ---------------------------------------------------------------------------
// Differential quantile fuzz (recording is compiled out under EMON_OBS_OFF)
// ---------------------------------------------------------------------------

#ifndef EMON_OBS_DISABLED

/// The registry's rank definition: rank = clamp(floor(q * count), 1, count),
/// exact answer = sorted[rank - 1].
std::uint64_t exact_quantile(std::vector<std::uint64_t> sorted, double q) {
  const auto count = static_cast<std::uint64_t>(sorted.size());
  auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count));
  rank = std::clamp<std::uint64_t>(rank, 1, count);
  return sorted[rank - 1];
}

void check_quantiles(const std::vector<std::uint64_t>& values,
                     const char* label) {
  MetricsRegistry reg(4);
  Histogram h = reg.histogram("h");
  for (std::size_t i = 0; i < values.size(); ++i) {
    h.record(values[i], i);  // spread across slots; fold must not care
  }
  std::vector<std::uint64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());

  const HistogramSummary s = h.summary();
  ASSERT_EQ(s.count, values.size()) << label;
  EXPECT_EQ(s.min, sorted.front()) << label;
  EXPECT_EQ(s.max, sorted.back()) << label;
  const struct {
    double q;
    std::uint64_t est;
  } cases[] = {{0.50, s.p50}, {0.95, s.p95}, {0.99, s.p99}};
  for (const auto& [q, est] : cases) {
    const std::uint64_t exact = exact_quantile(sorted, q);
    const std::uint64_t bound = exact / 16 + 1;
    const std::uint64_t err = est > exact ? est - exact : exact - est;
    EXPECT_LE(err, bound) << label << " q=" << q << " est=" << est
                          << " exact=" << exact;
  }
}

TEST(QuantileFuzz, SubMicrosecondRange) {
  std::mt19937_64 rng(1);
  std::uniform_int_distribution<std::uint64_t> dist(0, 999);
  std::vector<std::uint64_t> values(5000);
  for (auto& v : values) v = dist(rng);
  check_quantiles(values, "sub-us");
}

TEST(QuantileFuzz, HoursRange) {
  std::mt19937_64 rng(2);
  // Around 1-10 hours in nanoseconds.
  std::uniform_int_distribution<std::uint64_t> dist(3'600'000'000'000ull,
                                                    36'000'000'000'000ull);
  std::vector<std::uint64_t> values(5000);
  for (auto& v : values) v = dist(rng);
  check_quantiles(values, "hours");
}

TEST(QuantileFuzz, AllEqual) {
  check_quantiles(std::vector<std::uint64_t>(1000, 123'456'789), "all-equal");
}

TEST(QuantileFuzz, TwoPointBimodal) {
  // 90% fast / 10% slow, five orders of magnitude apart: p50 must sit on
  // the fast mode, p99 on the slow one.
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 900; ++i) values.push_back(250);
  for (int i = 0; i < 100; ++i) values.push_back(25'000'000);
  check_quantiles(values, "bimodal");
  MetricsRegistry reg(1);
  Histogram h = reg.histogram("h");
  for (const auto v : values) h.record(v);
  const HistogramSummary s = h.summary();
  EXPECT_LE(s.p50, 250u + 250u / 16 + 1);  // sits on the fast mode
  EXPECT_GT(s.p99, 20'000'000u);           // sits on the slow mode
}

TEST(QuantileFuzz, LogUniformSweep) {
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> exp_dist(0.0, 40.0);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint64_t> values(1000);
    for (auto& v : values) {
      v = static_cast<std::uint64_t>(std::exp2(exp_dist(rng)));
    }
    check_quantiles(values, "log-uniform");
  }
}

#endif  // EMON_OBS_DISABLED

TEST(Histogram, EmptySummaryIsZero) {
  MetricsRegistry reg(1);
  EXPECT_EQ(reg.histogram("h").summary(), HistogramSummary{});
}

// ---------------------------------------------------------------------------
// Registry semantics
// ---------------------------------------------------------------------------

TEST(Registry, GetOrCreateReturnsSameInstrument) {
  MetricsRegistry reg(2);
  Counter a = reg.counter("c");
  Counter b = reg.counter("c");
  a.add(3);
  b.add(4, 1);
  EXPECT_EQ(a.value(), 7u);
  EXPECT_EQ(b.value(), 7u);
}

TEST(Registry, KindMismatchThrows) {
  MetricsRegistry reg(1);
  (void)reg.counter("x");
  EXPECT_THROW((void)reg.gauge("x"), std::logic_error);
  EXPECT_THROW((void)reg.histogram("x"), std::logic_error);
  (void)reg.histogram("y");
  EXPECT_THROW((void)reg.counter("y"), std::logic_error);
}

TEST(Registry, CounterSlotsFoldAndSlotIndexWraps) {
  MetricsRegistry reg(4);
  Counter c = reg.counter("c");
  for (std::size_t slot = 0; slot < 64; ++slot) {
    c.inc(slot);  // slot & mask — any slot index is safe
  }
  EXPECT_EQ(c.value(), 64u);
}

TEST(Registry, DefaultHandlesAreNoOps) {
  const Counter c;
  const Gauge g;
  const Histogram h;
  c.inc();
  g.set(5);
  h.record(1);
  EXPECT_FALSE(c.bound());
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.summary().count, 0u);
}

TEST(Registry, SnapshotIsSortedAndFindable) {
  MetricsRegistry reg(2);
  reg.counter("zeta").add(1);
  reg.counter("alpha").add(2);
  reg.gauge("mid").set(-7);
  reg.histogram("lat").record(100);

  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[1].first, "zeta");
  ASSERT_NE(snap.counter("zeta"), nullptr);
  EXPECT_EQ(*snap.counter("zeta"), 1u);
  ASSERT_NE(snap.gauge("mid"), nullptr);
  EXPECT_EQ(*snap.gauge("mid"), -7);
  ASSERT_NE(snap.histogram("lat"), nullptr);
#ifndef EMON_OBS_DISABLED
  EXPECT_EQ(snap.histogram("lat")->count, 1u);
#endif
  EXPECT_EQ(snap.counter("missing"), nullptr);
  EXPECT_EQ(snap.gauge("missing"), nullptr);
  EXPECT_EQ(snap.histogram("missing"), nullptr);
}

#ifndef EMON_OBS_DISABLED
TEST(Registry, RuntimeDisablePausesHistogramsNotCounters) {
  MetricsRegistry reg(1);
  Counter c = reg.counter("c");
  Histogram h = reg.histogram("h");
  set_enabled(false);
  c.inc();
  h.record(42);
  set_enabled(true);
  EXPECT_EQ(c.value(), 1u);        // counters stay live
  EXPECT_EQ(h.summary().count, 0u);  // histograms pause
  h.record(42);
  EXPECT_EQ(h.summary().count, 1u);
}

TEST(Timers, ScopedTimerRecordsOneSample) {
  MetricsRegistry reg(1);
  Histogram h = reg.histogram("t");
  { const ScopedTimer t(h); }
  EXPECT_EQ(h.summary().count, 1u);
}

TEST(Timers, StopWatchNeverArmsWhileDisabled) {
  set_enabled(false);
  StopWatch w;
  w.start();
  EXPECT_FALSE(w.armed());
  EXPECT_EQ(w.stop(), 0u);
  set_enabled(true);
}
#endif  // EMON_OBS_DISABLED

// ---------------------------------------------------------------------------
// Multi-threaded record/merge parity (TSan-covered)
// ---------------------------------------------------------------------------

TEST(Threads, ConcurrentRecordingFoldsLikeSequential) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 20'000;

  // Deterministic per-thread value streams.
  std::vector<std::vector<std::uint64_t>> streams(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    std::mt19937_64 rng(1000 + t);
    streams[t].resize(kPerThread);
    for (auto& v : streams[t]) v = rng() >> (rng() % 50);
  }

  MetricsRegistry concurrent(kThreads);
  Histogram ch = concurrent.histogram("h");
  Counter cc = concurrent.counter("c");
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (const std::uint64_t v : streams[t]) {
        ch.record(v, t);
        cc.add(1, t);
      }
    });
  }
  // Concurrent snapshot reader: values are racy-by-design torn across
  // instruments but every individual read is a relaxed atomic — TSan must
  // stay quiet.
  std::thread reader([&] {
    for (int i = 0; i < 50; ++i) {
      (void)concurrent.snapshot();
    }
  });
  for (auto& w : workers) w.join();
  reader.join();

  MetricsRegistry sequential(kThreads);
  Histogram sh = sequential.histogram("h");
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (const std::uint64_t v : streams[t]) sh.record(v, t);
  }

  EXPECT_EQ(cc.value(), kThreads * kPerThread);
#ifndef EMON_OBS_DISABLED
  EXPECT_EQ(ch.summary(), sh.summary());  // bit-identical fold
#endif
}

TEST(Threads, ConcurrentGetOrCreateYieldsOneInstrument) {
  MetricsRegistry reg(4);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&reg, t] {
      for (int i = 0; i < 200; ++i) {
        reg.counter("shared").add(1, static_cast<std::size_t>(t));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(reg.counter("shared").value(), 800u);
}

// ---------------------------------------------------------------------------
// Logging: thread-safety + registry counter
// ---------------------------------------------------------------------------

TEST(Log, EmitBumpsLeveledRegistryCounter) {
  const Counter warns = global_registry().counter("log_messages{level=\"warn\"}");
  const std::uint64_t before = warns.value();
  util::LogConfig::set_sink(
      [](util::LogLevel, std::string_view, std::string_view) {});
  const util::Logger log("test-obs");
  log.warn("counted");
  util::LogConfig::set_sink(nullptr);
  EXPECT_EQ(warns.value(), before + 1);
}

TEST(Log, ConcurrentLevelSinkAndEmitAreSafe) {
  std::atomic<int> delivered{0};
  util::LogConfig::set_sink(
      [&delivered](util::LogLevel, std::string_view, std::string_view) {
        delivered.fetch_add(1, std::memory_order_relaxed);
      });
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([t] {
      const util::Logger log("worker-" + std::to_string(t));
      for (int i = 0; i < 500; ++i) {
        log.error("message ", i);
      }
    });
  }
  std::thread toggler([] {
    for (int i = 0; i < 200; ++i) {
      util::LogConfig::set_level(i % 2 == 0 ? util::LogLevel::kError
                                            : util::LogLevel::kOff);
    }
    util::LogConfig::set_level(util::LogLevel::kWarn);
  });
  for (auto& w : workers) w.join();
  toggler.join();
  util::LogConfig::set_sink(nullptr);
  util::LogConfig::set_level(util::LogLevel::kWarn);
  EXPECT_GT(delivered.load(), 0);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(Export, PrometheusTextShapes) {
  MetricsRegistry reg(1);
  reg.counter("frames_total").add(3);
  reg.counter("log_messages{level=\"warn\"}").add(2);
  reg.gauge("lag_ns").set(-9);
  reg.histogram("latency_ns").record(100);

  std::ostringstream out;
  write_prometheus(reg.snapshot(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("frames_total 3"), std::string::npos) << text;
  EXPECT_NE(text.find("log_messages{level=\"warn\"} 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("lag_ns -9"), std::string::npos) << text;
#ifndef EMON_OBS_DISABLED
  EXPECT_NE(text.find("latency_ns_count 1"), std::string::npos) << text;
#endif
  EXPECT_NE(text.find("latency_ns{quantile=\"0.5\"}"), std::string::npos)
      << text;
}

TEST(Export, PrometheusMergesQuantileIntoExistingLabels) {
  MetricsRegistry reg(1);
  reg.histogram("query_ns{kind=\"aggregate\"}").record(50);
  std::ostringstream out;
  write_prometheus(reg.snapshot(), out);
  const std::string text = out.str();
#ifndef EMON_OBS_DISABLED
  EXPECT_NE(text.find("query_ns_count{kind=\"aggregate\"} 1"),
            std::string::npos)
      << text;
#endif
  EXPECT_NE(text.find("query_ns{kind=\"aggregate\",quantile=\"0.99\"}"),
            std::string::npos)
      << text;
}

TEST(Export, JsonIsWellFormedEnoughToFindSections) {
  MetricsRegistry reg(1);
  reg.counter("c").add(1);
  reg.gauge("g").set(2);
  reg.histogram("h").record(3);
  std::ostringstream out;
  write_json(reg.snapshot(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"counters\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"gauges\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"histograms\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"c\":1"), std::string::npos) << text;
  EXPECT_NE(text.find("\"p99\""), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Live end-to-end scrape (the acceptance gate: non-zero ingest/query/push
// numbers from a mid-run StatsRequest)
// ---------------------------------------------------------------------------

#ifndef EMON_OBS_DISABLED
TEST(LiveScrape, MidRunStatsRequestReturnsHotPipelineHistograms) {
  using core::protocol::seal;
  namespace protocol = core::protocol;

  core::Testbed bed(core::metro_fleet(2, 16, /*seed=*/7));
  bed.start();
  bed.run_for(sim::seconds(6));

  // A dashboard client on the aggregator's kernel (shards == 1 here).
  net::MqttClient dash(bed.kernel(), "dash-obs");
  const auto channel = [&](std::uint64_t seed) {
    net::ChannelParams params;
    params.base_latency = sim::milliseconds(2);
    params.jitter = sim::Duration{0};
    return std::make_shared<net::Channel>(bed.kernel(), params,
                                          util::Rng{seed});
  };
  dash.connect(bed.aggregator(0).broker(), channel(11), channel(12),
               [](bool) {});
  bed.run_for(sim::milliseconds(50));

  // Cold query activity for the scrape to observe: verification prefers
  // the maintained hot rollup read, so drive one on-demand fleet query —
  // the path dashboards and billing take.
  store::QuerySpec everything;
  everything.t0_ns = 0;
  everything.t1_ns = bed.kernel().now().ns();
  (void)bed.aggregator(0).query_engine().aggregate(everything);

  std::vector<core::StatsResponse> responses;
  dash.subscribe(protocol::topic_push("dash-obs"),
                 [&responses](const net::MqttMessage& m) {
                   auto decoded = protocol::decode_any(m.payload);
                   ASSERT_TRUE(decoded.ok());
                   if (const auto* resp =
                           std::get_if<core::StatsResponse>(&decoded.value())) {
                     responses.push_back(*resp);
                   }
                 });
  dash.publish(std::string(protocol::kTopicMetrics),
               seal(core::StatsRequest{"dash-obs", 42}), 1);
  bed.run_for(sim::seconds(1));

  ASSERT_EQ(responses.size(), 1u);
  const core::StatsResponse& resp = responses.front();
  EXPECT_EQ(resp.request_id, 42u);
  EXPECT_EQ(resp.aggregator_id, bed.aggregator(0).id());
  EXPECT_GT(resp.sim_now_ns, 0);

  const auto counter = [&resp](std::string_view name) -> std::uint64_t {
    for (const auto& c : resp.counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  };
  const auto histogram_count = [&resp](std::string_view name) -> std::uint64_t {
    for (const auto& h : resp.histograms) {
      if (h.name == name) return h.count;
    }
    return 0;
  };

  // Ingest path.
  EXPECT_GT(counter("tsdb_records_ingested"), 0u);
  EXPECT_GT(counter("agg_reports_total"), 0u);
  EXPECT_GT(histogram_count("agg_report_append_ns"), 0u);
  EXPECT_GT(histogram_count("agg_ingest_lag_ns"), 0u);
  EXPECT_GT(histogram_count("mqtt_dispatch_ns"), 0u);
  // Query path (verification windows ran during the 6 s warm-up).
  std::uint64_t query_samples = 0;
  for (const auto& h : resp.histograms) {
    if (h.name.rfind("query_ns{", 0) == 0) query_samples += h.count;
  }
  EXPECT_GT(query_samples, 0u);
  // Push path: windows closed and pumped (verify interval 1 s, lateness
  // 2 s, 6 s of traffic).
  EXPECT_GT(histogram_count("sub_pump_ns"), 0u);
  EXPECT_GT(counter("rollup_windows_closed"), 0u);
  EXPECT_GT(histogram_count("e2e_report_to_push_ns"), 0u);

  // The wire snapshot matches a direct one taken at the same sim state on
  // the deterministic counters.
  const MetricsSnapshot direct = bed.aggregator(0).metrics().snapshot();
  ASSERT_NE(direct.counter("tsdb_records_ingested"), nullptr);
  EXPECT_GE(*direct.counter("tsdb_records_ingested"),
            counter("tsdb_records_ingested"));
}
#endif  // EMON_OBS_DISABLED

// ---------------------------------------------------------------------------
// Observability never moves a digest: the same canned run with metrics on
// and with them switched off at runtime traces identical sim results
// ---------------------------------------------------------------------------

TEST(DigestParity, MetricsOnAndOffTraceTheSameRun) {
  const bool was_enabled = enabled();
  std::size_t points = 0;
  const auto digest_with = [&points](bool metrics_on) {
    set_enabled(metrics_on);
    core::Testbed bed(core::metro_fleet(4, 40, /*seed=*/3));
    bed.start();
    bed.run_for(sim::seconds(8));
    points = bed.trace().total_points();
    return bed.trace().digest();
  };
  const std::uint64_t on = digest_with(true);
  const std::uint64_t off = digest_with(false);
  set_enabled(was_enabled);
  EXPECT_GT(points, 1000u);  // the run traced real traffic
  EXPECT_EQ(on, off);
  EXPECT_EQ(enabled(), was_enabled);
}

}  // namespace
}  // namespace emon::obs
