// The traced run: per-layer numbers, kept out of the end-to-end runs.
//
// 1. Layer replay, on one thread: generated serving inputs go through each
//    layer's public function in pipeline order — protocol::decode_any,
//    Tsdb::ingest (without, then with the roll-up set R attached),
//    RollupEngine::drain, core::to_push + protocol::seal — and then the
//    QueryEngine kinds run on the quiesced store.  A span (name, start, end,
//    id, parent) is recorded around every call, kept in memory and written
//    out at the end.  The hooked ingest pass runs once untraced first; the
//    difference is the tracing overhead.
// 2. Live pipeline probes: a short closed loop and a short open loop on the
//    real ServePipeline for the queue-level numbers.
// 3. Fleet: the fleet_sim spec on 4 shards and on 1 shard (digest parity,
//    shard speed-up), with the public counters and the aggregators' own
//    bucketed instruments.
// The procedure is the same whichever workload the run is stamped with.

#include <algorithm>
#include <fstream>
#include <iostream>

#include "core/protocol.hpp"
#include "core/subscription.hpp"
#include "fleet.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

namespace pb {

namespace store = emon::store;
namespace core = emon::core;

namespace {

/// Event-seconds of serving input the layer replay feeds through.
constexpr std::int64_t kReplaySeconds = 24;
/// Frames between roll-up drains in the replay (the pipeline's pump_every).
constexpr std::size_t kPumpEvery = 64;
/// Queries per kind in the replay's query stage.
constexpr std::size_t kQueriesPerKind = 100;
/// Length of each live pipeline probe.
constexpr double kProbeSeconds = 3.0;
/// Simulated time of the fleet's traced steady span.
constexpr emon::sim::Duration kFleetSpan = emon::sim::seconds(3);

enum SpanName : std::uint8_t {
  kDecode,
  kEncode,
  kIngest,
  kIngestFold,
  kDrain,
  kPushEncode,
  kQuery,
  kSpanNames,
};
constexpr const char* kSpanLabel[kSpanNames] = {
    "protocol.decode_any", "protocol.seal",  "tsdb.ingest",
    "tsdb.ingest+rollup",  "rollup.drain",   "push.to_push+seal",
    "query"};

struct Span {
  std::uint8_t name = 0;
  std::uint8_t kind = 0;  // query kind for kQuery spans
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
};

/// In-memory span log.  When off it records nothing (the untraced pass).
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on_) {
      spans_.reserve(1 << 20);
    }
  }
  void add(SpanName name, std::int64_t start, std::int64_t end,
           std::uint64_t id, std::uint64_t parent, std::uint8_t kind = 0) {
    if (on_) {
      spans_.push_back(Span{name, kind, start, end, id, parent});
    }
  }
  /// Sum of span durations of one name (and kind, for queries).
  [[nodiscard]] std::int64_t total_ns(SpanName name, int kind = -1) const {
    std::int64_t sum = 0;
    for (const Span& s : spans_) {
      if (s.name == name && (kind < 0 || s.kind == kind)) {
        sum += s.end_ns - s.start_ns;
      }
    }
    return sum;
  }
  [[nodiscard]] std::vector<double> durations_us(SpanName name,
                                                 int kind = -1) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name && (kind < 0 || s.kind == kind)) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
    return out;
  }
  /// CSV: name,kind,id,parent,start_ns,end_ns (start relative to the first
  /// span).
  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write spans to " << path << '\n';
      return;
    }
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "name,kind,id,parent,start_ns,end_ns\n";
    for (const Span& s : spans_) {
      out << kSpanLabel[s.name] << ',' << int{s.kind} << ',' << s.id << ','
          << s.parent << ',' << s.start_ns - t0 << ',' << s.end_ns - t0
          << '\n';
    }
  }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

 private:
  bool on_;
  std::vector<Span> spans_;
};

struct HookedPass {
  std::int64_t wall_ns = 0;
  std::uint64_t accepted = 0;
  std::uint64_t duplicate = 0;
  std::uint64_t windows = 0;
};

/// Tsdb::ingest with R attached, draining every kPumpEvery frames and
/// encoding each closed window as a push — the pipeline worker's sequence,
/// on the calling thread.
HookedPass hooked_pass(const Population& pop,
                       const std::vector<core::Report>& reports,
                       Tracer& tr, store::Tsdb& db,
                       store::RollupEngine& rollups) {
  HookedPass out;
  db.set_ingest_hook(&rollups);
  std::vector<std::uint64_t> ids;
  for (const auto& spec : rollup_set(pop)) {
    ids.push_back(rollups.register_rollup(spec));
  }
  std::uint64_t pump = 0;
  const auto drain_all = [&](std::uint64_t parent) {
    ++pump;
    for (std::size_t r = 0; r < ids.size(); ++r) {
      const std::int64_t d0 = now_ns();
      std::vector<store::ClosedWindow> windows = rollups.drain(ids[r]);
      tr.add(kDrain, d0, now_ns(), pump, parent, windows.empty() ? 0 : 1);
      for (const store::ClosedWindow& w : windows) {
        const std::int64_t p0 = now_ns();
        const auto frame = core::protocol::seal(core::to_push(w, r + 1, false));
        tr.add(kPushEncode, p0, now_ns(), ++out.windows, pump);
        (void)frame;
      }
    }
  };
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const std::int64_t s0 = now_ns();
    for (const auto& rec : reports[i].records) {
      (db.ingest(rec) ? out.accepted : out.duplicate) += 1;
    }
    tr.add(kIngestFold, s0, now_ns(), i, i);
    if ((i + 1) % kPumpEvery == 0) {
      drain_all(i);
    }
  }
  drain_all(reports.size());
  out.wall_ns = now_ns() - t0;
  db.set_ingest_hook(nullptr);
  return out;
}

double median_of(std::vector<double> v) {
  return v.empty() ? 0.0 : percentile(v, 0.5);
}

}  // namespace

RunResult run_traced(const RunArgs& args) {
  emon::util::LogConfig::set_level(emon::util::LogLevel::kError);
  RunResult res;
  stamp_environment(res, args);
  res.metric("bench.host_probe", host_probe(), "1/ms");
  const Population pop(serve_population(args.seed));

  // -- 1. Layer replay ----------------------------------------------------------
  {
    Tracer tr(true);
    std::vector<Frame> frames = generate(pop, 0, kReplaySeconds);
    std::uint64_t records = 0;
    std::uint64_t unique = 0;
    for (const Frame& f : frames) {
      records += f.records;
      unique += f.duplicate ? 0 : f.records;
    }
    std::vector<core::Report> reports;
    reports.reserve(frames.size());
    bool decoded_all = true;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const std::int64_t s0 = now_ns();
      auto msg = core::protocol::decode_any(frames[i].bytes);
      tr.add(kDecode, s0, now_ns(), i, i);
      if (!msg || !std::holds_alternative<core::Report>(msg.value())) {
        decoded_all = false;
        reports.emplace_back();
        continue;
      }
      reports.push_back(std::move(std::get<core::Report>(msg.value())));
    }
    bool round_trip = decoded_all;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const std::int64_t s0 = now_ns();
      const std::vector<std::uint8_t> bytes = core::protocol::seal(reports[i]);
      tr.add(kEncode, s0, now_ns(), i, i);
      round_trip = round_trip && bytes == frames[i].bytes;
    }
    frames.clear();
    frames.shrink_to_fit();
    res.check("replay_decode_encode_round_trip", round_trip);

    {
      store::Tsdb plain;
      for (std::size_t i = 0; i < reports.size(); ++i) {
        const std::int64_t s0 = now_ns();
        for (const auto& rec : reports[i].records) {
          (void)plain.ingest(rec);
        }
        tr.add(kIngest, s0, now_ns(), i, i);
      }
      const store::TsdbStats st = plain.stats();
      const std::uint64_t sealed_records =
          st.segments_sealed * store::TsdbOptions{}.seal_threshold;
      res.metric("tsdb.bytes_per_rec",
                 sealed_records == 0 ? 0.0
                                     : static_cast<double>(st.sealed_bytes) /
                                           static_cast<double>(sealed_records),
                 "B");
    }

    // The hooked pass untraced, traced, untraced again: the traced pass
    // against the mean of the two untraced ones is the tracing cost.
    const auto untraced_ns = [&] {
      Tracer off(false);
      store::Tsdb fresh;
      store::RollupEngine fresh_rollups{fresh};
      return hooked_pass(pop, reports, off, fresh, fresh_rollups).wall_ns;
    };
    std::int64_t untraced_sum = untraced_ns();
    store::Tsdb db;
    store::RollupEngine rollups{db};
    const HookedPass traced = hooked_pass(pop, reports, tr, db, rollups);
    untraced_sum += untraced_ns();
    res.check("replay_accepts_every_unique_record",
              traced.accepted == unique &&
                  traced.accepted + traced.duplicate == records,
              std::to_string(traced.accepted) + " of " + std::to_string(unique));
    res.metric("bench.trace_overhead",
               static_cast<double>(2 * traced.wall_ns - untraced_sum) /
                   static_cast<double>(untraced_sum),
               "ratio");

    const auto per_rec = [&](std::int64_t ns) {
      return static_cast<double>(ns) / static_cast<double>(records);
    };
    res.metric("protocol.decode_ns_per_rec", per_rec(tr.total_ns(kDecode)), "ns");
    res.metric("protocol.encode_ns_per_rec", per_rec(tr.total_ns(kEncode)), "ns");
    res.metric("tsdb.ingest_ns_per_rec", per_rec(tr.total_ns(kIngest)), "ns");
    res.metric("rollup.fold_ns_per_rec",
               per_rec(tr.total_ns(kIngestFold) - tr.total_ns(kIngest)), "ns");
    // A drain that emits nothing is a lookup; the p50 is over drains that
    // closed windows (kind 1).
    res.metric("rollup.drain_us_p50", median_of(tr.durations_us(kDrain, 1)),
               "us");
    res.metric("subscription.push_encode_us_p50",
               median_of(tr.durations_us(kPushEncode)), "us");

    // Query kinds on the quiesced store, 1 worker then 2 workers.
    const std::int64_t t1 = *db.observed_max_ts() / kSecondNs * kSecondNs;
    std::int64_t serial_ns = 0;
    std::int64_t pooled_ns = 0;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
      const store::QueryEngine engine{db, store::QueryEngineOptions{workers}};
      std::uint64_t qid = 0;
      for (std::size_t k = 0; k < kQueryKinds; ++k) {
        for (std::size_t j = 0; j < kQueriesPerKind; ++j) {
          QueryPlan plan;
          plan.kind = static_cast<QueryKind>(k);
          plan.network = j % pop.spec().networks;
          const std::int64_t s0 = now_ns();
          run_query(engine, pop, plan, t1 - static_cast<std::int64_t>(j % 10) *
                                                kSecondNs);
          const std::int64_t s1 = now_ns();
          (workers == 1 ? serial_ns : pooled_ns) += s1 - s0;
          if (workers == 2) {
            tr.add(kQuery, s0, s1, ++qid, 0, static_cast<std::uint8_t>(k));
          }
        }
      }
    }
    for (std::size_t k = 0; k < kQueryKinds; ++k) {
      res.metric(std::string("query.") + to_string(static_cast<QueryKind>(k)) +
                     "_us_p50",
                 median_of(tr.durations_us(kQuery, static_cast<int>(k))), "us");
    }
    res.metric("query.pool_speedup",
               static_cast<double>(serial_ns) / static_cast<double>(pooled_ns),
               "ratio");
    res.note("spans", static_cast<double>(tr.size()));
    if (!args.trace_out.empty()) {
      tr.write(args.trace_out);
    }
  }

  // -- 2. Live pipeline probes --------------------------------------------------
  {
    ServeSetup setup = set_up_serve(pop, 1);
    const ClosedLoopPhase closed = closed_loop_phase(
        setup, pop, closed_loop_event_seconds(kProbeSeconds), 0);
    res.metric("serve.submit_blocked_frac", closed.blocked_frac, "ratio");
    res.metric("serve.rollup_pumps", static_cast<double>(closed.rollup_pumps),
               "count");
    res.metric("serve.windows_pushed",
               static_cast<double>(closed.windows_pushed), "count");
  }
  {
    ServeSetup setup = set_up_serve(pop, 1);
    OpenLoopPhase open =
        open_loop_phase(setup, pop, args.seed, kProbeSeconds, nullptr);
    res.attempt(open.query_us.size());
    res.fail(open.query_failures);
    res.metric("serve.backlog_p99_frames", percentile(open.backlog_frames, 0.99),
               "frames");
    res.metric("bench.gen_late_p99_ms", percentile(open.gen_late_ms, 0.99), "ms");
  }

  // -- 3. Fleet: 4 shards, then 1 shard -----------------------------------------
  std::uint64_t digest4 = 0;
  std::int64_t wall4 = 0;
  {
    std::unique_ptr<core::Testbed> bed = build_fleet(args.seed, kFleetShards);
    PushProbe probe(*bed);
    const double formed = reporting_share(*bed);
    res.check("fleet_formed", formed >= 0.98, std::to_string(formed));
    auto routed = [](core::Testbed& b) {
      std::uint64_t n = 0;
      for (std::size_t a = 0; a < b.network_count(); ++a) {
        n += b.aggregator(a).broker().messages_routed();
      }
      return n;
    };
    const std::uint64_t ev0 = bed->executed_events();
    const std::uint64_t sync0 = bed->engine().sync_rounds();
    const std::uint64_t routed0 = routed(*bed);
    const std::int64_t w0 = now_ns();
    bed->run_for(kFleetSpan);
    wall4 = now_ns() - w0;
    const double span_s = static_cast<double>(kFleetSpan.ns()) / 1e9;
    res.metric("sim.events_per_s",
               static_cast<double>(bed->executed_events() - ev0) /
                   (static_cast<double>(wall4) / 1e9),
               "1/s");
    res.metric("sim.sync_rounds_per_sim_s",
               static_cast<double>(bed->engine().sync_rounds() - sync0) / span_s,
               "1/sim_s");
    res.metric("sim.cross_posts", static_cast<double>(bed->engine().cross_posts()),
               "count");
    res.metric("net.mqtt_routed_per_sim_s",
               static_cast<double>(routed(*bed) - routed0) / span_s, "1/sim_s");

    std::uint64_t accepted = 0;
    std::uint64_t dups = 0;
    std::uint64_t blocks = 0;
    std::uint64_t bad = 0;
    std::vector<double> ingest_p50;
    std::vector<double> dispatch_p50;
    std::vector<double> pump_p50;
    for (std::size_t a = 0; a < bed->network_count(); ++a) {
      core::Aggregator& agg = bed->aggregator(a);
      accepted += agg.stats().records_accepted;
      blocks += agg.stats().blocks_written;
      bad += agg.stats().malformed_frames + agg.stats().unexpected_frames;
      dups += agg.tsdb().stats().duplicates_dropped;
      const emon::obs::MetricsSnapshot snap = agg.metrics().snapshot();
      const auto p50 = [&](const char* name, std::vector<double>& into) {
        if (const auto* h = snap.histogram(name); h != nullptr && h->count > 0) {
          into.push_back(static_cast<double>(h->p50));
        }
      };
      p50("agg_ingest_frame_ns", ingest_p50);
      p50("mqtt_dispatch_ns", dispatch_p50);
      p50("sub_pump_ns", pump_p50);
    }
    std::uint64_t device_drops = 0;
    for (std::size_t d = 0; d < bed->device_count(); ++d) {
      device_drops += bed->device(d).local_store().dropped();
    }
    const auto [late, patches] = probe.rollup_totals();
    res.metric("aggregator.records_accepted", static_cast<double>(accepted),
               "count");
    res.metric("tsdb.dup_dropped", static_cast<double>(dups), "count");
    res.metric("rollup.late_dropped", static_cast<double>(late), "count");
    res.metric("rollup.pane_patches", static_cast<double>(patches), "count");
    res.metric("device.records_dropped", static_cast<double>(device_drops),
               "count");
    res.metric("chain.blocks_written", static_cast<double>(blocks), "count");
    // The program's own instruments round to a 1/16 bucket: recorded beside
    // the raw-sample spans, never in their place.
    res.metric("obs.agg_ingest_frame_ns_p50_bucketed", median_of(ingest_p50),
               "ns");
    res.metric("obs.mqtt_dispatch_ns_p50_bucketed", median_of(dispatch_p50),
               "ns");
    res.metric("obs.sub_pump_ns_p50_bucketed", median_of(pump_p50), "ns");
    res.attempt(accepted);
    res.fail(bad);
    res.check("fleet_no_malformed_frames", bad == 0, std::to_string(bad));

    digest4 = bed->trace().digest();
  }
  {
    // Same spec and probe on 1 shard: the trace must match bit for bit.
    std::unique_ptr<core::Testbed> serial = build_fleet(args.seed, 1);
    PushProbe serial_probe(*serial);
    const std::int64_t w0 = now_ns();
    serial->run_for(kFleetSpan);
    const std::int64_t wall1 = now_ns() - w0;
    res.metric("sim.shard_speedup",
               static_cast<double>(wall1) / static_cast<double>(wall4), "ratio");
    res.check("shard_digest_parity", serial->trace().digest() == digest4,
              std::to_string(digest4) + " vs " +
                  std::to_string(serial->trace().digest()));
  }
  res.note("host_probe_after", host_probe());
  res.note("steal_s_after", steal_seconds());
  return res;
}

}  // namespace pb
