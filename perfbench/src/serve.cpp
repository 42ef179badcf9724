// The two serving workloads.
//
//   serve_ingest  closed loop: one producer submits frames through
//                 ServePipeline::submit_frame as fast as they are accepted;
//                 no live queries.  Measures the single-writer path.
//   serve_mixed   open loop: frames at a fixed 200,000 records/s on a 1 ms
//                 schedule, plus an open-loop dashboard client at 70
//                 queries/s through one QueryEngine (workers = 2).
//
// Both start from the same set-up: the serving stack with the roll-up set R
// and 12 event-seconds of history ingested, so the trailing-10 s queries
// cost the same from the first second of measurement.

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <thread>

#include "core/protocol.hpp"
#include "workloads.hpp"

namespace pb {

namespace store = emon::store;
namespace core = emon::core;

namespace {

constexpr int kSetupReps = 5;
/// Event-seconds sent after serve_ingest's measured phase with every pushed
/// window checked against a cold query.
constexpr int kCheckTailSeconds = 3;
/// Untimed queries before serve_ingest's timed quiesced queries.
constexpr std::size_t kWarmupQueries = 100;
/// Event-seconds the closed loop encodes, with the pipeline idle, ahead of
/// each measured chunk: one per encoder thread, ~13 MB of frames.
constexpr std::int64_t kChunkSeconds = kEncoderThreads;
/// serve_ingest fails unless the producer spent at least this share of the
/// measured time waiting for the pipeline, i.e. unless the ingest worker
/// was the bottleneck.
constexpr double kMinBlockedFrac = 0.9;

/// Records processed (accepted or dropped as duplicates) between two stats.
std::uint64_t processed(const core::ServePipelineStats& before,
                        const core::ServePipelineStats& after) {
  return (after.records_accepted + after.records_duplicate) -
         (before.records_accepted + before.records_duplicate);
}

/// Push delay of every window pushed whose close point the index holds,
/// dated from the time of the frame whose arrival closed it.
std::vector<double> push_delays_ms(const ServeStack& stack,
                                   const CloseIndex& close) {
  std::vector<double> out;
  for (const PushEvent& p : stack.pushes) {
    const std::int64_t t =
        close.first_reaching(p.t1_ns + stack.specs[p.rollup].lateness_ns);
    if (t != CloseIndex::npos) {
      out.push_back(static_cast<double>(p.wall_ns - t) / 1e6);
    }
  }
  return out;
}

void check_accounting(RunResult& res, const core::ServePipelineStats& st,
                      const Tally& sent) {
  res.attempt(sent.frames);
  const std::uint64_t bad = st.malformed_frames + st.unexpected_frames;
  const std::uint64_t seen = st.frames_ingested + bad;
  res.fail(bad + (sent.frames > seen ? sent.frames - seen : 0));
  res.check("no_malformed_frames", bad == 0,
            std::to_string(bad) + " malformed/unexpected");
  res.check("accepted_plus_duplicate_equals_submitted",
            st.records_accepted + st.records_duplicate == sent.records,
            std::to_string(st.records_accepted) + " + " +
                std::to_string(st.records_duplicate) +
                " != " + std::to_string(sent.records));
  res.check("accepted_equals_unique_records",
            st.records_accepted == sent.unique_records &&
                st.records_duplicate == sent.records - sent.unique_records,
            std::to_string(st.records_accepted) + " vs " +
                std::to_string(sent.unique_records));
}

/// Reports p50 and the tail percentile of raw samples; the run fails when
/// the tail has fewer than ten samples beyond it.
void report_percentiles(RunResult& res, const std::string& base,
                        std::vector<double> samples, double tail,
                        const std::string& tail_name, const std::string& unit) {
  res.check(base + "_samples_support_" + tail_name,
            percentile_supported(samples.size(), tail),
            std::to_string(samples.size()) + " samples");
  if (samples.empty()) {
    return;
  }
  res.note(base + "_samples", static_cast<double>(samples.size()));
  res.metric(base + "_p50_" + unit, percentile(samples, 0.5), unit);
  res.metric(base + "_" + tail_name + "_" + unit, percentile(samples, tail),
             unit);
}

void note_shares(RunResult& res, const Population& pop, const Tally& sent) {
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  res.note("share_roamer_devices", sent.roamer_share(pop.size()));
  res.note("share_offline_records",
           ratio(sent.offline_records, sent.unique_records));
  res.note("share_duplicate_frames", ratio(sent.duplicate_frames, sent.frames));
  res.note("share_late_records", ratio(sent.late_records, sent.unique_records));
}

void finish(RunResult& res, const ServeSetup& setup) {
  std::vector<double> s = setup.setup_s;
  res.metric("setup_s", percentile(s, 0.5), "s");
  res.metric("rss_peak_mb", peak_rss_mb(), "MB");
  res.note("host_probe_after", host_probe());
  res.note("steal_s_after", steal_seconds());
}

}  // namespace

ServeSetup set_up_serve(const Population& pop, int reps) {
  ServeSetup out;
  for (int rep = 0; rep < reps; ++rep) {
    out.stack.reset();
    const std::int64_t t0 = now_ns();
    auto stack = std::make_unique<ServeStack>(pop);
    Tally tally;
    std::vector<Frame> frames;
    for (std::int64_t s = 0; s < kHistorySeconds; ++s) {
      frames.clear();
      pop.frames_for_second(s, frames);
      for (Frame& f : frames) {
        stack->pipeline->submit_frame(std::move(f.bytes));
        tally.add(f);
      }
    }
    stack->pipeline->flush();
    out.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    out.stack = std::move(stack);
    out.tally = tally;
  }
  out.seconds_sent = kHistorySeconds;
  out.stack->pushes.clear();
  return out;
}

ClosedLoopPhase closed_loop_phase(ServeSetup& setup, const Population& pop,
                                  std::int64_t event_seconds,
                                  int check_tail_seconds) {
  ServeStack& stack = *setup.stack;
  ClosedLoopPhase out;
  const core::ServePipelineStats before = stack.pipeline->stats();
  CloseIndex close(*stack.db.observed_max_ts());
  std::int64_t wall_ns = 0;
  std::int64_t waiting_ns = 0;
  std::vector<std::int64_t> attempt_ns;
  for (std::int64_t done = 0; done < event_seconds; done += kChunkSeconds) {
    const std::int64_t n = std::min(kChunkSeconds, event_seconds - done);
    std::vector<Frame> chunk = generate(pop, setup.seconds_sent, n);
    setup.seconds_sent += n;
    attempt_ns.clear();
    const std::int64_t t0 = now_ns();
    for (Frame& f : chunk) {
      const std::int64_t t = now_ns();
      attempt_ns.push_back(t);
      stack.pipeline->submit_frame(std::move(f.bytes));
      waiting_ns += now_ns() - t;
    }
    const std::int64_t t_flush = now_ns();
    stack.pipeline->flush();
    const std::int64_t t1 = now_ns();
    waiting_ns += t1 - t_flush;
    wall_ns += t1 - t0;
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      close.add(chunk[i].max_ts_ns, attempt_ns[i]);
      setup.tally.add(chunk[i]);
    }
  }
  const core::ServePipelineStats measured = stack.pipeline->stats();
  // Check tail, outside measurement: every window the next event-seconds
  // close is compared with a cold query at push time.
  if (check_tail_seconds > 0) {
    stack.checking.store(true);
    for (Frame& f :
         generate(pop, setup.seconds_sent, check_tail_seconds)) {
      stack.pipeline->submit_frame(std::move(f.bytes));
      setup.tally.add(f);
    }
    setup.seconds_sent += check_tail_seconds;
    stack.pipeline->flush();
    stack.checking.store(false);
  }
  out.wall_s = static_cast<double>(wall_ns) / 1e9;
  out.rec_per_s = static_cast<double>(processed(before, measured)) / out.wall_s;
  out.blocked_frac =
      static_cast<double>(waiting_ns) / static_cast<double>(wall_ns);
  out.rollup_pumps = measured.rollup_pumps - before.rollup_pumps;
  out.windows_pushed = measured.windows_pushed - before.windows_pushed;
  out.frames_measured = measured.frames_ingested - before.frames_ingested;
  out.push_delay_ms = push_delays_ms(stack, close);
  return out;
}

OpenLoopPhase open_loop_phase(ServeSetup& setup, const Population& pop,
                              std::uint64_t seed, double seconds,
                              std::map<std::size_t, PinnedAnswer>* pinned) {
  ServeStack& stack = *setup.stack;
  OpenLoopPhase out;
  const core::ServePipelineStats before = stack.pipeline->stats();
  CloseIndex close(*stack.db.observed_max_ts());
  const std::int64_t first_second = setup.seconds_sent;
  const std::int64_t event_seconds = mixed_event_seconds(seconds);
  const double event_s_per_s =
      kMixedRecordsPerSec / static_cast<double>(pop.size() * kRecordsPerFrame);

  // Frames are encoded one event-second at a time just ahead of the sender.
  // Each is due once the records before it have been offered at the fixed
  // rate.
  FramePrefetcher prefetch(pop, first_second, event_seconds);
  std::vector<Frame> second;      // the event-second being sent
  std::vector<std::int64_t> due;  // due offset of each frame of `second`
  std::size_t second_first = 0;   // run-wide index of second[0]
  std::int64_t fetched = 0;
  std::uint64_t offered = 0;
  const DueFn frame_due = [&](std::size_t i) -> std::optional<std::int64_t> {
    while (i >= second_first + second.size()) {
      if (fetched == event_seconds) {
        return std::nullopt;
      }
      second_first += second.size();
      second = prefetch.next();
      ++fetched;
      due.clear();
      for (const Frame& f : second) {
        due.push_back(static_cast<std::int64_t>(
            static_cast<double>(offered) / kMixedRecordsPerSec * 1e9));
        offered += f.records;
      }
    }
    return due[i - second_first];
  };

  const auto n_queries = static_cast<std::size_t>(kMixedQueriesPerSec * seconds);
  const auto query_due = [](std::size_t i) {
    return static_cast<std::int64_t>(static_cast<double>(i) * 1e9 /
                                     kMixedQueriesPerSec);
  };
  // A query due at offset t reads the trailing 10 s of the event time the
  // generator is sending at t.
  const auto event_at = [&](std::int64_t offset_ns) {
    const auto ev = static_cast<std::int64_t>(
        static_cast<double>(offset_ns) * event_s_per_s);
    return kBaseNs + first_second * kSecondNs + ev / 1'000'000 * 1'000'000;
  };

  std::uint64_t submitted = 0;
  std::int64_t last_sample = 0;
  OpenLoopTimes frame_times;
  OpenLoopTimes query_times;
  const std::int64_t t_start = now_ns() + 20'000'000;
  {
    const store::QueryEngine engine{stack.db, store::QueryEngineOptions{2}};
    std::thread client([&] {
      const DueFn due_fn = [&](std::size_t i) -> std::optional<std::int64_t> {
        return i < n_queries ? std::optional(query_due(i)) : std::nullopt;
      };
      query_times = run_open_loop(due_fn, t_start, 0, [&](std::size_t i) {
        const QueryPlan plan = plan_query(seed, i, pop.spec().networks);
        const std::int64_t t1 = event_at(query_due(i));
        PinnedAnswer* pin = nullptr;
        if (pinned != nullptr) {
          const auto it = pinned->find(i);
          pin = it == pinned->end() ? nullptr : &it->second;
        }
        try {
          if (pin != nullptr) {
            pin->plan = plan;
            pin->t1_ns = t1;
            run_query(engine, pop, plan, t1, &pin->cut, &pin->answer);
            pin->taken = true;
          } else {
            run_query(engine, pop, plan, t1);
          }
        } catch (const std::exception& e) {
          ++out.query_failures;
          std::cerr << "query " << i << " threw: " << e.what() << '\n';
        }
      });
    });
    frame_times = run_open_loop(frame_due, t_start, 1'000'000, [&](std::size_t i) {
      Frame& f = second[i - second_first];
      stack.pipeline->submit_frame(std::move(f.bytes));
      close.add(f.max_ts_ns, t_start + due[i - second_first]);
      setup.tally.add(f);
      ++submitted;
      const std::int64_t now = now_ns();
      if (now - last_sample >= 1'000'000) {
        last_sample = now;
        const auto ingested = stack.pipeline->stats().frames_ingested -
                              before.frames_ingested;
        out.backlog_frames.push_back(static_cast<double>(submitted - ingested));
      }
    });
    client.join();
    stack.pipeline->flush();
  }
  setup.seconds_sent += event_seconds;
  const std::int64_t t_end = now_ns();
  const core::ServePipelineStats after = stack.pipeline->stats();
  out.rec_per_s = static_cast<double>(processed(before, after)) /
                  (static_cast<double>(t_end - t_start) / 1e9);
  out.push_delay_ms = push_delays_ms(stack, close);
  out.query_kind.resize(n_queries);
  for (std::size_t i = 0; i < n_queries; ++i) {
    out.query_us.push_back(static_cast<double>(query_times.done_late_ns[i]) /
                           1e3);
    out.query_kind[i] = plan_query(seed, i, pop.spec().networks).kind;
  }
  for (const std::int64_t ns : frame_times.start_late_ns) {
    out.gen_late_ms.push_back(static_cast<double>(ns) / 1e6);
  }
  return out;
}

RunResult run_serve_ingest(const RunArgs& args) {
  RunResult res;
  stamp_environment(res, args);
  const Population pop(serve_population(args.seed));
  ServeSetup setup = set_up_serve(pop, kSetupReps);
  ServeStack& stack = *setup.stack;

  ClosedLoopPhase phase = closed_loop_phase(
      setup, pop, closed_loop_event_seconds(args.seconds), kCheckTailSeconds);
  res.metric("ingest_rec_per_s", phase.rec_per_s, "rec/s");
  res.note("measured_wall_s", phase.wall_s);
  res.note("submit_blocked_frac", phase.blocked_frac);
  res.note("frames_measured", static_cast<double>(phase.frames_measured));
  res.check("ingest_worker_is_the_bottleneck",
            phase.blocked_frac >= kMinBlockedFrac,
            "producer waited " + std::to_string(phase.blocked_frac) +
                " of the measured time");
  report_percentiles(res, "push_delay", std::move(phase.push_delay_ms), 0.95,
                     "p95", "ms");

  // -- Dashboard queries on the quiesced store (closed loop, one client) -----
  const store::QueryEngine engine{stack.db, store::QueryEngineOptions{2}};
  const std::int64_t t1 = *stack.db.observed_max_ts() / kSecondNs * kSecondNs;
  const auto n_queries = static_cast<std::size_t>(
      std::max(1000.0, kMixedQueriesPerSec * args.seconds));
  // The first kWarmupQueries run untimed so caches fill.
  std::vector<double> lat_us;
  for (std::size_t i = 0; i < kWarmupQueries + n_queries; ++i) {
    const QueryPlan plan = plan_query(args.seed, i, pop.spec().networks);
    const std::int64_t q0 = now_ns();
    res.attempt();
    try {
      run_query(engine, pop, plan, t1);
    } catch (const std::exception& e) {
      res.fail();
      std::cerr << "query " << i << " threw: " << e.what() << '\n';
      continue;
    }
    if (i >= kWarmupQueries) {
      lat_us.push_back(static_cast<double>(now_ns() - q0) / 1e3);
    }
  }
  report_percentiles(res, "query", std::move(lat_us), 0.99, "p99", "us");

  // -- Output checks ----------------------------------------------------------
  check_accounting(res, stack.pipeline->stats(), setup.tally);
  res.check("pushed_windows_equal_cold_queries",
            stack.parity_checked > 0 && stack.parity_failed == 0,
            std::to_string(stack.parity_failed) + " of " +
                std::to_string(stack.parity_checked) + " differ");
  note_shares(res, pop, setup.tally);
  finish(res, setup);
  return res;
}

RunResult run_serve_mixed(const RunArgs& args) {
  RunResult res;
  stamp_environment(res, args);
  const Population pop(serve_population(args.seed));
  ServeSetup setup = set_up_serve(pop, kSetupReps);
  ServeStack& stack = *setup.stack;

  // Live answers pinned for cut replay: the first per-network aggregate at
  // or after 1/6, 1/2 and 5/6 of the run.
  const auto n_queries =
      static_cast<std::size_t>(kMixedQueriesPerSec * args.seconds);
  std::map<std::size_t, PinnedAnswer> pinned;
  for (std::size_t want : {n_queries / 6, n_queries / 2, n_queries * 5 / 6}) {
    for (std::size_t i = want; i < n_queries; ++i) {
      if (plan_query(args.seed, i, pop.spec().networks).kind ==
          QueryKind::kNetAggregate) {
        pinned[i] = PinnedAnswer{};
        break;
      }
    }
  }

  OpenLoopPhase phase =
      open_loop_phase(setup, pop, args.seed, args.seconds, &pinned);
  res.metric("ingest_rec_per_s", phase.rec_per_s, "rec/s");
  report_percentiles(res, "push_delay", std::move(phase.push_delay_ms), 0.95,
                     "p95", "ms");
  res.attempt(phase.query_us.size());
  res.fail(phase.query_failures);
  std::vector<std::vector<double>> per_kind(kQueryKinds);
  for (std::size_t i = 0; i < phase.query_us.size(); ++i) {
    per_kind[static_cast<std::size_t>(phase.query_kind[i])].push_back(
        phase.query_us[i]);
  }
  for (std::size_t k = 0; k < kQueryKinds; ++k) {
    if (!per_kind[k].empty()) {
      res.note(std::string("query_p50_us_") +
                   to_string(static_cast<QueryKind>(k)),
               percentile(per_kind[k], 0.5));
    }
  }
  report_percentiles(res, "query", std::move(phase.query_us), 0.99, "p99",
                     "us");
  res.note("gen_late_p99_ms", phase.gen_late_ms.empty()
                                  ? 0.0
                                  : percentile(phase.gen_late_ms, 0.99));
  res.note("backlog_p99_frames", phase.backlog_frames.empty()
                                     ? 0.0
                                     : percentile(phase.backlog_frames, 0.99));

  // -- Output checks ----------------------------------------------------------
  check_accounting(res, stack.pipeline->stats(), setup.tally);

  // The store accepted every unique record sent, in send order.
  const auto accepted = [&](std::size_t d) {
    return pop.sent_records(d, setup.seconds_sent);
  };
  const auto devices_of = [&](std::size_t network) {
    std::vector<std::size_t> out;
    for (std::size_t d = network; d < pop.size(); d += pop.spec().networks) {
      out.push_back(d);
    }
    return out;
  };
  // Cut replay: every pinned live answer equals the same query over a clean
  // store holding exactly the cut it was answered at.
  std::size_t replayed = 0;
  bool cuts_ok = true;
  for (const auto& [i, p] : pinned) {
    if (!p.taken) {
      cuts_ok = false;
      continue;
    }
    store::Tsdb replay;
    for (const auto& [id, n] : p.cut.per_device) {
      const auto list = accepted(std::stoul(id.substr(4)));
      if (n > list.size()) {
        cuts_ok = false;
        continue;
      }
      for (std::uint64_t k = 0; k < n; ++k) {
        replay.ingest(list[k]);
      }
    }
    const store::QueryEngine oracle{replay, store::QueryEngineOptions{1}};
    store::FleetAggregate expect;
    run_query(oracle, pop, p.plan, p.t1_ns, nullptr, &expect);
    cuts_ok = cuts_ok && fleet_equal(p.answer, expect);
    ++replayed;
  }
  res.check("live_answers_equal_cut_replay", cuts_ok && replayed >= 2,
            std::to_string(replayed) + " replayed");
  // The quiesced store equals a clean store over a sample of networks.
  {
    std::vector<std::size_t> sample;
    for (std::size_t n = 0; n < kNetworkWindows; ++n) {
      const auto ds = devices_of(n);
      sample.insert(sample.end(), ds.begin(), ds.end());
    }
    store::Tsdb clean;
    for (const std::size_t d : sample) {
      for (const auto& r : accepted(d)) {
        clean.ingest(r);
      }
    }
    store::QuerySpec q;
    for (const std::size_t d : sample) {
      q.devices.push_back(pop.id(d));
    }
    const store::QueryEngine live{stack.db, store::QueryEngineOptions{1}};
    const store::QueryEngine quiet{clean, store::QueryEngineOptions{1}};
    res.check("quiesced_store_equals_clean_store",
              fleet_equal(live.aggregate(q), quiet.aggregate(q)));
  }
  note_shares(res, pop, setup.tally);
  finish(res, setup);
  return res;
}

}  // namespace pb
