#pragma once
// The benchmark's workloads and the pieces they share: the serving stack
// with its roll-up set R, the frame prefetcher, the open-loop sender and
// the result comparators behind the output checks.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/serve_pipeline.hpp"
#include "gen.hpp"
#include "stats.hpp"
#include "store/query_engine.hpp"
#include "store/rollup.hpp"
#include "store/tsdb.hpp"

namespace pb {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  /// Where the traced run writes its spans (CSV); empty = not written.
  std::string trace_out;
};

[[nodiscard]] RunResult run_serve_ingest(const RunArgs& args);
[[nodiscard]] RunResult run_serve_mixed(const RunArgs& args);
[[nodiscard]] RunResult run_fleet_sim(const RunArgs& args);
/// The traced run: every per-layer metric, the same procedure whichever
/// workload it is stamped with (see README.md, "Traced run").
[[nodiscard]] RunResult run_traced(const RunArgs& args);

// -- Fixed workload shape ------------------------------------------------------

/// Serving population: 4,000 devices on 32 networks.
[[nodiscard]] PopulationSpec serve_population(std::uint64_t seed);
/// Event-seconds loaded as history during set-up (covers the 10 s windows).
inline constexpr std::int64_t kHistorySeconds = 12;
/// Roll-up lateness for every window in R.
inline constexpr std::int64_t kLatenessNs = 500'000'000;
/// The closed loop's measured work: a fixed number of event-seconds per
/// requested second, so every run (and every build) ingests the same
/// amount into a store that ends the same size.  22 event-seconds
/// (880k records) is about one second of ingest on a 4-core x86 container.
inline constexpr double kClosedLoopEventSecondsPerSecond = 22.0;
[[nodiscard]] inline std::int64_t closed_loop_event_seconds(double seconds) {
  return static_cast<std::int64_t>(seconds * kClosedLoopEventSecondsPerSecond);
}
/// fleet_sim's measured work: simulated seconds per requested second
/// (about one wall second each on 4 shards of a 4-core x86 container).
inline constexpr double kFleetSimSecondsPerSecond = 1.6;
/// serve_mixed's fixed offered load and query rate.  At 200,000 records/s
/// the 4,000-device population's event-seconds go out at 5 per wall
/// second; a run sends whole event-seconds, 5 per requested second.
inline constexpr double kMixedRecordsPerSec = 200'000.0;
inline constexpr double kMixedQueriesPerSec = 70.0;
[[nodiscard]] inline std::int64_t mixed_event_seconds(double seconds) {
  return static_cast<std::int64_t>(
      seconds * kMixedRecordsPerSec /
          static_cast<double>(PopulationSpec{}.devices * kRecordsPerFrame) +
      0.5);
}
inline constexpr std::int64_t kTrailingNs = 10 * kSecondNs;
/// Networks that carry a per-network 1 s window in R.
inline constexpr std::size_t kNetworkWindows = 4;

/// The roll-up set R: fleet 1 s tumbling, fleet 10 s sliding by 1 s, and a
/// 1 s tumbling window for each of the first kNetworkWindows networks.
[[nodiscard]] std::vector<emon::store::RollupSpec> rollup_set(
    const Population& pop);

/// One closed window as the sink saw it: roll-up index in R, window end,
/// wall time once its push frame was encoded.
struct PushEvent {
  std::uint32_t rollup = 0;
  std::int64_t t1_ns = 0;
  std::int64_t wall_ns = 0;
};

/// Store + roll-up engine with R registered + ServePipeline whose window
/// sinks encode every closed window with core::to_push and protocol::seal.
class ServeStack {
 public:
  explicit ServeStack(const Population& pop);
  ~ServeStack();
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  emon::store::Tsdb db;
  emon::store::RollupEngine rollups{db};
  std::vector<emon::store::RollupSpec> specs;
  std::vector<std::uint64_t> ids;
  std::unique_ptr<emon::core::ServePipeline> pipeline;

  /// Written by the sink on the ingest worker; read after flush().
  std::vector<PushEvent> pushes;
  std::uint64_t parity_checked = 0;
  std::uint64_t parity_failed = 0;
  /// While set, the sink compares every window with a cold
  /// QueryEngine::aggregate over its range, at push time.  A cold read
  /// scans the whole store, so workloads set it only outside measurement.
  std::atomic<bool> checking{false};

 private:
  std::unique_ptr<emon::store::QueryEngine> cold_;
};

/// Event-seconds a FramePrefetcher encodes ahead of its consumer.
inline constexpr std::size_t kPrefetchDepth = 4;

/// Encodes event-seconds [first, first + count) on one thread, at most
/// kPrefetchDepth seconds ahead of the consumer; next() hands them over in
/// order.  Keeps an open loop fed without holding its whole input.
class FramePrefetcher {
 public:
  FramePrefetcher(const Population& pop, std::int64_t first,
                  std::int64_t count);
  ~FramePrefetcher();
  FramePrefetcher(const FramePrefetcher&) = delete;
  FramePrefetcher& operator=(const FramePrefetcher&) = delete;

  /// The next second's frames; call at most `count` times.
  [[nodiscard]] std::vector<Frame> next();

 private:
  void encoder();

  const Population& pop_;
  std::int64_t first_;
  std::int64_t count_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::vector<Frame>> ready_;  // encoded, not yet taken
  bool stop_ = false;
  std::thread worker_;
};

/// Open-loop sender.  Item i is due at start_ns + *due(i); due(i) is
/// nullopt past the last item, and is asked for items in increasing order.
/// The sender wakes every `tick_ns` (or at each due time when tick_ns is 0)
/// and sends every item already due, in order, by calling send(i).  For
/// each item it records, relative to the due time, when send(i) was entered
/// and when it returned — so a stall in one send shows up as waiting time
/// in every item due behind it.
struct OpenLoopTimes {
  std::vector<std::int64_t> start_late_ns;
  std::vector<std::int64_t> done_late_ns;
};
using DueFn = std::function<std::optional<std::int64_t>(std::size_t)>;
OpenLoopTimes run_open_loop(const DueFn& due, std::int64_t start_ns,
                            std::int64_t tick_ns,
                            const std::function<void(std::size_t)>& send);

/// The dashboard query mix: 19 in 20 queries are per-network trailing-10 s
/// reads rotating over aggregate, current_stats and downsample; 1 in 20 is
/// a fleet-wide trailing-10 s aggregate.
enum class QueryKind : std::uint8_t {
  kNetAggregate,
  kNetCurrentStats,
  kNetDownsample,
  kFleetAggregate,
};
inline constexpr std::size_t kQueryKinds = 4;
[[nodiscard]] const char* to_string(QueryKind kind) noexcept;

struct QueryPlan {
  QueryKind kind = QueryKind::kNetAggregate;
  std::size_t network = 0;
};
/// The i-th query of the mix for a seed.
[[nodiscard]] QueryPlan plan_query(std::uint64_t seed, std::size_t i,
                                   std::size_t networks);
/// Runs a planned query over [t1 - 10 s, t1).  When `cut`/`answer` are set
/// (aggregate kinds only) the snapshot cut and the answer are captured.
void run_query(const emon::store::QueryEngine& engine, const Population& pop,
               const QueryPlan& plan, std::int64_t t1_ns,
               emon::store::FleetCut* cut = nullptr,
               emon::store::FleetAggregate* answer = nullptr);

/// Exact (==, doubles included) comparisons behind the parity checks.
[[nodiscard]] bool aggregates_equal(const emon::store::DeviceAggregate& a,
                                    const emon::store::DeviceAggregate& b);
[[nodiscard]] bool fleet_equal(const emon::store::FleetAggregate& a,
                               const emon::store::FleetAggregate& b);
[[nodiscard]] bool window_equals_cold(const emon::store::ClosedWindow& w,
                                      const emon::store::FleetAggregate& cold);

/// Cold query spec for a window of `spec` over [t0, t1).
[[nodiscard]] emon::store::QuerySpec window_query(
    const emon::store::RollupSpec& spec, std::int64_t t0_ns,
    std::int64_t t1_ns);

// -- Serving phases (shared by the serve workloads and the traced run) -------

/// A serving stack after set-up, with the tally of every frame sent to it
/// so far.
struct ServeSetup {
  std::unique_ptr<ServeStack> stack;
  Tally tally;
  /// Event-seconds sent so far; the next phase continues from here.
  std::int64_t seconds_sent = 0;
  /// Wall seconds of each set-up repetition.
  std::vector<double> setup_s;
};
/// Builds the stack and ingests kHistorySeconds of history, `reps` times
/// (each from nothing); the last repetition's stack is kept.
[[nodiscard]] ServeSetup set_up_serve(const Population& pop, int reps);

struct ClosedLoopPhase {
  /// Records processed per wall second, first submit to flush().
  double rec_per_s = 0.0;
  double wall_s = 0.0;
  /// Share of measured wall time the producer spent waiting for the
  /// pipeline (inside submit_frame or flush); near 1 means the ingest
  /// worker, not the harness, sets the pace.
  double blocked_frac = 0.0;
  std::uint64_t rollup_pumps = 0;
  std::uint64_t windows_pushed = 0;
  std::size_t frames_measured = 0;
  /// From the closing frame's send attempt to its window's encoded push.
  std::vector<double> push_delay_ms;
};
/// serve_ingest's measured phase — `event_seconds` of input, closed loop,
/// in chunks encoded while the pipeline is idle so that no encoder runs
/// beside the measured worker — then `check_tail_seconds` more with every
/// pushed window compared with a cold query.
[[nodiscard]] ClosedLoopPhase closed_loop_phase(ServeSetup& setup,
                                                const Population& pop,
                                                std::int64_t event_seconds,
                                                int check_tail_seconds);

/// A live answer pinned for the post-quiesce cut replay.
struct PinnedAnswer {
  QueryPlan plan;
  std::int64_t t1_ns = 0;
  emon::store::FleetCut cut;
  emon::store::FleetAggregate answer;
  bool taken = false;
};

struct OpenLoopPhase {
  double rec_per_s = 0.0;
  /// From the closing frame's due time to its window's encoded push.
  std::vector<double> push_delay_ms;
  /// Per query, due time to return.
  std::vector<double> query_us;
  std::vector<QueryKind> query_kind;
  std::uint64_t query_failures = 0;
  /// Generator lateness per frame (send call minus due time).
  std::vector<double> gen_late_ms;
  /// Submitted minus ingested frames, sampled every millisecond.
  std::vector<double> backlog_frames;
};
/// serve_mixed's measured phase: mixed_event_seconds(seconds) of input.
/// Queries whose index is a key of `pinned` capture their cut and answer
/// there.
[[nodiscard]] OpenLoopPhase open_loop_phase(
    ServeSetup& setup, const Population& pop, std::uint64_t seed,
    double seconds, std::map<std::size_t, PinnedAnswer>* pinned);

/// Environment stamp shared by every run (nproc, compiler, build type,
/// seed, host probe before the run).
void stamp_environment(RunResult& result, const RunArgs& args);

}  // namespace pb
