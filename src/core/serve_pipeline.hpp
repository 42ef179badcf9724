#pragma once
// Concurrent serving-path pipeline: the thread harness that turns the
// aggregator's storage stack into an ingest-while-serving system.
//
// The sim Aggregator (core/aggregator.hpp) is event-loop driven and
// alternates ingest and reads on one thread.  This pipeline runs the same
// stack — protocol::decode_any -> Report -> Tsdb::ingest (RollupEngine
// riding the ingest hook) -> rollup drains fanned out to window sinks — with
// a dedicated ingest worker, while any number of caller threads run fleet
// queries against the same Tsdb through their own QueryEngines.  The MVCC
// store (store/tsdb.hpp, store/mvcc.hpp) is what makes that safe: queries
// pin epoch-protected snapshots, the ingest fast path takes no locks, and
// neither side stalls the other.
//
// Thread roles:
//   * producers (any threads): submit_frame() enqueues encoded frames
//     into a bounded queue — blocking when full, so a slow store applies
//     backpressure instead of unbounded memory growth;
//   * ingest worker (one thread, owned): drains the queue in batches,
//     decodes frames, ingests every record, and every `pump_every` frames
//     drains the registered rollups, invoking window sinks in line.  It is
//     the Tsdb's single writer and the RollupEngine's owner thread — the
//     hook, drain() and watermark logic run exactly where their
//     single-owner contracts require;
//   * query threads (any, not owned): run QueryEngine/Tsdb reads
//     concurrently; no coordination with this pipeline is needed.
//
// flush() quiesces: it blocks until every submitted frame is ingested, runs
// a final rollup pump, and hands the caller a happens-before edge (via the
// queue mutex) over everything the ingest worker wrote — after it returns,
// the caller may read rollup state or replay-compare store contents exactly
// (the differential tests' and benchmarks' sync point).

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "core/messages.hpp"
#include "obs/metrics.hpp"
#include "store/rollup.hpp"
#include "store/tsdb.hpp"
#include "util/contracts.hpp"
#include "util/thread_annotations.hpp"

namespace emon::core {

struct ServePipelineOptions {
  /// Max queued frames; submit_frame blocks at the cap.
  std::size_t queue_capacity = 4096;
  /// Ingested frames between rollup pumps (window drains + sink fan-out).
  /// Watermarks only advance on ingest, so pumping more often than new
  /// records arrive cannot close more windows — this just bounds drain
  /// overhead per frame.  0 pumps only at flush().
  std::size_t pump_every = 64;
  /// Registry for the stage instruments (serve_ingest_ns per-frame timing,
  /// serve_pump_ns per-pump timing, serve_queue_depth gauge); null = none.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Pipeline counters.  Written by the ingest worker, published under the
/// queue mutex at batch boundaries — stats() is safe from any thread and
/// exact once the pipeline is flushed or stopped.
struct ServePipelineStats {
  std::uint64_t frames_ingested = 0;
  std::uint64_t records_accepted = 0;
  std::uint64_t records_duplicate = 0;
  std::uint64_t malformed_frames = 0;
  /// Well-formed frames that are not Reports (this path serves ingest only).
  std::uint64_t unexpected_frames = 0;
  std::uint64_t rollup_pumps = 0;
  std::uint64_t windows_pushed = 0;
};

class ServePipeline {
 public:
  /// Closed-window consumer; runs on the ingest worker (or on the flush()
  /// caller for the final pump).  Must not call back into the pipeline.
  using WindowSink = std::function<void(const store::ClosedWindow&)>;

  /// Binds to the store (whose single ingest writer the worker becomes) and
  /// optionally the rollup engine to pump.  The caller keeps ownership of
  /// both and wires the engine as the store's ingest hook itself; both must
  /// outlive the pipeline.
  ServePipeline(store::Tsdb& tsdb, store::RollupEngine* rollups,
                ServePipelineOptions options = {});
  ~ServePipeline();

  ServePipeline(const ServePipeline&) = delete;
  ServePipeline& operator=(const ServePipeline&) = delete;

  /// Registers a rollup to drain on every pump, fanning each closed window
  /// to `sink`.  Must be called before start(): after the worker is running
  /// it reads the sink list unlocked, so late registration would race —
  /// this throws std::logic_error instead.
  void add_window_sink(std::uint64_t rollup_id, WindowSink sink)
      EMON_EXCLUDES(mu_);

  /// Spawns the ingest worker.  Idempotent.
  void start() EMON_EXCLUDES(mu_);
  /// Drains the queue, runs a final pump, joins the worker.  Idempotent;
  /// also run by the destructor.
  /// EMON_OWNER_THREAD_CONTEXT: once the worker is joined, the stopping
  /// thread is the store's only mutator, so the final pump is sanctioned
  /// (same quiesce handoff as flush()).
  void stop() EMON_EXCLUDES(mu_) EMON_OWNER_THREAD_CONTEXT;

  /// Enqueues one encoded MQTT uplink frame (decoded on the ingest worker).
  /// Blocks while the queue is at capacity; false once stop() began.
  bool submit_frame(std::vector<std::uint8_t> frame) EMON_EXCLUDES(mu_);

  /// Blocks until every frame submitted before this call is ingested, then
  /// runs one rollup pump on the calling thread.  On return the pipeline is
  /// quiesced and everything the worker wrote is visible to the caller.
  /// EMON_OWNER_THREAD_CONTEXT: with the queue drained and the worker
  /// parked under mu_, the caller temporarily *is* the store's owner
  /// thread, so the final pump's owner-only calls are sanctioned here.
  void flush() EMON_EXCLUDES(mu_) EMON_OWNER_THREAD_CONTEXT;

  [[nodiscard]] ServePipelineStats stats() const EMON_EXCLUDES(mu_);

 private:
  using Frame = std::vector<std::uint8_t>;

  /// The ingest worker body — the Tsdb/RollupEngine owner thread
  /// (EMON_OWNER_THREAD_CONTEXT sanctions its owner-only store calls).
  void worker_loop() EMON_EXCLUDES(mu_) EMON_OWNER_THREAD_CONTEXT;
  /// EMON_HOT: the per-frame inner loop (decode + Tsdb::ingest per record);
  /// allocation/throw/lock-free — the locking lives in worker_loop, which
  /// drops mu_ before calling this.
  void ingest_frame(const Frame& frame, ServePipelineStats& local)
      EMON_OWNER_THREAD EMON_HOT;
  /// Drains every sink rollup; counts into `local`.  Runs either on the
  /// ingest worker (lock dropped, between batches) or on a quiescing caller
  /// holding mu_ with the worker parked — so it carries no lock annotation
  /// of its own (but is owner-thread-only, like the drains it wraps).
  void pump(ServePipelineStats& local) EMON_OWNER_THREAD;

  store::Tsdb* tsdb_;
  store::RollupEngine* rollups_;
  ServePipelineOptions options_;
  struct Sink {
    std::uint64_t rollup_id = 0;
    WindowSink sink;
  };
  /// Frozen at start(): written only before the worker exists (enforced by
  /// add_window_sink), read unlocked by the worker afterwards — the thread
  /// creation is the happens-before edge, so no capability guards it.
  std::vector<Sink> sinks_;

  mutable util::Mutex mu_;
  util::CondVar worker_cv_;    // queue non-empty or stopping
  util::CondVar producer_cv_;  // queue below capacity
  util::CondVar idle_cv_;      // queue empty and worker idle
  std::deque<Frame> queue_ EMON_GUARDED_BY(mu_);
  // Worker is ingesting a swapped batch.
  bool in_flight_ EMON_GUARDED_BY(mu_) = false;
  bool stopping_ EMON_GUARDED_BY(mu_) = false;
  bool started_ EMON_GUARDED_BY(mu_) = false;
  ServePipelineStats stats_ EMON_GUARDED_BY(mu_);
  std::thread worker_;

  obs::Histogram ingest_frame_ns_;  // serve_ingest_ns: decode+ingest per frame
  obs::Histogram pump_ns_;         // serve_pump_ns: one rollup pump
  obs::Gauge queue_depth_;         // serve_queue_depth
};

}  // namespace emon::core
