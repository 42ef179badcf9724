#include "core/serve_pipeline.hpp"

#include <stdexcept>

#include "core/protocol.hpp"

namespace emon::core {

namespace {
void accumulate(ServePipelineStats& into, const ServePipelineStats& from) {
  into.frames_ingested += from.frames_ingested;
  into.records_accepted += from.records_accepted;
  into.records_duplicate += from.records_duplicate;
  into.malformed_frames += from.malformed_frames;
  into.unexpected_frames += from.unexpected_frames;
  into.rollup_pumps += from.rollup_pumps;
  into.windows_pushed += from.windows_pushed;
}
}  // namespace

ServePipeline::ServePipeline(store::Tsdb& tsdb, store::RollupEngine* rollups,
                             ServePipelineOptions options)
    : tsdb_(&tsdb), rollups_(rollups), options_(options) {
  if (options_.queue_capacity == 0) {
    options_.queue_capacity = 1;
  }
  if (options_.metrics != nullptr) {
    auto& reg = *options_.metrics;
    ingest_frame_ns_ = reg.histogram("serve_ingest_ns");
    pump_ns_ = reg.histogram("serve_pump_ns");
    queue_depth_ = reg.gauge("serve_queue_depth");
  }
}

ServePipeline::~ServePipeline() { stop(); }

void ServePipeline::add_window_sink(std::uint64_t rollup_id, WindowSink sink) {
  const util::LockGuard lk(mu_);
  if (started_) {
    throw std::logic_error(
        "ServePipeline::add_window_sink: pipeline already started (the "
        "worker reads the sink list unlocked)");
  }
  sinks_.push_back(Sink{rollup_id, std::move(sink)});
}

void ServePipeline::start() {
  const util::LockGuard lk(mu_);
  if (started_) {
    return;
  }
  started_ = true;
  stopping_ = false;
  worker_ = std::thread([this] { worker_loop(); });
}

void ServePipeline::stop() {
  {
    const util::LockGuard lk(mu_);
    if (!started_) {
      return;
    }
    stopping_ = true;
  }
  worker_cv_.notify_all();
  producer_cv_.notify_all();
  if (worker_.joinable()) {
    worker_.join();  // the worker drains the remaining queue before exiting
  }
  const util::LockGuard lk(mu_);
  // Final pump on the stopping thread: the join above ordered everything
  // the worker wrote before these reads.
  ServePipelineStats local;
  pump(local);
  accumulate(stats_, local);
  started_ = false;
}

bool ServePipeline::submit_frame(std::vector<std::uint8_t> frame) {
  util::UniqueLock lk(mu_);
  // Explicit wait loop (not the predicate overload): the analysis checks
  // guarded accesses here, in the frame where the lock is provably held.
  while (!stopping_ && queue_.size() >= options_.queue_capacity) {
    producer_cv_.wait(lk);
  }
  if (stopping_) {
    return false;
  }
  queue_.emplace_back(std::move(frame));
  queue_depth_.set(static_cast<std::int64_t>(queue_.size()));
  lk.unlock();
  worker_cv_.notify_one();
  return true;
}

void ServePipeline::flush() {
  util::UniqueLock lk(mu_);
  while (!queue_.empty() || in_flight_) {
    idle_cv_.wait(lk);
  }
  // The worker is parked on worker_cv_ (it released mu_ after its last
  // batch), so the mutex we hold is the happens-before edge over everything
  // it wrote — and holding it across this pump keeps any racing producer
  // from waking the worker into the rollup engine mid-drain.
  ServePipelineStats local;
  pump(local);
  accumulate(stats_, local);
}

ServePipelineStats ServePipeline::stats() const {
  const util::LockGuard lk(mu_);
  return stats_;
}

void ServePipeline::worker_loop() {
  util::UniqueLock lk(mu_);
  std::size_t since_pump = 0;
  for (;;) {
    while (!stopping_ && queue_.empty()) {
      worker_cv_.wait(lk);
    }
    if (queue_.empty()) {
      return;  // stopping and fully drained
    }
    std::deque<Frame> batch;
    batch.swap(queue_);
    in_flight_ = true;
    queue_depth_.set(0);
    lk.unlock();
    producer_cv_.notify_all();
    ServePipelineStats local;
    for (const Frame& frame : batch) {
      ingest_frame(frame, local);
      ++since_pump;
      if (options_.pump_every != 0 && since_pump >= options_.pump_every) {
        pump(local);
        since_pump = 0;
      }
    }
    lk.lock();
    accumulate(stats_, local);
    in_flight_ = false;
    if (queue_.empty()) {
      idle_cv_.notify_all();
    }
  }
}

void ServePipeline::ingest_frame(const Frame& frame,
                                 ServePipelineStats& local) {
  const obs::ScopedTimer timer(ingest_frame_ns_);
  const auto decoded = protocol::decode_any(frame);
  if (!decoded) {
    ++local.malformed_frames;
    return;
  }
  const auto* report = std::get_if<Report>(&decoded.value());
  if (report == nullptr) {
    ++local.unexpected_frames;
    return;
  }
  ++local.frames_ingested;
  for (const auto& record : report->records) {
    if (tsdb_->ingest(record)) {
      ++local.records_accepted;
    } else {
      ++local.records_duplicate;
    }
  }
}

void ServePipeline::pump(ServePipelineStats& local) {
  if (rollups_ == nullptr || sinks_.empty()) {
    return;
  }
  const obs::ScopedTimer timer(pump_ns_);
  ++local.rollup_pumps;
  for (const Sink& sink : sinks_) {
    for (const store::ClosedWindow& window : rollups_->drain(sink.rollup_id)) {
      ++local.windows_pushed;
      if (sink.sink) {
        sink.sink(window);
      }
    }
  }
}

}  // namespace emon::core
