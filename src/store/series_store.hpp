#pragma once
// One device's record series: an uncompressed FIFO front, a run of sealed
// columnar segments, and an open SegmentBuilder head.
//
//   front (deque)    <- oldest: re-buffered transmit failures + records
//                        decoded back out of evicted-for-pop segments
//   sealed (deque)   <- middle: compressed history, oldest first
//   head (builder)   <- newest: open columns, sealed every seal_threshold
//
// This is the device offline buffer (§II-B "raw consumption data is stored
// in the local storage"): a push/pop_batch/push_front FIFO bounded by a
// *byte* budget over the compressed form, plus an optional exact record cap
// (oldest dropped first).  A device offline for hours retains 5-10x more
// history in the same footprint, and when the budget is exhausted whole
// oldest segments are evicted with per-record drop accounting (graceful,
// detectable degradation — never memory growth).

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "obs/metrics.hpp"
#include "store/segment.hpp"

namespace emon::store {

struct SeriesStoreOptions {
  /// Byte budget across front + sealed + head (0 = unbounded).
  std::size_t byte_budget = 256 * 1024;
  /// Record-count cap: an exact FIFO clamp that drops the oldest (0 = none).
  std::size_t max_records = 0;
  /// Records per sealed segment.
  std::size_t seal_threshold = 64;
};

class SeriesStore {
 public:
  explicit SeriesStore(SeriesStoreOptions options);

  /// Buffers a record.  Returns false if enforcing the budget dropped
  /// anything (the new record is always kept).
  bool push(ConsumptionRecord record);

  /// Removes and returns up to `max_records` oldest records.
  [[nodiscard]] std::vector<ConsumptionRecord> pop_batch(
      std::size_t max_records);

  /// Re-buffers records that failed to transmit (back to the *front*,
  /// preserving order).
  void push_front(std::vector<ConsumptionRecord> records);

  [[nodiscard]] std::size_t size() const noexcept { return records_; }
  [[nodiscard]] bool empty() const noexcept { return records_ == 0; }
  /// Current footprint: sealed bytes + open head columns + staged records.
  [[nodiscard]] std::size_t bytes_used() const noexcept {
    return front_bytes_ + sealed_bytes_ + head_.open_bytes();
  }
  [[nodiscard]] std::size_t byte_budget() const noexcept {
    return options_.byte_budget;
  }
  /// Record-count cap (0 = uncapped).
  [[nodiscard]] std::size_t capacity() const noexcept {
    return options_.max_records;
  }
  /// Records lost to budget enforcement since construction (or the last
  /// reset_counters()).
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  /// High-water mark of buffered records.
  [[nodiscard]] std::size_t peak_size() const noexcept { return peak_; }
  /// Segments sealed since construction (compression activity).
  [[nodiscard]] std::uint64_t segments_sealed() const noexcept {
    return sealed_total_;
  }

  void clear() noexcept;
  /// Zeroes the "since construction" counters (dropped, peak, sealed).
  /// Registry mirrors are monotonic and unaffected.
  void reset_counters() noexcept;

  /// Optional registry mirror of the drop accounting: every budget-evicted
  /// record also bumps device_records_dropped at `slot` (the owning kernel
  /// shard).  The store's own counters stay authoritative — a store is
  /// single-threaded on its shard, so the plain fields are race-free; the
  /// mirror exists so a fleet's drops fold into one scrapeable number.
  void bind_metrics(obs::MetricsRegistry& reg, std::size_t slot = 0) {
    metrics_slot_ = slot;
    dropped_counter_ = reg.counter("device_records_dropped");
  }

 private:
  void seal_head();
  /// Drops the single oldest buffered record (staging a segment or draining
  /// the head into the front as needed to reach it).
  void drop_oldest_record();
  /// Whole-segment eviction + record drops until both caps hold.  Returns
  /// true if anything was dropped.  The newest record is never dropped.
  bool enforce_budget();
  /// Decodes the oldest sealed segment into the front staging deque.
  void stage_oldest_segment();
  /// Moves the open head's records into the front staging deque.
  void stage_head();
  [[nodiscard]] static std::size_t staged_cost(
      const ConsumptionRecord& r) noexcept;

  SeriesStoreOptions options_;
  std::deque<ConsumptionRecord> front_;
  std::size_t front_bytes_ = 0;
  std::deque<Segment> sealed_;
  std::size_t sealed_bytes_ = 0;
  SegmentBuilder head_;

  std::size_t records_ = 0;
  std::uint64_t dropped_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t sealed_total_ = 0;
  obs::Counter dropped_counter_;  // no-op until bind_metrics()
  std::size_t metrics_slot_ = 0;
};

}  // namespace emon::store
