#include "store/series_store.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace emon::store {

SeriesStore::SeriesStore(SeriesStoreOptions options) : options_(options) {
  if (options_.byte_budget == 0 && options_.max_records == 0) {
    throw std::invalid_argument("SeriesStore needs a byte or record budget");
  }
  if (options_.seal_threshold == 0) {
    throw std::invalid_argument("SeriesStore seal_threshold must be positive");
  }
}

std::size_t SeriesStore::staged_cost(const ConsumptionRecord& r) noexcept {
  // The serialize_record() wire size: fixed fields + two length-prefixed
  // strings.  Staged (uncompressed) records are accounted at this cost so
  // the byte budget stays comparable before and after compression.
  return core::kRecordWireFixedBytes + r.device_id.size() + r.network.size();
}

bool SeriesStore::push(ConsumptionRecord record) {
  head_.append(record);
  ++records_;
  if (head_.count() >= options_.seal_threshold) {
    seal_head();
  }
  const bool dropped_any = enforce_budget();
  peak_ = std::max(peak_, records_);
  return !dropped_any;
}

std::vector<ConsumptionRecord> SeriesStore::pop_batch(
    std::size_t max_records) {
  const std::size_t n = std::min(max_records, records_);
  std::vector<ConsumptionRecord> out;
  out.reserve(n);
  while (out.size() < n) {
    if (front_.empty()) {
      if (!sealed_.empty()) {
        stage_oldest_segment();
      } else {
        stage_head();
      }
    }
    front_bytes_ -= staged_cost(front_.front());
    out.push_back(std::move(front_.front()));
    front_.pop_front();
    --records_;
  }
  return out;
}

void SeriesStore::push_front(std::vector<ConsumptionRecord> records) {
  // Reinsert preserving order: the first element of `records` becomes the
  // overall head again.
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    front_bytes_ += staged_cost(*it);
    front_.push_front(std::move(*it));
    ++records_;
  }
  enforce_budget();
  peak_ = std::max(peak_, records_);
}

void SeriesStore::seal_head() {
  if (head_.empty()) {
    return;
  }
  Segment seg = head_.seal();
  sealed_bytes_ += seg.byte_size();
  sealed_.push_back(std::move(seg));
  ++sealed_total_;
}

void SeriesStore::stage_oldest_segment() {
  Segment seg = std::move(sealed_.front());
  sealed_.pop_front();
  sealed_bytes_ -= seg.byte_size();
  for (auto& rec : seg.decode_all()) {
    front_bytes_ += staged_cost(rec);
    front_.push_back(std::move(rec));
  }
}

void SeriesStore::stage_head() {
  for (auto& rec : head_.drain()) {
    front_bytes_ += staged_cost(rec);
    front_.push_back(std::move(rec));
  }
}

void SeriesStore::drop_oldest_record() {
  if (front_.empty()) {
    if (!sealed_.empty()) {
      stage_oldest_segment();
    } else {
      stage_head();
    }
  }
  front_bytes_ -= staged_cost(front_.front());
  front_.pop_front();
  --records_;
  ++dropped_;
  dropped_counter_.inc(metrics_slot_);
}

bool SeriesStore::enforce_budget() {
  bool dropped_any = false;
  // Record cap: exact FIFO semantics, oldest dropped first.
  while (options_.max_records > 0 && records_ > options_.max_records) {
    drop_oldest_record();
    dropped_any = true;
  }
  // Byte budget: evict the oldest *container* — staged records first (they
  // are oldest), then whole sealed segments without decoding them.  Always
  // keep the newest record.
  while (options_.byte_budget > 0 && records_ > 1 &&
         bytes_used() > options_.byte_budget) {
    if (!front_.empty()) {
      drop_oldest_record();
    } else if (sealed_.size() > 1 || (!sealed_.empty() && !head_.empty())) {
      // Whole-segment eviction, without decoding.  Accounting must stay
      // exact: every record in a sealed segment is counted in records_
      // (stage_oldest_segment removes a segment from sealed_ the moment any
      // of its records move to the front staging deque, so a record can
      // never be counted here *and* by the stage-and-drop path), and
      // builder-sealed segments keep summary count == payload count.  A
      // silent clamp would let any future divergence inflate dropped_ and
      // break the push == popped + size + dropped conservation contract —
      // assert instead.
      const Segment seg = std::move(sealed_.front());
      sealed_.pop_front();
      const auto count = static_cast<std::size_t>(seg.count());
      assert(count <= records_ &&
             "sealed segment summary exceeds the store's record count");
      sealed_bytes_ -= seg.byte_size();
      records_ -= count;
      dropped_ += count;
      dropped_counter_.add(count, metrics_slot_);
    } else {
      // The newest record lives in the only remaining container (the last
      // sealed segment, or the open head): stage it and drop record by
      // record so the newest is never evicted wholesale.
      drop_oldest_record();
    }
    dropped_any = true;
  }
  return dropped_any;
}

void SeriesStore::clear() noexcept {
  front_.clear();
  front_bytes_ = 0;
  sealed_.clear();
  sealed_bytes_ = 0;
  head_.clear();
  records_ = 0;
}

void SeriesStore::reset_counters() noexcept {
  dropped_ = 0;
  sealed_total_ = 0;
  peak_ = records_;
}

}  // namespace emon::store
