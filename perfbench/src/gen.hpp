#pragma once
// Seeded input generator for the serving workloads: a metro_fleet-shaped
// device population reporting one Report frame per device per event-second,
// and the close-due index that dates every window push from the generator's
// own schedule.
//
// Population properties (shares are measured back by Tally):
//   * `networks` home networks, devices spread round-robin;
//   * one Report frame per device per event-second, ten 100 ms records;
//   * 1 in kRoamerOneIn devices roams: kRoamAwayS seconds of every
//     kRoamPeriodS it reports from a visited network, and that slice is
//     held and sent as one late frame when it comes home;
//   * each record is offline-flushed with probability kOfflineShare;
//   * each frame is retransmitted (an exact duplicate later in the same
//     event-second) with probability kDupShare;
//   * at event-second 0 each device first flushes a backlog of up to
//     kBacklogMax older records.  Its seeded length staggers the devices'
//     record counts, so store segments seal spread over time rather than in
//     a fleet-wide storm every seal_threshold records.
// Every value is a pure function of (seed, device, event-second), so any
// second can be regenerated independently and the same seed always yields
// the same bytes.

#include <cstdint>
#include <vector>

#include "core/records.hpp"

namespace pb {

struct PopulationSpec {
  std::size_t devices = 4000;
  std::size_t networks = 32;
  std::uint64_t seed = 1;
};

/// Event time of second 0.
inline constexpr std::int64_t kBaseNs = 1'000'000'000'000;
inline constexpr std::uint32_t kRoamerOneIn = 8;
inline constexpr std::uint32_t kRoamPeriodS = 16;
inline constexpr std::uint32_t kRoamAwayS = 3;
inline constexpr double kOfflineShare = 0.2;
inline constexpr double kDupShare = 0.01;
inline constexpr std::uint32_t kBacklogMax = 256;
inline constexpr std::size_t kRecordsPerFrame = 10;
inline constexpr std::int64_t kRecordIntervalNs = 100'000'000;
inline constexpr std::int64_t kSecondNs = 1'000'000'000;

/// One encoded uplink frame plus what the generator knows about it.
struct Frame {
  std::vector<std::uint8_t> bytes;
  std::uint32_t device = 0;
  std::uint32_t records = 0;
  std::uint32_t offline_records = 0;
  /// Newest record timestamp in the frame.
  std::int64_t max_ts_ns = 0;
  /// An exact retransmit of an earlier frame (every record is a duplicate).
  bool duplicate = false;
  /// A roamer's held slice, arriving after later seconds were sent.
  bool roamed_slice = false;
};

class Population {
 public:
  explicit Population(PopulationSpec spec);

  [[nodiscard]] const PopulationSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::size_t size() const noexcept { return ids_.size(); }
  [[nodiscard]] const emon::core::DeviceId& id(std::size_t d) const {
    return ids_[d];
  }
  [[nodiscard]] std::size_t home(std::size_t d) const noexcept {
    return d % spec_.networks;
  }
  [[nodiscard]] const emon::core::NetworkId& network_name(std::size_t n) const {
    return network_names_[n];
  }
  /// Device ids homed on network n, sorted (a presorted QuerySpec list).
  [[nodiscard]] const std::vector<emon::core::DeviceId>& network_devices(
      std::size_t n) const {
    return network_devices_[n];
  }
  /// True when device d is away from home during event-second s.
  [[nodiscard]] bool away(std::size_t d, std::int64_t s) const;

  /// The ten records device d measures during event-second s.
  [[nodiscard]] std::vector<emon::core::ConsumptionRecord> records(
      std::size_t d, std::int64_t s) const;

  /// The distinct records device d sends during event-seconds
  /// [0, seconds), in send order — what a store that accepted every frame
  /// of those seconds holds for it, in acceptance order.
  [[nodiscard]] std::vector<emon::core::ConsumptionRecord> sent_records(
      std::size_t d, std::int64_t seconds) const;

  /// Appends, in send order, every frame sent during event-second s.
  void frames_for_second(std::int64_t s, std::vector<Frame>& out) const;

 private:
  /// The start-up backlog of device d: its last backlog_[d] records before
  /// event-second 0.
  [[nodiscard]] std::vector<emon::core::ConsumptionRecord> backlog(
      std::size_t d) const;
  /// Records a roamer held while away, sent on coming home at second s.
  [[nodiscard]] std::vector<emon::core::ConsumptionRecord> held_slice(
      std::size_t d, std::int64_t s) const;
  /// Calls emit(records, roamed_slice) for each frame device d sends in
  /// event-second s, in send order, retransmits excluded.
  template <class Emit>
  void device_frames(std::size_t d, std::int64_t s, Emit&& emit) const;

  PopulationSpec spec_;
  std::vector<emon::core::DeviceId> ids_;
  std::vector<emon::core::NetworkId> network_names_;
  std::vector<std::vector<emon::core::DeviceId>> network_devices_;
  std::vector<std::uint8_t> roams_;
  std::vector<std::uint32_t> roam_phase_;
  std::vector<std::uint32_t> visited_;
  std::vector<std::int64_t> offset_ns_;
  std::vector<std::uint32_t> backlog_;
};

/// Threads generate() runs, each encoding whole event-seconds.
inline constexpr std::int64_t kEncoderThreads = 4;

/// Frames for event-seconds [first, first + count) in send order, encoded
/// on up to kEncoderThreads threads.
[[nodiscard]] std::vector<Frame> generate(const Population& pop,
                                          std::int64_t first,
                                          std::int64_t count);

/// Running tally of the frames sent: the totals the accounting checks
/// compare with the pipeline's counters, and the measured workload
/// properties.
class Tally {
 public:
  void add(const Frame& f);

  std::uint64_t frames = 0;
  std::uint64_t records = 0;
  std::uint64_t unique_records = 0;
  std::uint64_t duplicate_frames = 0;
  std::uint64_t offline_records = 0;  // among unique records
  std::uint64_t late_records = 0;     // records in roamed (late) slices

  /// Share of `devices` that sent a roamed slice.
  [[nodiscard]] double roamer_share(std::size_t devices) const;

 private:
  std::vector<bool> sent_slice_;
};

/// Close-due index.  Frames are added in send order with the time their
/// delay counts from (due or send attempt); the running maximum record
/// timestamp is the store's watermark once a frame is ingested.  A window
/// [E - W, E) with lateness L closes when the watermark reaches E + L, so
/// the first frame reaching E + L is the one whose arrival makes that push
/// due.  Only frames that raise the watermark are kept.
class CloseIndex {
 public:
  /// `start_watermark`: the watermark before the first added frame; close
  /// points at or below it were reached before the index began.
  explicit CloseIndex(std::int64_t start_watermark = INT64_MIN)
      : start_(start_watermark) {}
  void add(std::int64_t max_ts_ns, std::int64_t time_ns);
  static constexpr std::int64_t npos = INT64_MIN;
  /// Time of the first added frame after which the watermark is
  /// >= close_ns; npos when it was reached before the index began or not
  /// at all.
  [[nodiscard]] std::int64_t first_reaching(std::int64_t close_ns) const;

 private:
  std::int64_t start_;
  std::vector<std::int64_t> max_ts_;
  std::vector<std::int64_t> time_;
};

/// Order-sensitive digest of a frame sequence's bytes (FNV-1a).
[[nodiscard]] std::uint64_t digest(const std::vector<Frame>& frames);

}  // namespace pb
