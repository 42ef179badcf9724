#pragma once
// Pluggable frame transport.
//
// Everything that moves protocol envelopes — the MQTT client/broker pair on
// the device<->aggregator path and the inter-aggregator backhaul — speaks
// this one interface.  Applications hand a sealed envelope to `send()` and
// receive whole frames back; the transport owns addressing (topic or node
// id), delivery scheduling and loss, and accounts every frame's byte size
// so protocol overhead shows up in transport stats and trace series.
//
// Today's implementations are in-process simulation loopbacks riding
// `Channel`s; a socket or multi-process backend drops in by implementing
// `send()` against the same Frame contract.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "sim/trace.hpp"
#include "util/thread_annotations.hpp"


namespace emon::net {

/// One protocol envelope in flight between two endpoints.  `to` is a
/// transport-level address: an MQTT topic on the pub/sub path, a node id on
/// the backhaul.  `bytes` is a sealed protocol::Envelope frame.
struct Frame {
  std::string from;
  std::string to;
  std::vector<std::uint8_t> bytes;
  /// Delivery-effort hint: 0 = fire-and-forget, 1 = acknowledged
  /// (MQTT QoS semantics; transports without acks treat 1 as 0).
  std::uint8_t qos = 0;
};

/// Frame/byte accounting every transport keeps, envelope overhead included.
/// Plain fields, deliberately: a transport belongs to exactly one kernel
/// shard and every note_* call runs on that shard's event thread, so there
/// is no concurrent writer to race with — the note_* mutators below carry
/// EMON_OWNER_THREAD so tools/emon_lint.py rejects calls from outside that
/// thread's sanctioned surface.  Cross-shard roll-ups read these
/// only at sync points (shard barriers / end of run).  This stays true
/// under the concurrent serving path: its query threads read the MVCC
/// store directly (core/serve_pipeline.hpp) and never touch a transport,
/// so the single-owner contract here is unchanged — unlike the old
/// TsdbStats single-thread claim, which the epoch/snapshot contract in
/// store/tsdb.hpp replaced.
struct TransportStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
  /// Fan-out copies served from one serialized wire frame (broker beacon/
  /// push broadcast): recipients 2..N of a publish.  Counted separately
  /// from frames_sent so envelope-overhead figures show what batching
  /// saved without hiding that the copies were delivered.
  std::uint64_t frames_coalesced = 0;
  std::uint64_t bytes_coalesced = 0;
};

class Transport {
 public:
  using Handler = std::function<void(const Frame&)>;
  /// `delivered` is transport-level: the frame was handed to the receiving
  /// endpoint (or positively acknowledged), not merely serialized.  Pub/sub
  /// transports with fan-out ack at dispatch time — true means the frame
  /// matched at least one subscriber, not that every copy arrived.
  using AckFn = std::function<void(bool delivered)>;

  virtual ~Transport() = default;

  /// Queues a frame for delivery.  Returns false (and fires `on_ack(false)`
  /// if provided) when the frame is unroutable or refused at send time.
  virtual bool send(Frame frame, AckFn on_ack) = 0;
  bool send(Frame frame) { return send(std::move(frame), nullptr); }

  /// Human-readable identity for logs ("backhaul", "mqtt:dev-1", ...).
  [[nodiscard]] virtual std::string transport_name() const = 0;

  [[nodiscard]] const TransportStats& transport_stats() const noexcept {
    return tstats_;
  }

  /// Mirrors tx/rx frame sizes into `<prefix>.tx_bytes` / `<prefix>.rx_bytes`
  /// trace series so wire overhead lands next to the latency data.  Both
  /// series are interned here, once.
  void bind_trace(sim::Trace* trace, const std::string& series_prefix);

 protected:
  void note_sent(sim::SimTime now, std::size_t bytes) EMON_OWNER_THREAD;
  void note_delivered(sim::SimTime now, std::size_t bytes) EMON_OWNER_THREAD;
  void note_dropped() noexcept EMON_OWNER_THREAD {
    ++tstats_.frames_dropped;
  }
  /// A fan-out copy that rode an already-counted wire frame: accounted as
  /// coalesced, not sent, and not mirrored into the tx trace (it put no new
  /// bytes on the wire).
  void note_coalesced(std::size_t bytes) noexcept EMON_OWNER_THREAD {
    ++tstats_.frames_coalesced;
    tstats_.bytes_coalesced += bytes;
  }

 private:
  TransportStats tstats_;
  sim::Trace* trace_ = nullptr;
  sim::SeriesId tx_series_;
  sim::SeriesId rx_series_;
};

}  // namespace emon::net
