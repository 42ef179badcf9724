#pragma once
// Push-based live dashboard subscriptions (the aggregator side).
//
// A dashboard client publishes a SubscribeRequest envelope on emon/sub and
// receives, on its own push topic (emon/push/<client_id>):
//   * one SubscribeAck (accepted with the window-grid anchor, or a reject
//     with a reason), then
//   * one RollupPush per closed window, until it unsubscribes.
//
// Every subscription is backed by a materialized rollup in the store's
// RollupEngine; subscriptions with identical window geometry, scope and
// filter *share* one rollup (refcounted), so N dashboards watching the same
// fleet view cost one maintained fold.  pump() — called by the aggregator
// after each ingest batch — drains closed windows and fans each one out to
// its subscribers as pre-encoded frames.
//
// Wire doubles travel as IEEE-754 bit patterns, and the engine's windows
// are bit-identical to cold fleet queries (store/rollup.hpp), so a decoded
// push compares == to QueryEngine::aggregate over the same range — the
// differential tests pin exactly that.
//
// Colocated consumers (the aggregator's billing preview) use
// subscribe_local(): same rollup sharing, no MQTT hop — the callback runs
// inside pump().

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/messages.hpp"
#include "net/mqtt.hpp"
#include "store/query_engine.hpp"
#include "store/rollup.hpp"
#include "util/thread_annotations.hpp"

namespace emon::core {

struct SubscriptionStats {
  std::uint64_t subscriptions_accepted = 0;
  std::uint64_t subscriptions_rejected = 0;
  std::uint64_t unsubscribes = 0;
  /// Frames on emon/sub that failed envelope or payload decode.
  std::uint64_t malformed_frames = 0;
  /// Well-formed frames of a type that does not belong on emon/sub.
  std::uint64_t unexpected_frames = 0;
  /// RollupPush frames published (one per subscriber per closed window).
  std::uint64_t pushes_sent = 0;
  /// Closed windows fanned out (counted once however many subscribers).
  std::uint64_t windows_pushed = 0;
  /// Local (in-process) callbacks invoked.
  std::uint64_t local_deliveries = 0;
};

class SubscriptionService {
 public:
  /// A local subscriber's per-window callback.
  using LocalHandler = std::function<void(const store::ClosedWindow&)>;

  /// Binds to the aggregator's broker and rollup engine.  `anchor_ns` pins
  /// the window grid every subscription shares (the aggregator passes its
  /// start time, aligning push windows with its verification windows).
  /// `pool` (may be null) parallelizes window folds on drain.  `metrics`
  /// (may be null) receives the pump timer (sub_pump_ns), the sim-time
  /// report-to-push latency histogram (e2e_report_to_push_ns: push fan-out
  /// time minus the window's newest record timestamp) and the watermark-lag
  /// gauge (rollup_watermark_lag_ns: sim now minus the oldest rollup
  /// watermark, refreshed each pump).
  SubscriptionService(net::MqttBroker& broker, store::RollupEngine& engine,
                      std::int64_t anchor_ns, std::int64_t default_lateness_ns,
                      const store::QueryPool* pool = nullptr,
                      obs::MetricsRegistry* metrics = nullptr);

  SubscriptionService(const SubscriptionService&) = delete;
  SubscriptionService& operator=(const SubscriptionService&) = delete;
  ~SubscriptionService();

  /// Registers the emon/sub local handler on the broker.  Idempotent by
  /// construction order (call once, from Aggregator's constructor).
  /// The whole mutating surface below is owner-thread-only (the thread
  /// driving the rollup engine); EMON_OWNER_THREAD is enforced by
  /// tools/emon_lint.py.
  void attach() EMON_OWNER_THREAD;

  /// Drains every backing rollup and publishes the closed windows to their
  /// subscribers (and local handlers).  The aggregator calls this after
  /// ingest activity; cost is O(1) when no window closed.
  void pump() EMON_OWNER_THREAD;

  /// In-process subscription: `handler` runs inside pump() for every closed
  /// window of the rollup described by `spec`.  Shares rollups with MQTT
  /// subscribers on spec equality.  Returns a handle for unsubscribe_local.
  std::uint64_t subscribe_local(store::RollupSpec spec, LocalHandler handler)
      EMON_OWNER_THREAD;
  void unsubscribe_local(std::uint64_t handle) EMON_OWNER_THREAD;
  /// Rollup id backing a local subscription (0 if the handle is unknown) —
  /// lets the owner read that rollup's RollupEngine::stats.
  [[nodiscard]] std::uint64_t backing_rollup(std::uint64_t handle) const;

  [[nodiscard]] const SubscriptionStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] std::size_t active_subscriptions() const noexcept {
    return remote_.size() + local_.size();
  }
  /// Backing rollups currently maintained (shared specs collapse).
  [[nodiscard]] std::size_t active_rollups() const noexcept {
    return rollups_.size();
  }

 private:
  /// One refcounted backing rollup (keyed by spec equality).
  struct BackingRollup {
    store::RollupSpec spec;
    std::uint64_t rollup_id = 0;
    std::size_t refs = 0;
  };
  /// One remote (MQTT) subscriber of a backing rollup.
  struct RemoteSub {
    std::string client_id;
    std::uint64_t subscription_id = 0;  // client-chosen, echoed in pushes
    std::uint64_t rollup_id = 0;
    bool include_per_device = false;
  };
  struct LocalSub {
    std::uint64_t handle = 0;
    std::uint64_t rollup_id = 0;
    LocalHandler handler;
  };

  void handle_frame(const net::MqttMessage& msg) EMON_OWNER_THREAD;
  void handle_subscribe(const SubscribeRequest& req) EMON_OWNER_THREAD;
  void handle_unsubscribe(const Unsubscribe& req) EMON_OWNER_THREAD;
  /// Acquires (or refs) the backing rollup for `spec`; 0 on registration
  /// failure (invalid spec).
  std::uint64_t acquire_rollup(store::RollupSpec spec) EMON_OWNER_THREAD;
  void release_rollup(std::uint64_t rollup_id) EMON_OWNER_THREAD;
  void publish(const std::string& client_id, std::vector<std::uint8_t> frame);

  net::MqttBroker& broker_;
  store::RollupEngine& engine_;
  std::int64_t anchor_ns_;
  std::int64_t default_lateness_ns_;
  const store::QueryPool* pool_;
  std::vector<BackingRollup> rollups_;
  /// Remote subs keyed by (client_id, subscription_id) — a re-subscribe
  /// with the same key replaces the old subscription.
  std::map<std::pair<std::string, std::uint64_t>, RemoteSub> remote_;
  std::vector<LocalSub> local_;
  std::uint64_t next_local_handle_ = 1;
  SubscriptionStats stats_;
  // Registry instruments (no-ops when constructed without a registry).
  obs::Histogram pump_ns_;
  obs::Histogram e2e_report_to_push_ns_;
  obs::Gauge watermark_lag_ns_;
};

/// Builds the wire form of a closed window for one subscription.  Exposed
/// for the differential tests (decode(push) == from_closed_window(window)).
[[nodiscard]] RollupPush to_push(const store::ClosedWindow& window,
                                 std::uint64_t subscription_id,
                                 bool include_per_device);

}  // namespace emon::core
