#pragma once
// Backhaul mesh between aggregators.
//
// "The aggregators are interconnected through a mesh/cloud network to
// exchange consumption data of the devices connected to them." (§I)  The
// paper assumes a high-bandwidth backhaul with ~1 ms inter-aggregator delay
// (§III-B).  The model is a graph of point-to-point links; multi-hop
// messages are routed over the minimum-latency path (Dijkstra) and each hop
// is a `Channel` with its own latency/bandwidth.
//
// Sharded execution: the graph is split into per-shard *segments* sharing
// one immutable `BackhaulFabric` (topology, per-edge channel seeds, fault
// windows).  Each segment owns the outgoing channels of its nodes on its
// own kernel; a hop whose next node lives on another shard reserves the
// channel delay locally (same RNG draws as a sequential run) and posts the
// continuation to the destination shard as a time-stamped mailbox delivery
// — the minimum link latency is exactly the conservative lookahead the
// sharded kernel synchronizes on.  A standalone `Backhaul{kernel, rng}`
// owns a private single-segment fabric and behaves as it always did.
//
// Scripted partitions (fault injection from a ScenarioSpec) are *static
// down-windows* on the fabric: `up_at(node, t)` is a pure function of the
// scenario, so routing decisions made concurrently on different shards
// agree without sharing mutable flags.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/channel.hpp"
#include "net/transport.hpp"
#include "sim/kernel.hpp"
#include "sim/sharded_kernel.hpp"
#include "util/rng.hpp"

namespace emon::net {

class Backhaul;

/// Topology + routing state shared by every segment of one mesh.
/// Immutable after wiring (nodes, links, windows are added while the
/// scenario is constructed, single-threaded).
class BackhaulFabric {
 public:
  explicit BackhaulFabric(util::Rng rng) : rng_(rng) {}

  /// Registers `segment` as the executor for `shard`.
  void attach_segment(std::size_t shard, Backhaul* segment);

  bool add_node(const std::string& id, std::size_t shard,
                Transport::Handler on_receive);
  void add_link(const std::string& a, const std::string& b,
                ChannelParams params);

  /// Scripted partition: `id` is down during [from, to).  A node is down
  /// at `t` if any of its windows covers `t`.
  void add_down_window(const std::string& id, sim::SimTime from,
                       sim::SimTime to);

  [[nodiscard]] bool up_at(const std::string& id, sim::SimTime t) const;

  [[nodiscard]] std::optional<std::vector<std::string>> route(
      const std::string& from, const std::string& to, sim::SimTime t) const;

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::vector<std::string> nodes() const;
  [[nodiscard]] std::size_t shard_of(const std::string& id) const;
  [[nodiscard]] Backhaul& segment_of(const std::string& id) const;
  [[nodiscard]] Transport::Handler& handler_of(const std::string& id);

  /// Smallest base latency over all links — the safe conservative
  /// lookahead for cross-shard traffic (zero when no links exist yet).
  [[nodiscard]] sim::Duration min_link_latency() const noexcept {
    return min_link_latency_;
  }

 private:
  friend class Backhaul;

  struct Peer {
    std::string id;
    double cost_s = 0.0;  // expected one-way latency, for routing
  };
  struct Node {
    std::size_t shard = 0;
    Transport::Handler handler;
    std::vector<Peer> peers;
    std::vector<std::pair<sim::SimTime, sim::SimTime>> down_windows;
  };

  util::Rng rng_;  // draws per-edge channel seeds, in add_link order
  std::map<std::string, Node> nodes_;
  std::vector<Backhaul*> segments_;
  sim::Duration min_link_latency_{0};
};

/// One shard's segment of the mesh, as a Transport whose addresses are node
/// ids.  The classic standalone constructor wires a single-segment fabric.
class Backhaul : public Transport {
 public:
  using Handler = Transport::Handler;

  /// Standalone (sequential) mesh: one segment that owns everything.
  Backhaul(sim::Kernel& kernel, util::Rng rng);

  /// One segment of a sharded mesh.  `router` posts cross-shard hop
  /// continuations; it may be null for single-shard fabrics.
  Backhaul(sim::Kernel& kernel, std::shared_ptr<BackhaulFabric> fabric,
           std::size_t shard, sim::ShardedKernel* router);

  /// Registers a node (aggregator) executed by this segment's shard.
  /// Returns false if the id exists.
  bool add_node(const std::string& id, Handler on_receive);

  /// Adds a bidirectional link.  Both nodes must exist.  The two directed
  /// channels are created on their owning segments' kernels, with seeds
  /// drawn in registration order (sharded and sequential wirings of the
  /// same spec draw identical per-channel seeds).
  void add_link(const std::string& a, const std::string& b,
                ChannelParams params);

  /// False while one of the fabric's down-windows covers now (and for an
  /// unknown id).  A down node neither originates, forwards nor receives
  /// frames; routes through it are recomputed around it, and frames caught
  /// mid-flight at a downed hop are dropped (ack false).
  [[nodiscard]] bool node_up(const std::string& id) const;

  /// Sends a frame; it is routed over the min-latency path and delivered to
  /// the destination's handler after the cumulative hop delays.  `on_ack`
  /// fires true at delivery, false if no route exists or the route breaks
  /// mid-flight; when the route crosses shards it fires on the shard that
  /// observes the outcome.  Returns false when unroutable (frame dropped).
  /// Runs on this segment's shard thread (EMON_OWNER_THREAD_CONTEXT): the
  /// frame accounting it touches is that shard's single-owner state.
  bool send(Frame frame, AckFn on_ack) override EMON_OWNER_THREAD_CONTEXT;
  using Transport::send;

  [[nodiscard]] std::string transport_name() const override {
    return "backhaul";
  }

  /// Min-latency route between two nodes (node ids, inclusive) at the
  /// segment's current time, or nullopt.
  [[nodiscard]] std::optional<std::vector<std::string>> route(
      const std::string& from, const std::string& to) const;

  [[nodiscard]] std::size_t node_count() const noexcept {
    return fabric_->node_count();
  }
  /// Ids of all registered nodes (for broadcast fan-out).
  [[nodiscard]] std::vector<std::string> nodes() const {
    return fabric_->nodes();
  }
  [[nodiscard]] std::uint64_t messages_sent() const noexcept {
    return transport_stats().frames_sent;
  }
  [[nodiscard]] std::uint64_t messages_delivered() const noexcept {
    return transport_stats().frames_delivered;
  }

  [[nodiscard]] BackhaulFabric& fabric() noexcept { return *fabric_; }
  [[nodiscard]] std::size_t shard() const noexcept { return shard_; }

 private:
  friend class BackhaulFabric;
  struct Stepper;

  void deliver(const Frame& frame) EMON_OWNER_THREAD;
  void forward(Frame frame, AckFn on_ack,
               std::vector<std::string> remaining_path)
      EMON_OWNER_THREAD_CONTEXT;
  [[nodiscard]] Channel* channel(const std::string& from,
                                 const std::string& to);

  sim::Kernel& kernel_;
  std::shared_ptr<BackhaulFabric> fabric_;
  std::size_t shard_ = 0;
  sim::ShardedKernel* router_ = nullptr;
  /// Outgoing channels of this segment's nodes: (from, to) -> channel.
  std::map<std::pair<std::string, std::string>, std::unique_ptr<Channel>>
      channels_;
};

}  // namespace emon::net
