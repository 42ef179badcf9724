#include "net/backhaul.hpp"

#include <queue>
#include <stdexcept>

namespace emon::net {

namespace {
/// Per-hop link-layer framing charged on top of the envelope bytes.
constexpr std::uint64_t kHopOverheadBytes = 64;
}  // namespace

// ---------------------------------------------------------------------------
// BackhaulFabric
// ---------------------------------------------------------------------------

void BackhaulFabric::attach_segment(std::size_t shard, Backhaul* segment) {
  if (segments_.size() <= shard) {
    segments_.resize(shard + 1, nullptr);
  }
  segments_[shard] = segment;
}

bool BackhaulFabric::add_node(const std::string& id, std::size_t shard,
                              Transport::Handler on_receive) {
  if (id.empty() || !on_receive) {
    throw std::invalid_argument("backhaul node needs id and handler");
  }
  if (shard >= segments_.size() || segments_[shard] == nullptr) {
    throw std::logic_error("backhaul node registered for an unknown shard");
  }
  Node node;
  node.shard = shard;
  node.handler = std::move(on_receive);
  return nodes_.emplace(id, std::move(node)).second;
}

void BackhaulFabric::add_link(const std::string& a, const std::string& b,
                              ChannelParams params) {
  auto ita = nodes_.find(a);
  auto itb = nodes_.find(b);
  if (ita == nodes_.end() || itb == nodes_.end()) {
    throw std::invalid_argument("backhaul link endpoints must be nodes");
  }
  const double cost_s =
      params.base_latency.to_seconds() + 0.5 * params.jitter.to_seconds();
  // Seeds are drawn a->b then b->a, in add_link call order: the same spec
  // wired sequentially or sharded produces identical per-channel RNGs.
  const util::Rng rng_ab{rng_.next()};
  const util::Rng rng_ba{rng_.next()};
  Backhaul& seg_a = *segments_.at(ita->second.shard);
  Backhaul& seg_b = *segments_.at(itb->second.shard);
  seg_a.channels_.emplace(
      std::make_pair(a, b),
      std::make_unique<Channel>(seg_a.kernel_, params, rng_ab));
  seg_b.channels_.emplace(
      std::make_pair(b, a),
      std::make_unique<Channel>(seg_b.kernel_, params, rng_ba));
  ita->second.peers.push_back(Peer{b, cost_s});
  itb->second.peers.push_back(Peer{a, cost_s});
  if (params.base_latency > sim::Duration{0} &&
      (min_link_latency_ == sim::Duration{0} ||
       params.base_latency < min_link_latency_)) {
    min_link_latency_ = params.base_latency;
  }
}

void BackhaulFabric::add_down_window(const std::string& id, sim::SimTime from,
                                     sim::SimTime to) {
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    throw std::invalid_argument("down window for unknown backhaul node");
  }
  it->second.down_windows.emplace_back(from, to);
}

bool BackhaulFabric::up_at(const std::string& id, sim::SimTime t) const {
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    return false;
  }
  for (const auto& [from, to] : it->second.down_windows) {
    if (t >= from && t < to) {
      return false;
    }
  }
  return true;
}

std::optional<std::vector<std::string>> BackhaulFabric::route(
    const std::string& from, const std::string& to, sim::SimTime t) const {
  const auto from_it = nodes_.find(from);
  const auto to_it = nodes_.find(to);
  if (from_it == nodes_.end() || to_it == nodes_.end() || !up_at(from, t) ||
      !up_at(to, t)) {
    return std::nullopt;
  }
  // Dijkstra over expected hop latency.
  std::map<std::string, double> dist;
  std::map<std::string, std::string> prev;
  using Item = std::pair<double, std::string>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[from] = 0.0;
  heap.emplace(0.0, from);
  while (!heap.empty()) {
    const auto [d, id] = heap.top();
    heap.pop();
    if (d > dist[id]) {
      continue;
    }
    if (id == to) {
      break;
    }
    for (const auto& peer : nodes_.at(id).peers) {
      if (!up_at(peer.id, t)) {
        continue;  // partitioned hop
      }
      const double nd = d + peer.cost_s;
      const auto it = dist.find(peer.id);
      if (it == dist.end() || nd < it->second) {
        dist[peer.id] = nd;
        prev[peer.id] = id;
        heap.emplace(nd, peer.id);
      }
    }
  }
  if (dist.find(to) == dist.end()) {
    return std::nullopt;
  }
  std::vector<std::string> path{to};
  std::string cur = to;
  while (cur != from) {
    cur = prev.at(cur);
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<std::string> BackhaulFabric::nodes() const {
  std::vector<std::string> out;
  out.reserve(nodes_.size());
  for (const auto& [id, _] : nodes_) {
    out.push_back(id);
  }
  return out;
}

std::size_t BackhaulFabric::shard_of(const std::string& id) const {
  return nodes_.at(id).shard;
}

Backhaul& BackhaulFabric::segment_of(const std::string& id) const {
  return *segments_.at(nodes_.at(id).shard);
}

Transport::Handler& BackhaulFabric::handler_of(const std::string& id) {
  return nodes_.at(id).handler;
}

// ---------------------------------------------------------------------------
// Backhaul segment
// ---------------------------------------------------------------------------

Backhaul::Backhaul(sim::Kernel& kernel, util::Rng rng)
    : kernel_(kernel), fabric_(std::make_shared<BackhaulFabric>(rng)) {
  fabric_->attach_segment(0, this);
}

Backhaul::Backhaul(sim::Kernel& kernel, std::shared_ptr<BackhaulFabric> fabric,
                   std::size_t shard, sim::ShardedKernel* router)
    : kernel_(kernel),
      fabric_(std::move(fabric)),
      shard_(shard),
      router_(router) {
  fabric_->attach_segment(shard_, this);
}

bool Backhaul::add_node(const std::string& id, Handler on_receive) {
  return fabric_->add_node(id, shard_, std::move(on_receive));
}

void Backhaul::add_link(const std::string& a, const std::string& b,
                        ChannelParams params) {
  fabric_->add_link(a, b, params);
}

bool Backhaul::node_up(const std::string& id) const {
  return fabric_->up_at(id, kernel_.now());
}

std::optional<std::vector<std::string>> Backhaul::route(
    const std::string& from, const std::string& to) const {
  return fabric_->route(from, to, kernel_.now());
}

Channel* Backhaul::channel(const std::string& from, const std::string& to) {
  const auto it = channels_.find(std::make_pair(from, to));
  return it == channels_.end() ? nullptr : it->second.get();
}

bool Backhaul::send(Frame frame, AckFn on_ack) {
  auto path = fabric_->route(frame.from, frame.to, kernel_.now());
  if (!path || path->empty()) {
    note_dropped();
    if (on_ack) {
      on_ack(false);
    }
    return false;
  }
  note_sent(kernel_.now(), frame.bytes.size());
  // Drop the source node; what remains is the hop sequence to traverse.
  path->erase(path->begin());
  forward(std::move(frame), std::move(on_ack), std::move(*path));
  return true;
}

void Backhaul::deliver(const Frame& frame) {
  note_delivered(kernel_.now(), frame.bytes.size());
  fabric_->handler_of(frame.to)(frame);
}

// Hop-by-hop store-and-forward: each hop charges its channel's delay for
// the full frame (envelope header included — protocol overhead is part of
// the latency model), then the next node delivers or forwards further.
// `step(at)` always executes on the shard owning `at`; crossing into
// another shard goes through the sharded kernel's mailbox, stamped with the
// channel's reserved delivery time (>= the lookahead by construction).
struct Backhaul::Stepper : std::enable_shared_from_this<Backhaul::Stepper> {
  BackhaulFabric* fabric;
  Frame frame;
  AckFn on_ack;
  std::vector<std::string> path;  // nodes still to visit; back() == dest
  std::size_t next_index = 0;

  // Always runs on the shard owning `at` (cross-shard hops re-enter via the
  // mailbox), so the per-segment frame accounting it touches is owner-thread.
  void step(const std::string& at) EMON_OWNER_THREAD_CONTEXT {
    Backhaul& segment = fabric->segment_of(at);
    if (!fabric->up_at(at, segment.kernel_.now())) {
      // The node went down while the frame was in flight on a channel
      // toward it: the hop is lost.
      segment.note_dropped();
      if (on_ack) {
        on_ack(false);
      }
      return;
    }
    if (next_index >= path.size()) {
      segment.deliver(frame);
      if (on_ack) {
        on_ack(true);
      }
      return;
    }
    const std::string next = path[next_index];
    ++next_index;
    Channel* link = segment.channel(at, next);
    if (link == nullptr) {
      // Route invalidated mid-flight: drop.
      segment.note_dropped();
      if (on_ack) {
        on_ack(false);
      }
      return;
    }
    auto keep_alive = shared_from_this();
    const std::size_t next_shard = fabric->shard_of(next);
    if (next_shard == segment.shard_) {
      const bool sent = link->send(
          frame.bytes.size() + kHopOverheadBytes,
          [keep_alive, next](std::uint64_t) { keep_alive->step(next); });
      if (!sent) {
        // Channel-level drop (loss or closed link): the frame is gone.
        segment.note_dropped();
        if (on_ack) {
          on_ack(false);
        }
      }
      return;
    }
    // Cross-shard hop: reserve the delay here (identical RNG draws to a
    // local send) and continue on the owning shard at the arrival instant.
    const auto deliver_at =
        link->reserve_delivery(frame.bytes.size() + kHopOverheadBytes);
    if (!deliver_at) {
      segment.note_dropped();
      if (on_ack) {
        on_ack(false);
      }
      return;
    }
    if (segment.router_ == nullptr) {
      throw std::logic_error(
          "cross-shard backhaul hop without a sharded kernel router");
    }
    segment.router_->post(segment.shard_, next_shard, *deliver_at,
                          [keep_alive, next] { keep_alive->step(next); });
  }
};

void Backhaul::forward(Frame frame, AckFn on_ack,
                       std::vector<std::string> remaining_path) {
  auto stepper = std::make_shared<Stepper>();
  stepper->fabric = fabric_.get();
  stepper->frame = std::move(frame);
  stepper->on_ack = std::move(on_ack);
  stepper->path = std::move(remaining_path);
  if (stepper->path.empty()) {
    // Self-send: deliver asynchronously with zero transport cost.
    kernel_.schedule_in(sim::Duration{0}, [stepper] {
      stepper->fabric->segment_of(stepper->frame.to).deliver(stepper->frame);
      if (stepper->on_ack) {
        stepper->on_ack(true);
      }
    });
    return;
  }
  stepper->step(stepper->frame.from);
}

}  // namespace emon::net
