#pragma once
// Device-level consensus — the paper's future-work extension.
//
// "In a truly decentralized network, the aggregators' role could be
// performed by the devices themselves having a consensus among themselves.
// In that case, the consumption data must be broadcast to the network and a
// common blockchain is formed once a consensus is achieved among them."
// (§II-A; also §IV "Addition of consensus among devices ... is planned.")
//
// Implementation: rotating-leader quorum voting (a PBFT-lite without view
// changes): per round the leader proposes a block over the round's record
// pool; members check it with chain::check_extends (the rule their replicas
// append by) and vote; on >= quorum YES votes the leader commits and
// broadcasts the block, which every honest member appends to its replica.
// Crash-faulty members stay silent; rounds without quorum fail and their
// records carry over.
//
// The ext_consensus bench compares this against the trusted-aggregator
// chain on commit latency and message count.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "chain/ledger.hpp"
#include "net/channel.hpp"
#include "sim/kernel.hpp"
#include "sim/timer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace emon::core {

struct ConsensusParams {
  /// Link characteristics between devices (device-to-device radio).
  net::ChannelParams link{sim::milliseconds(3), sim::milliseconds(4), 0.0,
                          sim::milliseconds(200), 2e6};
  /// Round cadence.
  sim::Duration round_interval = sim::seconds(1);
  /// Vote collection deadline within a round.
  sim::Duration vote_timeout = sim::milliseconds(500);
  /// Quorum as a fraction of the member count (majority by default).
  double quorum_fraction = 0.5;
};

struct ConsensusMetrics {
  std::uint64_t rounds_started = 0;
  std::uint64_t rounds_committed = 0;
  std::uint64_t rounds_failed = 0;
  std::uint64_t messages_sent = 0;
  util::SampleSet commit_latency_s;
};

/// A closed group of metering devices running consensus rounds.
class ConsensusGroup {
 public:
  ConsensusGroup(sim::Kernel& kernel, std::size_t members,
                 ConsensusParams params, util::Rng rng);

  /// Submits a record into the shared pool (the "broadcast" of consumption
  /// data; the model hands it to all live members at proposal time).
  void submit(chain::RecordBytes record);

  /// Marks a member crash-faulty (silent).  Clearing restores it.
  void set_faulty(std::size_t member, bool faulty);

  /// Starts periodic rounds.
  void start();
  void stop();

  /// Runs exactly one round now (for tests).
  void run_round();

  [[nodiscard]] std::size_t member_count() const noexcept {
    return members_.size();
  }
  [[nodiscard]] std::size_t quorum() const noexcept;
  [[nodiscard]] const ConsensusMetrics& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] const chain::Ledger& replica(std::size_t member) const;
  /// True when every pair of honest replicas is prefix-consistent.
  [[nodiscard]] bool replicas_consistent() const;

 private:
  struct Member {
    chain::Ledger replica;
    bool faulty = false;
  };

  struct RoundState {
    std::uint64_t round = 0;
    std::size_t leader = 0;
    chain::Block proposal;
    std::size_t yes_votes = 0;
    bool committed = false;
    sim::SimTime started{};
  };

  void send(std::size_t from, std::size_t to, std::uint64_t bytes,
            std::function<void()> deliver);
  void on_proposal(std::size_t member, const chain::Block& block,
                   std::uint64_t round);
  void on_vote(std::uint64_t round, bool yes);
  void on_commit(std::size_t member, const chain::Block& block);
  void finish_round(bool committed);

  sim::Kernel& kernel_;
  ConsensusParams params_;
  util::Rng rng_;
  std::vector<Member> members_;
  std::vector<chain::RecordBytes> pool_;
  std::uint64_t next_round_ = 0;
  std::optional<RoundState> active_;
  std::unique_ptr<sim::PeriodicTimer> round_timer_;
  std::unique_ptr<sim::OneShotTimer> vote_timer_;
  ConsensusMetrics metrics_;
};

}  // namespace emon::core
