#include "core/consensus.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace emon::core {

ConsensusGroup::ConsensusGroup(sim::Kernel& kernel, std::size_t members,
                               ConsensusParams params, util::Rng rng)
    : kernel_(kernel), params_(params), rng_(rng), members_(members) {
  if (members < 2) {
    throw std::invalid_argument("consensus needs at least two members");
  }
  vote_timer_ = std::make_unique<sim::OneShotTimer>(kernel_, [this] {
    if (active_ && !active_->committed) {
      finish_round(false);
    }
  });
}

std::size_t ConsensusGroup::quorum() const noexcept {
  // Strict majority of the configured fraction, at least 2 (the leader's
  // own vote never suffices alone).
  const auto needed = static_cast<std::size_t>(
      std::floor(params_.quorum_fraction * static_cast<double>(members_.size()))) +
      1;
  return std::max<std::size_t>(needed, 2);
}

void ConsensusGroup::submit(chain::RecordBytes record) {
  pool_.push_back(std::move(record));
}

void ConsensusGroup::set_faulty(std::size_t member, bool faulty) {
  members_.at(member).faulty = faulty;
}

void ConsensusGroup::start() {
  if (round_timer_) {
    return;
  }
  round_timer_ = std::make_unique<sim::PeriodicTimer>(
      kernel_, params_.round_interval, [this] { run_round(); });
  round_timer_->start();
}

void ConsensusGroup::stop() { round_timer_.reset(); }

void ConsensusGroup::send(std::size_t from, std::size_t to,
                          std::uint64_t bytes, std::function<void()> deliver) {
  (void)from;
  (void)to;
  ++metrics_.messages_sent;
  // A dedicated Channel per message keeps the model simple; jitter comes
  // from the shared rng.
  const double jitter_ns = rng_.uniform(
      0.0, static_cast<double>(params_.link.jitter.ns()));
  sim::Duration delay = params_.link.base_latency +
                        sim::nanoseconds(static_cast<std::int64_t>(jitter_ns));
  if (params_.link.bandwidth_bps > 0.0) {
    delay += sim::seconds_f(static_cast<double>(bytes) * 8.0 /
                            params_.link.bandwidth_bps);
  }
  kernel_.schedule_in(delay, std::move(deliver));
}

void ConsensusGroup::run_round() {
  if (active_ || pool_.empty()) {
    return;  // previous round still open, or nothing to commit
  }
  const std::uint64_t round = next_round_++;
  const std::size_t leader = round % members_.size();
  ++metrics_.rounds_started;

  RoundState state;
  state.round = round;
  state.leader = leader;
  state.started = kernel_.now();

  if (members_[leader].faulty) {
    // Crashed leader: silent round, records carry over.
    active_ = state;
    finish_round(false);
    return;
  }

  // Leader builds the proposal over the current pool on top of its replica.
  const chain::Ledger& ledger = members_[leader].replica;
  state.proposal =
      chain::make_block(ledger.size(), ledger.tip_hash(), kernel_.now().ns(),
                        "member-" + std::to_string(leader), pool_);
  state.yes_votes = 1;  // leader votes for its own proposal
  active_ = state;
  vote_timer_->arm(params_.vote_timeout);

  const std::uint64_t wire =
      chain::serialize_block(state.proposal).size();
  for (std::size_t m = 0; m < members_.size(); ++m) {
    if (m == leader) {
      continue;
    }
    const chain::Block proposal = state.proposal;
    send(leader, m, wire, [this, m, proposal, round] {
      on_proposal(m, proposal, round);
    });
  }
}

void ConsensusGroup::on_proposal(std::size_t member, const chain::Block& block,
                                 std::uint64_t round) {
  if (!active_ || active_->round != round || members_[member].faulty) {
    return;
  }
  // Validation: the ledger's own acceptance rule on this member's replica.
  const bool valid =
      chain::check_extends(members_[member].replica.tip(), block).ok;
  send(member, active_->leader, 96, [this, round, valid] {
    on_vote(round, valid);
  });
}

void ConsensusGroup::on_vote(std::uint64_t round, bool yes) {
  if (!active_ || active_->round != round || active_->committed) {
    return;
  }
  if (!yes) {
    return;
  }
  ++active_->yes_votes;
  if (active_->yes_votes < quorum()) {
    return;
  }
  // Quorum: leader commits and broadcasts.
  active_->committed = true;
  vote_timer_->disarm();
  const chain::Block block = active_->proposal;
  members_[active_->leader].replica.append_external(block);
  const std::uint64_t wire = chain::serialize_block(block).size();
  for (std::size_t m = 0; m < members_.size(); ++m) {
    if (m == active_->leader) {
      continue;
    }
    send(active_->leader, m, wire,
         [this, m, block] { on_commit(m, block); });
  }
  metrics_.commit_latency_s.add((kernel_.now() - active_->started).to_seconds());
  finish_round(true);
}

void ConsensusGroup::on_commit(std::size_t member, const chain::Block& block) {
  if (members_[member].faulty) {
    return;
  }
  members_[member].replica.append_external(block);
}

void ConsensusGroup::finish_round(bool committed) {
  if (!active_) {
    return;
  }
  if (committed) {
    ++metrics_.rounds_committed;
    // Remove exactly the records that were committed; submissions that
    // raced in after the proposal stay for the next round.
    const std::size_t committed_count = active_->proposal.records.size();
    pool_.erase(pool_.begin(),
                pool_.begin() + static_cast<std::ptrdiff_t>(std::min(
                                    committed_count, pool_.size())));
  } else {
    ++metrics_.rounds_failed;
    vote_timer_->disarm();
  }
  active_.reset();
}

const chain::Ledger& ConsensusGroup::replica(std::size_t member) const {
  return members_.at(member).replica;
}

bool ConsensusGroup::replicas_consistent() const {
  const chain::Ledger* longest = nullptr;
  for (const auto& member : members_) {
    if (member.faulty) {
      continue;
    }
    if (longest == nullptr ||
        member.replica.size() > longest->size()) {
      longest = &member.replica;
    }
  }
  if (longest == nullptr) {
    return true;
  }
  for (const auto& member : members_) {
    if (member.faulty) {
      continue;
    }
    for (std::size_t i = 0; i < member.replica.size(); ++i) {
      if (member.replica.at(i).hash != longest->at(i).hash) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace emon::core
