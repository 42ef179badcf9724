#include "chain/permissioned.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

namespace emon::chain {

Digest sign_block_hash(const Digest& block_hash, const std::string& secret) {
  Sha256 h;
  h.update(secret);
  h.update(std::span<const std::uint8_t>(block_hash.data(), block_hash.size()));
  return h.finish();
}

bool PermissionedChain::register_writer(const WriterKey& key) {
  if (key.id.empty()) {
    return false;
  }
  const util::LockGuard lock(mutex_);
  const auto [it, inserted] =
      writers_.emplace(key.id, Writer{key.secret, writers_.size(), false});
  if (!inserted && it->second.revoked) {
    it->second.secret = key.secret;
    it->second.revoked = false;
    return true;
  }
  return inserted;
}

bool PermissionedChain::revoke_writer(const std::string& id) {
  const util::LockGuard lock(mutex_);
  const auto it = writers_.find(id);
  if (it == writers_.end() || it->second.revoked) {
    return false;
  }
  it->second.revoked = true;
  return true;
}

bool PermissionedChain::is_authorized(const std::string& id) const {
  const util::LockGuard lock(mutex_);
  const auto it = writers_.find(id);
  return it != writers_.end() && !it->second.revoked;
}

std::uint64_t PermissionedChain::submit(const std::string& writer_id,
                                        const std::string& secret,
                                        std::vector<RecordBytes> records,
                                        std::int64_t at_ns) {
  const util::LockGuard lock(mutex_);
  const auto writer = writers_.find(writer_id);
  if (writer == writers_.end()) {
    throw std::logic_error("PermissionedChain: writer '" + writer_id +
                           "' submitted without registering");
  }
  const std::uint64_t ticket = next_ticket_++;
  staged_.push_back(Staged{at_ns, writer->second.rank, ticket, writer_id,
                           secret, std::move(records)});
  return ticket;
}

std::optional<Block> PermissionedChain::collect(std::uint64_t ticket,
                                                std::int64_t up_to_ns) {
  const util::LockGuard lock(mutex_);
  // Commit the ripe prefix in (submit time, writer rank, ticket) order —
  // the same total order a sequential run produces, whichever writer's
  // collect reaches the chain first.
  const auto ripe_end = std::partition(
      staged_.begin(), staged_.end(),
      [up_to_ns](const Staged& s) { return s.at_ns <= up_to_ns; });
  std::sort(staged_.begin(), ripe_end, [](const Staged& a, const Staged& b) {
    return std::tie(a.at_ns, a.rank, a.ticket) <
           std::tie(b.at_ns, b.rank, b.ticket);
  });
  for (auto it = staged_.begin(); it != ripe_end; ++it) {
    std::optional<Block>& result = results_[it->ticket];
    const Writer& writer = writers_.at(it->writer_id);
    if (writer.revoked || writer.secret != it->secret) {
      continue;  // not authorized at commit time: collects nullopt
    }
    const ChainTip& tip = ledger_.tip();
    Block block = make_block(tip.height, tip.hash, it->at_ns, it->writer_id,
                             std::move(it->records));
    block.signature = sign_block_hash(block.hash, it->secret);
    result = ledger_.push(std::move(block));
  }
  staged_.erase(staged_.begin(), ripe_end);

  const auto found = results_.find(ticket);
  if (found == results_.end()) {
    throw std::logic_error(
        "PermissionedChain::collect before the ticket's submit time");
  }
  std::optional<Block> block = std::move(found->second);
  results_.erase(found);
  return block;
}

ValidationResult PermissionedChain::validate() const {
  const util::LockGuard lock(mutex_);
  ValidationResult result = ledger_.validate();
  if (!result.ok) {
    return result;
  }
  const auto& blocks = ledger_.blocks();
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const Block& block = blocks[i];
    const auto it = writers_.find(block.header.writer);
    if (it == writers_.end()) {
      return {false, i, "block written by unknown writer '" +
                            block.header.writer + "'"};
    }
    if (block.signature != sign_block_hash(block.hash, it->second.secret)) {
      return {false, i, "bad writer signature"};
    }
  }
  return {};
}

}  // namespace emon::chain
