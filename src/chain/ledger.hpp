#pragma once
// Hash-chain ledger: append-only block storage with tamper detection.
//
// The paper uses "blockchain only as a hashed data chain without any
// consensus" (§II-A) — the aggregator is trusted and validates data before a
// block is created, so the chain's job is purely tamper evidence for data
// at rest.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "chain/block.hpp"

namespace emon::chain {

/// Result of validating a chain or one block against it.
struct ValidationResult {
  bool ok = true;
  /// Index of the first bad block (when !ok).
  std::size_t bad_index = 0;
  /// Human-readable reason (when !ok).
  std::string reason;
};

/// Where a chain ends: the next block's index, the hash it must link to
/// and the earliest timestamp it may carry.
struct ChainTip {
  std::size_t height = 0;
  Digest hash{};  // zero digest before genesis
  std::int64_t timestamp_ns = INT64_MIN;

  /// Moves the tip past `block`, which extends it.
  void advance(const Block& block) noexcept {
    ++height;
    hash = block.hash;
    timestamp_ns = block.header.timestamp_ns;
  }
};

/// The acceptance rule: may `block` extend the chain ending at `tip`?  It
/// must carry the next index, link to the tip's hash, pass
/// verify_block_integrity and not go back in time.  On failure the result
/// names the first broken condition, with bad_index = tip.height.
[[nodiscard]] ValidationResult check_extends(const ChainTip& tip,
                                             const Block& block);

/// Validates an arbitrary block sequence from genesis under check_extends.
[[nodiscard]] ValidationResult verify_chain(const std::vector<Block>& blocks);

/// Append-only ledger owned by one writer (a trusted aggregator) or shared
/// by the permissioned layer.
class Ledger {
 public:
  /// Appends a new block carrying `records`, stamped `timestamp_ns`, written
  /// by `writer`.  Returns a reference to the stored block.
  const Block& append(std::vector<RecordBytes> records,
                      std::int64_t timestamp_ns, const std::string& writer);

  /// Appends an externally produced block (backhaul sync) if check_extends
  /// accepts it; otherwise returns the reason and leaves the ledger
  /// unchanged.
  ValidationResult append_external(Block block);

  [[nodiscard]] std::size_t size() const noexcept { return blocks_.size(); }
  [[nodiscard]] bool empty() const noexcept { return blocks_.empty(); }
  [[nodiscard]] const Block& at(std::size_t i) const { return blocks_.at(i); }
  [[nodiscard]] const std::vector<Block>& blocks() const noexcept {
    return blocks_;
  }
  [[nodiscard]] const ChainTip& tip() const noexcept { return tip_; }
  [[nodiscard]] const Digest& tip_hash() const noexcept { return tip_.hash; }

  /// Validates the whole chain.
  [[nodiscard]] ValidationResult validate() const;

  /// Total number of records across all blocks.
  [[nodiscard]] std::size_t record_count() const noexcept;

  /// TEST/ATTACK HOOK: returns mutable block storage so tamper experiments
  /// can flip bytes and demonstrate detection.  Production code never calls
  /// this; it exists because the whole point of the chain is to make such
  /// edits detectable.
  [[nodiscard]] std::vector<Block>& mutable_blocks_for_tampering() noexcept {
    return blocks_;
  }

 private:
  // Stores the signed blocks it builds on this ledger's tip.
  friend class PermissionedChain;

  /// Stores `block`, which extends the tip, and advances the tip.
  const Block& push(Block block);

  std::vector<Block> blocks_;
  ChainTip tip_;
};

}  // namespace emon::chain
