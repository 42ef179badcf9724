#pragma once
// Permissioned multi-writer chain.
//
// "The blocks from all the aggregators are formed into a common permissioned
// blockchain" (paper §II-A).  Aggregators are the only authorized writers;
// each block is authenticated with a keyed MAC (SHA-256 over writer secret
// and block hash — a simulation stand-in for a real signature scheme, see
// DESIGN.md) so a reader can attribute every block to a registered writer.
//
// Every block is written in two phases.  A writer submit()s its batch at
// block-timer time `at` (the block timestamp) and collect()s the signed
// block one chain_commit_latency later, modelling a commit round-trip.
// collect() commits every batch staged at or before its time in (submit
// time, writer rank, ticket) order; a writer's rank is its registration
// order.  So heights do not depend on which thread reaches the chain
// first: in a sharded run the horizon protocol guarantees every shard has
// passed `at` when a collect at `at + latency` runs (latency >= the shard
// lookahead), and a sequential run takes the same path, so shards=1 and
// shards=N runs commit identical chains.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "chain/ledger.hpp"
#include "util/thread_annotations.hpp"

namespace emon::chain {

/// A writer credential: identity plus shared secret.
struct WriterKey {
  std::string id;
  std::string secret;
};

/// MAC = SHA-256(secret || block_hash).  Stand-in for a digital signature;
/// adequate for the simulation because verifiers are the same trusted
/// aggregator set that holds the registry.
[[nodiscard]] Digest sign_block_hash(const Digest& block_hash,
                                     const std::string& secret);

/// The shared permissioned chain.  One logical instance exists per backhaul
/// federation; aggregators hold references and commit through it.  Every
/// method is thread-safe.
class PermissionedChain {
 public:
  PermissionedChain() = default;
  PermissionedChain(const PermissionedChain&) = delete;
  PermissionedChain& operator=(const PermissionedChain&) = delete;

  /// Registers an authorized writer; its commit rank is the number of
  /// writers registered before it.  Returns false if the id is taken.
  /// Re-registering a revoked id restores it with the new secret and its
  /// original rank.
  bool register_writer(const WriterKey& key) EMON_EXCLUDES(mutex_);

  /// Revokes a writer (e.g. decommissioned aggregator).  Existing blocks
  /// remain valid; new appends by this writer are rejected.
  bool revoke_writer(const std::string& id) EMON_EXCLUDES(mutex_);

  [[nodiscard]] bool is_authorized(const std::string& id) const
      EMON_EXCLUDES(mutex_);

  /// Stages a block submission stamped `at_ns`.  Returns the ticket to
  /// collect the signed block with.  Throws std::logic_error if the writer
  /// never registered.
  [[nodiscard]] std::uint64_t submit(const std::string& writer_id,
                                     const std::string& secret,
                                     std::vector<RecordBytes> records,
                                     std::int64_t at_ns) EMON_EXCLUDES(mutex_);

  /// Commits every staged submission stamped <= `up_to_ns` (in the order
  /// above), then returns the signed block for `ticket` — nullopt if the
  /// writer was not authorized at commit time.  Call at submit time +
  /// chain_commit_latency on the submitting writer's kernel.  Throws
  /// std::logic_error if `ticket` was submitted after `up_to_ns`.
  [[nodiscard]] std::optional<Block> collect(std::uint64_t ticket,
                                             std::int64_t up_to_ns)
      EMON_EXCLUDES(mutex_);

  /// The committed blocks.  Read it while no commit is in flight (after a
  /// run, or from the single thread of a sequential one): the reference
  /// outlives any lock this accessor could take.
  [[nodiscard]] const Ledger& ledger() const noexcept
      EMON_NO_THREAD_SAFETY_ANALYSIS {
    return ledger_;
  }
  [[nodiscard]] Ledger& ledger() noexcept EMON_NO_THREAD_SAFETY_ANALYSIS {
    return ledger_;
  }

  /// Validates hash linkage AND writer signatures over the whole chain.
  /// Revoked writers' historic blocks still verify (their key is retained
  /// for verification, marked revoked for appends).
  [[nodiscard]] ValidationResult validate() const EMON_EXCLUDES(mutex_);

 private:
  struct Writer {
    std::string secret;
    std::size_t rank = 0;
    bool revoked = false;
  };
  struct Staged {
    std::int64_t at_ns = 0;
    std::size_t rank = 0;
    std::uint64_t ticket = 0;
    std::string writer_id;
    std::string secret;
    std::vector<RecordBytes> records;
  };

  mutable util::Mutex mutex_;
  Ledger ledger_ EMON_GUARDED_BY(mutex_);
  std::map<std::string, Writer> writers_ EMON_GUARDED_BY(mutex_);
  std::vector<Staged> staged_ EMON_GUARDED_BY(mutex_);
  std::map<std::uint64_t, std::optional<Block>> results_
      EMON_GUARDED_BY(mutex_);
  std::uint64_t next_ticket_ EMON_GUARDED_BY(mutex_) = 1;
};

}  // namespace emon::chain
