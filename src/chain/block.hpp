#pragma once
// Block format for the metering chain.
//
// Per the paper (§II-A) a block encapsulates the consumption data reported
// in one verification window together with the hash of the previous block.
// Records are carried as opaque byte strings (the core library defines the
// record schema) and committed via a Merkle root so single records can be
// proven without the full block.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "chain/merkle.hpp"
#include "chain/sha256.hpp"

namespace emon::chain {

/// Opaque serialized payload entry (one consumption record).
using RecordBytes = std::vector<std::uint8_t>;

struct BlockHeader {
  /// Height of this block in the chain; genesis is 0.
  std::uint64_t index = 0;
  /// Hash of the previous block; zero digest for genesis.
  Digest prev_hash{};
  /// Merkle root over the record payload.
  Digest merkle_root{};
  /// Simulated-time timestamp of block creation (ns).
  std::int64_t timestamp_ns = 0;
  /// Identity of the aggregator that produced the block.
  std::string writer;
};

struct Block {
  BlockHeader header;
  std::vector<RecordBytes> records;
  /// SHA-256 over the canonical header serialization (which commits to the
  /// records through the Merkle root).
  Digest hash{};
  /// Writer MAC over `hash` (permissioned chain); zero when unsigned.
  Digest signature{};
};

/// The canonical layouts (block.cpp), run by util::FieldWriter and
/// util::FieldReader.  A block's layout starts with its header's.
template <class IO>
void fields(IO& io, BlockHeader& header);
template <class IO>
void fields(IO& io, Block& block);

/// Canonical serialization of a header (the preimage of the block hash).
[[nodiscard]] std::vector<std::uint8_t> serialize_header(
    const BlockHeader& header);

/// Merkle root over the given records (leaf = SHA-256 of record bytes).
[[nodiscard]] Digest records_merkle_root(
    const std::vector<RecordBytes>& records);

/// Hash of a header (== the block hash).
[[nodiscard]] Digest compute_block_hash(const BlockHeader& header);

/// Builds a fully populated block: computes the Merkle root and block hash.
/// `signature` is left zeroed; the permissioned layer signs it.
[[nodiscard]] Block make_block(std::uint64_t index, const Digest& prev_hash,
                               std::int64_t timestamp_ns, std::string writer,
                               std::vector<RecordBytes> records);

/// Checks a block's internal consistency: Merkle root matches the records
/// and the stored hash matches the header.  Does NOT check chain linkage.
[[nodiscard]] bool verify_block_integrity(const Block& block);

/// Full wire serialization of a block (header + records + hash + signature),
/// used for backhaul chain sync and at-rest storage.
[[nodiscard]] std::vector<std::uint8_t> serialize_block(const Block& block);

/// Parses `serialize_block` output.  Throws util::DecodeError on corrupt
/// input.  Integrity is *not* validated here; call verify_block_integrity.
[[nodiscard]] Block deserialize_block(std::span<const std::uint8_t> bytes);

}  // namespace emon::chain
