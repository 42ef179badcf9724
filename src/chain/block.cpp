#include "chain/block.hpp"

#include "util/bytes.hpp"

namespace emon::chain {

template <class IO>
void fields(IO& io, BlockHeader& header) {
  io(header.index, header.prev_hash, header.merkle_root, header.timestamp_ns,
     header.writer);
}

template <class IO>
void fields(IO& io, Block& block) {
  io(block.header, block.records, block.hash, block.signature);
}

template void fields(util::FieldWriter&, BlockHeader&);
template void fields(util::FieldReader&, BlockHeader&);
template void fields(util::FieldWriter&, Block&);
template void fields(util::FieldReader&, Block&);

std::vector<std::uint8_t> serialize_header(const BlockHeader& header) {
  return util::to_bytes(header);
}

Digest records_merkle_root(const std::vector<RecordBytes>& records) {
  std::vector<Digest> leaves;
  leaves.reserve(records.size());
  for (const auto& record : records) {
    leaves.push_back(Sha256::hash(
        std::span<const std::uint8_t>(record.data(), record.size())));
  }
  return MerkleTree::root_of(leaves);
}

Digest compute_block_hash(const BlockHeader& header) {
  const auto bytes = serialize_header(header);
  return Sha256::hash(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
}

Block make_block(std::uint64_t index, const Digest& prev_hash,
                 std::int64_t timestamp_ns, std::string writer,
                 std::vector<RecordBytes> records) {
  Block block;
  block.header.index = index;
  block.header.prev_hash = prev_hash;
  block.header.timestamp_ns = timestamp_ns;
  block.header.writer = std::move(writer);
  block.records = std::move(records);
  block.header.merkle_root = records_merkle_root(block.records);
  block.hash = compute_block_hash(block.header);
  return block;
}

bool verify_block_integrity(const Block& block) {
  if (records_merkle_root(block.records) != block.header.merkle_root) {
    return false;
  }
  return compute_block_hash(block.header) == block.hash;
}

std::vector<std::uint8_t> serialize_block(const Block& block) {
  return util::to_bytes(block);
}

Block deserialize_block(std::span<const std::uint8_t> bytes) {
  return util::from_bytes<Block>(bytes);
}

}  // namespace emon::chain
