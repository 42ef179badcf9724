#include "chain/ledger.hpp"

namespace emon::chain {

ValidationResult check_extends(const ChainTip& tip, const Block& block) {
  const std::size_t i = tip.height;
  if (block.header.index != i) {
    return {false, i,
            "index mismatch: expected " + std::to_string(i) + ", found " +
                std::to_string(block.header.index)};
  }
  if (block.header.prev_hash != tip.hash) {
    return {false, i, "prev-hash link broken"};
  }
  if (!verify_block_integrity(block)) {
    return {false, i, "block integrity check failed (records or header)"};
  }
  if (block.header.timestamp_ns < tip.timestamp_ns) {
    return {false, i, "timestamp decreased"};
  }
  return {};
}

ValidationResult verify_chain(const std::vector<Block>& blocks) {
  ChainTip tip;
  for (const Block& block : blocks) {
    ValidationResult result = check_extends(tip, block);
    if (!result.ok) {
      return result;
    }
    tip.advance(block);
  }
  return {};
}

const Block& Ledger::append(std::vector<RecordBytes> records,
                            std::int64_t timestamp_ns,
                            const std::string& writer) {
  return push(make_block(tip_.height, tip_.hash, timestamp_ns, writer,
                         std::move(records)));
}

ValidationResult Ledger::append_external(Block block) {
  ValidationResult result = check_extends(tip_, block);
  if (result.ok) {
    push(std::move(block));
  }
  return result;
}

const Block& Ledger::push(Block block) {
  tip_.advance(block);
  blocks_.push_back(std::move(block));
  return blocks_.back();
}

ValidationResult Ledger::validate() const { return verify_chain(blocks_); }

std::size_t Ledger::record_count() const noexcept {
  std::size_t n = 0;
  for (const auto& block : blocks_) {
    n += block.records.size();
  }
  return n;
}

}  // namespace emon::chain
