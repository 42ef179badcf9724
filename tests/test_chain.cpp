// Unit + property tests for emon::chain — SHA-256 against FIPS vectors,
// Merkle proofs, block serialization, ledger tamper detection, and the
// permissioned multi-writer chain.

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>

#include "chain/block.hpp"
#include "chain/ledger.hpp"
#include "chain/merkle.hpp"
#include "chain/permissioned.hpp"
#include "chain/sha256.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace emon::chain {
namespace {

std::vector<RecordBytes> make_records(std::size_t n, std::uint64_t seed = 1) {
  util::Rng rng{seed};
  std::vector<RecordBytes> out;
  for (std::size_t i = 0; i < n; ++i) {
    RecordBytes rec(16 + i % 48);
    for (auto& b : rec) {
      b = static_cast<std::uint8_t>(rng.next() & 0xff);
    }
    out.push_back(std::move(rec));
  }
  return out;
}

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4 test vectors)
// ---------------------------------------------------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, LongMessage) {
  // One million 'a' characters (FIPS 180-4 appendix vector).
  const std::string m(1'000'000, 'a');
  EXPECT_EQ(to_hex(Sha256::hash(m)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundaries) {
  // 55/56/64-byte messages exercise all padding branches.
  EXPECT_EQ(to_hex(Sha256::hash(std::string(55, 'x'))),
            to_hex(Sha256::hash(std::string(55, 'x'))));
  const auto h56 = Sha256::hash(std::string(56, 'x'));
  const auto h64 = Sha256::hash(std::string(64, 'x'));
  EXPECT_NE(to_hex(h56), to_hex(h64));
}

TEST(Sha256, IncrementalEqualsOneShot) {
  const std::string msg =
      "the quick brown fox jumps over the lazy dog, repeatedly, in chunks";
  Sha256 h;
  for (std::size_t i = 0; i < msg.size(); i += 7) {
    h.update(std::string_view(msg).substr(i, 7));
  }
  EXPECT_EQ(to_hex(h.finish()), to_hex(Sha256::hash(msg)));
}

TEST(Sha256, ChunkingInvariance) {
  // Property: any split of the input yields the same digest.
  util::Rng rng{77};
  std::string msg(300, '\0');
  for (auto& c : msg) {
    c = static_cast<char>('a' + rng.uniform_int(0, 25));
  }
  const auto reference = to_hex(Sha256::hash(msg));
  for (std::size_t split = 0; split <= msg.size(); split += 17) {
    Sha256 h;
    h.update(std::string_view(msg).substr(0, split));
    h.update(std::string_view(msg).substr(split));
    EXPECT_EQ(to_hex(h.finish()), reference) << "split at " << split;
  }
}

TEST(Sha256, AvalancheOnSingleBitFlip) {
  std::string msg = "consumption record payload";
  const Digest a = Sha256::hash(msg);
  msg[0] = static_cast<char>(msg[0] ^ 0x01);
  const Digest b = Sha256::hash(msg);
  int differing_bits = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differing_bits += __builtin_popcount(a[i] ^ b[i]);
  }
  // Expect roughly half of 256 bits to flip; 80 is a conservative floor.
  EXPECT_GT(differing_bits, 80);
}

// ---------------------------------------------------------------------------
// Merkle tree
// ---------------------------------------------------------------------------

TEST(Merkle, EmptyTreeHasZeroRoot) {
  MerkleTree tree{{}};
  EXPECT_EQ(tree.root(), zero_digest());
  EXPECT_EQ(tree.leaf_count(), 0u);
  EXPECT_FALSE(tree.prove(0).has_value());
}

TEST(Merkle, SingleLeaf) {
  const Digest leaf = Sha256::hash("only");
  MerkleTree tree{{leaf}};
  EXPECT_NE(tree.root(), zero_digest());
  EXPECT_NE(tree.root(), leaf);  // leaf tagging means root != raw leaf
  const auto proof = tree.prove(0);
  ASSERT_TRUE(proof.has_value());
  EXPECT_TRUE(MerkleTree::verify(leaf, *proof, tree.root()));
}

class MerkleProofSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleProofSweep, EveryLeafProves) {
  const std::size_t n = GetParam();
  std::vector<Digest> leaves;
  for (std::size_t i = 0; i < n; ++i) {
    leaves.push_back(Sha256::hash("leaf-" + std::to_string(i)));
  }
  MerkleTree tree{leaves};
  for (std::size_t i = 0; i < n; ++i) {
    const auto proof = tree.prove(i);
    ASSERT_TRUE(proof.has_value()) << "leaf " << i;
    EXPECT_TRUE(MerkleTree::verify(leaves[i], *proof, tree.root()))
        << "leaf " << i << " of " << n;
    // Wrong leaf must not verify with this proof.
    const Digest wrong = Sha256::hash("not-a-leaf");
    EXPECT_FALSE(MerkleTree::verify(wrong, *proof, tree.root()));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleProofSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                                           33, 64, 100));

TEST(Merkle, RootChangesWithAnyLeaf) {
  std::vector<Digest> leaves;
  for (int i = 0; i < 10; ++i) {
    leaves.push_back(Sha256::hash(std::string("v").append(std::to_string(i))));
  }
  const Digest original = MerkleTree::root_of(leaves);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    auto mutated = leaves;
    mutated[i][0] ^= 0xff;
    EXPECT_NE(MerkleTree::root_of(mutated), original) << "leaf " << i;
  }
}

TEST(Merkle, OrderMatters) {
  const std::vector<Digest> ab{Sha256::hash("a"), Sha256::hash("b")};
  const std::vector<Digest> ba{Sha256::hash("b"), Sha256::hash("a")};
  EXPECT_NE(MerkleTree::root_of(ab), MerkleTree::root_of(ba));
}

TEST(Merkle, ProofOutOfRange) {
  MerkleTree tree{{Sha256::hash("x")}};
  EXPECT_FALSE(tree.prove(1).has_value());
}

// ---------------------------------------------------------------------------
// Block
// ---------------------------------------------------------------------------

TEST(Block, MakeBlockPopulatesEverything) {
  const auto records = make_records(5);
  const Block b = make_block(3, Sha256::hash("prev"), 1234, "agg-1", records);
  EXPECT_EQ(b.header.index, 3u);
  EXPECT_EQ(b.header.timestamp_ns, 1234);
  EXPECT_EQ(b.header.writer, "agg-1");
  EXPECT_EQ(b.records.size(), 5u);
  EXPECT_EQ(b.header.merkle_root, records_merkle_root(records));
  EXPECT_EQ(b.hash, compute_block_hash(b.header));
  EXPECT_TRUE(verify_block_integrity(b));
}

TEST(Block, TamperedRecordDetected) {
  Block b = make_block(0, zero_digest(), 0, "w", make_records(4));
  b.records[2][0] ^= 0x01;
  EXPECT_FALSE(verify_block_integrity(b));
}

TEST(Block, TamperedHeaderDetected) {
  Block b = make_block(0, zero_digest(), 0, "w", make_records(4));
  b.header.timestamp_ns += 1;
  EXPECT_FALSE(verify_block_integrity(b));
}

TEST(Block, SerializationRoundTrip) {
  Block b = make_block(7, Sha256::hash("p"), 99, "agg-2", make_records(6));
  b.signature = Sha256::hash("sig");
  const auto bytes = serialize_block(b);
  const Block back = deserialize_block(bytes);
  EXPECT_EQ(back.header.index, b.header.index);
  EXPECT_EQ(back.header.prev_hash, b.header.prev_hash);
  EXPECT_EQ(back.header.merkle_root, b.header.merkle_root);
  EXPECT_EQ(back.header.timestamp_ns, b.header.timestamp_ns);
  EXPECT_EQ(back.header.writer, b.header.writer);
  EXPECT_EQ(back.records, b.records);
  EXPECT_EQ(back.hash, b.hash);
  EXPECT_EQ(back.signature, b.signature);
  EXPECT_TRUE(verify_block_integrity(back));
}

TEST(Block, DeserializeRejectsTruncation) {
  const Block b = make_block(0, zero_digest(), 0, "w", make_records(2));
  auto bytes = serialize_block(b);
  bytes.resize(bytes.size() - 5);
  EXPECT_THROW(deserialize_block(bytes), util::DecodeError);
}

TEST(Block, DeserializeRejectsTrailingBytes) {
  const Block b = make_block(0, zero_digest(), 0, "w", make_records(2));
  auto bytes = serialize_block(b);
  bytes.push_back(0);
  EXPECT_THROW(deserialize_block(bytes), util::DecodeError);
}

TEST(Block, EmptyRecordsBlockIsValid) {
  const Block b = make_block(0, zero_digest(), 5, "w", {});
  EXPECT_TRUE(verify_block_integrity(b));
  EXPECT_EQ(b.header.merkle_root, zero_digest());
}

// ---------------------------------------------------------------------------
// Ledger
// ---------------------------------------------------------------------------

TEST(Ledger, AppendsLinkCorrectly) {
  Ledger ledger;
  const Block& b0 = ledger.append(make_records(2), 10, "w");
  EXPECT_EQ(b0.header.prev_hash, zero_digest());
  const Block& b1 = ledger.append(make_records(3), 20, "w");
  EXPECT_EQ(b1.header.prev_hash, ledger.at(0).hash);
  EXPECT_EQ(ledger.size(), 2u);
  EXPECT_EQ(ledger.record_count(), 5u);
  EXPECT_EQ(ledger.tip_hash(), ledger.at(1).hash);
  EXPECT_TRUE(ledger.validate().ok);
}

TEST(Ledger, DetectsRecordTampering) {
  Ledger ledger;
  for (int i = 0; i < 5; ++i) {
    ledger.append(make_records(3, static_cast<std::uint64_t>(i)), i * 10, "w");
  }
  ledger.mutable_blocks_for_tampering()[2].records[1][0] ^= 0x80;
  const auto result = ledger.validate();
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.bad_index, 2u);
}

TEST(Ledger, DetectsRewrittenBlock) {
  Ledger ledger;
  for (int i = 0; i < 4; ++i) {
    ledger.append(make_records(2, static_cast<std::uint64_t>(i)), i, "w");
  }
  // Attacker rewrites block 1 *consistently* (recomputing its hash) — the
  // break must surface at the next link.
  auto& blocks = ledger.mutable_blocks_for_tampering();
  blocks[1] = make_block(1, blocks[0].hash, blocks[1].header.timestamp_ns,
                         "attacker", make_records(2, 999));
  const auto result = ledger.validate();
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.bad_index, 2u);  // prev-hash of block 2 no longer matches
}

TEST(Ledger, DetectsTimestampRegression) {
  Ledger ledger;
  ledger.append(make_records(1), 100, "w");
  auto next = make_block(1, ledger.tip_hash(), 50, "w", make_records(1));
  EXPECT_FALSE(ledger.append_external(next).ok);  // timestamp decreased
}

TEST(Ledger, AppendExternalValidatesLinkage) {
  Ledger a;
  a.append(make_records(2), 10, "w");
  const Block good = make_block(1, a.tip_hash(), 20, "w", make_records(2, 7));

  Ledger replica;
  replica.append(make_records(2), 10, "w");  // same first block contents? No —
  // records differ per seed, so hashes differ; build the replica by syncing.
  Ledger synced;
  EXPECT_TRUE(synced.append_external(a.at(0)).ok);
  EXPECT_TRUE(synced.append_external(good).ok);
  EXPECT_EQ(synced.size(), 2u);
  EXPECT_TRUE(synced.validate().ok);

  // Wrong index.
  const Block bad_index = make_block(5, synced.tip_hash(), 30, "w", {});
  EXPECT_FALSE(synced.append_external(bad_index).ok);
  // Broken prev link.
  const Block bad_link = make_block(2, Sha256::hash("x"), 30, "w", {});
  EXPECT_FALSE(synced.append_external(bad_link).ok);
  // Tampered content.
  Block corrupt = make_block(2, synced.tip_hash(), 30, "w", make_records(1));
  corrupt.records[0][0] ^= 1;
  EXPECT_FALSE(synced.append_external(corrupt).ok);
  EXPECT_EQ(synced.size(), 2u);
}

TEST(Ledger, EmptyLedgerValidates) {
  Ledger ledger;
  EXPECT_TRUE(ledger.validate().ok);
  EXPECT_EQ(ledger.tip_hash(), zero_digest());
}

// The acceptance rule is one function: a whole-chain check and a one-block
// sync refuse each defect for the same reason, at the same height.
TEST(Ledger, VerifyChainAndAppendExternalAgreeOnEveryDefect) {
  Ledger ledger;
  ledger.append(make_records(2), 10, "w");
  ledger.append(make_records(2, 2), 20, "w");
  Block corrupt = make_block(2, ledger.tip_hash(), 30, "w", make_records(1));
  corrupt.records[0][0] ^= 1;
  const struct {
    const char* defect;
    Block block;
    std::string reason;
  } cases[] = {
      {"index", make_block(5, ledger.tip_hash(), 30, "w", {}),
       "index mismatch: expected 2, found 5"},
      {"link", make_block(2, Sha256::hash("x"), 30, "w", {}),
       "prev-hash link broken"},
      {"integrity", corrupt,
       "block integrity check failed (records or header)"},
      {"timestamp", make_block(2, ledger.tip_hash(), 15, "w", {}),
       "timestamp decreased"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.defect);
    std::vector<Block> blocks = ledger.blocks();
    blocks.push_back(c.block);
    const ValidationResult whole = verify_chain(blocks);
    const ValidationResult one = ledger.append_external(c.block);
    EXPECT_FALSE(whole.ok);
    EXPECT_FALSE(one.ok);
    EXPECT_EQ(whole.reason, c.reason);
    EXPECT_EQ(one.reason, c.reason);
    EXPECT_EQ(whole.bad_index, 2u);
    EXPECT_EQ(one.bad_index, 2u);
    EXPECT_EQ(ledger.size(), 2u);
  }
  EXPECT_TRUE(ledger
                  .append_external(make_block(2, ledger.tip_hash(), 20, "w",
                                              make_records(1)))
                  .ok);
  EXPECT_EQ(ledger.size(), 3u);
}

class LedgerTamperSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LedgerTamperSweep, AnySingleByteFlipIsDetected) {
  // Property: flipping one byte of any record in any block breaks
  // validation (the paper's tamper-proof-storage claim).
  const std::size_t victim_block = GetParam();
  Ledger ledger;
  for (std::size_t i = 0; i < 6; ++i) {
    ledger.append(make_records(4, i), static_cast<std::int64_t>(i * 100), "w");
  }
  auto& blocks = ledger.mutable_blocks_for_tampering();
  auto& record = blocks[victim_block].records[1];
  record[record.size() / 2] ^= 0x10;
  const auto result = ledger.validate();
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.bad_index, victim_block);
}

INSTANTIATE_TEST_SUITE_P(Blocks, LedgerTamperSweep,
                         ::testing::Values(0, 1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Permissioned chain
// ---------------------------------------------------------------------------

/// Stages a batch and collects it at its own timestamp.
std::optional<Block> commit_now(PermissionedChain& chain,
                                const std::string& writer,
                                const std::string& secret,
                                std::vector<RecordBytes> records,
                                std::int64_t at_ns) {
  return chain.collect(chain.submit(writer, secret, std::move(records), at_ns),
                       at_ns);
}

TEST(Permissioned, RegisterAndAppend) {
  PermissionedChain chain;
  EXPECT_TRUE(chain.register_writer({"agg-1", "s1"}));
  EXPECT_FALSE(chain.register_writer({"agg-1", "s2"}));  // duplicate id
  EXPECT_TRUE(chain.is_authorized("agg-1"));

  const auto block = commit_now(chain, "agg-1", "s1", make_records(3), 10);
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(block->header.writer, "agg-1");
  EXPECT_NE(block->signature, Digest{});
  EXPECT_TRUE(chain.validate().ok);
}

TEST(Permissioned, RejectsUnknownWriterAndWrongSecret) {
  PermissionedChain chain;
  chain.register_writer({"agg-1", "s1"});
  EXPECT_THROW((void)commit_now(chain, "agg-2", "s1", make_records(1), 0),
               std::logic_error);
  EXPECT_FALSE(
      commit_now(chain, "agg-1", "wrong", make_records(1), 0).has_value());
  EXPECT_EQ(chain.ledger().size(), 0u);
}

TEST(Permissioned, MultiWriterInterleaving) {
  PermissionedChain chain;
  chain.register_writer({"agg-1", "s1"});
  chain.register_writer({"agg-2", "s2"});
  for (int i = 0; i < 10; ++i) {
    const std::string writer = i % 2 == 0 ? "agg-1" : "agg-2";
    const std::string secret = i % 2 == 0 ? "s1" : "s2";
    ASSERT_TRUE(commit_now(chain, writer, secret,
                           make_records(2, static_cast<std::uint64_t>(i)),
                           i * 10)
                    .has_value());
  }
  EXPECT_EQ(chain.ledger().size(), 10u);
  EXPECT_TRUE(chain.validate().ok);
}

TEST(Permissioned, RevokedWriterCannotAppendButHistoryVerifies) {
  PermissionedChain chain;
  chain.register_writer({"agg-1", "s1"});
  (void)commit_now(chain, "agg-1", "s1", make_records(1), 0);
  EXPECT_TRUE(chain.revoke_writer("agg-1"));
  EXPECT_FALSE(chain.is_authorized("agg-1"));
  EXPECT_FALSE(
      commit_now(chain, "agg-1", "s1", make_records(1), 1).has_value());
  EXPECT_TRUE(chain.validate().ok);  // historic block still verifies
}

TEST(Permissioned, ReregisterRevokedWriter) {
  PermissionedChain chain;
  chain.register_writer({"agg-1", "s1"});
  chain.revoke_writer("agg-1");
  EXPECT_TRUE(chain.register_writer({"agg-1", "s1"}));
  EXPECT_TRUE(chain.is_authorized("agg-1"));
}

TEST(Permissioned, ForgedSignatureDetected) {
  PermissionedChain chain;
  chain.register_writer({"agg-1", "s1"});
  (void)commit_now(chain, "agg-1", "s1", make_records(2), 0);
  auto& blocks = chain.ledger().blocks();
  (void)blocks;
  chain.ledger().mutable_blocks_for_tampering()[0].signature[0] ^= 1;
  const auto result = chain.validate();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.reason.find("signature"), std::string::npos);
}

TEST(Permissioned, SignatureIsKeyDependent) {
  const Digest h = Sha256::hash("block");
  EXPECT_NE(sign_block_hash(h, "secret-a"), sign_block_hash(h, "secret-b"));
  EXPECT_EQ(sign_block_hash(h, "secret-a"), sign_block_hash(h, "secret-a"));
}

TEST(Permissioned, RejectsEmptyWriterId) {
  PermissionedChain chain;
  EXPECT_FALSE(chain.register_writer({"", "s"}));
}

// ---------------------------------------------------------------------------
// Deferred commits: submit, then collect in (submit time, rank, ticket) order
// ---------------------------------------------------------------------------

TEST(PermissionedCommit, SameInstantSubmissionsCommitInRankOrder) {
  PermissionedChain chain;
  chain.register_writer({"agg-1", "s1"});
  chain.register_writer({"agg-2", "s2"});
  // Reverse registration order at the same instant.
  const auto t2 = chain.submit("agg-2", "s2", make_records(2, 2), 100);
  const auto t1 = chain.submit("agg-1", "s1", make_records(2, 1), 100);
  const auto b2 = chain.collect(t2, 100);
  const auto b1 = chain.collect(t1, 100);
  ASSERT_TRUE(b1.has_value());
  ASSERT_TRUE(b2.has_value());
  EXPECT_EQ(b1->header.index, 0u);
  EXPECT_EQ(b2->header.index, 1u);
  EXPECT_EQ(chain.ledger().at(0).header.writer, "agg-1");
  EXPECT_EQ(chain.ledger().at(1).header.writer, "agg-2");
  EXPECT_EQ(b2->hash, chain.ledger().tip_hash());
  EXPECT_TRUE(chain.validate().ok);
}

TEST(PermissionedCommit, EarlierSubmitTimeCommitsFirstWhateverTheRank) {
  PermissionedChain chain;
  chain.register_writer({"agg-1", "s1"});
  chain.register_writer({"agg-2", "s2"});
  const auto late = chain.submit("agg-1", "s1", make_records(1, 1), 200);
  const auto early = chain.submit("agg-2", "s2", make_records(1, 2), 100);
  EXPECT_EQ(chain.collect(early, 100)->header.index, 0u);
  EXPECT_EQ(chain.ledger().size(), 1u);  // the later batch is not ripe yet
  EXPECT_EQ(chain.collect(late, 200)->header.index, 1u);
}

TEST(PermissionedCommit, CollectBeforeSubmitTimeThrows) {
  PermissionedChain chain;
  chain.register_writer({"agg-1", "s1"});
  const auto ticket = chain.submit("agg-1", "s1", make_records(1), 200);
  EXPECT_THROW((void)chain.collect(ticket, 100), std::logic_error);
  EXPECT_EQ(chain.ledger().size(), 0u);
  EXPECT_TRUE(chain.collect(ticket, 200).has_value());
}

TEST(PermissionedCommit, UnregisteredWriterCannotSubmit) {
  PermissionedChain chain;
  EXPECT_THROW((void)chain.submit("agg-9", "s", make_records(1), 0),
               std::logic_error);
}

TEST(PermissionedCommit, RevokedWritersStagedBatchCollectsNullopt) {
  PermissionedChain chain;
  chain.register_writer({"agg-1", "s1"});
  const auto ticket = chain.submit("agg-1", "s1", make_records(1), 10);
  EXPECT_TRUE(chain.revoke_writer("agg-1"));
  EXPECT_FALSE(chain.collect(ticket, 10).has_value());
  EXPECT_EQ(chain.ledger().size(), 0u);
}

TEST(PermissionedCommit, ReregisteredWriterKeepsItsRankAndTakesTheNewSecret) {
  PermissionedChain chain;
  chain.register_writer({"agg-1", "old"});
  chain.register_writer({"agg-2", "s2"});
  chain.revoke_writer("agg-1");
  EXPECT_TRUE(chain.register_writer({"agg-1", "new"}));
  const auto t2 = chain.submit("agg-2", "s2", make_records(1, 2), 50);
  const auto stale = chain.submit("agg-1", "old", make_records(1, 3), 50);
  const auto t1 = chain.submit("agg-1", "new", make_records(1, 1), 50);
  EXPECT_EQ(chain.collect(t2, 50)->header.index, 1u);
  EXPECT_FALSE(chain.collect(stale, 50).has_value());
  EXPECT_EQ(chain.collect(t1, 50)->header.index, 0u);
  EXPECT_TRUE(chain.validate().ok);
}

}  // namespace
}  // namespace emon::chain
