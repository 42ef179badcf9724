// Microbenchmarks for the blockchain substrate — quantifying the paper's
// claim that "creating the hash is not an expensive operation, and hence,
// does not expend significant computation power" (§II-A).

#include <benchmark/benchmark.h>

#include "chain/block.hpp"
#include "chain/ledger.hpp"
#include "chain/merkle.hpp"
#include "chain/permissioned.hpp"
#include "chain/sha256.hpp"
#include "util/rng.hpp"

namespace {

using namespace emon;

std::vector<chain::RecordBytes> make_records(std::size_t n,
                                             std::size_t size = 96) {
  util::Rng rng{7};
  std::vector<chain::RecordBytes> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    chain::RecordBytes rec(size);
    for (auto& b : rec) {
      b = static_cast<std::uint8_t>(rng.next());
    }
    out.push_back(std::move(rec));
  }
  return out;
}

void BM_Sha256_Throughput(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> data(n, 0xa5);
  for (auto _ : state) {
    auto digest = chain::Sha256::hash(
        std::span<const std::uint8_t>(data.data(), data.size()));
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Sha256_Throughput)->Arg(64)->Arg(1024)->Arg(65536);

void BM_MerkleRoot(benchmark::State& state) {
  const auto records = make_records(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto root = chain::records_merkle_root(records);
    benchmark::DoNotOptimize(root);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MerkleRoot)->Arg(10)->Arg(100)->Arg(1000);

void BM_MerkleProofVerify(benchmark::State& state) {
  std::vector<chain::Digest> leaves;
  for (int i = 0; i < 1000; ++i) {
    leaves.push_back(chain::Sha256::hash("leaf" + std::to_string(i)));
  }
  chain::MerkleTree tree{leaves};
  const auto proof = tree.prove(500).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        chain::MerkleTree::verify(leaves[500], proof, tree.root()));
  }
}
BENCHMARK(BM_MerkleProofVerify);

void BM_BlockCreation(benchmark::State& state) {
  // The paper's claim: one block per reporting window is cheap.  A block of
  // `n` records at RPi-scale record sizes.
  const auto records = make_records(static_cast<std::size_t>(state.range(0)));
  const chain::Digest prev = chain::Sha256::hash("prev");
  std::uint64_t index = 0;
  for (auto _ : state) {
    auto block = chain::make_block(index++, prev, 123456, "agg-1", records);
    benchmark::DoNotOptimize(block);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BlockCreation)->Arg(10)->Arg(50)->Arg(500);

void BM_BlockVerify(benchmark::State& state) {
  const auto block = chain::make_block(
      0, chain::zero_digest(), 0, "agg-1",
      make_records(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain::verify_block_integrity(block));
  }
}
BENCHMARK(BM_BlockVerify)->Arg(10)->Arg(50)->Arg(500);

void BM_ChainValidation(benchmark::State& state) {
  chain::Ledger ledger;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    ledger.append(make_records(50), i, "agg-1");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ledger.validate());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChainValidation)->Arg(10)->Arg(100)->Arg(1000);

void BM_BlockSerializeRoundTrip(benchmark::State& state) {
  const auto block =
      chain::make_block(0, chain::zero_digest(), 0, "agg-1", make_records(50));
  for (auto _ : state) {
    auto bytes = chain::serialize_block(block);
    auto back = chain::deserialize_block(bytes);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_BlockSerializeRoundTrip);

// One block through the aggregators' path: stage the batch, then commit,
// sign and store it at collect time.
void BM_PermissionedAppend(benchmark::State& state) {
  chain::PermissionedChain chain;
  chain.register_writer({"agg-1", "secret"});
  const auto records = make_records(50);
  std::int64_t ts = 0;
  for (auto _ : state) {
    const auto ticket = chain.submit("agg-1", "secret", records, ts);
    benchmark::DoNotOptimize(chain.collect(ticket, ts++));
  }
}
BENCHMARK(BM_PermissionedAppend);

}  // namespace
