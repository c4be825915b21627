// chain_apply: a bare Blockchain in the E15 shape (10^5 genesis accounts)
// with one validator and one replica. Every op submits one block's worth of
// transfers that were signed during set-up, a quarter of them to one hot
// account; the validator produces the block and the replica applies it.
// Recipients are existing genesis accounts, so the state keeps its size and
// every op costs the same.
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "chain/chain.h"
#include "common/hex.h"
#include "common/rng.h"
#include "crypto/sha256.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

using namespace pds2;

constexpr size_t kAccounts = 100'000;
constexpr size_t kTxsPerBlock = 256;
constexpr size_t kOpsPerRound = 25;
constexpr uint64_t kSenderBalance = 1'000'000'000'000ULL;

chain::Address DerivedAddress(const std::string& tag) {
  common::Bytes h = crypto::Sha256::Hash(tag);
  h.resize(chain::kAddressSize);
  return h;
}

/// Keys, genesis accounts and every op's signed transfers, drawn from the
/// seed once and replayed by every round.
struct ChainInputs {
  crypto::SigningKey validator;
  std::vector<chain::Address> senders;
  std::vector<chain::Address> fillers;
  chain::Address hot;
  std::vector<std::vector<chain::Transaction>> blocks;  // [op][tx]
};

ChainInputs MakeInputs(uint64_t seed) {
  const std::string tag = std::to_string(seed);
  common::Rng rng(seed);
  ChainInputs in{crypto::SigningKey::FromSeed(common::ToBytes("v-" + tag)),
                 {}, {}, DerivedAddress("hot-" + tag), {}};
  std::vector<crypto::SigningKey> keys;
  for (size_t i = 0; i < kTxsPerBlock; ++i) {
    keys.push_back(crypto::SigningKey::FromSeed(
        common::ToBytes("s-" + tag + "-" + std::to_string(i))));
    in.senders.push_back(chain::AddressFromPublicKey(keys.back().PublicKey()));
  }
  for (size_t i = in.senders.size(); i < kAccounts; ++i) {
    in.fillers.push_back(DerivedAddress("f-" + tag + "-" + std::to_string(i)));
  }
  for (size_t op = 0; op < kOpsPerRound; ++op) {
    std::vector<chain::Transaction> txs;
    for (size_t i = 0; i < kTxsPerBlock; ++i) {
      // Every fourth transfer, evenly interleaved, hits the hot account.
      const chain::Address& to =
          i % 4 == 3 ? in.hot : in.fillers[rng.NextU64(in.fillers.size())];
      txs.push_back(chain::Transaction::Make(keys[i], op, to,
                                             1 + rng.NextU64(1000), 100'000,
                                             chain::CallPayload{}));
    }
    in.blocks.push_back(std::move(txs));
  }
  return in;
}

std::unique_ptr<chain::Blockchain> MakeChain(const ChainInputs& in,
                                             common::ThreadPool* pool) {
  chain::ChainConfig config;
  config.thread_pool = pool;
  auto bc = std::make_unique<chain::Blockchain>(
      std::vector<common::Bytes>{in.validator.PublicKey()},
      chain::ContractRegistry::CreateDefault(), config);
  for (const chain::Address& a : in.senders) {
    (void)bc->CreditGenesis(a, kSenderBalance);
  }
  (void)bc->CreditGenesis(in.hot, 1);
  for (const chain::Address& a : in.fillers) (void)bc->CreditGenesis(a, 1);
  return bc;
}

class ChainRound : public Round {
 public:
  ChainRound(const ChainInputs& inputs, common::ThreadPool* pool)
      : in_(inputs), producer_(MakeChain(inputs, pool)),
        replica_(MakeChain(inputs, pool)),
        supply_(producer_->TotalSupply()) {}

  bool Op(size_t i) override {
    bool ok = true;
    {
      obs::ScopedSpan span("bench.chain.submit");
      for (const chain::Transaction& tx : in_.blocks[i]) {
        ok = producer_->SubmitTransaction(tx).ok() && ok;
      }
    }
    common::Result<chain::Block> block = [&] {
      obs::ScopedSpan span("bench.chain.produce");
      return producer_->ProduceBlock(in_.validator, i + 1);
    }();
    if (!ok || !block.ok()) return false;
    obs::ScopedSpan span("bench.chain.apply");
    return replica_->ApplyExternalBlock(*block).ok();
  }

  bool CheckOp(size_t i) override {
    if (producer_->Height() != i + 1 || replica_->Height() != i + 1) {
      return false;
    }
    const chain::Block& block = producer_->blocks().back();
    if (block.transactions.size() != kTxsPerBlock ||
        producer_->LastBlockHash() != replica_->LastBlockHash() ||
        block.header.state_root !=
            replica_->blocks().back().header.state_root) {
      return false;
    }
    for (const chain::Transaction& tx : block.transactions) {
      auto produced = producer_->GetReceipt(tx.Id());
      auto applied = replica_->GetReceipt(tx.Id());
      if (!produced.ok() || !applied.ok() || !produced->success ||
          !applied->success) {
        return false;
      }
    }
    return true;
  }

  bool CheckRound() override {
    return producer_->StateDigest() == replica_->StateDigest() &&
           producer_->TotalSupply() == supply_ &&
           replica_->TotalSupply() == supply_;
  }

  Costs costs() override {
    Costs c;
    c.gas = producer_->TotalGasUsed();
    for (const chain::Block& block : producer_->blocks()) {
      c.chain_bytes += block.Serialize().size();
      c.txs += block.transactions.size();
    }
    c.blocks = producer_->Height();
    c.fingerprint = common::HexEncode(producer_->LastBlockHash());
    return c;
  }

 private:
  const ChainInputs& in_;
  std::unique_ptr<chain::Blockchain> producer_;
  std::unique_ptr<chain::Blockchain> replica_;
  uint64_t supply_;
};

class ChainWorkload : public Workload {
 public:
  explicit ChainWorkload(uint64_t seed) : inputs_(MakeInputs(seed)) {}

  size_t OpsPerRound() const override { return kOpsPerRound; }

  std::unique_ptr<Round> NewRound(common::ThreadPool* pool) override {
    return std::make_unique<ChainRound>(inputs_, pool);
  }

 private:
  ChainInputs inputs_;
};

}  // namespace

std::unique_ptr<Workload> MakeChainApply(uint64_t seed) {
  return std::make_unique<ChainWorkload>(seed);
}

}  // namespace perfbench
