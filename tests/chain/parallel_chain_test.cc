// Parallel block validation and the shared signature-verification cache:
// one Schnorr check per (tx, signature) across the submit -> validate path,
// and bit-identical blocks for every thread-pool size.

#include <gtest/gtest.h>

#include "../crypto/ed25519_oracle.h"
#include "chain/chain.h"
#include "common/rng.h"
#include "common/serial.h"
#include "common/thread_pool.h"

namespace pds2::chain {
namespace {

using common::Bytes;
using common::ThreadPool;
using common::ToBytes;
using common::Writer;
using crypto::BigUint;
using crypto::SigningKey;

constexpr uint64_t kGas = 2'000'000;
constexpr size_t kNumTxs = 24;

class ParallelChainTest : public ::testing::Test {
 protected:
  ParallelChainTest()
      : validator_(SigningKey::FromSeed(ToBytes("validator-0"))),
        alice_(SigningKey::FromSeed(ToBytes("alice"))),
        bob_(AddressFromPublicKey(
            SigningKey::FromSeed(ToBytes("bob")).PublicKey())) {}

  Blockchain MakeChain(ChainConfig config = {}) {
    Blockchain chain({validator_.PublicKey()},
                     ContractRegistry::CreateDefault(), config);
    EXPECT_TRUE(
        chain
            .CreditGenesis(AddressFromPublicKey(alice_.PublicKey()),
                           10'000'000'000)
            .ok());
    return chain;
  }

  std::vector<Transaction> MakeTransfers(size_t count) {
    std::vector<Transaction> txs;
    for (size_t i = 0; i < count; ++i) {
      txs.push_back(Transaction::Make(alice_, i, bob_, 1 + i, kGas,
                                      CallPayload{}));
    }
    return txs;
  }

  SigningKey validator_;
  SigningKey alice_;
  Address bob_;
};

TEST_F(ParallelChainTest, OneVerifyPerTransactionAcrossSubmitAndProduce) {
  Blockchain chain = MakeChain();
  for (const Transaction& tx : MakeTransfers(kNumTxs)) {
    ASSERT_TRUE(chain.SubmitTransaction(tx).ok());
  }
  EXPECT_EQ(chain.SignatureVerifications(), kNumTxs);
  ASSERT_TRUE(chain.ProduceBlock(validator_, 1).ok());
  // Producing never re-verifies what submission already checked.
  EXPECT_EQ(chain.SignatureVerifications(), kNumTxs);
}

TEST_F(ParallelChainTest, OneVerifyPerTransactionAcrossSubmitAndApply) {
  // Producer makes the block; the replica first learns the transactions via
  // gossip (SubmitTransaction) and then receives the full block — the path
  // that historically verified every signature twice.
  Blockchain producer = MakeChain();
  std::vector<Transaction> txs = MakeTransfers(kNumTxs);
  for (const Transaction& tx : txs) {
    ASSERT_TRUE(producer.SubmitTransaction(tx).ok());
  }
  auto block = producer.ProduceBlock(validator_, 1);
  ASSERT_TRUE(block.ok());

  Blockchain replica = MakeChain();
  for (const Transaction& tx : txs) {
    ASSERT_TRUE(replica.SubmitTransaction(tx).ok());
  }
  EXPECT_EQ(replica.SignatureVerifications(), kNumTxs);
  ASSERT_TRUE(replica.ApplyExternalBlock(*block).ok());
  EXPECT_EQ(replica.SignatureVerifications(), kNumTxs);  // not 2 * kNumTxs

  // A cold replica that never saw the mempool pays exactly once too.
  Blockchain cold = MakeChain();
  ASSERT_TRUE(cold.ApplyExternalBlock(*block).ok());
  EXPECT_EQ(cold.SignatureVerifications(), kNumTxs);
}

TEST_F(ParallelChainTest, FailedVerificationIsNeverCached) {
  Blockchain chain = MakeChain();
  Transaction tx = MakeTransfers(1)[0];
  Bytes raw = tx.Serialize();
  raw[raw.size() - 10] ^= 0xff;  // corrupt the signature bytes
  auto tampered = Transaction::Deserialize(raw);
  ASSERT_TRUE(tampered.ok());

  EXPECT_FALSE(chain.SubmitTransaction(*tampered).ok());
  EXPECT_FALSE(chain.SubmitTransaction(*tampered).ok());
  // Both rejections performed a real check: failures must not populate the
  // cache, or a later identical submission would sail through.
  EXPECT_EQ(chain.SignatureVerifications(), 2u);
}

TEST_F(ParallelChainTest, BlockHashesIdenticalAcrossThreadCounts) {
  std::vector<Transaction> txs = MakeTransfers(kNumTxs);

  Blockchain sequential = MakeChain();
  for (const Transaction& tx : txs) {
    ASSERT_TRUE(sequential.SubmitTransaction(tx).ok());
  }
  auto seq_block = sequential.ProduceBlock(validator_, 1);
  ASSERT_TRUE(seq_block.ok());

  for (size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    ChainConfig config;
    config.thread_pool = &pool;
    Blockchain parallel = MakeChain(config);
    for (const Transaction& tx : txs) {
      ASSERT_TRUE(parallel.SubmitTransaction(tx).ok());
    }
    auto par_block = parallel.ProduceBlock(validator_, 1);
    ASSERT_TRUE(par_block.ok());
    // Identical header hash => identical tx root, state root, everything.
    EXPECT_EQ(par_block->header.Id(), seq_block->header.Id())
        << "threads=" << threads;
  }
}

TEST_F(ParallelChainTest, ParallelReplicaAcceptsBlockAndConvergesState) {
  Blockchain producer = MakeChain();
  std::vector<Transaction> txs = MakeTransfers(kNumTxs);
  for (const Transaction& tx : txs) {
    ASSERT_TRUE(producer.SubmitTransaction(tx).ok());
  }
  auto block = producer.ProduceBlock(validator_, 1);
  ASSERT_TRUE(block.ok());

  for (size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    ChainConfig config;
    config.thread_pool = &pool;
    Blockchain replica = MakeChain(config);
    ASSERT_TRUE(replica.ApplyExternalBlock(*block).ok());
    EXPECT_EQ(replica.Height(), 1u);
    EXPECT_EQ(replica.LastBlockHash(), producer.LastBlockHash());
    EXPECT_EQ(replica.GetBalance(bob_), producer.GetBalance(bob_));
  }
}

TEST_F(ParallelChainTest, ParallelValidationRejectsBadSignatureInBlock) {
  Blockchain producer = MakeChain();
  std::vector<Transaction> txs = MakeTransfers(kNumTxs);
  for (const Transaction& tx : txs) {
    ASSERT_TRUE(producer.SubmitTransaction(tx).ok());
  }
  auto block = producer.ProduceBlock(validator_, 1);
  ASSERT_TRUE(block.ok());

  // Swap one transaction for a signature-corrupted twin and rebuild a
  // consistently-signed header, so signature verification (not the tx root
  // or header checks) is what must catch the forgery.
  Block forged = *block;
  Bytes raw = forged.transactions[kNumTxs / 2].Serialize();
  raw[raw.size() - 10] ^= 0xff;
  auto tampered = Transaction::Deserialize(raw);
  ASSERT_TRUE(tampered.ok());
  forged.transactions[kNumTxs / 2] = *tampered;
  forged.header.tx_root = Block::ComputeTxRoot(forged.transactions);
  forged.header.signature = validator_.SignWithDomain(
      BlockHeader::Domain(), forged.header.SigningBytes());

  for (size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    ChainConfig config;
    config.thread_pool = &pool;
    Blockchain replica = MakeChain(config);
    EXPECT_FALSE(replica.ApplyExternalBlock(forged).ok());
    EXPECT_EQ(replica.Height(), 0u);
  }
}

// A plain transfer (nonce 0, value 1) from `pub`, signed the way
// SigningKey does with `secret` but with the nonce point R = r * B +
// nonce_offset. Builds the torsion and small-order-key cases only a
// Byzantine sender makes.
Transaction CraftedTransfer(const BigUint& secret, const Bytes& pub,
                            const BigUint& r,
                            const crypto::EdPoint& nonce_offset,
                            const Address& to, uint64_t gas_limit) {
  Writer w;  // Transaction::SigningBytes of a plain transfer
  w.PutBytes(pub);
  w.PutU64(0);  // nonce
  w.PutBytes(to);
  w.PutU64(1);  // value
  w.PutU64(gas_limit);
  w.PutU64(1);  // gas price
  w.PutString("");
  w.PutU64(0);
  w.PutString("");
  w.PutBytes({});
  const Bytes raw = w.Take();
  Writer full;
  full.PutRaw(raw);
  full.PutBytes(crypto::oracle::SignWithNonce(
      secret, pub, crypto::DomainSeparatedMessage(Transaction::Domain(), raw),
      r, nonce_offset));
  auto tx = Transaction::Deserialize(full.Take());
  EXPECT_TRUE(tx.ok());
  EXPECT_EQ(tx->SigningBytes(), raw);
  return *tx;
}

TEST_F(ParallelChainTest, TorsionSignatureGetsOneVerdictAtEveryPoolSize) {
  // 64 unverified signatures split into 1, 2 and 4 batches at 1, 2 and 4
  // threads. Under an uncofactored equation, a signature whose nonce point
  // carries an order-2 component fails alone but passes in a batch whose
  // coefficient for it is even, so replicas with different pool sizes
  // would disagree about the same block.
  constexpr uint64_t kTransferGas = 1'000'000;
  const BigUint secret(12345);
  const Bytes pub = crypto::EdPoint::ScalarBaseMul(secret).Encode();
  auto torsion = [&](uint64_t r) {
    return CraftedTransfer(secret, pub, BigUint(r),
                           crypto::oracle::OrderTwoPoint(), bob_,
                           kTransferGas);
  };
  auto make_chain = [&](ChainConfig config) {
    Blockchain chain = MakeChain(config);
    EXPECT_TRUE(
        chain.CreditGenesis(AddressFromPublicKey(pub), 1'000'000'000).ok());
    return chain;
  };
  // 64 transfers from alice, as an honest proposer produced them.
  Blockchain producer = make_chain({});
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(producer
                    .SubmitTransaction(Transaction::Make(
                        alice_, i, bob_, 1, kTransferGas, CallPayload{}))
                    .ok());
  }
  const Block honest = producer.ProduceBlock(validator_, 1).value();
  ASSERT_EQ(honest.transactions.size(), 64u);
  // The honest block with its last transfer swapped for `tx` by a Byzantine
  // proposer, which re-signs the header over the new tx root.
  auto with_last = [&](const Transaction& tx) {
    Block block = honest;
    block.transactions.back() = tx;
    block.header.tx_root = Block::ComputeTxRoot(block.transactions);
    block.header.signature = validator_.SignWithDomain(
        BlockHeader::Domain(), block.header.SigningBytes());
    return block;
  };
  auto statuses = [&](const Block& block) {
    std::vector<std::string> out;
    for (size_t threads : {1u, 2u, 4u}) {
      ThreadPool pool(threads);
      ChainConfig config;
      config.thread_pool = &pool;
      Blockchain replica = make_chain(config);
      out.push_back(replica.ApplyExternalBlock(block).ToString());
    }
    return out;
  };

  // Torsion transfers pass signature checks at every pool size; the block
  // then fails on its stale state root, the same way everywhere. Each
  // nonce gives the batches different coefficients.
  std::string torsion_status;
  for (uint64_t r = 1; r <= 8; ++r) {
    const std::vector<std::string> got = statuses(with_last(torsion(r)));
    EXPECT_EQ(got[0], got[1]) << "r=" << r;
    EXPECT_EQ(got[0], got[2]) << "r=" << r;
    torsion_status = got[0];
  }

  // A forgery under the identity key (secret 0, so s = r) is refused at
  // every pool size with the same status.
  Bytes identity(64, 0);
  identity[32] = 1;
  const std::vector<std::string> forged = statuses(with_last(CraftedTransfer(
      BigUint(), identity, BigUint(7), crypto::EdPoint::Identity(), bob_,
      kTransferGas)));
  EXPECT_NE(forged[0], torsion_status);
  EXPECT_EQ(forged[0], forged[1]);
  EXPECT_EQ(forged[0], forged[2]);

  // And an honest proposer may include a torsion transfer: every replica
  // accepts the block.
  Blockchain torsion_producer = make_chain({});
  ASSERT_TRUE(torsion_producer.SubmitTransaction(torsion(1)).ok());
  const Block block = torsion_producer.ProduceBlock(validator_, 1).value();
  for (const std::string& status : statuses(block)) {
    EXPECT_EQ(status, common::Status::Ok().ToString());
  }
}

}  // namespace
}  // namespace pds2::chain
