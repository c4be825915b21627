// Parallel chain paths, one suite:
//  - parallel block validation and the shared signature-verification cache:
//    one Schnorr check per (tx, signature) across the submit -> validate
//    path, and bit-identical blocks for every thread-pool size;
//  - batched admission: one SubmitTransactions call against one
//    SubmitTransaction call per entry over a seeded stream, identical in
//    statuses, signature checks, cache, mempool selection and blocks at
//    every pool size;
//  - parallel transaction execution: conflict-lane partitioning,
//    StateOverlay store semantics, and — the contract that matters —
//    bit-identical receipts, state digests and block hashes for every
//    (conflict rate, thread count) combination. The sequential
//    path is the ground truth; the optimistic lane executor must be
//    observationally indistinguishable from it.
//
// Carries the `parallel` and `sanitize` labels: rerun under
// -DPDS2_SANITIZE=thread to check the lane executor for data races.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "../crypto/ed25519_oracle.h"
#include "chain/chain.h"
#include "chain/evidence.h"
#include "chain/parallel_exec.h"
#include "common/rng.h"
#include "common/serial.h"
#include "common/thread_pool.h"
#include "crypto/sha256.h"

namespace pds2::chain {
namespace {

using common::Bytes;
using common::Reader;
using common::ThreadPool;
using common::ToBytes;
using common::Writer;
using crypto::BigUint;
using crypto::SigningKey;

constexpr uint64_t kGas = 2'000'000;
constexpr uint64_t kGenesisEach = 10'000'000'000;

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

// --- One admission path: SubmitTransactions against single submits --------

// One round of a seeded admission stream. Each entry carries the status
// code admission must give it and whether its signature is bad; `executes`
// counts the entries the block sealed after the round must include.
struct AdmissionRound {
  std::vector<Transaction> txs;
  std::vector<common::StatusCode> expected;
  std::vector<bool> bad_signature;
  size_t executes = 0;
};

constexpr uint64_t kAdmissionFloor = 2;  // the stream chain's price floor
constexpr uint64_t kPunishedHeight = 1000;

// Two staked validators (the second one double-signs), a reporter, and
// twelve funded senders.
struct AdmissionSetup {
  SigningKey honest = SigningKey::FromSeed(ToBytes("admission-honest"));
  SigningKey offender = SigningKey::FromSeed(ToBytes("admission-offender"));
  SigningKey reporter = SigningKey::FromSeed(ToBytes("admission-reporter"));
  std::vector<SigningKey> senders;

  AdmissionSetup() {
    for (int i = 0; i < 12; ++i) {
      senders.push_back(
          SigningKey::FromSeed(ToBytes("admission-" + std::to_string(i))));
    }
  }

  Blockchain MakeChain(ThreadPool* pool) const {
    ChainConfig config;
    config.gas_price = kAdmissionFloor;
    config.validator_stake = 1'000'000;
    config.thread_pool = pool;
    Blockchain chain({honest.PublicKey(), offender.PublicKey()},
                     ContractRegistry::CreateDefault(), config);
    for (const SigningKey& sender : senders) {
      EXPECT_TRUE(chain
                      .CreditGenesis(AddressFromPublicKey(sender.PublicKey()),
                                     kGenesisEach)
                      .ok());
    }
    return chain;
  }

  const SigningKey& ProposerAt(const Blockchain& chain,
                               common::SimTime timestamp) const {
    return chain.ProposerAt(timestamp) == honest.PublicKey() ? honest
                                                             : offender;
  }

  // A double-sign by `offender` at `height`, reported with `nonce`.
  Transaction Evidence(uint64_t nonce, uint64_t height) const {
    auto header = [&](common::SimTime timestamp) {
      BlockHeader h;
      h.parent_hash = Hash(32, 0xab);
      h.number = height;
      h.timestamp = timestamp;
      h.proposer_public_key = offender.PublicKey();
      h.signature = offender.SignWithDomain(BlockHeader::Domain(),
                                            h.SigningBytes());
      return h;
    };
    return MakeEvidenceTransaction(reporter, nonce,
                                   EquivocationEvidence{header(1), header(2)});
  }

  // `rounds` rounds of 96 entries: valid transfers, bad signatures,
  // in-batch repeats, duplicates of queued transactions, already-executed
  // resubmissions, valid, malformed and already-punished evidence,
  // below-floor and below-intrinsic-gas offers, settlement overflow,
  // unknown contracts and nonce gaps.
  std::vector<AdmissionRound> Stream(uint64_t seed, int rounds) const {
    using common::StatusCode;
    common::Rng rng(seed);
    std::vector<uint64_t> next_nonce(senders.size(), 0);
    uint64_t reporter_nonce = 0;
    uint64_t fresh_height = kPunishedHeight;
    std::vector<Transaction> executed, queued;
    std::vector<AdmissionRound> out;
    for (int r = 0; r < rounds; ++r) {
      AdmissionRound round;
      auto add = [&](Transaction tx, StatusCode code, bool bad = false) {
        round.txs.push_back(std::move(tx));
        round.expected.push_back(code);
        round.bad_signature.push_back(bad);
      };
      auto add_executed = [&](Transaction tx) {
        executed.push_back(tx);
        ++round.executes;
        add(std::move(tx), StatusCode::kOk);
      };
      // Round 0 opens with a proof for kPunishedHeight, which slashes the
      // whole bond; later rounds' proofs for that height are refused.
      if (r == 0) add_executed(Evidence(reporter_nonce++, kPunishedHeight));
      while (round.txs.size() < 96) {
        const size_t s = rng.NextU64(senders.size());
        const uint64_t gas = 21'000 + rng.NextU64(kGas / 10);
        auto transfer = [&](uint64_t nonce, uint64_t gas_limit,
                            uint64_t price) {
          return Transaction::Make(senders[s], nonce, Address(kAddressSize, 7),
                                   1 + rng.NextU64(9), gas_limit,
                                   CallPayload{}, price);
        };
        switch (rng.NextU64(14)) {
          case 0:
          case 1:
          case 2:
          case 3:
            add_executed(transfer(next_nonce[s]++, gas,
                                  kAdmissionFloor + rng.NextU64(3)));
            break;
          case 4: {
            Bytes raw =
                transfer(next_nonce[s], gas, kAdmissionFloor).Serialize();
            raw[raw.size() - 1 - rng.NextU64(32)] ^= 0x01;  // signature s
            Transaction bad = Transaction::Deserialize(raw).value();
            const StatusCode code = bad.VerifySignature().code();
            EXPECT_NE(code, StatusCode::kOk);
            add(std::move(bad), code, /*bad=*/true);
            break;
          }
          case 5:  // in-batch repeat, of the last bad signature half the time
            if (!round.txs.empty()) {
              size_t k = rng.NextU64(round.txs.size());
              const auto bad = std::find(round.bad_signature.rbegin(),
                                         round.bad_signature.rend(), true);
              if (rng.NextU64(2) == 0 && bad != round.bad_signature.rend()) {
                k = round.bad_signature.rend() - bad - 1;
              }
              const StatusCode first = round.expected[k];
              add(round.txs[k],
                  first == StatusCode::kOk ? StatusCode::kAlreadyExists
                                           : first,
                  round.bad_signature[k]);
            }
            break;
          case 6:  // duplicate of a still-queued transaction
            if (!queued.empty()) {
              add(queued[rng.NextU64(queued.size())],
                  StatusCode::kAlreadyExists);
            }
            break;
          case 7:
            if (!executed.empty()) {
              add(executed[rng.NextU64(executed.size())],
                  StatusCode::kAlreadyExists);
            }
            break;
          case 8: {
            const uint64_t kind = rng.NextU64(3);
            if (kind == 0) {
              add_executed(Evidence(reporter_nonce++, ++fresh_height));
            } else if (kind == 1) {
              add(Transaction::Make(reporter, reporter_nonce, Address{}, 0, 0,
                                    CallPayload{kEvidenceContract, 0,
                                                "appeal", {}},
                                    0),
                  StatusCode::kInvalidArgument);
            } else if (r == 0) {
              add_executed(Evidence(reporter_nonce++, kPunishedHeight));
            } else {
              add(Evidence(reporter_nonce, kPunishedHeight),
                  StatusCode::kAlreadyExists);
            }
            break;
          }
          case 9:
            add(transfer(next_nonce[s], gas, kAdmissionFloor - 1),
                StatusCode::kInvalidArgument);
            break;
          case 10:
            add(transfer(next_nonce[s], 100, kAdmissionFloor),
                StatusCode::kInvalidArgument);
            break;
          case 11:
            add(transfer(next_nonce[s], UINT64_MAX / 2, kAdmissionFloor + 1),
                StatusCode::kInvalidArgument);
            break;
          case 12:
            add(Transaction::Make(senders[s], next_nonce[s], Address{}, 0,
                                  kGas, CallPayload{"no-such", 1, "m", {}},
                                  kAdmissionFloor),
                StatusCode::kNotFound);
            break;
          default:  // nonce gap: queued, never executable
            queued.push_back(transfer(1'000'000 + queued.size(), gas,
                                      kAdmissionFloor));
            add(queued.back(), StatusCode::kOk);
            break;
        }
      }
      out.push_back(std::move(round));
    }
    return out;
  }
};

// What one chain made of the stream: every status string, the signature
// checks after each round, each sealed block's hash, a digest of the
// mempool's selections (block tx ids, then the pool size), and the checks
// a resubmission of the whole stream performed.
struct AdmissionRun {
  std::vector<std::string> statuses;
  std::vector<uint64_t> verifications;
  std::vector<Hash> block_hashes;
  Hash selection_digest;
  uint64_t resubmit_verifications = 0;
};

AdmissionRun RunAdmission(const AdmissionSetup& setup,
                          const std::vector<AdmissionRound>& rounds,
                          size_t threads, bool batched) {
  ThreadPool pool(threads);
  Blockchain chain = setup.MakeChain(&pool);
  auto submit = [&](const std::vector<Transaction>& txs) {
    if (batched) return chain.SubmitTransactions(txs);
    std::vector<common::Status> statuses;
    for (const Transaction& tx : txs) {
      statuses.push_back(chain.SubmitTransaction(tx));
    }
    return statuses;
  };
  AdmissionRun run;
  Writer selection;
  common::SimTime now = 0;
  for (size_t r = 0; r < rounds.size(); ++r) {
    const std::vector<common::Status> statuses = submit(rounds[r].txs);
    for (size_t i = 0; i < statuses.size(); ++i) {
      EXPECT_EQ(statuses[i].code(), rounds[r].expected[i])
          << "round " << r << " entry " << i << ": " << statuses[i].ToString();
      run.statuses.push_back(statuses[i].ToString());
    }
    run.verifications.push_back(chain.SignatureVerifications());
    ++now;
    auto block = chain.ProduceBlock(setup.ProposerAt(chain, now), now);
    EXPECT_TRUE(block.ok()) << block.status().ToString();
    EXPECT_EQ(block->transactions.size(), rounds[r].executes);
    for (const Transaction& tx : block->transactions) {
      selection.PutBytes(tx.Id());
    }
    selection.PutU64(chain.MempoolSize());
    run.block_hashes.push_back(block->header.Id());
  }
  run.selection_digest = crypto::Sha256::Hash(selection.Take());

  // Every entry again: only bad signatures are checked again (failures are
  // never cached), and every admitted entry is now a duplicate.
  const uint64_t before = chain.SignatureVerifications();
  size_t bad_signatures = 0;
  for (const AdmissionRound& round : rounds) {
    const std::vector<common::Status> statuses = submit(round.txs);
    for (size_t i = 0; i < statuses.size(); ++i) {
      const common::StatusCode first = round.expected[i];
      EXPECT_EQ(statuses[i].code(), first == common::StatusCode::kOk
                                        ? common::StatusCode::kAlreadyExists
                                        : first);
      if (round.bad_signature[i]) ++bad_signatures;
    }
  }
  run.resubmit_verifications = chain.SignatureVerifications() - before;
  EXPECT_EQ(run.resubmit_verifications, bad_signatures);
  return run;
}

void ExpectSameAdmission(const AdmissionRun& a, const AdmissionRun& b) {
  EXPECT_EQ(a.statuses, b.statuses);
  EXPECT_EQ(a.verifications, b.verifications);
  EXPECT_EQ(a.block_hashes, b.block_hashes);
  EXPECT_EQ(a.selection_digest, b.selection_digest);
  EXPECT_EQ(a.resubmit_verifications, b.resubmit_verifications);
}

// One SubmitTransactions call per round against one SubmitTransaction call
// per entry: the same statuses, signature checks, cache, mempool selection
// and blocks, at every pool size.
TEST(AdmissionTest, BatchedAdmissionMatchesSingleSubmitsAtEveryPoolSize) {
  const AdmissionSetup setup;
  const std::vector<AdmissionRound> rounds = setup.Stream(/*seed=*/1, 4);
  const AdmissionRun reference = RunAdmission(setup, rounds, 1, false);
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectSameAdmission(RunAdmission(setup, rounds, threads, true),
                        reference);
    if (threads > 1) {
      ExpectSameAdmission(RunAdmission(setup, rounds, threads, false),
                          reference);
    }
  }
}

// --- Conflict lanes, StateOverlay ------------------------------------------

Address TestAddress(uint8_t tag) { return Address(kAddressSize, tag); }

// --- PartitionIntoLanes -----------------------------------------------------

AccessSet Accounts(std::initializer_list<uint8_t> tags) {
  AccessSet set;
  for (uint8_t tag : tags) set.accounts.insert(TestAddress(tag));
  return set;
}

TEST(PartitionIntoLanesTest, DisjointSetsGetTheirOwnLanes) {
  std::vector<AccessSet> sets = {Accounts({1, 2}), Accounts({3, 4}),
                                 Accounts({5, 6})};
  auto lanes = PartitionIntoLanes(sets);
  ASSERT_EQ(lanes.size(), 3u);
  EXPECT_EQ(lanes[0], std::vector<size_t>{0});
  EXPECT_EQ(lanes[1], std::vector<size_t>{1});
  EXPECT_EQ(lanes[2], std::vector<size_t>{2});
}

TEST(PartitionIntoLanesTest, SharedAccountMergesTransitively) {
  // 0-1 share account 2, 1-3 share account 5: {0,1,3} is one lane even
  // though 0 and 3 have nothing in common directly.
  std::vector<AccessSet> sets = {Accounts({1, 2}), Accounts({2, 5}),
                                 Accounts({7, 8}), Accounts({5, 9})};
  auto lanes = PartitionIntoLanes(sets);
  ASSERT_EQ(lanes.size(), 2u);
  EXPECT_EQ(lanes[0], (std::vector<size_t>{0, 1, 3}));
  EXPECT_EQ(lanes[1], std::vector<size_t>{2});
}

TEST(PartitionIntoLanesTest, SharedStorageSpaceMerges) {
  AccessSet a = Accounts({1});
  a.spaces.insert("erc20/7");
  AccessSet b = Accounts({2});
  b.spaces.insert("erc20/7");
  auto lanes = PartitionIntoLanes({a, b});
  ASSERT_EQ(lanes.size(), 1u);
  EXPECT_EQ(lanes[0], (std::vector<size_t>{0, 1}));
}

TEST(PartitionIntoLanesTest, GlobalSetSerializesEverything) {
  AccessSet global;
  global.global = true;
  auto lanes = PartitionIntoLanes({Accounts({1}), global, Accounts({2})});
  ASSERT_EQ(lanes.size(), 1u);
  EXPECT_EQ(lanes[0], (std::vector<size_t>{0, 1, 2}));
}

TEST(PartitionIntoLanesTest, LanesOrderedByLowestMember) {
  // tx1 and tx3 conflict; lane containing tx0 comes first, then {1,3},
  // then {2}.
  std::vector<AccessSet> sets = {Accounts({10}), Accounts({11, 12}),
                                 Accounts({13}), Accounts({12, 14})};
  auto lanes = PartitionIntoLanes(sets);
  ASSERT_EQ(lanes.size(), 3u);
  EXPECT_EQ(lanes[0], std::vector<size_t>{0});
  EXPECT_EQ(lanes[1], (std::vector<size_t>{1, 3}));
  EXPECT_EQ(lanes[2], std::vector<size_t>{2});
}

// --- StateOverlay -----------------------------------------------------------
// The ledger rules themselves are shared with WorldState (StateView); these
// pin the overlay's store behaviour. state_test.cc holds the randomized
// differential test against WorldState.

TEST(StateOverlayTest, ReadsFallThroughWritesStayInOverlay) {
  WorldState base;
  ASSERT_TRUE(base.Credit(TestAddress(1), 100).ok());
  StateOverlay overlay(base);

  EXPECT_EQ(overlay.GetBalance(TestAddress(1)), 100u);
  ASSERT_TRUE(overlay.Transfer(TestAddress(1), TestAddress(2), 40).ok());
  EXPECT_EQ(overlay.GetBalance(TestAddress(1)), 60u);
  EXPECT_EQ(overlay.GetBalance(TestAddress(2)), 40u);
  // The base is untouched until MergeInto.
  EXPECT_EQ(base.GetBalance(TestAddress(1)), 100u);
  EXPECT_EQ(base.GetBalance(TestAddress(2)), 0u);
  EXPECT_TRUE(Accounts({1, 2}).Includes(overlay.footprint()));

  overlay.MergeInto(base);
  EXPECT_EQ(base.GetBalance(TestAddress(1)), 60u);
  EXPECT_EQ(base.GetBalance(TestAddress(2)), 40u);
}

TEST(StateOverlayTest, MatchesWorldStateSemanticsIncludingDigest) {
  // Run the same op sequence against a WorldState and through an overlay,
  // then compare digests: account-existence effects (zero-balance accounts
  // hash into the digest) must match exactly.
  WorldState direct;
  ASSERT_TRUE(direct.Credit(TestAddress(1), 50).ok());
  WorldState base;
  ASSERT_TRUE(base.Credit(TestAddress(1), 50).ok());

  auto script = [](StateView& s) {
    ASSERT_TRUE(s.Transfer(TestAddress(1), TestAddress(2), 50).ok());
    s.BumpNonce(TestAddress(1));
    ASSERT_TRUE(s.StoragePut("space", ToBytes("k1"), ToBytes("v1")) == false);
    s.Begin();
    ASSERT_TRUE(s.StoragePut("space", ToBytes("k2"), ToBytes("v2")) == false);
    ASSERT_TRUE(s.Debit(TestAddress(2), 10).ok());
    s.Rollback();  // k2 and the debit disappear
    s.StorageDelete("space", ToBytes("missing"));  // no-op
    // Transfer of 0 to a fresh address still creates the account.
    ASSERT_TRUE(s.Transfer(TestAddress(2), TestAddress(3), 0).ok());
  };
  script(direct);

  StateOverlay overlay(base);
  script(overlay);
  overlay.MergeInto(base);

  EXPECT_EQ(base.Digest(), direct.Digest());
}

TEST(StateOverlayTest, ErrorStringsMatchWorldState) {
  WorldState base;
  ASSERT_TRUE(base.Credit(TestAddress(1), 5).ok());
  StateOverlay overlay(base);

  common::Status direct = base.Debit(TestAddress(2), 1);
  common::Status lane = overlay.Debit(TestAddress(2), 1);
  EXPECT_EQ(lane.ToString(), direct.ToString());

  direct = base.Credit(TestAddress(1), UINT64_MAX);
  lane = overlay.Credit(TestAddress(1), UINT64_MAX);
  EXPECT_EQ(lane.ToString(), direct.ToString());
}

TEST(StateOverlayTest, FootprintRecordsOutOfSetAccess) {
  // Lane validation is "footprint ⊆ allowed": every read counts, failed
  // operations and no-op deletes included.
  WorldState base;
  StateOverlay overlay(base);
  (void)overlay.GetBalance(TestAddress(1));
  EXPECT_TRUE(Accounts({1}).Includes(overlay.footprint()));
  (void)overlay.GetBalance(TestAddress(9));  // outside the lane
  EXPECT_FALSE(Accounts({1}).Includes(overlay.footprint()));
  EXPECT_EQ(overlay.footprint().accounts.count(TestAddress(9)), 1u);

  StateOverlay storage_overlay(base);
  ASSERT_FALSE(storage_overlay.Debit(TestAddress(1), 1).ok());
  storage_overlay.StorageDelete("undeclared", ToBytes("k"));
  EXPECT_FALSE(Accounts({1}).Includes(storage_overlay.footprint()));
  EXPECT_EQ(storage_overlay.footprint().spaces.count("undeclared"), 1u);
}

TEST(StateOverlayTest, StorageScanMergesOverlayAndBase) {
  WorldState base;
  ASSERT_FALSE(base.StoragePut("s", ToBytes("a1"), ToBytes("base1")));
  ASSERT_FALSE(base.StoragePut("s", ToBytes("a3"), ToBytes("base3")));
  ASSERT_FALSE(base.StoragePut("s", ToBytes("a4"), ToBytes("base4")));

  StateOverlay overlay(base);
  ASSERT_FALSE(overlay.StoragePut("s", ToBytes("a2"), ToBytes("lane2")));
  ASSERT_TRUE(overlay.StoragePut("s", ToBytes("a3"), ToBytes("lane3")));
  overlay.StorageDelete("s", ToBytes("a4"));  // tombstone hides the base entry

  auto scan = overlay.StorageScan("s", ToBytes("a"));
  ASSERT_EQ(scan.size(), 3u);
  EXPECT_EQ(scan[0].first, ToBytes("a1"));
  EXPECT_EQ(scan[0].second, ToBytes("base1"));
  EXPECT_EQ(scan[1].first, ToBytes("a2"));
  EXPECT_EQ(scan[1].second, ToBytes("lane2"));
  EXPECT_EQ(scan[2].first, ToBytes("a3"));
  EXPECT_EQ(scan[2].second, ToBytes("lane3"));
}

// --- End-to-end bit-equality sweep ------------------------------------------

struct RunResult {
  Hash block_hash;
  Hash state_digest;
  std::vector<Receipt> receipts;  // in block order
  size_t tx_count = 0;
};

// A transfer workload over `kSenders` independent senders where
// `conflict_pct` percent of the transactions pay a single hot address (all
// in one lane) and the rest pay a per-sender cold address (own lane each).
RunResult RunTransferWorkload(int conflict_pct, size_t threads) {
  constexpr size_t kSenders = 32;
  SigningKey validator = SigningKey::FromSeed(ToBytes("validator-0"));
  common::ThreadPool pool(threads);
  ChainConfig config;
  config.thread_pool = &pool;
  Blockchain chain({validator.PublicKey()}, ContractRegistry::CreateDefault(),
                   config);

  std::vector<SigningKey> senders;
  for (size_t i = 0; i < kSenders; ++i) {
    senders.push_back(SigningKey::FromSeed(ToBytes("sender-" +
                                                   std::to_string(i))));
    EXPECT_TRUE(chain
                    .CreditGenesis(
                        AddressFromPublicKey(senders.back().PublicKey()),
                        kGenesisEach)
                    .ok());
  }

  const Address hot = TestAddress(0xee);
  std::vector<Transaction> txs;
  for (size_t i = 0; i < kSenders; ++i) {
    // Bresenham spread: exactly conflict_pct% of indices, evenly spaced.
    const bool conflicted =
        ((i + 1) * conflict_pct) / 100 > (i * conflict_pct) / 100;
    const Address to =
        conflicted ? hot : TestAddress(static_cast<uint8_t>(0x40 + i));
    txs.push_back(Transaction::Make(senders[i], 0, to, 100 + i, kGas,
                                    CallPayload{}));
    EXPECT_TRUE(chain.SubmitTransaction(txs.back()).ok());
  }

  auto block = chain.ProduceBlock(validator, 1);
  EXPECT_TRUE(block.ok()) << block.status().ToString();

  RunResult result;
  result.block_hash = block->header.Id();
  result.state_digest = chain.StateDigest();
  result.tx_count = block->transactions.size();
  for (const Transaction& tx : block->transactions) {
    auto receipt = chain.GetReceipt(tx.Id());
    EXPECT_TRUE(receipt.ok());
    result.receipts.push_back(*receipt);
  }
  return result;
}

void ExpectIdentical(const RunResult& got, const RunResult& want) {
  EXPECT_EQ(got.block_hash, want.block_hash);
  EXPECT_EQ(got.state_digest, want.state_digest);
  EXPECT_EQ(got.tx_count, want.tx_count);
  ASSERT_EQ(got.receipts.size(), want.receipts.size());
  for (size_t i = 0; i < got.receipts.size(); ++i) {
    EXPECT_EQ(got.receipts[i].tx_id, want.receipts[i].tx_id) << i;
    EXPECT_EQ(got.receipts[i].success, want.receipts[i].success) << i;
    EXPECT_EQ(got.receipts[i].error, want.receipts[i].error) << i;
    EXPECT_EQ(got.receipts[i].gas_used, want.receipts[i].gas_used) << i;
    EXPECT_EQ(got.receipts[i].output, want.receipts[i].output) << i;
    EXPECT_EQ(got.receipts[i].events.size(), want.receipts[i].events.size())
        << i;
  }
}

class ParallelEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelEquivalenceTest, BitIdenticalAcrossThreadCounts) {
  const int conflict_pct = GetParam();
  const RunResult reference = RunTransferWorkload(conflict_pct, 1);
  EXPECT_EQ(reference.tx_count, 32u);

  // Guard against the sweep passing vacuously: with >1 thread and any
  // lane-splittable workload the optimistic path must actually run.
  obs::SetMetricsEnabled(true);
  obs::Counter& parallel_blocks =
      obs::Registry::Global().GetCounter("chain.parallel.blocks_parallel");
  const uint64_t parallel_before = parallel_blocks.Value();

  for (size_t threads : {2u, 4u, 8u}) {
    RunResult parallel = RunTransferWorkload(conflict_pct, threads);
    ExpectIdentical(parallel, reference);
  }

  if (conflict_pct < 100) {
    EXPECT_GT(parallel_blocks.Value(), parallel_before)
        << "lane executor never engaged; the sweep proved nothing";
  } else {
    // 100% conflict is a single lane: the planner must fall back.
    EXPECT_EQ(parallel_blocks.Value(), parallel_before);
  }
  obs::SetMetricsEnabled(false);
}

INSTANTIATE_TEST_SUITE_P(ConflictSweep, ParallelEquivalenceTest,
                         ::testing::Values(0, 25, 100));

// Contract transactions exercise the access-set pre-pass: four independent
// ERC-20 instances, each with its own holders, split into four lanes; the
// result must match the single-thread run bit for bit.
RunResult RunErc20Workload(size_t threads) {
  constexpr size_t kInstances = 4;
  SigningKey validator = SigningKey::FromSeed(ToBytes("validator-0"));
  common::ThreadPool pool(threads);
  ChainConfig config;
  config.thread_pool = &pool;
  Blockchain chain({validator.PublicKey()}, ContractRegistry::CreateDefault(),
                   config);

  std::vector<SigningKey> owners;
  std::vector<uint64_t> instances;
  for (size_t i = 0; i < kInstances; ++i) {
    owners.push_back(SigningKey::FromSeed(ToBytes("owner-" +
                                                  std::to_string(i))));
    EXPECT_TRUE(chain
                    .CreditGenesis(
                        AddressFromPublicKey(owners.back().PublicKey()),
                        kGenesisEach)
                    .ok());
  }

  // Block 1: deploys (globally conflicting — executed sequentially).
  common::SimTime now = 0;
  for (size_t i = 0; i < kInstances; ++i) {
    Writer deploy_args;
    deploy_args.PutString("TOK" + std::to_string(i));
    deploy_args.PutU64(1000);
    Transaction deploy = Transaction::Make(
        owners[i], 0, Address{}, 0, kGas,
        CallPayload{"erc20", 0, "deploy", deploy_args.Take()});
    EXPECT_TRUE(chain.SubmitTransaction(deploy).ok());
  }
  auto deploy_block = chain.ProduceBlock(validator, ++now);
  EXPECT_TRUE(deploy_block.ok()) << deploy_block.status().ToString();
  for (const Transaction& tx : deploy_block->transactions) {
    auto receipt = chain.GetReceipt(tx.Id());
    EXPECT_TRUE(receipt.ok() && receipt->success);
    instances.push_back(*InstanceIdFromReceipt(*receipt));
  }
  EXPECT_EQ(instances.size(), kInstances);

  // Block 2: three token transfers per instance — one lane per instance.
  for (size_t i = 0; i < kInstances; ++i) {
    for (uint64_t n = 0; n < 3; ++n) {
      Writer call_args;
      call_args.PutBytes(TestAddress(static_cast<uint8_t>(0x60 + 4 * i + n)));
      call_args.PutU64(10 + n);
      Transaction transfer = Transaction::Make(
          owners[i], 1 + n, Address{}, 0, kGas,
          CallPayload{"erc20", instances[i], "transfer", call_args.Take()});
      EXPECT_TRUE(chain.SubmitTransaction(transfer).ok());
    }
  }
  auto block = chain.ProduceBlock(validator, ++now);
  EXPECT_TRUE(block.ok()) << block.status().ToString();

  RunResult result;
  result.block_hash = block->header.Id();
  result.state_digest = chain.StateDigest();
  result.tx_count = block->transactions.size();
  for (const Transaction& tx : block->transactions) {
    auto receipt = chain.GetReceipt(tx.Id());
    EXPECT_TRUE(receipt.ok());
    EXPECT_TRUE(receipt->success) << receipt->error;
    result.receipts.push_back(*receipt);
  }
  return result;
}

TEST(ParallelContractTest, Erc20LanesBitIdenticalAcrossThreads) {
  const RunResult reference = RunErc20Workload(1);
  EXPECT_EQ(reference.tx_count, 12u);
  for (size_t threads : {2u, 4u, 8u}) {
    ExpectIdentical(RunErc20Workload(threads), reference);
  }
}

// Cross-replica check: a block produced with an 8-thread pool must be
// accepted by a replica applying it with 1 thread, and vice versa.
TEST(ParallelApplyTest, ProducerAndReplicaDisagreeOnNothing) {
  SigningKey validator = SigningKey::FromSeed(ToBytes("validator-0"));
  for (size_t produce_threads : {8u, 1u}) {
    for (size_t apply_threads : {1u, 8u}) {
      common::ThreadPool produce_pool(produce_threads);
      common::ThreadPool apply_pool(apply_threads);
      ChainConfig produce_config;
      produce_config.thread_pool = &produce_pool;
      ChainConfig apply_config;
      apply_config.thread_pool = &apply_pool;
      Blockchain producer({validator.PublicKey()},
                          ContractRegistry::CreateDefault(), produce_config);
      Blockchain replica({validator.PublicKey()},
                         ContractRegistry::CreateDefault(), apply_config);

      std::vector<SigningKey> senders;
      for (size_t i = 0; i < 16; ++i) {
        senders.push_back(
            SigningKey::FromSeed(ToBytes("s" + std::to_string(i))));
        const Address addr =
            AddressFromPublicKey(senders.back().PublicKey());
        ASSERT_TRUE(producer.CreditGenesis(addr, kGenesisEach).ok());
        ASSERT_TRUE(replica.CreditGenesis(addr, kGenesisEach).ok());
      }
      for (size_t i = 0; i < 16; ++i) {
        Transaction tx = Transaction::Make(
            senders[i], 0, TestAddress(static_cast<uint8_t>(0x80 + i)), 7,
            kGas, CallPayload{});
        ASSERT_TRUE(producer.SubmitTransaction(tx).ok());
      }
      auto block = producer.ProduceBlock(validator, 1);
      ASSERT_TRUE(block.ok()) << block.status().ToString();
      EXPECT_EQ(block->transactions.size(), 16u);
      ASSERT_TRUE(replica.ApplyExternalBlock(*block).ok());
      EXPECT_EQ(replica.StateDigest(), producer.StateDigest());
    }
  }
}

// Query runs on a private overlay, so concurrent queries share the chain's
// state read-only. Under -DPDS2_SANITIZE=thread this is the race check for
// the old Begin/Rollback-on-live-state query path.
TEST(ConcurrentQueryTest, PoolWorkersSeeIdenticalResults) {
  SigningKey validator = SigningKey::FromSeed(ToBytes("validator-0"));
  SigningKey owner = SigningKey::FromSeed(ToBytes("owner-0"));
  Blockchain chain({validator.PublicKey()}, ContractRegistry::CreateDefault());
  ASSERT_TRUE(
      chain.CreditGenesis(AddressFromPublicKey(owner.PublicKey()), kGenesisEach)
          .ok());
  Writer deploy_args;
  deploy_args.PutString("TOK");
  deploy_args.PutU64(1000);
  ASSERT_TRUE(chain
                  .SubmitTransaction(Transaction::Make(
                      owner, 0, Address{}, 0, kGas,
                      CallPayload{"erc20", 0, "deploy", deploy_args.Take()}))
                  .ok());
  constexpr uint64_t kHolders = 8;
  for (uint64_t n = 0; n < kHolders; ++n) {
    Writer args;
    args.PutBytes(TestAddress(static_cast<uint8_t>(0x90 + n)));
    args.PutU64(10 + n);
    ASSERT_TRUE(chain
                    .SubmitTransaction(Transaction::Make(
                        owner, 1 + n, Address{}, 0, kGas,
                        CallPayload{"erc20", 1, "transfer", args.Take()}))
                    .ok());
  }
  ASSERT_TRUE(chain.ProduceBlock(validator, 1).ok());

  auto query = [&chain](size_t i) {
    if (i % kHolders == 0) {
      return chain.Query("erc20", 1, "total_supply", {});
    }
    Writer args;
    args.PutBytes(TestAddress(static_cast<uint8_t>(0x90 + i % kHolders)));
    return chain.Query("erc20", 1, "balance_of", args.Take());
  };
  constexpr size_t kQueries = 256;
  std::vector<Bytes> serial(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    auto result = query(i);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    serial[i] = *result;
  }
  const Hash digest_before = chain.StateDigest();

  common::ThreadPool pool(4);
  std::vector<Bytes> concurrent(kQueries);
  pool.ParallelFor(0, kQueries, [&](size_t i) {
    auto result = query(i);
    if (result.ok()) concurrent[i] = *result;
  });
  EXPECT_EQ(concurrent, serial);
  EXPECT_EQ(chain.StateDigest(), digest_before);
}

}  // namespace
}  // namespace pds2::chain
