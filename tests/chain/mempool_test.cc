// chain::Mempool on its own: admission (duplicates, the pool bound),
// selection (per-sender nonce runs, priority packing under the block gas
// budget), eviction of stale, unaffordable and below-floor heads with its
// counters, and a pinned digest of a long seeded Add / SelectForBlock /
// RemoveExecuted sequence so any change to selection order or eviction
// shows as a digest change.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "chain/chain.h"
#include "chain/evidence.h"
#include "chain/mempool.h"
#include "common/hex.h"
#include "common/rng.h"
#include "common/serial.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"

namespace pds2::chain {
namespace {

using common::Rng;
using common::StatusCode;
using common::ToBytes;
using common::Writer;
using crypto::SigningKey;

constexpr uint64_t kGas = 2'000'000;
constexpr uint64_t kGenesisEach = 10'000'000'000;

Transaction Tx(const SigningKey& from, uint64_t nonce, uint64_t value = 1,
               uint64_t gas_limit = kGas, uint64_t gas_price = 1) {
  return Transaction::Make(from, nonce, Address(kAddressSize, 0xbb), value,
                           gas_limit, CallPayload{}, gas_price);
}

// Queues `tx` the way Blockchain::SubmitTransactions admits a transaction
// that passed its signature and stateful checks: with its id.
common::Status Add(Mempool& pool, const Transaction& tx) {
  return pool.Add(tx, tx.Id());
}

SigningKey Key(const std::string& seed) {
  return SigningKey::FromSeed(ToBytes(seed));
}

Address AddressOf(const SigningKey& key) {
  return AddressFromPublicKey(key.PublicKey());
}

uint64_t CounterValue(const std::string& name) {
  const obs::Snapshot snap = obs::Registry::Global().TakeSnapshot();
  for (const auto& [counter, value] : snap.counters) {
    if (counter == name) return value;
  }
  return 0;
}

// --- Admission ---------------------------------------------------------------

TEST(MempoolTest, DuplicateIdAndNonceSlotRejected) {
  Mempool pool;
  SigningKey alice = Key("alice");
  Transaction tx = Tx(alice, 0);
  ASSERT_TRUE(Add(pool, tx).ok());
  EXPECT_EQ(Add(pool, tx).code(), StatusCode::kAlreadyExists);
  // Different tx, same (sender, nonce): first submission wins.
  EXPECT_EQ(Add(pool, Tx(alice, 0, 2)).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(pool.Size(), 1u);
  EXPECT_TRUE(pool.Contains(tx.Id()));
}

TEST(MempoolTest, AdmissionIsBounded) {
  Mempool pool(/*max_transactions=*/2);
  SigningKey alice = Key("alice");
  ASSERT_TRUE(Add(pool, Tx(alice, 0)).ok());
  ASSERT_TRUE(Add(pool, Tx(alice, 1)).ok());
  EXPECT_EQ(Add(pool, Tx(alice, 2)).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(pool.Size(), 2u);
}

// --- Selection ---------------------------------------------------------------

TEST(MempoolTest, SelectionFollowsNonceRunsAndEvictsStale) {
  Mempool pool;
  SigningKey alice = Key("alice");
  WorldState state;
  ASSERT_TRUE(state.Credit(AddressOf(alice), kGenesisEach).ok());
  state.BumpNonce(AddressOf(alice));  // nonce = 1

  Transaction stale = Tx(alice, 0);
  Transaction current = Tx(alice, 1);
  Transaction next = Tx(alice, 2);
  Transaction future = Tx(alice, 4);  // gap at 3: stays queued
  ASSERT_TRUE(Add(pool, stale).ok());
  ASSERT_TRUE(Add(pool, next).ok());
  ASSERT_TRUE(Add(pool, current).ok());
  ASSERT_TRUE(Add(pool, future).ok());

  auto selection = pool.SelectForBlock(state, 100 * kGas, 1);
  ASSERT_EQ(selection.selected.size(), 2u);
  EXPECT_EQ(selection.selected[0].Id(), current.Id());
  EXPECT_EQ(selection.selected[1].Id(), next.Id());
  ASSERT_EQ(selection.dropped.size(), 1u);
  EXPECT_EQ(selection.dropped[0], stale.Id());
  EXPECT_EQ(pool.Size(), 1u);  // the future-nonce tx waits
  EXPECT_TRUE(pool.Contains(future.Id()));
}

TEST(MempoolTest, PreDoomedHeadEvictedAffordableHeadKept) {
  Mempool pool;
  SigningKey pauper = Key("pauper");
  SigningKey alice = Key("alice");
  WorldState state;
  ASSERT_TRUE(state.Credit(AddressOf(alice), kGenesisEach).ok());

  Transaction doomed = Tx(pauper, 0);  // no balance at all
  Transaction fine = Tx(alice, 0);
  ASSERT_TRUE(Add(pool, doomed).ok());
  ASSERT_TRUE(Add(pool, fine).ok());

  auto selection = pool.SelectForBlock(state, 100 * kGas, 1);
  ASSERT_EQ(selection.selected.size(), 1u);
  EXPECT_EQ(selection.selected[0].Id(), fine.Id());
  ASSERT_EQ(selection.dropped.size(), 1u);
  EXPECT_EQ(selection.dropped[0], doomed.Id());
  EXPECT_EQ(pool.Size(), 0u);
}

TEST(MempoolTest, GasLimitBoundsSelectionByWorstCase) {
  Mempool pool;
  SigningKey alice = Key("alice");
  SigningKey bob = Key("bob");
  WorldState state;
  ASSERT_TRUE(state.Credit(AddressOf(alice), kGenesisEach).ok());
  ASSERT_TRUE(state.Credit(AddressOf(bob), kGenesisEach).ok());
  ASSERT_TRUE(Add(pool, Tx(alice, 0)).ok());
  ASSERT_TRUE(Add(pool, Tx(bob, 0)).ok());

  // Budget fits exactly one gas_limit: first-come-first-served picks
  // alice's (submitted first); bob's stays queued for the next block.
  auto selection = pool.SelectForBlock(state, kGas, 1);
  ASSERT_EQ(selection.selected.size(), 1u);
  EXPECT_TRUE(selection.dropped.empty());
  EXPECT_EQ(pool.Size(), 1u);
}

// --- Gas-price floor ---------------------------------------------------------

// A below-floor offer at the head of a sender's nonce chain is evicted at
// selection time (no block ever carries it), and the eviction shows on the
// dedicated `chain.mempool.evicted_below_floor` counter as well as on the
// general pre-doomed counter it is a slice of.
TEST(MempoolTest, BelowFloorHeadEvictedAndCounted) {
  obs::SetMetricsEnabled(true);
  const uint64_t floor_evicted_before =
      CounterValue("chain.mempool.evicted_below_floor");
  const uint64_t predoomed_before =
      CounterValue("chain.mempool.predoomed_evicted");

  Mempool pool;
  SigningKey alice = Key("alice");
  SigningKey bob = Key("bob");
  WorldState state;
  ASSERT_TRUE(state.Credit(AddressOf(alice), kGenesisEach).ok());
  ASSERT_TRUE(state.Credit(AddressOf(bob), kGenesisEach).ok());

  Transaction cheap = Tx(alice, 0, 1, kGas, /*gas_price=*/1);  // below
  Transaction priced = Tx(bob, 0, 1, kGas, /*gas_price=*/5);   // at floor
  ASSERT_TRUE(Add(pool, cheap).ok());
  ASSERT_TRUE(Add(pool, priced).ok());

  auto selection = pool.SelectForBlock(state, 100 * kGas,
                                       /*gas_price_floor=*/5);
  ASSERT_EQ(selection.selected.size(), 1u);
  EXPECT_EQ(selection.selected[0].Id(), priced.Id());
  ASSERT_EQ(selection.dropped.size(), 1u);
  EXPECT_EQ(selection.dropped[0], cheap.Id());
  EXPECT_EQ(pool.Size(), 0u);
  EXPECT_FALSE(pool.Contains(cheap.Id()));

  EXPECT_EQ(CounterValue("chain.mempool.evicted_below_floor"),
            floor_evicted_before + 1);
  EXPECT_GE(CounterValue("chain.mempool.predoomed_evicted"),
            predoomed_before + 1);
}

TEST(MempoolTest, AtFloorOffersAreNotEvicted) {
  obs::SetMetricsEnabled(true);
  const uint64_t floor_evicted_before =
      CounterValue("chain.mempool.evicted_below_floor");

  Mempool pool;
  SigningKey alice = Key("alice");
  WorldState state;
  ASSERT_TRUE(state.Credit(AddressOf(alice), kGenesisEach).ok());
  Transaction at_floor = Tx(alice, 0, 1, kGas, /*gas_price=*/5);
  ASSERT_TRUE(Add(pool, at_floor).ok());

  auto selection = pool.SelectForBlock(state, 100 * kGas,
                                       /*gas_price_floor=*/5);
  ASSERT_EQ(selection.selected.size(), 1u);
  EXPECT_TRUE(selection.dropped.empty());
  EXPECT_EQ(CounterValue("chain.mempool.evicted_below_floor"),
            floor_evicted_before);
}

TEST(MempoolTest, UnaffordableButAboveFloorDoesNotTouchFloorCounter) {
  obs::SetMetricsEnabled(true);
  const uint64_t floor_evicted_before =
      CounterValue("chain.mempool.evicted_below_floor");
  const uint64_t predoomed_before =
      CounterValue("chain.mempool.predoomed_evicted");

  Mempool pool;
  WorldState state;  // the pauper has no balance at all
  Transaction doomed = Tx(Key("pauper"), 0, 1, kGas, /*gas_price=*/10);
  ASSERT_TRUE(Add(pool, doomed).ok());

  auto selection = pool.SelectForBlock(state, 100 * kGas,
                                       /*gas_price_floor=*/5);
  EXPECT_TRUE(selection.selected.empty());
  ASSERT_EQ(selection.dropped.size(), 1u);

  // Evicted for unaffordability, not the floor: only the general counter
  // moves.
  EXPECT_EQ(CounterValue("chain.mempool.evicted_below_floor"),
            floor_evicted_before);
  EXPECT_GE(CounterValue("chain.mempool.predoomed_evicted"),
            predoomed_before + 1);
}

// --- Pinned seeded sequence --------------------------------------------------

// A seeded random stream over 128 senders: mixed gas prices (some below
// the floor), evidence transactions, nonce gaps, stale nonces, duplicate
// submissions, senders that cannot afford their head, tight block gas
// budgets, and external blocks removed through RemoveExecuted. The digest
// covers each block's selected ids in block order, its dropped ids sorted
// (the order they are found in is not part of the contract), each Add
// status and the pool size after every step.
Hash RunSeededSequence(uint64_t seed) {
  constexpr size_t kSenders = 128;
  Rng rng(seed);
  std::vector<SigningKey> keys;
  std::vector<Address> addrs;
  WorldState state;
  for (size_t i = 0; i < kSenders; ++i) {
    keys.push_back(Key("mempool-sender-" + std::to_string(i)));
    addrs.push_back(AddressOf(keys.back()));
    // A quarter start broke: their heads are pre-doomed until topped up.
    const uint64_t balance = rng.NextU64(4) == 0
                                 ? rng.NextU64(kGas)
                                 : 50 * kGas + rng.NextU64(kGas);
    if (balance > 0) {
      EXPECT_TRUE(state.Credit(addrs.back(), balance).ok());
    }
  }
  const uint64_t prices[] = {0, 1, 1, 2, 3, 5, 8};

  Mempool pool;
  std::vector<Transaction> queued;  // every admitted tx, for external blocks
  Writer digest;
  for (int round = 0; round < 48; ++round) {
    const size_t adds = rng.NextU64(48);
    for (size_t a = 0; a < adds; ++a) {
      const size_t s = rng.NextU64(kSenders);
      const uint64_t account_nonce = state.GetNonce(addrs[s]);
      // Stale, current, next, or past a gap.
      const int64_t offsets[] = {-1, 0, 0, 0, 1, 1, 2, 4};
      const int64_t offset = offsets[rng.NextU64(8)];
      if (offset < 0 && account_nonce == 0) continue;
      const uint64_t nonce = account_nonce + offset;
      Transaction tx;
      if (rng.NextU64(10) == 0) {
        CallPayload call{kEvidenceContract, 0, "submit",
                         rng.NextBytes(8)};
        tx = Transaction::Make(keys[s], nonce, Address{}, 0, 0,
                               std::move(call), 0);
      } else if (rng.NextU64(12) == 0 && !queued.empty()) {
        tx = queued[rng.NextU64(queued.size())];  // duplicate submission
      } else {
        tx = Tx(keys[s], nonce, rng.NextU64(1000),
                21'000 + rng.NextU64(kGas), prices[rng.NextU64(7)]);
      }
      const common::Status status = Add(pool, tx);
      digest.PutU32(static_cast<uint32_t>(status.code()));
      if (status.ok()) queued.push_back(tx);
    }

    if (rng.NextU64(5) == 0 && !queued.empty()) {
      // An external block executed some queued heads elsewhere, plus one
      // transaction this pool never saw.
      std::vector<Transaction> executed;
      for (int k = 0; k < 6; ++k) {
        const Transaction& tx = queued[rng.NextU64(queued.size())];
        const Address sender = tx.SenderAddress();
        if (tx.nonce() != state.GetNonce(sender)) continue;
        state.BumpNonce(sender);
        executed.push_back(tx);
      }
      executed.push_back(Tx(keys[rng.NextU64(kSenders)], 999));
      pool.RemoveExecuted(executed);
      digest.PutU64(pool.Size());
    }

    const uint64_t floor = 1 + rng.NextU64(2);
    const uint64_t budget = kGas * (1 + rng.NextU64(12));
    Mempool::Selection selection = pool.SelectForBlock(state, budget, floor);
    for (const Transaction& tx : selection.selected) {
      digest.PutBytes(tx.Id());
      // Execute: bump the nonce, charge part of the worst-case fee.
      const Address sender = tx.SenderAddress();
      state.BumpNonce(sender);
      const uint64_t spend = tx.value() + tx.gas_limit() / 2 * tx.gas_price();
      EXPECT_TRUE(state.Debit(sender, spend).ok());
    }
    const std::set<Hash> dropped(selection.dropped.begin(),
                                 selection.dropped.end());
    for (const Hash& id : dropped) digest.PutBytes(id);
    digest.PutU64(pool.Size());

    // Top up a few senders so evicted heads' successors can run later.
    for (int k = 0; k < 4; ++k) {
      EXPECT_TRUE(state.Credit(addrs[rng.NextU64(kSenders)], 5 * kGas).ok());
    }
  }
  return crypto::Sha256::Hash(digest.Take());
}

TEST(MempoolTest, SeededSequenceMatchesPinnedDigest) {
  EXPECT_EQ(common::HexEncode(RunSeededSequence(1)),
            "b98da61314799933c61f14b949a36504fa525b7a08d09628e3cb094e7b53c059");
  EXPECT_EQ(common::HexEncode(RunSeededSequence(2)),
            "c1f9a8563c77867d6f777a2cd4bac9a13835ab0bbf6dc301f18508e56ad43d4d");
}

}  // namespace
}  // namespace pds2::chain
