#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "chain/parallel_exec.h"
#include "chain/state.h"
#include "common/bytes.h"
#include "common/checked_math.h"
#include "common/hex.h"
#include "common/rng.h"
#include "common/serial.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"

namespace pds2::chain {
namespace {

using common::Bytes;
using common::Rng;
using common::ToBytes;
using common::Writer;

Address Addr(uint8_t tag) { return Address(kAddressSize, tag); }

TEST(WorldStateTest, BalancesStartAtZero) {
  WorldState state;
  EXPECT_EQ(state.GetBalance(Addr(1)), 0u);
  EXPECT_EQ(state.GetNonce(Addr(1)), 0u);
}

TEST(WorldStateTest, CreditDebitTransfer) {
  WorldState state;
  state.Credit(Addr(1), 100);
  EXPECT_EQ(state.GetBalance(Addr(1)), 100u);
  EXPECT_TRUE(state.Debit(Addr(1), 30).ok());
  EXPECT_EQ(state.GetBalance(Addr(1)), 70u);
  EXPECT_TRUE(state.Transfer(Addr(1), Addr(2), 50).ok());
  EXPECT_EQ(state.GetBalance(Addr(1)), 20u);
  EXPECT_EQ(state.GetBalance(Addr(2)), 50u);
}

TEST(WorldStateTest, OverdraftRejected) {
  WorldState state;
  state.Credit(Addr(1), 10);
  EXPECT_EQ(state.Debit(Addr(1), 11).code(),
            common::StatusCode::kInsufficientFunds);
  EXPECT_EQ(state.GetBalance(Addr(1)), 10u);
  EXPECT_FALSE(state.Transfer(Addr(1), Addr(2), 11).ok());
  EXPECT_EQ(state.GetBalance(Addr(2)), 0u);
}

TEST(WorldStateTest, NonceBumps) {
  WorldState state;
  state.BumpNonce(Addr(1));
  state.BumpNonce(Addr(1));
  EXPECT_EQ(state.GetNonce(Addr(1)), 2u);
}

TEST(WorldStateTest, StorageRoundTrip) {
  WorldState state;
  EXPECT_FALSE(state.StorageGet("ns", ToBytes("k")).has_value());
  EXPECT_FALSE(state.StoragePut("ns", ToBytes("k"), ToBytes("v1")));
  EXPECT_EQ(*state.StorageGet("ns", ToBytes("k")), ToBytes("v1"));
  EXPECT_TRUE(state.StoragePut("ns", ToBytes("k"), ToBytes("v2")));
  EXPECT_EQ(*state.StorageGet("ns", ToBytes("k")), ToBytes("v2"));
  state.StorageDelete("ns", ToBytes("k"));
  EXPECT_FALSE(state.StorageGet("ns", ToBytes("k")).has_value());
}

TEST(WorldStateTest, StorageNamespacesAreIsolated) {
  WorldState state;
  state.StoragePut("a", ToBytes("k"), ToBytes("va"));
  state.StoragePut("b", ToBytes("k"), ToBytes("vb"));
  EXPECT_EQ(*state.StorageGet("a", ToBytes("k")), ToBytes("va"));
  EXPECT_EQ(*state.StorageGet("b", ToBytes("k")), ToBytes("vb"));
}

TEST(WorldStateTest, ScanReturnsPrefixMatchesInOrder) {
  WorldState state;
  state.StoragePut("ns", ToBytes("p/a"), ToBytes("1"));
  state.StoragePut("ns", ToBytes("p/c"), ToBytes("3"));
  state.StoragePut("ns", ToBytes("p/b"), ToBytes("2"));
  state.StoragePut("ns", ToBytes("q/x"), ToBytes("9"));
  auto entries = state.StorageScan("ns", ToBytes("p/"));
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].first, ToBytes("p/a"));
  EXPECT_EQ(entries[1].first, ToBytes("p/b"));
  EXPECT_EQ(entries[2].first, ToBytes("p/c"));
}

TEST(WorldStateTest, RollbackRestoresAccounts) {
  WorldState state;
  state.Credit(Addr(1), 100);
  state.Begin();
  state.Credit(Addr(1), 50);
  state.Credit(Addr(2), 10);
  state.BumpNonce(Addr(1));
  state.Rollback();
  EXPECT_EQ(state.GetBalance(Addr(1)), 100u);
  EXPECT_EQ(state.GetBalance(Addr(2)), 0u);
  EXPECT_EQ(state.GetNonce(Addr(1)), 0u);
}

TEST(WorldStateTest, RollbackRestoresStorage) {
  WorldState state;
  state.StoragePut("ns", ToBytes("pre"), ToBytes("old"));
  state.Begin();
  state.StoragePut("ns", ToBytes("pre"), ToBytes("new"));
  state.StoragePut("ns", ToBytes("fresh"), ToBytes("x"));
  state.StorageDelete("ns", ToBytes("pre"));
  state.Rollback();
  EXPECT_EQ(*state.StorageGet("ns", ToBytes("pre")), ToBytes("old"));
  EXPECT_FALSE(state.StorageGet("ns", ToBytes("fresh")).has_value());
}

TEST(WorldStateTest, CommitKeepsChanges) {
  WorldState state;
  state.Begin();
  state.Credit(Addr(1), 42);
  state.Commit();
  EXPECT_EQ(state.GetBalance(Addr(1)), 42u);
  EXPECT_EQ(state.CheckpointDepth(), 0u);
}

TEST(WorldStateTest, NestedCheckpoints) {
  WorldState state;
  state.Credit(Addr(1), 100);
  state.Begin();  // outer
  state.Credit(Addr(1), 10);
  state.Begin();  // inner
  state.Credit(Addr(1), 1);
  state.Rollback();  // undo inner
  EXPECT_EQ(state.GetBalance(Addr(1)), 110u);
  state.Commit();  // keep outer... then roll the whole thing? No: committed.
  EXPECT_EQ(state.GetBalance(Addr(1)), 110u);
}

TEST(WorldStateTest, InnerCommitOuterRollback) {
  WorldState state;
  state.Credit(Addr(1), 100);
  state.Begin();  // outer
  state.Begin();  // inner
  state.Credit(Addr(1), 5);
  state.Commit();    // inner kept for now
  state.Rollback();  // outer undoes everything, including inner changes
  EXPECT_EQ(state.GetBalance(Addr(1)), 100u);
}

TEST(WorldStateTest, DigestChangesWithState) {
  WorldState state;
  Hash d0 = state.Digest();
  state.Credit(Addr(1), 1);
  Hash d1 = state.Digest();
  EXPECT_NE(d0, d1);
  state.StoragePut("ns", ToBytes("k"), ToBytes("v"));
  Hash d2 = state.Digest();
  EXPECT_NE(d1, d2);
}

TEST(WorldStateTest, DigestSeparatesSpaceKeyAndValue) {
  // Regression: the old flat digest fed space, key and value to SHA-256
  // with no length prefixes, so moving a byte across a field boundary gave
  // the same root.
  auto root = [](const std::string& space, const std::string& key,
                 const std::string& value) {
    WorldState state;
    state.StoragePut(space, ToBytes(key), ToBytes(value));
    return state.Digest();
  };
  EXPECT_NE(root("s", "ab", "c"), root("s", "a", "bc"));  // key | value
  EXPECT_NE(root("s", "ab", "c"), root("sa", "b", "c"));  // space | key
}

TEST(WorldStateTest, DigestDeterministic) {
  WorldState a, b;
  // Same mutations in different order -> same digest (map-ordered).
  a.Credit(Addr(1), 5);
  a.Credit(Addr(2), 7);
  b.Credit(Addr(2), 7);
  b.Credit(Addr(1), 5);
  EXPECT_EQ(a.Digest(), b.Digest());
}

TEST(WorldStateTest, RollbackOfAFreshSpaceLeavesNoTrace) {
  // Regression: the emptied space map used to survive Rollback, and
  // Digest() hashes space names, so an undone write changed the root.
  WorldState state;
  ASSERT_TRUE(state.Credit(Addr(1), 5).ok());
  const Hash digest = state.Digest();
  const Bytes snapshot = state.SerializeSnapshot();
  state.Begin();
  state.StoragePut("fresh.space", ToBytes("k"), ToBytes("v"));
  state.Rollback();
  EXPECT_EQ(state.Digest(), digest);
  EXPECT_EQ(state.SerializeSnapshot(), snapshot);
}

TEST(WorldStateTest, DeletingTheLastSlotDropsTheSpace) {
  WorldState state;
  const Hash empty = state.Digest();
  state.StoragePut("ns", ToBytes("k"), ToBytes("v"));
  state.StorageDelete("ns", ToBytes("k"));
  EXPECT_EQ(state.Digest(), empty);
  EXPECT_EQ(state.SerializeSnapshot(), WorldState().SerializeSnapshot());
}

// --- Differential: WorldState vs StateOverlay -------------------------------
// The same random op stream drives a WorldState and an overlay on a copy of
// the same base. Every observation must agree, and merging the overlay must
// land on the same state as the direct run.

constexpr size_t kNumAddrs = 5;
const char* const kSpaces[] = {"s1", "s2", kStakeSpace};
const char* const kKeys[] = {"", "a", "a1", "a2", "b", "b1"};

// Op kinds 0..11 read or mutate; these three manage checkpoints.
constexpr int kBegin = 12, kCommit = 13, kRollback = 14;

struct Op {
  int kind;
  Address a, b;
  std::string space;
  Bytes key, value;
  uint64_t amount;
};

Op RandomOp(Rng& rng, bool with_checkpoints) {
  Op op;
  op.kind =
      static_cast<int>(rng.NextU64(with_checkpoints ? kRollback + 1 : kBegin));
  // Addresses 1..kNumAddrs exist from the start; kNumAddrs + 1 does not,
  // so writes to it create (and rollbacks remove) an account.
  op.a = Addr(static_cast<uint8_t>(1 + rng.NextU64(kNumAddrs + 1)));
  op.b = Addr(static_cast<uint8_t>(1 + rng.NextU64(kNumAddrs + 1)));
  op.space = kSpaces[rng.NextU64(3)];
  op.key = ToBytes(kKeys[rng.NextU64(6)]);
  if (op.space == kStakeSpace && rng.NextU64(2) == 0) op.key = op.a;
  Writer w;
  w.PutU64(rng.NextU64(50));
  op.value = w.Take();
  // Occasionally large enough to trip the overflow guards.
  op.amount = rng.NextU64(8) == 0 ? UINT64_MAX - rng.NextU64(100)
                                  : rng.NextU64(60);
  return op;
}

std::string Dump(const std::vector<std::pair<Bytes, Bytes>>& slots) {
  std::string out;
  for (const auto& [key, value] : slots) {
    out += common::HexEncode(key) + "=" + common::HexEncode(value) + ";";
  }
  return out;
}

// Applies `op` and returns everything it observed.
std::string Apply(StateView& s, const Op& op) {
  switch (op.kind) {
    case 0: return s.Credit(op.a, op.amount).ToString();
    case 1: return s.Debit(op.a, op.amount).ToString();
    case 2: return s.Transfer(op.a, op.b, op.amount).ToString();
    case 3: s.BumpNonce(op.a); return "";
    case 4: return s.StoragePut(op.space, op.key, op.value) ? "existed" : "new";
    case 5: s.StorageDelete(op.space, op.key); return "";
    case 6: return Dump(s.StorageScan(op.space, op.key));
    case 7: {
      auto value = s.StorageGet(op.space, op.key);
      return value ? common::HexEncode(*value) : "unset";
    }
    case 8: return s.StakeBond(op.a, op.amount).ToString();
    case 9: return s.StakeRelease(op.a, op.amount % 20).ToString();
    case 10:
      return s.StakeSlash(op.a, op.amount % 20, op.b,
                          static_cast<uint32_t>(op.amount % 12'000))
          .ToString();
    case 11:
      return std::to_string(s.GetBalance(op.a)) + "/" +
             std::to_string(s.GetNonce(op.a)) + "/" +
             std::to_string(s.StakeOf(op.b)) + "/" +
             std::to_string(s.BurnedTotal());
    case kBegin: s.Begin(); return "";
    case kCommit:
      if (s.CheckpointDepth() == 0) return "no checkpoint";
      s.Commit();
      return "";
    default:
      if (s.CheckpointDepth() == 0) return "no checkpoint";
      s.Rollback();
      return "";
  }
}

// A random state reached through the ledger rules (so it holds created-
// but-empty accounts, stake records and deleted slots).
WorldState RandomState(Rng& rng, int ops) {
  WorldState state;
  for (size_t i = 1; i <= kNumAddrs; ++i) {
    EXPECT_TRUE(state.Credit(Addr(static_cast<uint8_t>(i)), 100).ok());
  }
  for (int i = 0; i < ops; ++i) Apply(state, RandomOp(rng, false));
  return state;
}

std::string Observe(const StateView& s) {
  std::string out;
  for (size_t i = 0; i <= kNumAddrs + 1; ++i) {
    const Address addr = Addr(static_cast<uint8_t>(i));
    out += std::to_string(s.GetBalance(addr)) + "/" +
           std::to_string(s.GetNonce(addr)) + ";";
  }
  for (const char* space : kSpaces) out += Dump(s.StorageScan(space, {}));
  return out;
}

// --- Oracles: the state root and the supply totals from scratch ------------
// Both read the snapshot bytes of the visible state (open checkpoints
// committed on a copy), so neither shares the incremental bookkeeping.

struct SnapshotEntries {
  std::vector<std::pair<Address, Account>> accounts;
  std::vector<std::tuple<std::string, Bytes, Bytes>> slots;
};

Bytes VisibleSnapshot(const WorldState& state) {
  WorldState copy = state;
  while (copy.CheckpointDepth() > 0) copy.Commit();
  return copy.SerializeSnapshot();
}

SnapshotEntries ParseSnapshot(const Bytes& bytes) {
  common::Reader r(bytes);
  SnapshotEntries out;
  for (uint64_t n = *r.GetU64(); n > 0; --n) {
    Address addr = *r.GetBytes();
    Account account{*r.GetU64(), *r.GetU64()};
    out.accounts.emplace_back(std::move(addr), account);
  }
  for (uint64_t spaces = *r.GetU64(); spaces > 0; --spaces) {
    const std::string space = *r.GetString();
    for (uint64_t n = *r.GetU64(); n > 0; --n) {
      Bytes key = *r.GetBytes();
      out.slots.emplace_back(space, std::move(key), *r.GetBytes());
    }
  }
  return out;
}

// Bucket of an account (its address) or of a slot (the hash of its
// length-prefixed space and key): the top 12 bits, zero-padded.
uint32_t SpecBucket(const Bytes& b) {
  const uint32_t b0 = b.size() > 0 ? b[0] : 0;
  const uint32_t b1 = b.size() > 1 ? b[1] : 0;
  return ((b0 << 8) | b1) >> 4;
}

uint32_t SpecSlotBucket(const std::string& space, const Bytes& key) {
  Writer id;
  id.PutString(space);
  id.PutBytes(key);
  return SpecBucket(crypto::Sha256::Hash(id.data()));
}

// The state root as docs/PROTOCOL.md defines it, built with MerkleTree over
// all 4096 bucket leaves.
Hash SpecRoot(const WorldState& state) {
  const SnapshotEntries entries = ParseSnapshot(VisibleSnapshot(state));
  std::map<uint32_t, SnapshotEntries> buckets;
  for (const auto& account : entries.accounts) {
    buckets[SpecBucket(account.first)].accounts.push_back(account);
  }
  for (const auto& slot : entries.slots) {
    buckets[SpecSlotBucket(std::get<0>(slot), std::get<1>(slot))]
        .slots.push_back(slot);
  }
  std::vector<Bytes> leaves(WorldState::kStateRootBuckets);
  for (auto& [bucket, contents] : buckets) {
    std::sort(contents.slots.begin(), contents.slots.end());
    Writer w;
    w.PutU32(static_cast<uint32_t>(contents.accounts.size()));
    for (const auto& [addr, account] : contents.accounts) {
      w.PutBytes(addr);
      w.PutU64(account.balance);
      w.PutU64(account.nonce);
    }
    w.PutU32(static_cast<uint32_t>(contents.slots.size()));
    for (const auto& [space, key, value] : contents.slots) {
      w.PutString(space);
      w.PutBytes(key);
      w.PutBytes(value);
    }
    leaves[bucket] = w.Take();
  }
  return crypto::MerkleTree(leaves).Root();
}

// Digest() equals the root of the same state rebuilt from scratch, and the
// running totals equal a walk over every account and stake record.
void ExpectMatchesOracles(const WorldState& state, const std::string& where) {
  const Bytes snapshot = VisibleSnapshot(state);
  auto fresh = WorldState::DeserializeSnapshot(snapshot);
  ASSERT_TRUE(fresh.ok()) << where;
  EXPECT_EQ(state.Digest(), fresh->Digest()) << where;

  const SnapshotEntries entries = ParseSnapshot(snapshot);
  uint64_t balance = 0, staked = 0, burned = 0;
  for (const auto& [addr, account] : entries.accounts) {
    balance = common::SaturatingAdd(balance, account.balance);
  }
  for (const auto& [space, key, value] : entries.slots) {
    if (space != kStakeSpace) continue;
    const uint64_t amount = *common::Reader(value).GetU64();
    if (key.size() == kAddressSize) {
      staked = common::SaturatingAdd(staked, amount);
    }
    if (key == ToBytes(kBurnedKey)) burned = amount;
  }
  EXPECT_EQ(state.TotalBalance(), balance) << where;
  EXPECT_EQ(state.TotalStaked(), staked) << where;
  EXPECT_EQ(state.BurnedTotal(), burned) << where;
}

class StateDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StateDifferentialTest, OverlayThenMergeMatchesWorldState) {
  Rng rng(GetParam());
  const WorldState base = RandomState(rng, 40);
  WorldState direct = base;
  WorldState target = base;
  StateOverlay overlay(target);
  std::optional<WorldState> copied;  // a copy taken mid-run, cache included

  for (int step = 0; step < 400; ++step) {
    const Op op = RandomOp(rng, true);
    const std::string where =
        "seed " + std::to_string(GetParam()) + " step " + std::to_string(step);
    ASSERT_EQ(Apply(overlay, op), Apply(direct, op))
        << where << " kind " << op.kind;
    ExpectMatchesOracles(direct, where);
    if (copied) {
      Apply(*copied, op);
      EXPECT_EQ(copied->Digest(), direct.Digest()) << where;
    } else if (step == 200) {
      copied = direct;
    }
  }
  while (direct.CheckpointDepth() > 0) {
    const Op close{rng.NextU64(2) == 0 ? kCommit : kRollback, {}, {}, {},
                   {}, {}, 0};
    Apply(direct, close);
    Apply(overlay, close);
    Apply(*copied, close);
    ExpectMatchesOracles(direct, "closing");
    EXPECT_EQ(copied->Digest(), direct.Digest());
  }
  ASSERT_EQ(overlay.CheckpointDepth(), 0u);
  EXPECT_EQ(Observe(overlay), Observe(direct));
  EXPECT_EQ(direct.Digest(), SpecRoot(direct));
  EXPECT_EQ(target.Digest(), base.Digest());  // untouched until the merge

  // The merge is journaled on the target: a rolled-back merge is exact.
  target.Begin();
  overlay.MergeInto(target);
  EXPECT_EQ(target.Digest(), direct.Digest());
  ExpectMatchesOracles(target, "merge");
  target.Rollback();
  EXPECT_EQ(target.Digest(), base.Digest());
  ExpectMatchesOracles(target, "rolled-back merge");

  overlay.MergeInto(target);
  EXPECT_EQ(target.Digest(), direct.Digest());
  ExpectMatchesOracles(target, "merge");
  EXPECT_EQ(target.SerializeSnapshot(), direct.SerializeSnapshot());
  EXPECT_EQ(Observe(target), Observe(direct));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StateDifferentialTest,
                         ::testing::Range<uint64_t>(1, 41));

// Many accounts per bucket: 20,000 random addresses fill every bucket about
// five deep, so an update must re-encode its neighbours exactly.
TEST(StateRootTest, CrowdedBucketsMatchTheSpecUnderRollback) {
  Rng rng(7);
  WorldState state;
  std::vector<Address> addrs;
  for (int i = 0; i < 20'000; ++i) {
    addrs.push_back(rng.NextBytes(kAddressSize));
    ASSERT_TRUE(state.Credit(addrs.back(), 1 + rng.NextU64(1000)).ok());
  }
  state.StoragePut("s", ToBytes("k"), ToBytes("v"));
  EXPECT_EQ(state.Digest(), SpecRoot(state));
  for (int round = 0; round < 20; ++round) {
    state.Begin();
    for (int i = 0; i < 50; ++i) {
      const Address& from = addrs[rng.NextU64(addrs.size())];
      (void)state.Transfer(from, addrs[rng.NextU64(addrs.size())],
                           rng.NextU64(10));
      (void)state.Transfer(from, rng.NextBytes(kAddressSize), 1);  // new
      state.StoragePut("s", rng.NextBytes(1 + rng.NextU64(4)), ToBytes("x"));
    }
    (void)state.Digest();  // rolled back after the root saw it
    if (round % 2 == 0) {
      state.Rollback();
    } else {
      state.Commit();
    }
    ExpectMatchesOracles(state, "round " + std::to_string(round));
  }
  EXPECT_EQ(state.Digest(), SpecRoot(state));
}

TEST(StateRootTest, OneWriteRehashesOneBucketPath) {
  Rng rng(3);
  WorldState state;
  for (int i = 0; i < 100'000; ++i) {
    ASSERT_TRUE(state.Credit(rng.NextBytes(kAddressSize), 5).ok());
  }
  EXPECT_EQ(state.RootHashCount(), 0u);  // nothing hashed before a root
  (void)state.Digest();
  const uint64_t built = state.RootHashCount();
  (void)state.Digest();
  EXPECT_EQ(state.RootHashCount(), built);  // a clean root costs nothing

  ASSERT_TRUE(state.Credit(Addr(9), 1).ok());
  (void)state.Digest();
  // One bucket leaf, then one node per level up to the root.
  EXPECT_EQ(state.RootHashCount() - built, 1u + WorldState::kStateRootDepth);
}

// --- State proofs -------------------------------------------------------------

TEST(StateProofTest, PresentAndAbsentKeysVerify) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    WorldState state = RandomState(rng, 80);
    for (int i = 0; i < 200; ++i) {  // crowd some buckets
      (void)state.Credit(rng.NextBytes(kAddressSize), 1);
    }
    const Hash root = state.Digest();
    const SnapshotEntries entries = ParseSnapshot(state.SerializeSnapshot());
    for (size_t i = 0; i <= kNumAddrs + 1; ++i) {
      const Address addr = Addr(static_cast<uint8_t>(i));
      const StateProof proof = state.ProveAccount(addr);
      auto shown = WorldState::VerifyAccount(root, addr, proof);
      ASSERT_TRUE(shown.ok()) << seed << ": " << shown.status().ToString();
      const bool exists = std::any_of(
          entries.accounts.begin(), entries.accounts.end(),
          [&](const auto& entry) { return entry.first == addr; });
      ASSERT_EQ(shown->has_value(), exists) << seed << " account " << i;
      if (shown->has_value()) {
        EXPECT_EQ((*shown)->balance, state.GetBalance(addr));
        EXPECT_EQ((*shown)->nonce, state.GetNonce(addr));
      }
      auto again = StateProof::Deserialize(proof.Serialize());
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(again->Serialize(), proof.Serialize());
    }
    for (const char* space : kSpaces) {
      for (const char* key : kKeys) {
        const StateProof proof = state.ProveSlot(space, ToBytes(key));
        auto shown = WorldState::VerifySlot(root, space, ToBytes(key), proof);
        ASSERT_TRUE(shown.ok()) << seed << ": " << shown.status().ToString();
        EXPECT_EQ(*shown, state.StorageGet(space, ToBytes(key)))
            << seed << " " << space << "/" << key;
      }
    }
  }
}

TEST(StateProofTest, TamperedProofsAndValuesAreRejected) {
  WorldState state;
  ASSERT_TRUE(state.Credit(Addr(1), 10).ok());
  state.StoragePut("ns", ToBytes("result"), ToBytes("hash-a"));
  const Hash root = state.Digest();
  const StateProof good = state.ProveSlot("ns", ToBytes("result"));
  ASSERT_EQ(*WorldState::VerifySlot(root, "ns", ToBytes("result"), good),
            ToBytes("hash-a"));

  auto rejected = [&](const StateProof& proof, const std::string& space,
                      const std::string& key) {
    return WorldState::VerifySlot(root, space, ToBytes(key), proof)
               .status()
               .code() == common::StatusCode::kCorruption;
  };
  // A different value in the bucket, re-encoded as a prover would.
  WorldState forged;
  ASSERT_TRUE(forged.Credit(Addr(1), 10).ok());
  forged.StoragePut("ns", ToBytes("result"), ToBytes("hash-b"));
  EXPECT_TRUE(rejected(forged.ProveSlot("ns", ToBytes("result")), "ns",
                       "result"));
  // A value hidden: the bucket claims the slot is absent.
  WorldState hidden;
  ASSERT_TRUE(hidden.Credit(Addr(1), 10).ok());
  EXPECT_TRUE(rejected(hidden.ProveSlot("ns", ToBytes("result")), "ns",
                       "result"));
  // Every single-bit flip of the bucket or of a sibling.
  for (size_t bit = 0; bit < good.bucket.size() * 8; ++bit) {
    StateProof bad = good;
    bad.bucket[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_TRUE(rejected(bad, "ns", "result")) << "bucket bit " << bit;
  }
  for (size_t step = 0; step < good.path.size(); ++step) {
    StateProof bad = good;
    bad.path[step].sibling[step % 32] ^= 1;
    EXPECT_TRUE(rejected(bad, "ns", "result")) << "sibling " << step;
    bad = good;
    bad.path[step].sibling_is_left = !bad.path[step].sibling_is_left;
    EXPECT_TRUE(rejected(bad, "ns", "result")) << "side " << step;
  }
  StateProof shorter = good;
  shorter.path.pop_back();
  EXPECT_TRUE(rejected(shorter, "ns", "result"));
  // A valid proof of one key says nothing about a key in another bucket.
  ASSERT_NE(SpecSlotBucket("ns", ToBytes("other-key-7")),
            SpecSlotBucket("ns", ToBytes("result")));
  EXPECT_TRUE(rejected(good, "ns", "other-key-7"));
  EXPECT_FALSE(
      WorldState::VerifySlot(Hash(32, 0), "ns", ToBytes("result"), good).ok());
}

// --- Snapshot encoding ------------------------------------------------------

TEST(SnapshotTest, RandomStatesRoundTrip) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const WorldState state = RandomState(rng, 80);
    const Bytes bytes = state.SerializeSnapshot();
    auto restored = WorldState::DeserializeSnapshot(bytes);
    ASSERT_TRUE(restored.ok()) << seed << ": " << restored.status().ToString();
    EXPECT_EQ(restored->Digest(), state.Digest()) << seed;
    EXPECT_EQ(restored->SerializeSnapshot(), bytes) << seed;
  }
}

TEST(SnapshotTest, EveryAcceptedEncodingIsCanonical) {
  // Mutate valid encodings (bit flips, byte swaps, truncation, extension);
  // whatever still decodes must re-encode to exactly the same bytes.
  size_t accepted = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const Bytes valid = RandomState(rng, 60).SerializeSnapshot();
    for (int trial = 0; trial < 300; ++trial) {
      Bytes mutated = valid;
      const size_t pos = rng.NextU64(mutated.size());
      const uint64_t kind = rng.NextU64(4);
      if (kind == 0) {
        mutated[pos] ^= static_cast<uint8_t>(1u << rng.NextU64(8));
      } else if (kind == 1) {
        std::swap(mutated[pos], mutated[rng.NextU64(mutated.size())]);
      } else if (kind == 2) {
        mutated.resize(pos);
      } else {
        mutated.push_back(static_cast<uint8_t>(rng.NextU64(256)));
      }
      auto decoded = WorldState::DeserializeSnapshot(mutated);
      if (!decoded.ok()) continue;
      ++accepted;
      EXPECT_EQ(decoded->SerializeSnapshot(), mutated) << seed << "/" << trial;
    }
  }
  EXPECT_GT(accepted, 0u) << "no mutation decoded; the property is vacuous";
}

Bytes TwoAccountSnapshot(uint8_t first, uint8_t second) {
  Writer w;
  w.PutU64(2);
  for (uint8_t tag : {first, second}) {
    w.PutBytes(Addr(tag));
    w.PutU64(10);
    w.PutU64(0);
  }
  w.PutU64(0);  // no storage spaces
  return w.Take();
}

TEST(SnapshotTest, RejectsNonCanonicalOrder) {
  // Regression seed: swapped accounts used to decode, and re-encoding gave
  // different bytes, so two encodings meant one state.
  ASSERT_TRUE(WorldState::DeserializeSnapshot(TwoAccountSnapshot(1, 2)).ok());
  EXPECT_EQ(WorldState::DeserializeSnapshot(TwoAccountSnapshot(2, 1))
                .status()
                .code(),
            common::StatusCode::kCorruption);
  EXPECT_FALSE(WorldState::DeserializeSnapshot(TwoAccountSnapshot(1, 1)).ok());

  auto storage_snapshot = [](std::vector<std::string> spaces,
                             std::vector<std::string> keys) {
    Writer w;
    w.PutU64(0);  // no accounts
    w.PutU64(spaces.size());
    for (const std::string& space : spaces) {
      w.PutString(space);
      w.PutU64(keys.size());
      for (const std::string& key : keys) {
        w.PutBytes(ToBytes(key));
        w.PutBytes(ToBytes("v"));
      }
    }
    return w.Take();
  };
  EXPECT_TRUE(WorldState::DeserializeSnapshot(
                  storage_snapshot({"a", "b"}, {"k1", "k2"}))
                  .ok());
  EXPECT_FALSE(WorldState::DeserializeSnapshot(
                   storage_snapshot({"b", "a"}, {"k1", "k2"}))
                   .ok());
  EXPECT_FALSE(WorldState::DeserializeSnapshot(
                   storage_snapshot({"a", "b"}, {"k2", "k1"}))
                   .ok());
  EXPECT_FALSE(
      WorldState::DeserializeSnapshot(storage_snapshot({"a"}, {})).ok());
}

}  // namespace
}  // namespace pds2::chain
