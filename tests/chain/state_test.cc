#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chain/parallel_exec.h"
#include "chain/state.h"
#include "common/bytes.h"
#include "common/hex.h"
#include "common/rng.h"
#include "common/serial.h"

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
  op.a = Addr(static_cast<uint8_t>(1 + rng.NextU64(kNumAddrs)));
  op.b = Addr(static_cast<uint8_t>(1 + rng.NextU64(kNumAddrs)));
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
             std::to_string(s.TotalStaked()) + "/" +
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

class StateDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StateDifferentialTest, OverlayThenMergeMatchesWorldState) {
  Rng rng(GetParam());
  const WorldState base = RandomState(rng, 40);
  WorldState direct = base;
  WorldState target = base;
  StateOverlay overlay(target);

  for (int step = 0; step < 400; ++step) {
    const Op op = RandomOp(rng, true);
    ASSERT_EQ(Apply(overlay, op), Apply(direct, op))
        << "seed " << GetParam() << " step " << step << " kind " << op.kind;
  }
  while (direct.CheckpointDepth() > 0) {
    const Op close{rng.NextU64(2) == 0 ? kCommit : kRollback, {}, {}, {},
                   {}, {}, 0};
    Apply(direct, close);
    Apply(overlay, close);
  }
  ASSERT_EQ(overlay.CheckpointDepth(), 0u);
  EXPECT_EQ(Observe(overlay), Observe(direct));
  EXPECT_EQ(target.Digest(), base.Digest());  // untouched until the merge

  // The merge is journaled on the target: a rolled-back merge is exact.
  target.Begin();
  overlay.MergeInto(target);
  EXPECT_EQ(target.Digest(), direct.Digest());
  target.Rollback();
  EXPECT_EQ(target.Digest(), base.Digest());

  overlay.MergeInto(target);
  EXPECT_EQ(target.Digest(), direct.Digest());
  EXPECT_EQ(target.SerializeSnapshot(), direct.SerializeSnapshot());
  EXPECT_EQ(Observe(target), Observe(direct));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StateDifferentialTest,
                         ::testing::Range<uint64_t>(1, 41));

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
