#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"

namespace pds2::crypto {
namespace {

using common::Bytes;
using common::Rng;
using common::ToBytes;

std::vector<Bytes> MakeLeaves(size_t n) {
  std::vector<Bytes> leaves;
  leaves.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    leaves.push_back(ToBytes("leaf-" + std::to_string(i)));
  }
  return leaves;
}

TEST(MerkleTest, EmptyTreeHasSentinelRoot) {
  MerkleTree tree({});
  EXPECT_EQ(tree.Root(), Sha256::Hash(Bytes{}));
}

TEST(MerkleTest, SingleLeafRootIsLeafHash) {
  auto leaves = MakeLeaves(1);
  MerkleTree tree(leaves);
  EXPECT_EQ(tree.Root(), MerkleTree::HashLeaf(leaves[0]));
  EXPECT_TRUE(MerkleTree::Verify(tree.Root(), leaves[0], {}));
}

// The root the class comment describes: hash the leaves, then pair nodes
// level by level, promoting an odd last node unchanged.
Bytes ReferenceRoot(const std::vector<Bytes>& leaves) {
  std::vector<Bytes> level;
  for (const Bytes& leaf : leaves) level.push_back(MerkleTree::HashLeaf(leaf));
  while (level.size() > 1) {
    std::vector<Bytes> next;
    for (size_t i = 0; i + 1 < level.size(); i += 2) {
      Sha256 h;
      const uint8_t prefix = 0x01;
      h.Update(&prefix, 1);
      h.Update(level[i]);
      h.Update(level[i + 1]);
      next.push_back(h.Finish());
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  return level[0];
}

class MerkleSizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(MerkleSizeSweep, RootMatchesTheReferenceAtAnyPoolSize) {
  const size_t n = GetParam();
  auto leaves = MakeLeaves(n);
  const Bytes expected = ReferenceRoot(leaves);
  EXPECT_EQ(MerkleTree(leaves).Root(), expected);
  for (size_t threads : {2u, 4u}) {
    common::ThreadPool pool(threads);
    EXPECT_EQ(MerkleTree(leaves, &pool).Root(), expected) << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleSizeSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                                           31, 33, 64, 100));

// Verify against proofs of a full tree (IncrementalMerkleTree, which hashes
// exactly as MerkleTree does).
struct ProvedLeaves {
  std::vector<Bytes> leaves = MakeLeaves(8);
  IncrementalMerkleTree tree{3};
  ProvedLeaves() {
    tree.Update({0, 1, 2, 3, 4, 5, 6, 7},
                [this](size_t i) { return leaves[i]; });
  }
};

TEST(MerkleTest, WrongLeafFailsVerification) {
  ProvedLeaves t;
  ASSERT_TRUE(MerkleTree::Verify(t.tree.Root(), t.leaves[3], t.tree.Prove(3)));
  EXPECT_FALSE(
      MerkleTree::Verify(t.tree.Root(), ToBytes("forged"), t.tree.Prove(3)));
}

TEST(MerkleTest, WrongRootFailsVerification) {
  ProvedLeaves t;
  Bytes bad_root = t.tree.Root();
  bad_root[0] ^= 1;
  EXPECT_FALSE(MerkleTree::Verify(bad_root, t.leaves[3], t.tree.Prove(3)));
}

TEST(MerkleTest, ProofForOneLeafDoesNotVerifyAnother) {
  ProvedLeaves t;
  EXPECT_FALSE(
      MerkleTree::Verify(t.tree.Root(), t.leaves[5], t.tree.Prove(2)));
}

TEST(MerkleTest, RootDependsOnLeafOrder) {
  auto leaves = MakeLeaves(4);
  MerkleTree t1(leaves);
  std::swap(leaves[0], leaves[1]);
  MerkleTree t2(leaves);
  EXPECT_NE(t1.Root(), t2.Root());
}

TEST(MerkleTest, RootDependsOnEveryLeaf) {
  auto leaves = MakeLeaves(16);
  MerkleTree original(leaves);
  for (size_t i = 0; i < leaves.size(); ++i) {
    auto mutated = leaves;
    mutated[i] = ToBytes("tampered");
    EXPECT_NE(MerkleTree(mutated).Root(), original.Root()) << i;
  }
}

TEST(MerkleTest, LeafNodeDomainSeparation) {
  // A leaf whose content equals an interior node encoding must not produce
  // the same hash (0x00/0x01 prefixes prevent second-preimage confusion).
  Bytes data = ToBytes("x");
  EXPECT_NE(MerkleTree::HashLeaf(data), Sha256::Hash(data));
}

// --- IncrementalMerkleTree --------------------------------------------------

TEST(IncrementalMerkleTest, FreshTreeHashesNothing) {
  for (unsigned depth : {0u, 1u, 5u, 12u}) {
    IncrementalMerkleTree tree(depth);
    const std::vector<Bytes> empty(tree.LeafCount());
    EXPECT_EQ(tree.Root(), MerkleTree(empty).Root()) << depth;
    auto proof = tree.Prove(tree.LeafCount() - 1);
    EXPECT_EQ(proof.size(), depth);
    EXPECT_TRUE(MerkleTree::Verify(tree.Root(), {}, proof));
    EXPECT_EQ(tree.hash_count(), 0u) << depth;
  }
}

TEST(IncrementalMerkleTest, MatchesMerkleTreeUnderRandomUpdates) {
  Rng rng(5);
  for (unsigned depth : {1u, 3u, 8u}) {
    IncrementalMerkleTree tree(depth);
    std::vector<Bytes> leaves(tree.LeafCount());
    for (int round = 0; round < 40; ++round) {
      std::vector<size_t> touched;
      for (uint64_t n = 1 + rng.NextU64(4); n > 0; --n) {
        touched.push_back(rng.NextU64(leaves.size()));
        leaves[touched.back()] =
            rng.NextU64(4) == 0 ? Bytes{} : rng.NextBytes(1 + n);
      }
      tree.Update(touched, [&](size_t i) { return leaves[i]; });
      ASSERT_EQ(tree.Root(), MerkleTree(leaves).Root()) << depth;
      const size_t i = rng.NextU64(leaves.size());
      EXPECT_TRUE(MerkleTree::Verify(tree.Root(), leaves[i], tree.Prove(i)));
      EXPECT_FALSE(MerkleTree::Verify(tree.Root(), ToBytes("other"),
                                      tree.Prove(i)));
    }
  }
}

TEST(IncrementalMerkleTest, OneLeafRehashesOnePath) {
  IncrementalMerkleTree tree(10);
  std::vector<size_t> all(tree.LeafCount());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  auto leaf = [](size_t i) { return ToBytes("leaf-" + std::to_string(i)); };
  tree.Update(all, leaf);
  const uint64_t built = tree.hash_count();
  EXPECT_EQ(built, 2 * tree.LeafCount() - 1);
  auto changed = [](size_t) { return ToBytes("changed"); };
  tree.Update({7}, changed);
  EXPECT_EQ(tree.hash_count() - built, 1u + 10u);
  tree.Update({7}, changed);  // same leaf: the path is current
  EXPECT_EQ(tree.hash_count() - built, 2u + 10u);
}

TEST(IncrementalMerkleTest, SameTreeAtAnyPoolSize) {
  Rng rng(8);
  std::vector<Bytes> leaves(1 << 9);
  for (Bytes& leaf : leaves) leaf = rng.NextBytes(1 + rng.NextU64(40));
  std::vector<size_t> all(leaves.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  auto data = [&](size_t i) { return leaves[i]; };
  IncrementalMerkleTree inline_tree(9);
  inline_tree.Update(all, data);
  for (size_t threads : {1u, 2u, 4u}) {
    common::ThreadPool pool(threads);
    IncrementalMerkleTree tree(9);
    tree.Update(all, data, &pool);
    EXPECT_EQ(tree.Root(), inline_tree.Root()) << threads;
    EXPECT_EQ(tree.Root(), MerkleTree(leaves).Root()) << threads;
  }
}

}  // namespace
}  // namespace pds2::crypto
