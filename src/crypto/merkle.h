#ifndef PDS2_CRYPTO_MERKLE_H_
#define PDS2_CRYPTO_MERKLE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace pds2::common {
class ThreadPool;
}  // namespace pds2::common

namespace pds2::crypto {

/// One step of a Merkle inclusion proof: the sibling hash and whether it
/// sits on the left of the path node.
struct MerkleStep {
  common::Bytes sibling;
  bool sibling_is_left = false;
};

/// Inclusion proof for a single leaf.
using MerkleProof = std::vector<MerkleStep>;

/// Binary SHA-256 Merkle tree over a list of leaf byte-strings. Leaves are
/// hashed with a 0x00 prefix and interior nodes with 0x01, preventing
/// leaf/node second-preimage confusion. Odd nodes are promoted (not
/// duplicated). The blockchain uses this for transaction roots; the storage
/// subsystem uses it for dataset commitments.
class MerkleTree {
 public:
  /// Builds the tree. An empty input yields the hash of the empty string as
  /// root (a defined sentinel). With a pool, each level is hashed
  /// level-parallel (nodes within a level are independent); the resulting
  /// tree is bit-identical for every pool size because node positions are
  /// fixed by the input alone.
  explicit MerkleTree(const std::vector<common::Bytes>& leaves,
                      common::ThreadPool* pool = nullptr);

  const common::Bytes& Root() const { return root_; }
  size_t LeafCount() const { return leaf_count_; }

  /// Proof for leaf `index`; fails with OutOfRange on a bad index.
  common::Result<MerkleProof> Prove(size_t index) const;

  /// Verifies that `leaf_data` is at some position under `root`.
  static bool Verify(const common::Bytes& root, const common::Bytes& leaf_data,
                     const MerkleProof& proof);

  /// Hash applied to raw leaf data (0x00-prefixed SHA-256).
  static common::Bytes HashLeaf(const common::Bytes& data);

 private:
  // levels_[0] = leaf hashes, last level = {root}.
  std::vector<std::vector<common::Bytes>> levels_;
  common::Bytes root_;
  size_t leaf_count_ = 0;
};

/// A MerkleTree of fixed shape, 2^depth leaves, that keeps every node so a
/// changed leaf rehashes only its own path. Leaves and nodes hash exactly as
/// in MerkleTree, so Root() equals MerkleTree over the same 2^depth leaf
/// strings and Prove() paths verify with MerkleTree::Verify. A leaf never
/// set holds empty data; a subtree of such leaves hashes to a per-height
/// constant computed once per process, so a new tree hashes nothing and
/// allocates its nodes (flat, 32 bytes each) only at the first Update.
class IncrementalMerkleTree {
 public:
  explicit IncrementalMerkleTree(unsigned depth);

  size_t LeafCount() const { return size_t{1} << depth_; }

  /// Sets every leaf i in `indices` (each < LeafCount()) to `data(i)` and
  /// rehashes the paths above the leaves whose hash changed. With a pool,
  /// the leaves (`data` included, so it must be safe to call concurrently)
  /// and then each level are computed in parallel; the tree is the same at
  /// any pool size.
  void Update(const std::vector<size_t>& indices,
              const std::function<common::Bytes(size_t)>& data,
              common::ThreadPool* pool = nullptr);

  /// The root over the current leaves.
  common::Bytes Root() const;
  /// Inclusion proof for leaf `index` (< LeafCount()): one step per level.
  MerkleProof Prove(size_t index) const;

  /// SHA-256 leaf and node hashes computed so far: the tree's whole cost.
  uint64_t hash_count() const { return hash_count_; }

 private:
  using Node = std::array<uint8_t, 32>;

  unsigned depth_;
  // Heap order: nodes_[1] is the root, the children of i are 2i and 2i+1,
  // leaf j is nodes_[LeafCount() + j]. Empty until the first Update.
  std::vector<Node> nodes_;
  uint64_t hash_count_ = 0;
};

}  // namespace pds2::crypto

#endif  // PDS2_CRYPTO_MERKLE_H_
