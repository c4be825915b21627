#include "crypto/merkle.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/thread_pool.h"
#include "crypto/sha256.h"

namespace pds2::crypto {

using common::Bytes;
using common::Result;
using common::Status;

namespace {

// Below this many nodes a level is hashed inline; pool dispatch overhead
// would swamp the SHA-256 work.
constexpr size_t kParallelLevelThreshold = 32;

// Deepest IncrementalMerkleTree (2^32 leaves).
constexpr unsigned kMaxDepth = 32;

using Node = std::array<uint8_t, kSha256DigestSize>;

Bytes HashPair(const uint8_t* left, size_t left_len, const uint8_t* right,
               size_t right_len) {
  Sha256 h;
  const uint8_t prefix = 0x01;
  h.Update(&prefix, 1);
  h.Update(left, left_len);
  h.Update(right, right_len);
  return h.Finish();
}

Bytes HashNode(const Bytes& left, const Bytes& right) {
  return HashPair(left.data(), left.size(), right.data(), right.size());
}

Node ToNode(const Bytes& digest) {
  Node node;
  std::memcpy(node.data(), digest.data(), node.size());
  return node;
}

// EmptySubtrees()[h]: the root of a height-h subtree of empty leaves.
const std::vector<Node>& EmptySubtrees() {
  static const std::vector<Node> kTable = [] {
    std::vector<Node> table{ToNode(MerkleTree::HashLeaf({}))};
    while (table.size() <= kMaxDepth) {
      const Node& below = table.back();
      table.push_back(ToNode(
          HashPair(below.data(), below.size(), below.data(), below.size())));
    }
    return table;
  }();
  return kTable;
}

// Runs fn(i) for i in [0, count), on the pool when it pays off.
void ForEach(size_t count, common::ThreadPool* pool,
             const std::function<void(size_t)>& fn) {
  if (pool != nullptr && pool->NumThreads() > 1 &&
      count >= kParallelLevelThreshold) {
    pool->ParallelFor(0, count, fn);
  } else {
    for (size_t i = 0; i < count; ++i) fn(i);
  }
}

}  // namespace

Bytes MerkleTree::HashLeaf(const Bytes& data) {
  Sha256 h;
  const uint8_t prefix = 0x00;
  h.Update(&prefix, 1);
  h.Update(data);
  return h.Finish();
}

MerkleTree::MerkleTree(const std::vector<Bytes>& leaves,
                       common::ThreadPool* pool)
    : leaf_count_(leaves.size()) {
  if (leaves.empty()) {
    root_ = Sha256::Hash(Bytes{});
    return;
  }
  std::vector<Bytes> level(leaves.size());
  ForEach(leaves.size(), pool,
          [&](size_t i) { level[i] = HashLeaf(leaves[i]); });
  levels_.push_back(std::move(level));

  while (levels_.back().size() > 1) {
    const std::vector<Bytes>& prev = levels_.back();
    const size_t pairs = prev.size() / 2;
    std::vector<Bytes> next(pairs);
    ForEach(pairs, pool, [&](size_t i) {
      next[i] = HashNode(prev[2 * i], prev[2 * i + 1]);
    });
    if (prev.size() % 2 == 1) next.push_back(prev.back());  // promote odd node
    levels_.push_back(std::move(next));
  }
  root_ = levels_.back()[0];
}

Result<MerkleProof> MerkleTree::Prove(size_t index) const {
  if (index >= leaf_count_) {
    return Status::OutOfRange("leaf index beyond tree size");
  }
  MerkleProof proof;
  size_t pos = index;
  for (size_t lvl = 0; lvl + 1 < levels_.size(); ++lvl) {
    const std::vector<Bytes>& level = levels_[lvl];
    const size_t sibling = (pos % 2 == 0) ? pos + 1 : pos - 1;
    if (sibling < level.size()) {
      proof.push_back({level[sibling], /*sibling_is_left=*/pos % 2 == 1});
    }
    pos /= 2;
  }
  return proof;
}

bool MerkleTree::Verify(const Bytes& root, const Bytes& leaf_data,
                        const MerkleProof& proof) {
  Bytes node = HashLeaf(leaf_data);
  for (const MerkleStep& step : proof) {
    node = step.sibling_is_left ? HashNode(step.sibling, node)
                                : HashNode(node, step.sibling);
  }
  return node == root;
}

// --- IncrementalMerkleTree ----------------------------------------------------

IncrementalMerkleTree::IncrementalMerkleTree(unsigned depth) : depth_(depth) {
  assert(depth <= kMaxDepth);
}

void IncrementalMerkleTree::Update(const std::vector<size_t>& indices,
                                   const std::function<Bytes(size_t)>& data,
                                   common::ThreadPool* pool) {
  if (indices.empty()) return;
  const std::vector<Node>& empty = EmptySubtrees();
  if (nodes_.empty()) {
    nodes_.resize(2 * LeafCount());
    for (unsigned level = 0; level <= depth_; ++level) {
      std::fill(nodes_.begin() + (ptrdiff_t{1} << level),
                nodes_.begin() + (ptrdiff_t{2} << level),
                empty[depth_ - level]);
    }
  }
  std::vector<Node> leaves(indices.size());
  ForEach(indices.size(), pool, [&](size_t i) {
    assert(indices[i] < LeafCount());
    const Bytes leaf = data(indices[i]);
    leaves[i] = leaf.empty() ? empty[0] : ToNode(MerkleTree::HashLeaf(leaf));
  });
  // Changed nodes of one level; each pass rehashes their parents.
  std::vector<size_t> changed;
  for (size_t i = 0; i < indices.size(); ++i) {
    if (leaves[i] != empty[0]) ++hash_count_;
    Node& node = nodes_[LeafCount() + indices[i]];
    if (node == leaves[i]) continue;
    node = leaves[i];
    changed.push_back(LeafCount() + indices[i]);
  }
  while (!changed.empty() && changed.front() > 1) {
    for (size_t& node : changed) node /= 2;
    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
    ForEach(changed.size(), pool, [&](size_t i) {
      const Node& left = nodes_[2 * changed[i]];
      const Node& right = nodes_[2 * changed[i] + 1];
      nodes_[changed[i]] = ToNode(
          HashPair(left.data(), left.size(), right.data(), right.size()));
    });
    hash_count_ += changed.size();
  }
}

Bytes IncrementalMerkleTree::Root() const {
  const Node& root = nodes_.empty() ? EmptySubtrees()[depth_] : nodes_[1];
  return Bytes(root.begin(), root.end());
}

MerkleProof IncrementalMerkleTree::Prove(size_t index) const {
  assert(index < LeafCount());
  MerkleProof proof;
  size_t node = LeafCount() + index;
  for (unsigned height = 0; height < depth_; ++height, node /= 2) {
    const Node& sibling =
        nodes_.empty() ? EmptySubtrees()[height] : nodes_[node ^ 1];
    proof.push_back({Bytes(sibling.begin(), sibling.end()),
                     /*sibling_is_left=*/(node & 1) == 1});
  }
  return proof;
}

}  // namespace pds2::crypto
