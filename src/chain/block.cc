#include "chain/block.h"

#include "common/thread_pool.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"

namespace pds2::chain {

using common::Bytes;
using common::Reader;
using common::Result;
using common::Status;
using common::Writer;

Bytes BlockHeader::SigningBytes() const {
  Writer w;
  w.PutBytes(parent_hash);
  w.PutU64(number);
  w.PutU64(timestamp);
  w.PutBytes(tx_root);
  w.PutBytes(state_root);
  w.PutBytes(proposer_public_key);
  return w.Take();
}

Bytes BlockHeader::Serialize() const {
  Writer w;
  w.PutRaw(SigningBytes());
  w.PutBytes(signature);
  return w.Take();
}

Result<BlockHeader> BlockHeader::Deserialize(const Bytes& data) {
  Reader r(data);
  BlockHeader h;
  PDS2_ASSIGN_OR_RETURN(h.parent_hash, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(h.number, r.GetU64());
  PDS2_ASSIGN_OR_RETURN(h.timestamp, r.GetU64());
  PDS2_ASSIGN_OR_RETURN(h.tx_root, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(h.state_root, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(h.proposer_public_key, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(h.signature, r.GetBytes());
  if (!r.AtEnd()) return Status::Corruption("trailing bytes in block header");
  return h;
}

Hash BlockHeader::Id() const { return crypto::Sha256::Hash(Serialize()); }

Bytes Block::Serialize() const {
  Writer w;
  w.PutBytes(header.Serialize());
  w.PutU32(static_cast<uint32_t>(transactions.size()));
  for (const Transaction& tx : transactions) w.PutBytes(tx.Serialize());
  return w.Take();
}

Result<Block> Block::Deserialize(const Bytes& data) {
  Reader r(data);
  Block block;
  PDS2_ASSIGN_OR_RETURN(Bytes header_bytes, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(block.header, BlockHeader::Deserialize(header_bytes));
  PDS2_ASSIGN_OR_RETURN(uint32_t n, r.GetU32());
  // Each transaction takes at least its u32 length prefix.
  PDS2_RETURN_IF_ERROR(r.CheckCount(n, sizeof(uint32_t)));
  block.transactions.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    PDS2_ASSIGN_OR_RETURN(Bytes tx_bytes, r.GetBytes());
    PDS2_ASSIGN_OR_RETURN(Transaction tx, Transaction::Deserialize(tx_bytes));
    block.transactions.push_back(std::move(tx));
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes in block");
  return block;
}

Hash Block::ComputeTxRoot(const std::vector<Transaction>& txs,
                          common::ThreadPool* pool) {
  std::vector<Bytes> leaves(txs.size());
  if (pool != nullptr && pool->NumThreads() > 1 && txs.size() >= 16) {
    pool->ParallelFor(0, txs.size(),
                      [&](size_t i) { leaves[i] = txs[i].Id(); });
  } else {
    for (size_t i = 0; i < txs.size(); ++i) leaves[i] = txs[i].Id();
  }
  return crypto::MerkleTree(leaves, pool).Root();
}

}  // namespace pds2::chain
