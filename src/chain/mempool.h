#ifndef PDS2_CHAIN_MEMPOOL_H_
#define PDS2_CHAIN_MEMPOOL_H_

#include <map>
#include <set>
#include <vector>

#include "chain/state.h"
#include "chain/transaction.h"
#include "chain/types.h"
#include "common/result.h"

namespace pds2::chain {

/// Transaction pool of one Blockchain, which is its single owner: every
/// caller reaches it through that chain from one thread at a time, so it
/// takes no locks. Pending transactions are kept per sender in nonce order
/// (the order selection walks them in), and a submission sequence number
/// keeps first-come-first-served as the final tiebreak.
///
/// Admission is bounded (ResourceExhausted beyond `max_transactions`), and
/// selection evicts transactions that can never execute: stale nonces and
/// pool heads whose sender balance no longer covers the worst-case cost
/// `gas_limit * gas_price + value` — a produced block never carries a
/// pre-doomed transaction.
class Mempool {
 public:
  explicit Mempool(size_t max_transactions = 1 << 16)
      : max_transactions_(max_transactions) {}

  /// Queues a transaction the chain has already signature-checked; `id` is
  /// its tx.Id(). AlreadyExists on a duplicate id or an occupied (sender,
  /// nonce) slot (first submission wins); ResourceExhausted when the pool
  /// is full.
  common::Status Add(const Transaction& tx, Hash id);

  /// Whether a transaction id is currently queued.
  bool Contains(const Hash& id) const { return ids_.count(id) > 0; }

  /// Total queued transactions.
  size_t Size() const { return ids_.size(); }

  struct Selection {
    std::vector<Transaction> selected;  // canonical block order
    std::vector<Hash> dropped;          // stale/pre-doomed, evicted for good
  };

  /// Drains the next block's transactions: per sender, consecutive nonces
  /// starting at the account nonce, affordable under worst-case fees
  /// (each transaction's own gas_price) against `state`, packed under the
  /// sum of gas limits in priority order — evidence transactions first,
  /// then by offered gas price descending, submission order (FIFO) as the
  /// deterministic tiebreak. Stale entries (nonce below the account's),
  /// below-floor offers (`gas_price_floor`) and unaffordable chain heads
  /// are evicted and reported in `dropped`; future-nonce and
  /// not-yet-fitting transactions stay queued.
  Selection SelectForBlock(const WorldState& state, uint64_t block_gas_limit,
                           uint64_t gas_price_floor);

  /// Removes transactions executed via an external block.
  void RemoveExecuted(const std::vector<Transaction>& txs);

 private:
  struct Entry {
    Transaction tx;
    Hash id;
    uint64_t seq = 0;
  };

  /// Erases the entry at `it` from `chain` and the id set.
  void Erase(std::map<uint64_t, Entry>& chain,
             std::map<uint64_t, Entry>::iterator it);
  void PublishDepth() const;

  size_t max_transactions_;
  // sender -> nonce -> entry; nonce order is selection order.
  std::map<Address, std::map<uint64_t, Entry>> by_sender_;
  std::set<Hash> ids_;
  uint64_t next_seq_ = 0;
};

}  // namespace pds2::chain

#endif  // PDS2_CHAIN_MEMPOOL_H_
