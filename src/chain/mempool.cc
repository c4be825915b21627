#include "chain/mempool.h"

#include <algorithm>

#include "chain/evidence.h"
#include "common/checked_math.h"
#include "obs/metrics.h"

namespace pds2::chain {

using common::Status;

void Mempool::PublishDepth() const {
  PDS2_M_GAUGE_SET("chain.mempool.depth", ids_.size());
}

void Mempool::Erase(std::map<uint64_t, Entry>& chain,
                    std::map<uint64_t, Entry>::iterator it) {
  ids_.erase(it->second.id);
  chain.erase(it);
}

Status Mempool::Add(const Transaction& tx, Hash id) {
  if (ids_.size() >= max_transactions_) {
    PDS2_M_COUNT("chain.mempool.admission_rejected", 1);
    return Status::ResourceExhausted("mempool is full");
  }
  if (ids_.count(id) > 0) {
    return Status::AlreadyExists("transaction already queued in mempool");
  }
  auto& chain = by_sender_[tx.SenderAddress()];
  if (!chain.emplace(tx.nonce(), Entry{tx, id, next_seq_++}).second) {
    return Status::AlreadyExists(
        "transaction with this sender nonce already queued");
  }
  ids_.insert(std::move(id));
  PublishDepth();
  return Status::Ok();
}

Mempool::Selection Mempool::SelectForBlock(const WorldState& state,
                                           uint64_t block_gas_limit,
                                           uint64_t gas_price_floor) {
  Selection result;

  // Pass 1: evict stale nonces and pre-doomed chain heads, then pull each
  // sender's executable run (consecutive nonces from the account nonce,
  // affordable under a worst-case running balance) into a candidate list.
  struct Candidate {
    std::map<Address, std::map<uint64_t, Entry>>::iterator sender;
    std::map<uint64_t, Entry>::iterator entry;
    bool is_evidence;
  };
  std::vector<Candidate> candidates;
  for (auto sender_it = by_sender_.begin(); sender_it != by_sender_.end();) {
    const Address& sender = sender_it->first;
    auto& chain = sender_it->second;
    const uint64_t account_nonce = state.GetNonce(sender);

    // Stale: superseded by an executed transaction with the same nonce.
    while (!chain.empty() && chain.begin()->first < account_nonce) {
      result.dropped.push_back(chain.begin()->second.id);
      Erase(chain, chain.begin());
    }

    uint64_t balance = state.GetBalance(sender);
    uint64_t expected_nonce = account_nonce;
    for (auto it = chain.begin(); it != chain.end(); ++it) {
      if (it->first != expected_nonce) break;  // gap: rest is future
      const Transaction& tx = it->second.tx;
      const bool is_evidence = tx.payload().contract == kEvidenceContract;
      uint64_t max_fee, max_cost;
      const bool representable =
          common::CheckedMul(tx.gas_limit(), tx.gas_price(), &max_fee) &&
          common::CheckedAdd(tx.value(), max_fee, &max_cost);
      // A below-floor offer can never be carried by a valid block; treat
      // it like an unaffordable head (evidence is fee-exempt).
      const bool below_floor = !is_evidence && tx.gas_price() < gas_price_floor;
      if (!representable || below_floor || max_cost > balance) {
        // The chain head can never execute before anything tops the
        // sender up: it is pre-doomed, evict it so no block carries it.
        // Later entries in the run merely wait for the head's actual
        // (possibly smaller) spend and stay queued.
        if (it->first == account_nonce) {
          result.dropped.push_back(it->second.id);
          Erase(chain, it);
          PDS2_M_COUNT("chain.mempool.predoomed_evicted", 1);
          if (below_floor) {
            PDS2_M_COUNT("chain.mempool.evicted_below_floor", 1);
          }
        }
        break;
      }
      balance -= max_cost;
      candidates.push_back(Candidate{sender_it, it, is_evidence});
      ++expected_nonce;
    }

    if (chain.empty()) {
      sender_it = by_sender_.erase(sender_it);
    } else {
      ++sender_it;
    }
  }

  // Pass 2: priority packing under the block gas budget (worst case: the
  // sum of gas limits). Evidence rides a priority lane ahead of everything
  // (accountability must not be crowded out by fee pressure), then higher
  // gas-price offers, then submission order — a strict total order (seq is
  // unique), so selection is deterministic. Multiple passes let a sender's
  // nonce run land in one block even when priority orders its later
  // entries first.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.is_evidence != b.is_evidence) return a.is_evidence;
              const Entry& x = a.entry->second;
              const Entry& y = b.entry->second;
              if (x.tx.gas_price() != y.tx.gas_price()) {
                return x.tx.gas_price() > y.tx.gas_price();
              }
              return x.seq < y.seq;
            });
  std::map<Address, uint64_t> included_upto;  // sender -> next expected nonce
  std::vector<bool> taken(candidates.size(), false);
  uint64_t block_gas = 0;
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (taken[i]) continue;
      const Transaction& tx = candidates[i].entry->second.tx;
      auto [it, inserted] = included_upto.try_emplace(
          candidates[i].sender->first,
          state.GetNonce(candidates[i].sender->first));
      if (tx.nonce() != it->second) continue;
      if (block_gas + tx.gas_limit() > block_gas_limit) continue;
      block_gas += tx.gas_limit();
      it->second = tx.nonce() + 1;
      taken[i] = true;
      result.selected.push_back(tx);
      progressed = true;
    }
  }

  // Remove the selected entries. A sender's map node is erased only once
  // its chain is empty, so no other candidate still points into it.
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (!taken[i]) continue;
    auto& chain = candidates[i].sender->second;
    Erase(chain, candidates[i].entry);
    if (chain.empty()) by_sender_.erase(candidates[i].sender);
  }
  PublishDepth();
  return result;
}

void Mempool::RemoveExecuted(const std::vector<Transaction>& txs) {
  for (const Transaction& tx : txs) {
    const Hash id = tx.Id();
    if (ids_.count(id) == 0) continue;
    auto sender_it = by_sender_.find(tx.SenderAddress());
    auto& chain = sender_it->second;
    Erase(chain, chain.find(tx.nonce()));
    if (chain.empty()) by_sender_.erase(sender_it);
  }
  PublishDepth();
}

}  // namespace pds2::chain
