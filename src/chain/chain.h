#ifndef PDS2_CHAIN_CHAIN_H_
#define PDS2_CHAIN_CHAIN_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chain/block.h"
#include "chain/contract.h"
#include "chain/gas.h"
#include "chain/mempool.h"
#include "chain/parallel_exec.h"
#include "chain/state.h"
#include "chain/transaction.h"
#include "common/result.h"
#include "obs/trace.h"

namespace pds2::common {
class ThreadPool;
}  // namespace pds2::common

namespace pds2::chain {

/// Outcome of one executed transaction, the audit record exposed by the
/// governance layer.
struct Receipt {
  Hash tx_id;
  uint64_t block_number = 0;
  bool success = false;
  std::string error;          // status string when !success
  uint64_t gas_used = 0;
  common::Bytes output;       // contract return value (instance id on deploy)
  std::vector<Event> events;
};

class Blockchain;

/// Observer of block commits, notified after a block has fully executed and
/// joined the chain (ProduceBlock or ApplyExternalBlock). The durability
/// layer (storage::ChainStore) implements this to append the block to its
/// on-disk log and cut periodic state snapshots; chain stays independent of
/// the storage module.
class CommitListener {
 public:
  virtual ~CommitListener() = default;
  /// `chain` is the chain that just committed `block` (its new head).
  virtual void OnBlockCommitted(const Blockchain& chain,
                                const Block& block) = 0;
};

/// Chain-wide parameters.
struct ChainConfig {
  /// Network floor on the per-gas-unit fee. Transactions offer their own
  /// Transaction::gas_price (the fee actually charged); submission and
  /// external-block validation reject offers below this floor. Evidence
  /// transactions are exempt (fee-free, see chain/evidence.h).
  uint64_t gas_price = 1;
  uint64_t block_gas_limit = 100'000'000;  // per-block execution budget
  /// Accountability deposit per validator. When > 0, the constructor mints
  /// this amount to every validator address and immediately bonds it (the
  /// stake ledger, StateView::StakeOf), counted against the genesis supply
  /// cap. Accepted equivocation evidence slashes the offender's full bond.
  /// 0 (the default) leaves genesis state byte-identical to older chains.
  uint64_t validator_stake = 0;
  /// Share of a slashed stake paid to the evidence reporter, in basis
  /// points; the remainder is burned.
  uint32_t slash_reporter_bps = 5'000;
  /// Optional pool for parallel block validation (signature batches + tx
  /// root) and optimistic parallel transaction execution. nullptr uses the
  /// process-wide ThreadPool::Global(); a 1-thread pool follows the
  /// sequential code path exactly. Any pool size yields bit-identical
  /// blocks, receipts and state (see DESIGN.md "Parallel execution").
  common::ThreadPool* thread_pool = nullptr;
  /// Crash tolerance of the PoA rotation. 0 = strict round-robin: only
  /// validators_[height % n] may propose, so an offline proposer stalls the
  /// chain forever. > 0 = deadline fallback: for every `proposer_grace` of
  /// sim-time that elapses after the parent block's timestamp, the right to
  /// propose shifts to the next validator in rotation order. The rule is a
  /// pure function of (height, parent timestamp, block timestamp), so every
  /// replica accepts exactly the same proposer for a given block — but two
  /// proposers CAN now legitimately build at the same height in different
  /// windows (e.g. the primary's block was lost in a partition), so
  /// replicas need a fork-choice rule (see p2p::ValidatorNode).
  common::SimTime proposer_grace = 0;
};

/// The PDS2 governance blockchain: an account-based ledger with
/// proof-of-authority consensus (a fixed validator set proposing in
/// round-robin order) executing native C++ contracts with Ethereum-style
/// gas accounting. Execution semantics are sequential and deterministic by
/// design — it is the ground truth of the marketplace simulation — but the
/// implementation may run non-conflicting transactions concurrently:
/// blocks are partitioned into conflict lanes by access set and executed
/// optimistically on a ThreadPool, with a sequential re-run whenever a
/// transaction strays outside its inferred footprint. Every pool size
/// (including none) produces bit-identical receipts, state and block
/// hashes: see ChainConfig::thread_pool and DESIGN.md "Parallel
/// execution".
class Blockchain {
 public:
  Blockchain(std::vector<common::Bytes> validator_public_keys,
             std::unique_ptr<ContractRegistry> registry,
             ChainConfig config = {});

  /// Pre-consensus token allocation (genesis only; fails after block 0).
  common::Status CreditGenesis(const Address& addr, uint64_t amount);

  /// Validates a transaction's signature and queues it.
  common::Status SubmitTransaction(const Transaction& tx);

  /// Produces, executes and appends the next block. Fails unless `proposer`
  /// is ProposerAt(timestamp). `timestamp` must be strictly after the
  /// previous block's.
  common::Result<Block> ProduceBlock(const crypto::SigningKey& proposer,
                                     common::SimTime timestamp);

  /// Validates an externally produced block (the header rule below, the
  /// block gas cap and price floor, every transaction signature) and
  /// executes it; its post-state must equal the header's state_root. Used
  /// when replicating another node's chain.
  ///
  /// The header rule, the same here and in RestoreFromSnapshot: block n
  /// follows its parent (n = parent's number + 1, or 0 with no parent;
  /// parent_hash = parent's Id(), or 32 zero bytes; timestamp strictly
  /// after the parent's), its proposer is ProposerFor(n, parent timestamp,
  /// timestamp), the proposer's signature verifies, and tx_root commits to
  /// the block's transactions.
  common::Status ApplyExternalBlock(const Block& block);

  // --- Queries -------------------------------------------------------------

  uint64_t GetBalance(const Address& addr) const {
    return state_.GetBalance(addr);
  }
  uint64_t GetNonce(const Address& addr) const { return state_.GetNonce(addr); }

  /// Receipt of an executed transaction.
  common::Result<Receipt> GetReceipt(const Hash& tx_id) const;

  /// Read-only contract call: executes on a throwaway overlay of the
  /// current state. Never mutates the ledger; safe to call concurrently
  /// (with each other, not with block execution).
  common::Result<common::Bytes> Query(const std::string& contract,
                                      uint64_t instance,
                                      const std::string& method,
                                      const common::Bytes& args,
                                      const Address& caller = Address{}) const;

  /// Proven read of storage slot `key` of a contract instance: the slot's
  /// bucket and path against the head block's state_root, which the head
  /// state always equals. Check it with WorldState::VerifySlot(head
  /// state_root, ContractSpace(contract, instance), key, proof): that
  /// yields the value, or nullopt for a slot the proof shows absent.
  /// FailedPrecondition before the first block. Not safe concurrently with
  /// block execution or another proven read.
  common::Result<StateProof> QuerySlot(const std::string& contract,
                                       uint64_t instance,
                                       const common::Bytes& key) const;

  /// Height = number of blocks (genesis is implicit; first block is 0).
  uint64_t Height() const { return blocks_.size(); }
  Hash LastBlockHash() const;
  const std::vector<Block>& blocks() const { return blocks_; }
  size_t MempoolSize() const { return mempool_.Size(); }
  const std::vector<common::Bytes>& validators() const { return validators_; }
  /// Validator allowed to propose block `height` at `timestamp` when its
  /// parent's timestamp is `parent_ts` (0 for block 0), under the
  /// ChainConfig::proposer_grace rotation: a pure function of its
  /// arguments and the configuration.
  const common::Bytes& ProposerFor(uint64_t height, common::SimTime parent_ts,
                                   common::SimTime timestamp) const;

  /// Validator allowed to propose the next block at `timestamp`.
  const common::Bytes& ProposerAt(common::SimTime timestamp) const;

  /// Total gas consumed by all executed transactions (experiment E6).
  uint64_t TotalGasUsed() const { return total_gas_used_; }

  /// Number of Schnorr signature checks actually performed on transactions.
  /// A (tx, signature) pair is verified at most once: SubmitTransaction and
  /// ApplyExternalBlock share a verification cache keyed by tx id (which
  /// covers the signature bytes), eliminating the historical double-verify
  /// on the submit→validate path.
  uint64_t SignatureVerifications() const { return signature_verifications_; }

  /// Total native supply: circulating balances plus bonded stakes plus
  /// burned (slashed-and-destroyed) tokens. Only genesis allocations and
  /// validator bonds mint, so this is exactly invariant across every
  /// transaction, slash and burn — the conservation the audit tests assert.
  /// Equals WorldState::TotalBalance() on a chain that never staked.
  uint64_t TotalSupply() const;

  // --- Accountability (stake ledger / evidence) ----------------------------

  /// Bonded stake of an account (validators bond at construction when
  /// ChainConfig::validator_stake > 0; executors bond via the workload
  /// contract escrow, which is tracked per-instance, not here).
  uint64_t StakeOf(const Address& addr) const { return state_.StakeOf(addr); }
  /// Sum of all bonded stakes.
  uint64_t TotalStaked() const { return state_.TotalStaked(); }
  /// Tokens destroyed by slashing so far.
  uint64_t BurnedTotal() const { return state_.BurnedTotal(); }
  /// Whether accepted evidence already slashed `offender` for `height`
  /// (each offence is punished exactly once, however many reporters race).
  bool HasEvidenceFor(const Address& offender, uint64_t height) const;

  /// All events a contract instance emitted, across every executed
  /// transaction, in block/receipt order — the audit-trail view of the
  /// governance layer (paper §II-C).
  std::vector<Event> EventsFor(const std::string& contract,
                               uint64_t instance) const;

  /// Commitment to the current world state (equals the head block's
  /// state_root right after a commit). Exposed for durability verification.
  Hash StateDigest() const { return state_.Digest(ExecutionPool()); }

  // --- Durability ----------------------------------------------------------

  /// Registers (or clears, with nullptr) the observer notified after every
  /// block commit. Not owned; must outlive the chain or be cleared first.
  void SetCommitListener(CommitListener* listener) { listener_ = listener; }

  /// Serializes everything a snapshot needs beyond the block history:
  /// execution counters plus the full WorldState. Paired with
  /// RestoreFromSnapshot; the byte format is versioned by the caller
  /// (storage::ChainStore wraps it in a checksummed container).
  common::Bytes EncodeSnapshotState() const;

  /// Rebuilds a freshly constructed chain (no blocks, no genesis credits)
  /// from a snapshot payload plus the block history up to the snapshot
  /// height. Every history header must pass the header rule (see
  /// ApplyExternalBlock) and the restored state's digest must equal the
  /// last history block's state_root — the snapshot cannot smuggle in a
  /// state the chain never committed, nor a history that replication
  /// would refuse.
  /// Receipts and mempool start empty (pre-snapshot receipts are gone, as
  /// documented in DESIGN.md "Durability & recovery").
  common::Status RestoreFromSnapshot(const common::Bytes& snapshot_state,
                                     std::vector<Block> history);

 private:
  /// Executes one transaction against an arbitrary state view. Pure with
  /// respect to the chain: receipts, gas and instance-id allocation go
  /// through the arguments, so the same routine serves sequential
  /// execution on the real WorldState and, on StateOverlays, the
  /// access-set pre-pass and optimistic lane execution. Counters/metrics
  /// are the caller's job.
  Receipt ExecuteTransactionOn(StateView& state, uint64_t* next_instance_id,
                               const Transaction& tx, uint64_t block_number,
                               common::SimTime timestamp) const;

  /// Executes a fee-exempt evidence transaction: verifies the equivocation
  /// proof, slashes the offender's full bond (reporter bounty + burn) and
  /// records the (offender, height) marker so the offence cannot be
  /// punished twice. Dispatched from ExecuteTransactionOn.
  Receipt ExecuteEvidenceOn(StateView& state, const Transaction& tx,
                            uint64_t block_number) const;

  /// Publishes the chain.supply.* gauges (circulating/staked/burned/genesis)
  /// after a commit so the health plane can watch supply conservation live.
  /// No-op (one relaxed load) while metrics are disabled; with them on it
  /// reads the state's running totals.
  void PublishSupplyGauges() const;

  /// Access set per transaction: declared for plain transfers, the
  /// footprint of a throwaway StateOverlay run for contract calls, global
  /// for deploys (they allocate the shared instance-id counter).
  std::vector<AccessSet> ComputeAccessSets(
      const std::vector<Transaction>& txs, uint64_t block_number,
      common::SimTime timestamp) const;

  /// Executes a block's transactions — in parallel conflict lanes when a
  /// multi-thread pool is available and the block splits, sequentially
  /// otherwise — and returns the receipts in transaction order. Updates
  /// total gas and execution metrics exactly once per transaction.
  std::vector<Receipt> ExecuteBlockTxs(const std::vector<Transaction>& txs,
                                       uint64_t block_number,
                                       common::SimTime timestamp);

  /// The optimistic lane path of ExecuteBlockTxs. False (with no state
  /// mutated) when the block does not split into >1 lane or any lane's
  /// footprint left its access set; true after overlays merged and
  /// `*receipts` holds the per-transaction results.
  bool TryExecuteLanes(const std::vector<Transaction>& txs,
                       uint64_t block_number, common::SimTime timestamp,
                       common::ThreadPool* pool,
                       std::vector<Receipt>* receipts);

  /// ApplyExternalBlock's validation/execution body; the public wrapper
  /// adds the applied/rejected accounting around it.
  common::Status ApplyExternalBlockInner(const Block& block,
                                         obs::ScopedSpan* span);

  /// The header rule (see ApplyExternalBlock) for `block` following
  /// `parent` (nullptr: `block` must be block 0).
  common::Status CheckHeader(const Block& block,
                             const BlockHeader* parent) const;

  /// The commit step of ProduceBlock and ApplyExternalBlock. Executes
  /// `block`'s transactions at its header's number and timestamp and
  /// credits their fees to the header's proposer. With a `signer`
  /// (production) it then sets the header's state_root and signature;
  /// without one the post-state root must equal the header's, or every
  /// effect is rolled back and Corruption returned. On success it stores
  /// the receipts, appends the block, links the transactions' submit
  /// contexts to `span`, publishes the supply gauges and notifies the
  /// commit listener.
  common::Status CommitBlock(Block block, const crypto::SigningKey* signer,
                             obs::ScopedSpan* span);

  /// Verifies one signature through the cache (submit path); `id` is
  /// tx.Id().
  common::Status VerifyTransactionCached(const Transaction& tx,
                                         const Hash& id);

  /// Verifies a block's signatures, skipping cached ones and checking the
  /// rest with batched Schnorr verification (one randomized linear
  /// combination per chunk, chunks sized from the block and spread over
  /// the pool). A failing chunk falls back to per-signature checks, so the
  /// returned status is the first failure in tx order — the same status
  /// the sequential loop produced.
  common::Status VerifyBlockSignatures(const std::vector<Transaction>& txs);

  /// The pool every parallel path uses: the configured one, or the
  /// process-wide shared pool when none was plumbed through.
  common::ThreadPool* ExecutionPool() const;

  void CacheVerified(Hash tx_id);

  /// Adds a causal link from `span` to the recorded submit context of every
  /// transaction in `txs`, then forgets those contexts. The resulting trace
  /// edge (submit -> block execution) is what connects a producer's
  /// market.post span to the validator's block-apply span even though the
  /// transaction itself carries no trace bytes.
  void LinkAndForgetTxContexts(const std::vector<Transaction>& txs,
                               obs::ScopedSpan* span);

  std::vector<common::Bytes> validators_;
  std::unique_ptr<ContractRegistry> registry_;
  ChainConfig config_;

  WorldState state_;
  std::vector<Block> blocks_;
  Mempool mempool_;
  std::map<Hash, Receipt> receipts_;
  CommitListener* listener_ = nullptr;
  uint64_t next_instance_id_ = 1;
  uint64_t total_gas_used_ = 0;
  uint64_t genesis_minted_ = 0;  // running CreditGenesis supply cap
  std::set<Hash> verified_txs_;  // successful signature checks, by tx id
  uint64_t signature_verifications_ = 0;
  /// Trace context active when each mempool tx was submitted (populated
  /// only while tracing is enabled; entries are consumed when the tx is
  /// executed or dropped as stale).
  std::map<Hash, obs::TraceContext> tx_trace_ctx_;
};

/// Helper for reading a deploy receipt's output as the new instance id.
common::Result<uint64_t> InstanceIdFromReceipt(const Receipt& receipt);

}  // namespace pds2::chain

#endif  // PDS2_CHAIN_CHAIN_H_
