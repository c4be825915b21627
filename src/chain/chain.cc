#include "chain/chain.h"

#include <algorithm>
#include <cassert>

#include "chain/evidence.h"
#include "common/checked_math.h"
#include "common/logging.h"
#include "common/serial.h"
#include "common/thread_pool.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"

namespace pds2::chain {

using common::Bytes;
using common::Reader;
using common::Result;
using common::Status;
using common::Writer;

Blockchain::Blockchain(std::vector<Bytes> validator_public_keys,
                       std::unique_ptr<ContractRegistry> registry,
                       ChainConfig config)
    : validators_(std::move(validator_public_keys)),
      registry_(std::move(registry)),
      config_(config) {
  assert(!validators_.empty());
  assert(registry_ != nullptr);
  // Accountability bonds: mint and immediately stake the deposit of every
  // validator. Deterministic (config + validator set only), so replicas,
  // fork-choice candidate rebuilds and recovery all reproduce the same
  // genesis state bit for bit.
  if (config_.validator_stake > 0) {
    for (const Bytes& validator : validators_) {
      const Address addr = AddressFromPublicKey(validator);
      uint64_t new_supply;
      if (!common::CheckedAdd(genesis_minted_, config_.validator_stake,
                              &new_supply)) {
        assert(false && "validator stakes overflow total supply");
        break;
      }
      Status status = state_.Credit(addr, config_.validator_stake);
      assert(status.ok());
      status = state_.StakeBond(addr, config_.validator_stake);
      assert(status.ok());
      (void)status;
      genesis_minted_ = new_supply;
    }
  }
}

uint64_t Blockchain::TotalSupply() const {
  return common::SaturatingAdd(
      common::SaturatingAdd(state_.TotalBalance(), state_.TotalStaked()),
      state_.BurnedTotal());
}

void Blockchain::PublishSupplyGauges() const {
  PDS2_M_GAUGE_SET("chain.supply.circulating", state_.TotalBalance());
  PDS2_M_GAUGE_SET("chain.supply.staked", state_.TotalStaked());
  PDS2_M_GAUGE_SET("chain.supply.burned", state_.BurnedTotal());
  PDS2_M_GAUGE_SET("chain.supply.genesis", genesis_minted_);
}

bool Blockchain::HasEvidenceFor(const Address& offender,
                                uint64_t height) const {
  return state_.StorageGet(kEvidenceSpace, EvidenceKey(offender, height))
      .has_value();
}

common::ThreadPool* Blockchain::ExecutionPool() const {
  return config_.thread_pool != nullptr ? config_.thread_pool
                                        : &common::ThreadPool::Global();
}

Status Blockchain::CreditGenesis(const Address& addr, uint64_t amount) {
  if (!blocks_.empty()) {
    return Status::FailedPrecondition(
        "genesis allocation after the first block");
  }
  // Cap the minted supply below uint64 so conservation keeps every later
  // balance, fee and TotalBalance() sum exactly representable: transfers
  // and fee settlement only move existing tokens, so no account can ever
  // reach a value the genesis total did not. Before the first block the
  // only balances are prior genesis credits, so the running counter equals
  // state_.TotalBalance().
  uint64_t new_supply;
  if (!common::CheckedAdd(genesis_minted_, amount, &new_supply)) {
    return Status::InvalidArgument("genesis allocation overflows total supply");
  }
  PDS2_RETURN_IF_ERROR(state_.Credit(addr, amount));
  genesis_minted_ = new_supply;
  return Status::Ok();
}

namespace {

// Bound on the verification cache; far above any realistic working set
// (mempool + a few blocks in flight). On overflow the cache resets — the
// only cost is re-verifying, never a correctness change.
constexpr size_t kMaxVerifiedTxCacheEntries = 1 << 17;

// Below this many signatures a batch chunk stops amortizing the two fixed
// base-point multiplications, so chunks never shrink under this size.
constexpr size_t kMinSignatureBatch = 16;

// Below this many transactions the lane-planning pre-pass costs more than
// any conceivable parallel win; execute sequentially.
constexpr size_t kMinParallelBlockTxs = 4;

// Structural shape every evidence transaction must have: only the "submit"
// method exists, and the fee exemption is all-or-nothing — an evidence tx
// cannot smuggle value or occupy block gas.
Status CheckEvidencePayload(const Transaction& tx) {
  if (tx.payload().method != "submit") {
    return Status::InvalidArgument("unknown evidence method: " +
                                   tx.payload().method);
  }
  if (tx.value() != 0 || tx.gas_limit() != 0 || tx.gas_price() != 0) {
    return Status::InvalidArgument(
        "evidence transactions must carry zero value, gas limit and gas "
        "price");
  }
  return Status::Ok();
}

}  // namespace

void Blockchain::CacheVerified(Hash tx_id) {
  if (verified_txs_.size() >= kMaxVerifiedTxCacheEntries) {
    verified_txs_.clear();
  }
  verified_txs_.insert(std::move(tx_id));
}

Status Blockchain::VerifyTransactionCached(const Transaction& tx,
                                           const Hash& id) {
  if (verified_txs_.count(id) > 0) {
    PDS2_M_COUNT("chain.sig_cache_hits", 1);
    return Status::Ok();
  }
  ++signature_verifications_;
  PDS2_M_COUNT("chain.sig_verifications", 1);
  PDS2_RETURN_IF_ERROR(tx.VerifySignature());
  CacheVerified(id);
  return Status::Ok();
}

Status Blockchain::VerifyBlockSignatures(
    const std::vector<Transaction>& txs) {
  PDS2_TRACE_SPAN("chain.verify_block_signatures");
  // Partition into cached and still-unverified transactions. The id covers
  // the signature bytes, so a cache hit certifies this exact (tx, sig) pair.
  std::vector<size_t> unverified;
  std::vector<Hash> unverified_ids;
  for (size_t i = 0; i < txs.size(); ++i) {
    Hash id = txs[i].Id();
    if (verified_txs_.count(id) == 0) {
      unverified.push_back(i);
      unverified_ids.push_back(std::move(id));
    }
  }

  const size_t n = unverified.size();
  std::vector<Status> statuses(n, Status::Ok());
  if (n > 0) {
    // One randomized linear combination verifies a whole chunk of
    // signatures at a fraction of the per-signature cost; chunk count is
    // derived from the block (enough to feed the pool, never so many that
    // chunks fall under the amortization floor), so a bigger block means
    // bigger batches, not more dispatch overhead.
    std::vector<crypto::BatchVerifyEntry> entries(n);
    for (size_t k = 0; k < n; ++k) {
      const Transaction& tx = txs[unverified[k]];
      entries[k].public_key = tx.sender_public_key();
      entries[k].message =
          crypto::DomainSeparatedMessage(Transaction::Domain(),
                                         tx.SigningBytes());
      entries[k].signature = tx.signature();
    }
    common::ThreadPool* pool = ExecutionPool();
    const size_t num_chunks =
        std::max<size_t>(1, std::min(pool->NumThreads(),
                                     (n + kMinSignatureBatch - 1) /
                                         kMinSignatureBatch));
    pool->ParallelForChunks(
        n, num_chunks, [&](size_t, size_t begin, size_t end) {
          std::vector<crypto::BatchVerifyEntry> chunk(
              entries.begin() + begin, entries.begin() + end);
          if (crypto::VerifySignatureBatch(chunk)) return;
          // The batch cannot name the culprit: re-check this chunk's
          // entries individually so the caller sees the exact per-tx
          // status the sequential loop produced.
          for (size_t k = begin; k < end; ++k) {
            statuses[k] = txs[unverified[k]].VerifySignature();
          }
        });
  }
  signature_verifications_ += n;
  PDS2_M_COUNT("chain.sig_verifications", n);
  PDS2_M_COUNT("chain.sig_cache_hits", txs.size() - n);

  Status first_failure = Status::Ok();
  for (size_t k = 0; k < n; ++k) {
    if (statuses[k].ok()) {
      CacheVerified(std::move(unverified_ids[k]));
    } else if (first_failure.ok()) {
      first_failure = statuses[k];
    }
  }
  return first_failure;
}

Status Blockchain::SubmitTransaction(const Transaction& tx) {
  obs::ScopedSpan span("chain.submit_tx");
  const Hash id = tx.Id();
  PDS2_RETURN_IF_ERROR(VerifyTransactionCached(tx, id));
  // A tx id already executed is a duplicate: the signature cache would
  // happily re-admit it (it only dedups the *verification*), so check the
  // receipt history before queueing a copy that would burn the sender's
  // fee twice. Mempool duplicates are caught by Mempool::Add itself.
  if (receipts_.count(id) > 0) {
    return Status::AlreadyExists("transaction already executed");
  }
  if (tx.payload().contract == kEvidenceContract) {
    // Evidence is fee-exempt (no intrinsic gas, no floor, no funded
    // account needed), but the proof itself must verify before it may
    // occupy mempool space — spam cannot ride the exemption.
    PDS2_RETURN_IF_ERROR(CheckEvidencePayload(tx));
    auto evidence = EquivocationEvidence::Deserialize(tx.payload().args);
    if (!evidence.ok()) return evidence.status();
    PDS2_RETURN_IF_ERROR(evidence->Verify(validators_));
    if (HasEvidenceFor(evidence->Offender(), evidence->Height())) {
      return Status::AlreadyExists("offence already punished on chain");
    }
    PDS2_RETURN_IF_ERROR(mempool_.Add(tx, id));
    if (span.id() != 0) tx_trace_ctx_[id] = span.context();
    return Status::Ok();
  }
  if (tx.gas_price() < config_.gas_price) {
    return Status::InvalidArgument("gas price below network floor");
  }
  const auto& schedule = DefaultGasSchedule();
  const uint64_t floor_cost =
      schedule.tx_base + schedule.tx_payload_byte * tx.payload().args.size();
  if (tx.gas_limit() < floor_cost) {
    return Status::InvalidArgument("gas limit below intrinsic cost");
  }
  // Reject settlement arithmetic the ledger cannot represent: a gas_limit
  // whose worst-case fee (gas_limit * gas_price) or whose fee + value sum
  // wraps uint64 would slip past the affordability check wrapped to a tiny
  // number and be silently under-charged.
  uint64_t max_fee, max_cost;
  if (!common::CheckedMul(tx.gas_limit(), tx.gas_price(), &max_fee) ||
      !common::CheckedAdd(tx.value(), max_fee, &max_cost)) {
    return Status::InvalidArgument(
        "gas limit * gas price + value overflows settlement arithmetic");
  }
  if (!tx.payload().IsPlainTransfer() &&
      registry_->Find(tx.payload().contract) == nullptr) {
    return Status::NotFound("unknown contract type: " + tx.payload().contract);
  }
  PDS2_RETURN_IF_ERROR(mempool_.Add(tx, id));
  // Remember where the tx came from so the block that executes it can
  // link back to the submitter's span (the tx bytes stay trace-free).
  if (span.id() != 0) tx_trace_ctx_[id] = span.context();
  return Status::Ok();
}

void Blockchain::LinkAndForgetTxContexts(const std::vector<Transaction>& txs,
                                         obs::ScopedSpan* span) {
  if (tx_trace_ctx_.empty()) return;
  for (const Transaction& tx : txs) {
    const auto it = tx_trace_ctx_.find(tx.Id());
    if (it == tx_trace_ctx_.end()) continue;
    span->AddLink(it->second);
    tx_trace_ctx_.erase(it);
  }
}

Hash Blockchain::LastBlockHash() const {
  if (blocks_.empty()) return Hash(32, 0);  // genesis sentinel
  return blocks_.back().header.Id();
}

const Bytes& Blockchain::ProposerFor(uint64_t height,
                                     common::SimTime parent_ts,
                                     common::SimTime timestamp) const {
  // One allowed proposer per grace window: the primary for the first
  // window, then the rotation shifts one position per elapsed window.
  const uint64_t shift =
      config_.proposer_grace == 0 || timestamp <= parent_ts
          ? 0
          : (timestamp - parent_ts) / config_.proposer_grace;
  return validators_[(height + shift) % validators_.size()];
}

const Bytes& Blockchain::ProposerAt(common::SimTime timestamp) const {
  return ProposerFor(blocks_.size(),
                     blocks_.empty() ? 0 : blocks_.back().header.timestamp,
                     timestamp);
}

Receipt Blockchain::ExecuteTransactionOn(StateView& state,
                                         uint64_t* next_instance_id,
                                         const Transaction& tx,
                                         uint64_t block_number,
                                         common::SimTime timestamp) const {
  if (tx.payload().contract == kEvidenceContract) {
    return ExecuteEvidenceOn(state, tx, block_number);
  }

  Receipt receipt;
  receipt.tx_id = tx.Id();
  receipt.block_number = block_number;

  const Address sender = tx.SenderAddress();
  const auto& schedule = DefaultGasSchedule();
  GasMeter gas(tx.gas_limit());

  // The sender must afford worst-case gas plus the transferred value. Both
  // the fee multiply and the fee + value sum are overflow-checked: a
  // wrapped max_fee would pass this check while the real worst-case cost
  // exceeds any balance (SubmitTransaction rejects such txs up front, but
  // blocks arriving via ApplyExternalBlock reach execution directly).
  uint64_t max_fee, max_cost;
  if (!common::CheckedMul(tx.gas_limit(), tx.gas_price(), &max_fee) ||
      !common::CheckedAdd(tx.value(), max_fee, &max_cost)) {
    receipt.success = false;
    receipt.error = Status::InvalidArgument(
                        "gas limit * gas price + value overflows "
                        "settlement arithmetic")
                        .ToString();
    receipt.gas_used = 0;
    return receipt;
  }
  if (state.GetBalance(sender) < max_cost) {
    receipt.success = false;
    receipt.error = "InsufficientFunds: cannot cover value + max gas fee";
    receipt.gas_used = 0;
    return receipt;
  }

  state.BumpNonce(sender);

  // Intrinsic gas is charged regardless of the execution outcome.
  Status status = gas.Charge(schedule.tx_base);
  if (status.ok()) {
    status =
        gas.Charge(schedule.tx_payload_byte * tx.payload().args.size());
  }

  Bytes output;
  std::vector<Event> events;
  if (status.ok()) {
    state.Begin();
    const CallPayload& payload = tx.payload();
    BlockContext block_ctx{block_number, timestamp};

    if (payload.IsPlainTransfer()) {
      if (tx.to().size() != kAddressSize) {
        status = Status::InvalidArgument("malformed recipient address");
      } else {
        status = state.Transfer(sender, tx.to(), tx.value());
      }
    } else {
      Contract* contract = registry_->Find(payload.contract);
      if (contract == nullptr) {
        status = Status::NotFound("unknown contract: " + payload.contract);
      } else if (payload.method == "deploy") {
        const uint64_t instance = *next_instance_id;
        // Escrow the transferred value into the new instance's account.
        status = tx.value() > 0
                     ? state.Transfer(
                           sender, ContractAddress(payload.contract, instance),
                           tx.value())
                     : Status::Ok();
        if (status.ok()) {
          CallContext ctx(state, gas, sender, tx.value(), payload.contract,
                          instance, block_ctx, &events);
          status = contract->Deploy(ctx, payload.args);
        }
        if (status.ok()) {
          ++*next_instance_id;
          Writer w;
          w.PutU64(instance);
          output = w.Take();
        }
      } else {
        if (payload.instance == 0 || payload.instance >= *next_instance_id) {
          status = Status::NotFound("contract instance not deployed");
        } else {
          status = tx.value() > 0
                       ? state.Transfer(sender,
                                        ContractAddress(payload.contract,
                                                        payload.instance),
                                        tx.value())
                       : Status::Ok();
          if (status.ok()) {
            CallContext ctx(state, gas, sender, tx.value(), payload.contract,
                            payload.instance, block_ctx, &events);
            auto result = contract->Call(ctx, payload.method, payload.args);
            if (result.ok()) {
              output = std::move(result).value();
            } else {
              status = result.status();
            }
          }
        }
      }
    }

    if (status.ok()) {
      state.Commit();
    } else {
      state.Rollback();
    }
  }

  // Settle gas: sender pays its offered price, proposer is credited by the
  // caller. gas_used <= gas_limit, so the checked max_fee bound above
  // guarantees this multiply cannot wrap.
  receipt.gas_used = gas.used();
  const uint64_t fee = receipt.gas_used * tx.gas_price();
  Status fee_status = state.Debit(sender, fee);
  assert(fee_status.ok());  // guaranteed by the upfront balance check
  (void)fee_status;

  receipt.success = status.ok();
  if (!status.ok()) {
    receipt.error = status.ToString();
  } else {
    receipt.output = std::move(output);
    receipt.events = std::move(events);
  }
  return receipt;
}

Receipt Blockchain::ExecuteEvidenceOn(StateView& state, const Transaction& tx,
                                      uint64_t block_number) const {
  Receipt receipt;
  receipt.tx_id = tx.Id();
  receipt.block_number = block_number;
  receipt.gas_used = 0;  // fee-exempt by construction

  const Address reporter = tx.SenderAddress();
  state.BumpNonce(reporter);

  Status status = CheckEvidencePayload(tx);
  EquivocationEvidence evidence;
  if (status.ok()) {
    auto parsed = EquivocationEvidence::Deserialize(tx.payload().args);
    if (parsed.ok()) {
      evidence = *std::move(parsed);
      status = evidence.Verify(validators_);
    } else {
      status = parsed.status();
    }
  }
  if (status.ok()) {
    const Address offender = evidence.Offender();
    const common::Bytes marker = EvidenceKey(offender, evidence.Height());
    if (state.StorageGet(kEvidenceSpace, marker).has_value()) {
      status = Status::AlreadyExists("offence already punished on chain");
    } else {
      const uint64_t stake = state.StakeOf(offender);
      if (stake == 0) {
        status = Status::FailedPrecondition("offender has no bonded stake");
      } else {
        state.Begin();
        status = state.StakeSlash(offender, stake, reporter,
                                  config_.slash_reporter_bps);
        if (status.ok()) {
          Writer w;
          w.PutU64(block_number);
          state.StoragePut(kEvidenceSpace, marker, w.Take());
          state.Commit();
          const uint64_t bounty = static_cast<uint64_t>(
              static_cast<unsigned __int128>(stake) *
              config_.slash_reporter_bps / kSlashBpsDenominator);
          PDS2_M_COUNT("chain.slash.count", 1);
          PDS2_M_COUNT("chain.slash.amount", stake);
          PDS2_M_COUNT("chain.slash.burned", stake - bounty);
          Writer event_data;
          event_data.PutRaw(offender);
          event_data.PutU64(evidence.Height());
          event_data.PutU64(stake);
          receipt.events.push_back(Event{kEvidenceContract, 0, "slashed",
                                         event_data.Take()});
        } else {
          state.Rollback();
        }
      }
    }
  }

  receipt.success = status.ok();
  if (!status.ok()) receipt.error = status.ToString();
  return receipt;
}

std::vector<AccessSet> Blockchain::ComputeAccessSets(
    const std::vector<Transaction>& txs, uint64_t block_number,
    common::SimTime timestamp) const {
  PDS2_TRACE_SPAN("chain.parallel.plan");
  std::vector<AccessSet> sets(txs.size());
  for (size_t i = 0; i < txs.size(); ++i) {
    const Transaction& tx = txs[i];
    if (tx.payload().IsPlainTransfer()) {
      // Transfers declare their footprint exactly; a malformed recipient
      // still only over-approximates (supersets merely merge lanes).
      sets[i].accounts.insert(tx.SenderAddress());
      if (tx.to().size() == kAddressSize) sets[i].accounts.insert(tx.to());
    } else if (tx.payload().contract == kEvidenceContract) {
      // Evidence declares its footprint exactly: the reporter's account
      // (nonce bump + bounty), the stake ledger and the evidence markers.
      sets[i].accounts.insert(tx.SenderAddress());
      sets[i].spaces.insert(kStakeSpace);
      sets[i].spaces.insert(kEvidenceSpace);
    } else if (tx.payload().method == "deploy") {
      // Deploys allocate the shared instance-id counter; serialize the
      // whole block rather than model that dependency.
      sets[i].global = true;
    } else {
      // Contract call: run it on a throwaway overlay of the pre-block state
      // and take its footprint. The footprint can diverge from the real
      // one once earlier block txs mutate state — lane execution checks
      // each lane's footprint and falls back to the sequential path on any
      // miss.
      StateOverlay overlay(state_);
      uint64_t scratch_instance_id = next_instance_id_;
      ExecuteTransactionOn(overlay, &scratch_instance_id, tx, block_number,
                           timestamp);
      sets[i] = overlay.footprint();
    }
  }
  return sets;
}

bool Blockchain::TryExecuteLanes(const std::vector<Transaction>& txs,
                                 uint64_t block_number,
                                 common::SimTime timestamp,
                                 common::ThreadPool* pool,
                                 std::vector<Receipt>* receipts) {
  const std::vector<AccessSet> sets =
      ComputeAccessSets(txs, block_number, timestamp);
  const std::vector<std::vector<size_t>> lanes = PartitionIntoLanes(sets);
  if (lanes.size() <= 1) return false;

  // One private overlay per lane over the frozen pre-block state.
  std::vector<StateOverlay> overlays;
  overlays.reserve(lanes.size());
  for (size_t li = 0; li < lanes.size(); ++li) overlays.emplace_back(state_);

  std::vector<Receipt> lane_receipts(txs.size());
  const obs::TraceContext parent_ctx = obs::CurrentTraceContext();
  pool->ParallelFor(0, lanes.size(), [&](size_t li) {
    obs::TraceContextScope causal_parent(parent_ctx);
    PDS2_TRACE_SPAN("chain.parallel.lane");
    // No deploys reach the lane path (they are global), so the instance-id
    // counter is read-only here; a per-lane copy keeps the executor
    // oblivious.
    uint64_t scratch_instance_id = next_instance_id_;
    for (size_t i : lanes[li]) {
      lane_receipts[i] =
          ExecuteTransactionOn(overlays[li], &scratch_instance_id, txs[i],
                               block_number, timestamp);
    }
  });

  for (size_t li = 0; li < lanes.size(); ++li) {
    AccessSet allowed;
    for (size_t i : lanes[li]) allowed.Merge(sets[i]);
    if (!allowed.Includes(overlays[li].footprint())) {
      // A transaction strayed outside its traced footprint, so lanes may
      // have overlapped. Nothing has touched state_ yet: drop every
      // overlay and let the caller re-run the block sequentially.
      PDS2_M_COUNT("chain.parallel.aborts", 1);
      return false;
    }
  }
  // Lane footprints are pairwise disjoint, so merge order cannot matter;
  // lane order keeps it deterministic anyway.
  for (const StateOverlay& overlay : overlays) overlay.MergeInto(state_);
  *receipts = std::move(lane_receipts);
  PDS2_M_COUNT("chain.parallel.blocks_parallel", 1);
  PDS2_M_COUNT("chain.parallel.lanes", lanes.size());
  return true;
}

std::vector<Receipt> Blockchain::ExecuteBlockTxs(
    const std::vector<Transaction>& txs, uint64_t block_number,
    common::SimTime timestamp) {
  PDS2_TRACE_SPAN("chain.execute_block_txs");
  std::vector<Receipt> receipts;
  common::ThreadPool* pool = ExecutionPool();
  bool parallel = false;
  if (pool->NumThreads() > 1 && txs.size() >= kMinParallelBlockTxs) {
    parallel = TryExecuteLanes(txs, block_number, timestamp, pool, &receipts);
  }
  if (!parallel) {
    PDS2_M_COUNT("chain.parallel.blocks_serial", 1);
    receipts.reserve(txs.size());
    for (const Transaction& tx : txs) {
      receipts.push_back(ExecuteTransactionOn(state_, &next_instance_id_, tx,
                                              block_number, timestamp));
    }
  }

  uint64_t block_gas = 0;
  for (const Receipt& receipt : receipts) block_gas += receipt.gas_used;
  total_gas_used_ += block_gas;
  PDS2_M_COUNT("chain.txs_executed", txs.size());
  PDS2_M_COUNT("chain.gas_used", block_gas);
  return receipts;
}

Status Blockchain::CheckHeader(const Block& block,
                               const BlockHeader* parent) const {
  const BlockHeader& header = block.header;
  if (header.number != (parent == nullptr ? 0 : parent->number + 1)) {
    return Status::InvalidArgument("block number out of sequence");
  }
  if (header.parent_hash != (parent == nullptr ? Hash(32, 0) : parent->Id())) {
    return Status::InvalidArgument("parent hash mismatch");
  }
  const common::SimTime parent_ts = parent == nullptr ? 0 : parent->timestamp;
  if (header.proposer_public_key !=
      ProposerFor(header.number, parent_ts, header.timestamp)) {
    return Status::PermissionDenied("proposer out of turn");
  }
  if (parent != nullptr && header.timestamp <= parent_ts) {
    return Status::InvalidArgument("non-monotonic block timestamp");
  }
  PDS2_RETURN_IF_ERROR(crypto::VerifySignatureWithDomain(
      header.proposer_public_key, BlockHeader::Domain(),
      header.SigningBytes(), header.signature));
  if (header.tx_root !=
      Block::ComputeTxRoot(block.transactions, ExecutionPool())) {
    return Status::Corruption("transaction root mismatch");
  }
  return Status::Ok();
}

Status Blockchain::CommitBlock(Block block, const crypto::SigningKey* signer,
                               obs::ScopedSpan* span) {
  // Transactional for external blocks: a Byzantine proposer can sign a
  // block whose state_root does not match its own transactions, and
  // rejecting it must leave no trace (no mutated balances, no receipts, no
  // counter drift), or the replica silently forks from every honest peer.
  // Lane merges are journaled writes, so one outer checkpoint covers the
  // parallel path too.
  const uint64_t saved_gas_used = total_gas_used_;
  const uint64_t saved_instance_id = next_instance_id_;
  state_.Begin();
  std::vector<Receipt> receipts = ExecuteBlockTxs(
      block.transactions, block.header.number, block.header.timestamp);
  uint64_t fees = 0;
  for (size_t i = 0; i < receipts.size(); ++i) {
    fees += receipts[i].gas_used * block.transactions[i].gas_price();
  }
  // Fees go to the proposer. Cannot overflow: fees were just debited from
  // senders, so crediting them merely moves supply (conservation).
  if (fees > 0) {
    Status credit_status = state_.Credit(
        AddressFromPublicKey(block.header.proposer_public_key), fees);
    assert(credit_status.ok());
    (void)credit_status;
  }
  const Hash state_root = state_.Digest(ExecutionPool());
  if (signer != nullptr) {
    block.header.state_root = state_root;
    block.header.signature = signer->SignWithDomain(
        BlockHeader::Domain(), block.header.SigningBytes());
  } else if (state_root != block.header.state_root) {
    state_.Rollback();
    total_gas_used_ = saved_gas_used;
    next_instance_id_ = saved_instance_id;
    return Status::Corruption("state root mismatch after execution");
  }
  state_.Commit();

  for (Receipt& receipt : receipts) {
    receipts_[receipt.tx_id] = std::move(receipt);
  }
  blocks_.push_back(std::move(block));
  const Block& head = blocks_.back();
  LinkAndForgetTxContexts(head.transactions, span);
  PublishSupplyGauges();
  PDS2_LOG(kDebug) << "committed block " << head.header.number << " with "
                   << head.transactions.size() << " txs, fees " << fees;
  if (listener_ != nullptr) listener_->OnBlockCommitted(*this, head);
  return Status::Ok();
}

Result<Block> Blockchain::ProduceBlock(const crypto::SigningKey& proposer,
                                       common::SimTime timestamp) {
  // The block's own timestamp is the span's sim time: block production is
  // instantaneous in simulated time but anchored where the block lands.
  const common::SimTime span_sim = timestamp;
  obs::ScopedSpan span("chain.produce_block", &span_sim);
  PDS2_M_TIME_US("chain.produce_block_us");
  if (proposer.PublicKey() != ProposerAt(timestamp)) {
    return Status::PermissionDenied("not this validator's turn to propose");
  }
  if (!blocks_.empty() && timestamp <= blocks_.back().header.timestamp) {
    return Status::InvalidArgument("block timestamp must increase");
  }

  // Selection is separated from execution: the mempool hands over the
  // block's transactions in canonical order (per-sender nonce runs,
  // first-come-first-served, packed under the gas limit by worst case) and
  // evicts entries that can never execute — stale nonces and heads the
  // sender can no longer afford.
  Mempool::Selection selection = mempool_.SelectForBlock(
      state_, config_.block_gas_limit, config_.gas_price);
  for (const Hash& dropped : selection.dropped) tx_trace_ctx_.erase(dropped);

  Block block;
  block.transactions = std::move(selection.selected);
  block.header.parent_hash = LastBlockHash();
  block.header.number = blocks_.size();
  block.header.timestamp = timestamp;
  block.header.tx_root =
      Block::ComputeTxRoot(block.transactions, ExecutionPool());
  block.header.proposer_public_key = proposer.PublicKey();
  PDS2_RETURN_IF_ERROR(CommitBlock(std::move(block), &proposer, &span));
  PDS2_M_COUNT("chain.blocks_produced", 1);
  return blocks_.back();
}

Status Blockchain::ApplyExternalBlock(const Block& block) {
  const common::SimTime span_sim = block.header.timestamp;
  obs::ScopedSpan span("chain.apply_block", &span_sim);
  PDS2_M_TIME_US("chain.apply_block_us");
  Status status = ApplyExternalBlockInner(block, &span);
  if (status.ok()) {
    PDS2_M_COUNT("chain.blocks_applied", 1);
  } else {
    PDS2_M_COUNT("chain.blocks_rejected", 1);
  }
  return status;
}

Status Blockchain::ApplyExternalBlockInner(const Block& block,
                                           obs::ScopedSpan* span) {
  PDS2_RETURN_IF_ERROR(
      CheckHeader(block, blocks_.empty() ? nullptr : &blocks_.back().header));
  // Per-block resource rules: the sum of gas limits is the proposer's
  // worst-case execution budget and must respect the consensus cap (a
  // gas-cheating proposer packs more), and every non-evidence transaction
  // must offer at least the network's floor price.
  uint64_t gas_limit_sum = 0;
  for (const Transaction& tx : block.transactions) {
    if (!common::CheckedAdd(gas_limit_sum, tx.gas_limit(), &gas_limit_sum)) {
      return Status::InvalidArgument("block gas limits overflow");
    }
    if (tx.payload().contract != kEvidenceContract &&
        tx.gas_price() < config_.gas_price) {
      return Status::InvalidArgument("block carries tx below gas price floor");
    }
  }
  if (gas_limit_sum > config_.block_gas_limit) {
    return Status::InvalidArgument("block exceeds the block gas limit");
  }
  PDS2_RETURN_IF_ERROR(VerifyBlockSignatures(block.transactions));
  PDS2_RETURN_IF_ERROR(CommitBlock(block, /*signer=*/nullptr, span));
  // Locally queued copies of the block's transactions are now executed;
  // drop them instead of waiting for stale-nonce eviction at the next
  // production turn.
  mempool_.RemoveExecuted(block.transactions);
  return Status::Ok();
}

std::vector<Event> Blockchain::EventsFor(const std::string& contract,
                                         uint64_t instance) const {
  // Receipts are re-walked in chain order so the audit view is stable.
  std::vector<Event> events;
  for (const Block& block : blocks_) {
    for (const Transaction& tx : block.transactions) {
      auto it = receipts_.find(tx.Id());
      if (it == receipts_.end()) continue;
      for (const Event& event : it->second.events) {
        if (event.contract == contract && event.instance == instance) {
          events.push_back(event);
        }
      }
    }
  }
  return events;
}

Result<Receipt> Blockchain::GetReceipt(const Hash& tx_id) const {
  auto it = receipts_.find(tx_id);
  if (it == receipts_.end()) {
    return Status::NotFound("no receipt for transaction");
  }
  return it->second;
}

Result<Bytes> Blockchain::Query(const std::string& contract, uint64_t instance,
                                const std::string& method, const Bytes& args,
                                const Address& caller) const {
  Contract* logic = registry_->Find(contract);
  if (logic == nullptr) {
    return Status::NotFound("unknown contract: " + contract);
  }
  // Queries run on a private overlay that is dropped afterwards, so they
  // never write state_ and may run concurrently.
  StateOverlay overlay(state_);
  GasMeter gas(config_.block_gas_limit);
  BlockContext block_ctx{
      blocks_.empty() ? 0 : blocks_.back().header.number,
      blocks_.empty() ? 0 : blocks_.back().header.timestamp};
  CallContext ctx(overlay, gas, caller, 0, contract, instance, block_ctx,
                  nullptr);
  return logic->Call(ctx, method, args);
}

Result<StateProof> Blockchain::QuerySlot(const std::string& contract,
                                         uint64_t instance,
                                         const Bytes& key) const {
  if (blocks_.empty()) {
    return Status::FailedPrecondition("no block header to prove against");
  }
  return state_.ProveSlot(ContractSpace(contract, instance), key);
}

Bytes Blockchain::EncodeSnapshotState() const {
  Writer w;
  w.PutU64(blocks_.size());  // snapshot height, for cross-checking
  w.PutU64(next_instance_id_);
  w.PutU64(total_gas_used_);
  w.PutBytes(state_.SerializeSnapshot());
  return w.Take();
}

Status Blockchain::RestoreFromSnapshot(const Bytes& snapshot_state,
                                       std::vector<Block> history) {
  if (!blocks_.empty() || mempool_.Size() != 0 || state_.TotalBalance() != 0) {
    return Status::FailedPrecondition(
        "snapshot restore requires a freshly constructed chain");
  }
  if (history.empty()) {
    return Status::InvalidArgument("snapshot restore needs a block history");
  }

  Reader r(snapshot_state);
  PDS2_ASSIGN_OR_RETURN(uint64_t height, r.GetU64());
  PDS2_ASSIGN_OR_RETURN(uint64_t next_instance_id, r.GetU64());
  PDS2_ASSIGN_OR_RETURN(uint64_t total_gas_used, r.GetU64());
  PDS2_ASSIGN_OR_RETURN(Bytes state_bytes, r.GetBytes());
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes in chain snapshot");
  }
  if (height != history.size()) {
    return Status::Corruption("snapshot height does not match block history");
  }
  PDS2_ASSIGN_OR_RETURN(WorldState state,
                        WorldState::DeserializeSnapshot(state_bytes));

  // Every history header passes the header rule replication applies.
  // Transaction execution and per-tx signatures are skipped — that is the
  // whole point of a snapshot — but the final state_root must match the
  // restored state's digest, so a snapshot can only reproduce a state some
  // validator actually signed.
  for (size_t i = 0; i < history.size(); ++i) {
    PDS2_RETURN_IF_ERROR(
        CheckHeader(history[i], i == 0 ? nullptr : &history[i - 1].header));
  }
  if (state.Digest(ExecutionPool()) != history.back().header.state_root) {
    return Status::Corruption(
        "snapshot state digest does not match head state root");
  }

  state_ = std::move(state);
  blocks_ = std::move(history);
  next_instance_id_ = next_instance_id;
  total_gas_used_ = total_gas_used;
  return Status::Ok();
}

Result<uint64_t> InstanceIdFromReceipt(const Receipt& receipt) {
  if (!receipt.success) {
    return Status::FailedPrecondition("deploy failed: " + receipt.error);
  }
  Reader r(receipt.output);
  PDS2_ASSIGN_OR_RETURN(uint64_t instance, r.GetU64());
  return instance;
}

}  // namespace pds2::chain
