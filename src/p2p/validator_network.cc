#include "p2p/validator_network.h"

#include <algorithm>

#include "common/crc32.h"
#include "common/logging.h"
#include "common/serial.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pds2::p2p {

using common::Bytes;
using common::Reader;
using common::Status;
using common::Writer;

namespace {

constexpr uint64_t kSlotTimer = 1;
constexpr uint64_t kSyncTimer = 2;

// Wire message kinds.
constexpr uint8_t kMsgTx = 1;
constexpr uint8_t kMsgBlock = 2;
constexpr uint8_t kMsgSyncRequest = 3;
constexpr uint8_t kMsgSyncResponse = 4;
constexpr uint8_t kMsgHeadAnnounce = 5;
constexpr uint8_t kMsgChainRequest = 6;
constexpr uint8_t kMsgChainResponse = 7;
constexpr uint8_t kMsgAdvert = 8;

// Out-of-order block window. Anything farther ahead is evicted and
// re-fetched by the sync protocol once the gap in front is filled.
constexpr size_t kMaxFutureBlocks = 32;

// Sync retry backoff doubles from one block interval up to this many.
constexpr uint64_t kMaxSyncBackoffIntervals = 8;

// Sanity cap when decoding a full-chain snapshot.
constexpr uint64_t kMaxSnapshotBlocks = 1 << 20;

Bytes EncodeTx(const chain::Transaction& tx) {
  Writer w;
  w.PutU8(kMsgTx);
  w.PutBytes(tx.Serialize());
  return w.Take();
}

Bytes EncodeBlock(uint8_t kind, const chain::Block& block) {
  Writer w;
  w.PutU8(kind);
  w.PutBytes(block.Serialize());
  return w.Take();
}

}  // namespace

ValidatorNode::ValidatorNode(size_t index,
                             std::vector<Bytes> validator_keys,
                             crypto::SigningKey key,
                             const std::vector<GenesisAlloc>& genesis,
                             common::SimTime block_interval,
                             chain::ChainConfig chain_config,
                             std::string store_dir,
                             storage::ChainStoreOptions store_options)
    : index_(index),
      key_(std::move(key)),
      validator_keys_(std::move(validator_keys)),
      genesis_(genesis),
      chain_config_(chain_config),
      store_dir_(std::move(store_dir)),
      store_options_(store_options),
      block_interval_(block_interval) {
  if (!store_dir_.empty()) {
    auto recovered = storage::OpenBlockchain(
        store_dir_, validator_keys_, genesis_, chain_config_, store_options_);
    if (recovered.ok()) {
      chain_ = std::move(recovered->chain);
      store_ = std::move(recovered->store);
      recovered_height_ = recovered->info.snapshot_height +
                          recovered->info.replayed_blocks;
      if (recovered_height_ > 0) {
        PDS2_LOG(kInfo) << "validator " << index_ << " resumed from "
                        << store_dir_ << " at height " << recovered_height_;
      }
      return;
    }
    // An unrecoverable directory must not take the validator down with it:
    // fall through to a fresh in-memory replica and let sync rebuild state.
    PDS2_LOG(kWarn) << "validator " << index_ << " could not recover "
                    << store_dir_ << ": " << recovered.status().ToString()
                    << "; running in-memory";
  }
  auto fresh = storage::ReplayFromGenesis(
      validator_keys_, chain::ContractRegistry::CreateDefault(),
      chain_config_, genesis_, {});
  if (fresh.ok()) {
    chain_ = std::move(*fresh);
    return;
  }
  // Only an allocation that overflows the supply cap gets here; keep the
  // node constructible with an empty genesis.
  PDS2_LOG(kError) << "validator " << index_ << " rejected its genesis: "
                   << fresh.status().ToString();
  chain_ = std::make_unique<chain::Blockchain>(
      validator_keys_, chain::ContractRegistry::CreateDefault(), chain_config_);
}

void ValidatorNode::OnStart(dml::NodeContext& ctx) {
  // Stagger slot timers slightly by index so a round-robin slot's proposer
  // usually fires first.
  ctx.SetTimer(block_interval_ + index_ * 199, kSlotTimer);
}

void ValidatorNode::OnRestart(dml::NodeContext& ctx) {
  // The crash destroyed every armed timer and all in-memory buffers; the
  // chain itself survives (a real validator replays it from disk). Re-arm
  // the slot chain and let head announces re-trigger sync.
  future_blocks_.clear();
  sync_timer_armed_ = false;
  sync_backoff_ = 0;
  OnStart(ctx);
}

void ValidatorNode::Broadcast(dml::NodeContext& ctx, const Bytes& payload) {
  for (size_t peer : peers_) {
    if (peer != ctx.self()) ctx.Send(peer, payload);
  }
}

Status ValidatorNode::SubmitTransaction(const chain::Transaction& tx,
                                        dml::NodeContext& ctx) {
  PDS2_RETURN_IF_ERROR(chain_->SubmitTransaction(tx));
  seen_txs_[tx.Id()] = true;
  Broadcast(ctx, EncodeTx(tx));
  return Status::Ok();
}

void ValidatorNode::AnnounceAdvert(const store::Advert& advert,
                                   dml::NodeContext& ctx) {
  if (!discovery_.Upsert(advert)) return;  // already known or stale
  const Bytes serialized = advert.Serialize();
  Writer w;
  w.PutU8(kMsgAdvert);
  // CRC-framed: adverts travel the same fault-injected links as blocks,
  // and a flipped-but-parseable advert would pollute every replica.
  w.PutU32(common::Crc32c(serialized));
  w.PutBytes(serialized);
  Broadcast(ctx, w.Take());
  PDS2_M_COUNT("p2p.advert.announced", 1);
}

void ValidatorNode::TryProduce(dml::NodeContext& ctx) {
  if (chain_->ProposerAt(ctx.Now()) != key_.PublicKey()) return;
  if (byzantine_ == common::ByzantineBehavior::kWithhold) {
    // Silence. Indistinguishable from a partitioned honest proposer, so it
    // is never slashable — the proposer_grace fallback absorbs the slot.
    PDS2_M_COUNT("p2p.byzantine.withheld", 1);
    return;
  }
  auto block = chain_->ProduceBlock(key_, ctx.Now());
  if (!block.ok()) return;  // e.g. non-monotonic timestamp: wait a slot
  ++blocks_produced_;
  PDS2_M_COUNT("p2p.blocks_produced", 1);
  Broadcast(ctx, EncodeBlock(kMsgBlock, *block));
  if (byzantine_ != common::ByzantineBehavior::kNone) {
    BroadcastByzantineVariant(ctx, *block);
  }
  DrainBuffer();
}

void ValidatorNode::BroadcastByzantineVariant(dml::NodeContext& ctx,
                                              const chain::Block& block) {
  // Every provable misbehaviour is expressed as a second signed header at
  // the height we just produced honestly (we must keep producing honest
  // blocks or the chain simply ignores us) — exactly the double-sign that
  // chain::EquivocationEvidence convicts.
  chain::Block variant = block;
  switch (byzantine_) {
    case common::ByzantineBehavior::kEquivocate:
      // A perfectly well-formed competing block: honest replicas that see
      // it first adopt it and the fork-choice rule must reconverge them.
      variant.header.timestamp += 1;
      break;
    case common::ByzantineBehavior::kInvalidStateRoot:
      // Commits to a state no replica can reproduce; honest replicas
      // reject it (and the rejection is transactional — no residue).
      variant.header.state_root[0] ^= 0xff;
      break;
    case common::ByzantineBehavior::kGasCheat: {
      // Pads the block with a self-signed transfer whose gas limit alone
      // busts the block budget, recommitting the tx root so the header is
      // internally consistent — only the gas-sum consensus rule catches it.
      chain::Transaction filler = chain::Transaction::Make(
          key_, /*nonce=*/1ull << 30,
          chain::AddressFromPublicKey(key_.PublicKey()), /*value=*/0,
          /*gas_limit=*/chain_config_.block_gas_limit + 1, {},
          chain_config_.gas_price);
      variant.transactions.push_back(std::move(filler));
      variant.header.tx_root =
          chain::Block::ComputeTxRoot(variant.transactions);
      break;
    }
    default:
      return;
  }
  variant.header.signature = key_.SignWithDomain(
      chain::BlockHeader::Domain(), variant.header.SigningBytes());
  PDS2_M_COUNT("p2p.byzantine.variants_broadcast", 1);
  Broadcast(ctx, EncodeBlock(kMsgBlock, variant));
}

void ValidatorNode::RecordHeader(dml::NodeContext& ctx,
                                 const chain::BlockHeader& header) {
  // Watchtower: only a validly signed header from a known validator is
  // attributable; anything else is noise a forger could plant.
  const std::vector<Bytes>& validators = chain_->validators();
  if (std::find(validators.begin(), validators.end(),
                header.proposer_public_key) == validators.end()) {
    return;
  }
  const chain::Hash id = header.Id();
  if (verified_headers_.count(id) == 0) {
    if (!crypto::VerifySignatureWithDomain(
             header.proposer_public_key, chain::BlockHeader::Domain(),
             header.SigningBytes(), header.signature)
             .ok()) {
      return;
    }
    if (verified_headers_.size() >= 4096) verified_headers_.clear();
    verified_headers_.insert(id);
  }
  const chain::Address offender =
      chain::AddressFromPublicKey(header.proposer_public_key);
  auto [it, inserted] =
      seen_headers_.emplace(std::make_pair(header.number, offender), header);
  if (inserted) {
    // Keep the watchtower bounded: anything far below our height can no
    // longer pair up (its counterpart would be equally stale).
    const uint64_t floor =
        chain_->Height() > 64 ? chain_->Height() - 64 : 0;
    while (!seen_headers_.empty() &&
           seen_headers_.begin()->first.first < floor) {
      seen_headers_.erase(seen_headers_.begin());
    }
    return;
  }
  if (it->second.Id() == id) return;  // same header re-gossiped
  const auto ev_key = std::make_pair(offender, header.number);
  if (pending_evidence_.count(ev_key) > 0 ||
      chain_->HasEvidenceFor(offender, header.number)) {
    return;  // already being prosecuted / already punished
  }
  chain::EquivocationEvidence evidence;
  evidence.header_a = it->second;
  evidence.header_b = header;
  if (!evidence.Verify(validators).ok()) return;
  ++evidence_detected_;
  PDS2_M_COUNT("p2p.evidence.detected", 1);
  PDS2_LOG(kWarn) << "validator " << index_ << " detected double-sign at "
                  << "height " << header.number << " by "
                  << chain::ShortHex(offender);
  QuarantinePeerOf(offender);
  pending_evidence_.emplace(ev_key, std::move(evidence));
  MaybeSubmitEvidence(ctx);
}

void ValidatorNode::QuarantinePeerOf(const chain::Address& proposer) {
  for (size_t i = 0; i < validator_keys_.size() && i < peers_.size(); ++i) {
    if (chain::AddressFromPublicKey(validator_keys_[i]) != proposer) continue;
    if (quarantined_peers_.insert(peers_[i]).second) {
      PDS2_M_COUNT("p2p.evidence.quarantined", 1);
      PDS2_LOG(kWarn) << "validator " << index_ << " quarantined peer "
                      << peers_[i] << " (double-signing validator " << i
                      << ")";
    }
  }
}

void ValidatorNode::MaybeSubmitEvidence(dml::NodeContext& ctx) {
  if (pending_evidence_.empty()) return;
  const chain::Address self = chain::AddressFromPublicKey(key_.PublicKey());
  uint64_t nonce_offset = 0;
  for (auto it = pending_evidence_.begin(); it != pending_evidence_.end();) {
    if (chain_->HasEvidenceFor(it->first.first, it->first.second)) {
      // The slash is on chain (ours or another reporter's); case closed.
      it = pending_evidence_.erase(it);
      continue;
    }
    chain::Transaction tx = chain::MakeEvidenceTransaction(
        key_, chain_->GetNonce(self) + nonce_offset, it->second);
    Status status = chain_->SubmitTransaction(tx);
    if (status.ok()) {
      ++nonce_offset;
      ++evidence_submitted_;
      PDS2_M_COUNT("p2p.evidence.submitted", 1);
      seen_txs_[tx.Id()] = true;
      Broadcast(ctx, EncodeTx(tx));
    }
    // AlreadyExists (still queued, or a racing reporter landed first) is
    // expected: the entry stays pending and is retried every slot until
    // the on-chain marker appears. Deterministic signing makes a retry
    // byte-identical, so it can never double-queue.
    ++it;
  }
}

void ValidatorNode::SendSyncRequest(dml::NodeContext& ctx, size_t to) {
  Writer w;
  w.PutU8(kMsgSyncRequest);
  w.PutU64(chain_->Height());
  ctx.Send(to, w.Take());
  ++sync_requests_sent_;
  PDS2_M_COUNT("p2p.sync_requests_sent", 1);
}

void ValidatorNode::RequestChain(dml::NodeContext& ctx, size_t from) {
  Writer w;
  w.PutU8(kMsgChainRequest);
  ctx.Send(from, w.Take());
}

void ValidatorNode::NoteRemoteHead(dml::NodeContext& ctx, size_t from,
                                   uint64_t height) {
  sync_target_ = std::max(sync_target_, height);
  if (chain_->Height() >= sync_target_) return;
  // Ask the peer that revealed the gap right away — redundant requests are
  // cheap and stale responses are ignored, so eagerness buys catch-up speed
  // under loss. The backoff timer is the safety net for when requests or
  // responses themselves are lost (or the responder is partitioned away).
  SendSyncRequest(ctx, from);
  if (sync_timer_armed_) return;
  sync_backoff_ = block_interval_;
  sync_timer_armed_ = true;
  // Seeded jitter (up to 25% of the backoff) desynchronizes replicas that
  // discovered the same gap in the same slot, so their retries do not all
  // land on one responder at once. Drawn from the node's deterministic RNG:
  // the same seed still reproduces the same run bit for bit.
  ctx.SetTimer(sync_backoff_ + ctx.rng().NextU64(sync_backoff_ / 4 + 1),
               kSyncTimer);
}

void ValidatorNode::OnTimer(dml::NodeContext& ctx, uint64_t timer_id) {
  if (timer_id == kSyncTimer) {
    sync_timer_armed_ = false;
    if (chain_->Height() >= sync_target_) {
      sync_backoff_ = 0;  // caught up; next gap starts fresh
      return;
    }
    // Still behind: retry against a random peer (the original responder may
    // be the one that is partitioned away from us). Quarantined peers are
    // deprioritized, not excluded: the last draws accept anyone, so
    // down-scoring can never strand sync when only offenders remain.
    size_t peer = ctx.self();
    for (int tries = 0; tries < 8 && peer == ctx.self(); ++tries) {
      size_t cand = peers_[ctx.rng().NextU64(peers_.size())];
      if (cand == ctx.self()) continue;
      if (tries < 5 && quarantined_peers_.count(cand) > 0) continue;
      peer = cand;
    }
    if (peer != ctx.self()) {
      SendSyncRequest(ctx, peer);
      ++sync_retries_;
      PDS2_M_COUNT("p2p.sync_retries", 1);
      ctx.CountRetry();
    }
    sync_backoff_ = std::min(sync_backoff_ * 2,
                             block_interval_ * kMaxSyncBackoffIntervals);
    sync_timer_armed_ = true;
    // Same seeded jitter as the initial arm (see NoteRemoteHead).
    ctx.SetTimer(sync_backoff_ + ctx.rng().NextU64(sync_backoff_ / 4 + 1),
                 kSyncTimer);
    return;
  }
  if (timer_id != kSlotTimer) return;
  TryProduce(ctx);
  MaybeSubmitEvidence(ctx);
  // Head announcement every slot: lets peers that missed a block (lossy
  // links) discover the gap and pull it via the sync protocol, and carries
  // the head hash so same-height divergence (a fork from a proposer_grace
  // takeover) is detected and resolved.
  Writer w;
  w.PutU8(kMsgHeadAnnounce);
  w.PutU64(chain_->Height());
  w.PutBytes(chain_->LastBlockHash());
  Broadcast(ctx, w.Take());
  ctx.SetTimer(block_interval_, kSlotTimer);
}

void ValidatorNode::ApplyOrBuffer(dml::NodeContext& ctx, size_t from,
                                  chain::Block block) {
  const uint64_t height = chain_->Height();
  if (block.header.number < height) return;  // stale duplicate
  if (block.header.number > height) {
    // A gap: buffer the block (within the window) and pull what we miss.
    const uint64_t number = block.header.number;
    if (future_blocks_.count(number) == 0) {
      if (future_blocks_.size() >= kMaxFutureBlocks) {
        // Full: keep the window closest to our height — those blocks are
        // consumed first; the far end is cheap for sync to re-fetch.
        auto last = std::prev(future_blocks_.end());
        if (number >= last->first) {
          ++future_blocks_evicted_;
          PDS2_M_COUNT("p2p.future_blocks_evicted", 1);
          NoteRemoteHead(ctx, from, number);
          return;
        }
        future_blocks_.erase(last);
        ++future_blocks_evicted_;
        PDS2_M_COUNT("p2p.future_blocks_evicted", 1);
      }
      future_blocks_.emplace(number, std::move(block));
    }
    NoteRemoteHead(ctx, from, number);
    return;
  }
  Status status = chain_->ApplyExternalBlock(block);
  if (!status.ok()) {
    // Same height but unappliable: either garbage (corrupted in flight) or
    // a legitimate fork — a proposer_grace fallback built on a head we did
    // not keep. A full snapshot lets the fork-choice rule decide; garbage
    // snapshots simply fail validation and change nothing.
    PDS2_M_COUNT("p2p.blocks_rejected", 1);
    PDS2_LOG(kWarn) << "validator " << index_ << " rejected block "
                    << block.header.number << ": " << status.ToString();
    RequestChain(ctx, from);
    return;
  }
  DrainBuffer();
}

void ValidatorNode::DrainBuffer() {
  for (;;) {
    auto it = future_blocks_.find(chain_->Height());
    if (it == future_blocks_.end()) break;
    Status status = chain_->ApplyExternalBlock(it->second);
    future_blocks_.erase(it);
    if (!status.ok()) break;
  }
  // Drop anything at or below the new height.
  while (!future_blocks_.empty() &&
         future_blocks_.begin()->first < chain_->Height()) {
    future_blocks_.erase(future_blocks_.begin());
  }
}

void ValidatorNode::MaybeAdoptChain(const std::vector<chain::Block>& blocks) {
  PDS2_TRACE_SPAN("p2p.maybe_adopt_chain");
  const uint64_t ours = chain_->Height();
  // Fast path: the snapshot extends the chain we already have — apply the
  // suffix in place, keeping mempool and receipts.
  if (blocks.size() > ours &&
      (ours == 0 || blocks[ours - 1].header.Id() == chain_->LastBlockHash())) {
    for (uint64_t h = ours; h < blocks.size(); ++h) {
      if (!chain_->ApplyExternalBlock(blocks[h]).ok()) return;
    }
    DrainBuffer();
    return;
  }
  // Divergent history. Deterministic fork choice: adopt iff strictly
  // longer, or equally long with a lexicographically smaller head hash —
  // a total order every replica applies identically, so both sides of a
  // fork settle on the same branch.
  if (blocks.size() < ours) return;
  if (blocks.size() == ours) {
    if (ours == 0) return;
    if (!(blocks.back().header.Id() < chain_->LastBlockHash())) return;
  }
  auto candidate = storage::ReplayFromGenesis(
      validator_keys_, chain::ContractRegistry::CreateDefault(),
      chain_config_, genesis_, blocks);
  if (!candidate.ok()) return;  // invalid snapshot
  // Local mempool content is not carried over: pending txs were gossiped
  // to every replica when submitted, so the network still holds them.
  chain_ = std::move(*candidate);
  future_blocks_.clear();
  if (store_ != nullptr) {
    // The on-disk log describes the orphaned branch; atomically rewrite it
    // with the adopted one, then resume persisting commits on it.
    Status status = store_->Rewrite(*chain_);
    if (!status.ok()) {
      PDS2_LOG(kWarn) << "validator " << index_
                      << " failed to persist adopted fork: "
                      << status.ToString();
    }
    chain_->SetCommitListener(store_.get());
  }
  ++forks_resolved_;
  PDS2_M_COUNT("p2p.forks_resolved", 1);
  PDS2_LOG(kInfo) << "validator " << index_ << " adopted fork at height "
                  << chain_->Height();
}

void ValidatorNode::OnMessage(dml::NodeContext& ctx, size_t from,
                              const Bytes& payload) {
  Reader r(payload);
  auto kind = r.GetU8();
  if (!kind.ok()) return;

  switch (*kind) {
    case kMsgTx: {
      if (quarantined_peers_.count(from) > 0) {
        // Down-scored: a double-signer's gossip is not worth validating.
        // Blocks and sync traffic are still processed — quarantine never
        // gates consensus, only discretionary relaying.
        PDS2_M_COUNT("p2p.evidence.tx_dropped", 1);
        return;
      }
      auto tx_bytes = r.GetBytes();
      if (!tx_bytes.ok()) return;
      auto tx = chain::Transaction::Deserialize(*tx_bytes);
      if (!tx.ok()) return;
      const chain::Hash id = tx->Id();
      if (seen_txs_.count(id)) return;  // already gossiped
      if (!chain_->SubmitTransaction(*tx).ok()) return;
      seen_txs_[id] = true;
      Broadcast(ctx, payload);  // re-gossip once
      break;
    }
    case kMsgBlock: {
      auto block_bytes = r.GetBytes();
      if (!block_bytes.ok()) return;
      auto block = chain::Block::Deserialize(*block_bytes);
      if (!block.ok()) return;
      RecordHeader(ctx, block->header);
      ApplyOrBuffer(ctx, from, std::move(*block));
      break;
    }
    case kMsgSyncRequest: {
      auto from_height = r.GetU64();
      if (!from_height.ok()) return;
      // Send every block the requester is missing, individually (they
      // apply in order on arrival; the event queue preserves send order).
      const auto& blocks = chain_->blocks();
      for (uint64_t h = *from_height; h < blocks.size(); ++h) {
        ctx.Send(from, EncodeBlock(kMsgSyncResponse, blocks[h]));
      }
      break;
    }
    case kMsgHeadAnnounce: {
      auto peer_height = r.GetU64();
      if (!peer_height.ok()) return;
      auto peer_hash = r.GetBytes();
      if (!peer_hash.ok()) return;
      if (*peer_height > chain_->Height()) {
        NoteRemoteHead(ctx, from, *peer_height);
      } else if (*peer_height == chain_->Height() && *peer_height > 0 &&
                 *peer_hash != chain_->LastBlockHash()) {
        // Same height, different head: we are on one side of a fork.
        RequestChain(ctx, from);
      }
      break;
    }
    case kMsgSyncResponse: {
      auto block_bytes = r.GetBytes();
      if (!block_bytes.ok()) return;
      auto block = chain::Block::Deserialize(*block_bytes);
      if (!block.ok()) return;
      RecordHeader(ctx, block->header);
      ApplyOrBuffer(ctx, from, std::move(*block));
      break;
    }
    case kMsgChainRequest: {
      const auto& blocks = chain_->blocks();
      Writer w;
      w.PutU8(kMsgChainResponse);
      w.PutU64(blocks.size());
      for (const chain::Block& block : blocks) {
        w.PutBytes(block.Serialize());
      }
      ctx.Send(from, w.Take());
      break;
    }
    case kMsgAdvert: {
      if (quarantined_peers_.count(from) > 0) {
        // Like tx gossip, advert relaying is discretionary: a
        // double-signer's adverts are dropped unvalidated.
        PDS2_M_COUNT("p2p.advert.quarantine_dropped", 1);
        return;
      }
      auto crc = r.GetU32();
      if (!crc.ok()) return;
      auto advert_bytes = r.GetBytes();
      if (!advert_bytes.ok()) return;
      if (common::Crc32c(*advert_bytes) != *crc) return;  // bit rot in flight
      Reader ar(*advert_bytes);
      auto advert = store::Advert::Deserialize(ar);
      if (!advert.ok() || !ar.AtEnd()) return;
      // Flood-with-dedup, the tx gossip pattern: Upsert returning false
      // means we already knew (or held newer), which breaks the loop.
      if (!discovery_.Upsert(*advert)) return;
      PDS2_M_COUNT("p2p.advert.relayed", 1);
      Broadcast(ctx, payload);
      break;
    }
    case kMsgChainResponse: {
      auto count = r.GetU64();
      if (!count.ok() || *count > kMaxSnapshotBlocks) return;
      std::vector<chain::Block> blocks;
      blocks.reserve(*count);
      for (uint64_t i = 0; i < *count; ++i) {
        auto block_bytes = r.GetBytes();
        if (!block_bytes.ok()) return;
        auto block = chain::Block::Deserialize(*block_bytes);
        if (!block.ok()) return;
        blocks.push_back(std::move(*block));
      }
      MaybeAdoptChain(blocks);
      break;
    }
    default:
      break;
  }
}

std::unique_ptr<dml::NetSim> MakeValidatorNetwork(
    size_t n, const std::vector<GenesisAlloc>& genesis,
    common::SimTime block_interval, const dml::NetConfig& net_config,
    uint64_t seed, std::vector<ValidatorNode*>* nodes,
    chain::ChainConfig chain_config, const std::string& store_root,
    storage::ChainStoreOptions store_options) {
  std::vector<crypto::SigningKey> keys;
  std::vector<Bytes> public_keys;
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(crypto::SigningKey::FromSeed(common::ToBytes(
        "pds2.p2p.validator." + std::to_string(seed) + "." +
        std::to_string(i))));
    public_keys.push_back(keys.back().PublicKey());
  }

  auto sim = std::make_unique<dml::NetSim>(net_config, seed);
  sim->Reserve(n);
  std::vector<size_t> ids;
  std::vector<ValidatorNode*> raw_nodes;
  for (size_t i = 0; i < n; ++i) {
    const std::string store_dir =
        store_root.empty() ? ""
                           : store_root + "/validator-" + std::to_string(i);
    auto node = std::make_unique<ValidatorNode>(
        i, public_keys, std::move(keys[i]), genesis, block_interval,
        chain_config, store_dir, store_options);
    raw_nodes.push_back(node.get());
    ids.push_back(sim->AddNode(std::move(node)));
    sim->SetNodeName(ids.back(), "validator/" + std::to_string(i));
  }
  for (ValidatorNode* node : raw_nodes) node->SetPeers(ids);
  if (nodes != nullptr) *nodes = raw_nodes;
  return sim;
}

void ApplyByzantineSpecs(const common::FaultPlan& plan,
                         const std::vector<ValidatorNode*>& nodes) {
  for (const common::ByzantineValidatorSpec& spec :
       plan.byzantine_validators) {
    if (spec.node < nodes.size()) {
      nodes[spec.node]->SetByzantine(spec.behavior);
    }
  }
}

}  // namespace pds2::p2p
