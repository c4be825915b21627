#ifndef PDS2_P2P_VALIDATOR_NETWORK_H_
#define PDS2_P2P_VALIDATOR_NETWORK_H_

#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "chain/chain.h"
#include "chain/evidence.h"
#include "common/fault.h"
#include "dml/netsim.h"
#include "storage/chain_store.h"
#include "store/discovery.h"

namespace pds2::p2p {

/// Genesis allocation for a replicated chain deployment.
using GenesisAlloc = storage::GenesisAccount;

/// One validator's network endpoint: a full chain replica that
///  - gossips transactions submitted to it,
///  - produces a block when the PoA rotation reaches it (timer-driven) and
///    broadcasts it,
///  - applies peer blocks in order, buffering a bounded window of
///    out-of-order arrivals,
///  - recovers from message loss with an explicit sync protocol: a node
///    that sees a block or head from the future asks for the gap, and
///    retries with capped exponential backoff until it catches up,
///  - resolves forks (possible when ChainConfig::proposer_grace lets a
///    fallback proposer take over a dead primary's slot) by exchanging full
///    chain snapshots and deterministically preferring the longer chain,
///    ties broken toward the lexicographically smaller head hash,
///  - survives crash/restart: OnRestart re-arms the timer chains the crash
///    destroyed,
///  - optionally persists its replica through a storage::ChainStore
///    (`store_dir`): every committed block is appended to the on-disk log,
///    periodic state snapshots are cut, and a node constructed over an
///    existing directory resumes from disk at its old height instead of a
///    genesis full-sync.
///
/// Every replica executes every block, so the network converges to one
/// state without any node trusting another's execution — the §II-E
/// "trustless decentralized" audit property, here made operational.
class ValidatorNode : public dml::Node {
 public:
  /// `index` is this validator's position in `validator_keys` (its own
  /// signing key); `peers` are the NetSim ids of all validator nodes
  /// (including self; self is skipped when broadcasting). A non-empty
  /// `store_dir` makes the replica durable: it is recovered from that
  /// directory (snapshot + log-tail replay) if one exists, and every
  /// commit is persisted there. An unrecoverable directory falls back to a
  /// fresh in-memory replica (logged), keeping the node live.
  /// `chain_config` is passed through to the replica's Blockchain, so
  /// block production and external-block apply run on
  /// `chain_config.thread_pool` — or on the shared process pool when that
  /// is nullptr (the default): validators get batched signature checks
  /// and conflict-lane execution without plumbing a pool here.
  ValidatorNode(size_t index, std::vector<common::Bytes> validator_keys,
                crypto::SigningKey key,
                const std::vector<GenesisAlloc>& genesis,
                common::SimTime block_interval,
                chain::ChainConfig chain_config = {},
                std::string store_dir = "",
                storage::ChainStoreOptions store_options = {});

  void OnStart(dml::NodeContext& ctx) override;
  void OnRestart(dml::NodeContext& ctx) override;
  void OnMessage(dml::NodeContext& ctx, size_t from,
                 const common::Bytes& payload) override;
  void OnTimer(dml::NodeContext& ctx, uint64_t timer_id) override;

  /// Peer ids must be assigned after all nodes are added to the sim.
  void SetPeers(std::vector<size_t> peers) { peers_ = std::move(peers); }

  /// Scripts this validator to misbehave (chaos/bench harnesses only). An
  /// honest node never calls this; see common::ByzantineBehavior for the
  /// menu and chain/evidence.h for why the provable ones get slashed.
  void SetByzantine(common::ByzantineBehavior behavior) {
    byzantine_ = behavior;
  }
  common::ByzantineBehavior byzantine() const { return byzantine_; }

  /// Local ingress: a client hands a transaction to this validator, which
  /// pools and gossips it.
  common::Status SubmitTransaction(const chain::Transaction& tx,
                                   dml::NodeContext& ctx);

  /// Local ingress for the discovery layer: a provider hands this
  /// validator a dataset/artifact advert, which joins the local index and
  /// floods to peers (dedup'd by the index's LWW merge, exactly like tx
  /// gossip). Quarantined peers' adverts are dropped on receipt.
  void AnnounceAdvert(const store::Advert& advert, dml::NodeContext& ctx);

  /// This validator's replica of the gossip discovery index.
  const store::DiscoveryIndex& discovery() const { return discovery_; }

  const chain::Blockchain& chain() const { return *chain_; }
  chain::Blockchain& chain() { return *chain_; }

  /// The durability layer, nullptr for a pure in-memory node.
  const storage::ChainStore* store() const { return store_.get(); }
  /// Height at which this node resumed from disk (0 = fresh start).
  uint64_t recovered_height() const { return recovered_height_; }

  uint64_t blocks_produced() const { return blocks_produced_; }
  uint64_t sync_requests_sent() const { return sync_requests_sent_; }
  uint64_t sync_retries() const { return sync_retries_; }
  uint64_t forks_resolved() const { return forks_resolved_; }
  uint64_t future_blocks_evicted() const { return future_blocks_evicted_; }
  uint64_t evidence_detected() const { return evidence_detected_; }
  uint64_t evidence_submitted() const { return evidence_submitted_; }
  size_t pending_evidence_count() const { return pending_evidence_.size(); }
  const std::set<size_t>& quarantined_peers() const {
    return quarantined_peers_;
  }

 private:
  void Broadcast(dml::NodeContext& ctx, const common::Bytes& payload);
  void TryProduce(dml::NodeContext& ctx);
  void ApplyOrBuffer(dml::NodeContext& ctx, size_t from, chain::Block block);
  void DrainBuffer();
  /// Records interest in blocks up to `height` (seen on a peer) and starts
  /// the sync retry loop if it is not already running.
  void NoteRemoteHead(dml::NodeContext& ctx, size_t from, uint64_t height);
  void SendSyncRequest(dml::NodeContext& ctx, size_t to);
  void RequestChain(dml::NodeContext& ctx, size_t from);
  /// Rebuilds a candidate replica from a full snapshot and swaps it in if
  /// it is valid and strictly preferred by the fork-choice rule.
  void MaybeAdoptChain(const std::vector<chain::Block>& blocks);
  /// Emits this node's scripted misbehaviour right after it produced the
  /// honest block for its slot: a second conflicting signed header (the
  /// double-sign every provable behaviour reduces to).
  void BroadcastByzantineVariant(dml::NodeContext& ctx,
                                 const chain::Block& block);
  /// Accountability watchtower: remembers every validly signed header seen
  /// per (height, proposer) and turns a conflicting pair into pending
  /// equivocation evidence, quarantining the offender's peer.
  void RecordHeader(dml::NodeContext& ctx, const chain::BlockHeader& header);
  /// Submits pending evidence transactions (retried every slot until the
  /// chain records the slash, robust across fork adoption).
  void MaybeSubmitEvidence(dml::NodeContext& ctx);
  void QuarantinePeerOf(const chain::Address& proposer);

  size_t index_;
  crypto::SigningKey key_;
  std::vector<common::Bytes> validator_keys_;  // kept for chain rebuilds
  std::vector<GenesisAlloc> genesis_;          // kept for chain rebuilds
  chain::ChainConfig chain_config_;
  std::string store_dir_;  // "" = in-memory only
  storage::ChainStoreOptions store_options_;
  std::unique_ptr<chain::Blockchain> chain_;
  std::unique_ptr<storage::ChainStore> store_;  // after chain_: detach first
  uint64_t recovered_height_ = 0;
  std::vector<size_t> peers_;
  common::SimTime block_interval_;

  // Blocks that arrived ahead of our height, keyed by number. Bounded: on
  // overflow the farthest-ahead block is evicted (it is the cheapest to
  // re-fetch, since sync fills the gap front first).
  std::map<uint64_t, chain::Block> future_blocks_;
  // Tx ids already seen, to stop gossip loops.
  std::map<chain::Hash, bool> seen_txs_;

  // Sync retry state. `sync_target_` is the highest peer height observed;
  // while behind it, a kSyncTimer fires with exponential backoff (capped)
  // and re-asks a random peer, so one lost sync exchange cannot strand the
  // replica until the next head announce.
  uint64_t sync_target_ = 0;
  bool sync_timer_armed_ = false;
  common::SimTime sync_backoff_ = 0;

  // Scripted misbehaviour (kNone on every honest node).
  common::ByzantineBehavior byzantine_ = common::ByzantineBehavior::kNone;

  // Watchtower state: first validly-signed header seen per (height,
  // proposer address); a second one with a different id is a double-sign.
  // Pruned below (height - 64) as the chain advances.
  std::map<std::pair<uint64_t, chain::Address>, chain::BlockHeader>
      seen_headers_;
  // Header ids whose proposer signature already verified (dedup work).
  std::set<chain::Hash> verified_headers_;
  // Evidence built locally but not yet recorded on chain, keyed
  // (offender, height). Erased once chain_->HasEvidenceFor confirms.
  std::map<std::pair<chain::Address, uint64_t>, chain::EquivocationEvidence>
      pending_evidence_;
  // Replica of the network's content-discovery adverts (store/discovery.h);
  // fed by AnnounceAdvert locally and kMsgAdvert gossip remotely.
  store::DiscoveryIndex discovery_;

  // Peers whose validator double-signed: their tx gossip is dropped and
  // sync avoids them when an honest peer is available. Never gates block
  // or snapshot processing — consensus safety cannot depend on scoring.
  std::set<size_t> quarantined_peers_;

  uint64_t blocks_produced_ = 0;
  uint64_t sync_requests_sent_ = 0;
  uint64_t sync_retries_ = 0;
  uint64_t forks_resolved_ = 0;
  uint64_t future_blocks_evicted_ = 0;
  uint64_t evidence_detected_ = 0;
  uint64_t evidence_submitted_ = 0;
};

/// Convenience: builds a NetSim with `n` validators wired as full mesh.
/// Returns the sim; `nodes` receives non-owning pointers to the nodes. A
/// non-empty `store_root` gives validator i the durable directory
/// `<store_root>/validator-<i>`; rebuilding the network over the same root
/// resumes every replica from disk.
std::unique_ptr<dml::NetSim> MakeValidatorNetwork(
    size_t n, const std::vector<GenesisAlloc>& genesis,
    common::SimTime block_interval, const dml::NetConfig& net_config,
    uint64_t seed, std::vector<ValidatorNode*>* nodes,
    chain::ChainConfig chain_config = {}, const std::string& store_root = "",
    storage::ChainStoreOptions store_options = {});

/// Applies a FaultPlan's scripted Byzantine validator assignments to the
/// nodes of a network built by MakeValidatorNetwork.
void ApplyByzantineSpecs(const common::FaultPlan& plan,
                         const std::vector<ValidatorNode*>& nodes);

}  // namespace pds2::p2p

#endif  // PDS2_P2P_VALIDATOR_NETWORK_H_
