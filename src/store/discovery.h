#ifndef PDS2_STORE_DISCOVERY_H_
#define PDS2_STORE_DISCOVERY_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/serial.h"
#include "dml/netsim.h"

namespace pds2::store {

/// Gossip discovery for the content-addressed store: providers advertise
/// what they hold — (content hash, schema tags, size, price) — and the
/// records anti-entropy their way across the network, so a consumer can
/// resolve "who has an artifact matching these tags / this memo key"
/// without a central index (the paper's open "data discovery" challenge).

/// One advertisement. The (content_hash, provider) pair is the identity;
/// `version` orders revisions from the same provider (last-writer-wins).
struct Advert {
  common::Bytes content_hash;
  std::string provider;
  std::vector<std::string> tags;  // schema tags, "memo:<hex>" keys, ...
  uint64_t size_bytes = 0;
  uint64_t price = 0;
  uint64_t version = 1;

  common::Bytes Serialize() const;
  static common::Result<Advert> Deserialize(common::Reader& r);
};

/// CRDT-style advert set: merge is commutative, associative and idempotent
/// (LWW per (content_hash, provider); version ties broken by serialized
/// bytes), so any gossip delivery order converges every replica to the
/// same state — asserted bit-exactly via Digest() in the discovery tests.
class DiscoveryIndex {
 public:
  /// True if the advert changed the index (new entry or newer version).
  bool Upsert(const Advert& advert);

  std::vector<Advert> FindByTag(const std::string& tag) const;

  size_t size() const { return entries_.size(); }

  /// Canonical digest over the sorted entry set. Two replicas with the
  /// same adverts produce the same digest, whatever order they learned
  /// them in.
  common::Bytes Digest() const;

  /// Whole-index wire form for anti-entropy pushes.
  common::Bytes SerializeAll() const;

  struct MergeResult {
    size_t applied = 0;     // adverts that changed our state
    bool sender_stale = false;  // we hold entries newer than the sender's
  };
  /// Merges a peer's serialized index. Corruption (e.g. a fault-injected
  /// bit flip in flight) rejects the whole message and changes nothing.
  common::Result<MergeResult> Merge(const common::Bytes& serialized);

 private:
  /// Identity key: (content_hash, provider).
  using Key = std::pair<common::Bytes, std::string>;
  std::map<Key, Advert> entries_;
};

/// Gossip parameters for DiscoveryNode.
struct DiscoveryConfig {
  common::SimTime push_interval = common::kMicrosPerSecond;
  size_t fanout = 2;  // peers contacted per push round
};

/// NetSim endpoint running the anti-entropy protocol: a timer-driven push
/// of the full index to `fanout` random peers, plus a one-shot reply when
/// an incoming push reveals the sender is stale (push-pull, bounded to one
/// round trip so gossip storms can't start). Crash/rejoin is survived the
/// same way GossipNode does: the index state persists, OnRestart re-arms
/// the dead timer chain.
class DiscoveryNode : public dml::Node {
 public:
  explicit DiscoveryNode(DiscoveryConfig config) : config_(config) {}

  /// Seeds a local advert (provider = this node). Takes effect on the
  /// next push; call before or during the simulation.
  void Announce(Advert advert) { index_.Upsert(advert); }

  void OnStart(dml::NodeContext& ctx) override;
  void OnRestart(dml::NodeContext& ctx) override { OnStart(ctx); }
  void OnMessage(dml::NodeContext& ctx, size_t from,
                 const common::Bytes& payload) override;
  void OnTimer(dml::NodeContext& ctx, uint64_t timer_id) override;

  const DiscoveryIndex& index() const { return index_; }
  DiscoveryIndex& index() { return index_; }

 private:
  void Push(dml::NodeContext& ctx, size_t to, bool is_reply);

  DiscoveryConfig config_;
  DiscoveryIndex index_;
};

}  // namespace pds2::store

#endif  // PDS2_STORE_DISCOVERY_H_
