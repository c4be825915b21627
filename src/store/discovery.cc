#include "store/discovery.h"

#include <utility>

#include "common/crc32.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"

namespace pds2::store {

using common::Bytes;
using common::Reader;
using common::Result;
using common::Status;
using common::Writer;

namespace {

// Message kinds for the anti-entropy protocol.
constexpr uint8_t kMsgPush = 0;   // periodic push; stale senders get a reply
constexpr uint8_t kMsgReply = 1;  // one-shot catch-up; never answered

constexpr uint64_t kPushTimer = 1;

}  // namespace

Bytes Advert::Serialize() const {
  Writer w;
  w.PutBytes(content_hash);
  w.PutString(provider);
  w.PutU32(static_cast<uint32_t>(tags.size()));
  for (const std::string& t : tags) w.PutString(t);
  w.PutU64(size_bytes);
  w.PutU64(price);
  w.PutU64(version);
  return w.Take();
}

Result<Advert> Advert::Deserialize(Reader& r) {
  Advert a;
  PDS2_ASSIGN_OR_RETURN(a.content_hash, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(a.provider, r.GetString());
  PDS2_ASSIGN_OR_RETURN(uint32_t n, r.GetU32());
  // Each tag takes at least its u32 length prefix.
  PDS2_RETURN_IF_ERROR(r.CheckCount(n, sizeof(uint32_t)));
  a.tags.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    PDS2_ASSIGN_OR_RETURN(std::string t, r.GetString());
    a.tags.push_back(std::move(t));
  }
  PDS2_ASSIGN_OR_RETURN(a.size_bytes, r.GetU64());
  PDS2_ASSIGN_OR_RETURN(a.price, r.GetU64());
  PDS2_ASSIGN_OR_RETURN(a.version, r.GetU64());
  return a;
}

bool DiscoveryIndex::Upsert(const Advert& advert) {
  const Key key{advert.content_hash, advert.provider};
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    entries_.emplace(key, advert);
    PDS2_M_COUNT("store.discovery.adverts_added", 1);
    return true;
  }
  if (advert.version < it->second.version) return false;
  if (advert.version == it->second.version) {
    // Deterministic tie-break so concurrent same-version revisions still
    // converge: the lexicographically larger serialization wins.
    if (advert.Serialize() <= it->second.Serialize()) return false;
  }
  it->second = advert;
  PDS2_M_COUNT("store.discovery.adverts_updated", 1);
  return true;
}

std::vector<Advert> DiscoveryIndex::FindByTag(const std::string& tag) const {
  std::vector<Advert> out;
  for (const auto& [key, advert] : entries_) {
    for (const std::string& t : advert.tags) {
      if (t == tag) {
        out.push_back(advert);
        break;
      }
    }
  }
  return out;
}

std::vector<Advert> DiscoveryIndex::FindByHash(
    const Bytes& content_hash) const {
  std::vector<Advert> out;
  auto it = entries_.lower_bound(Key{content_hash, ""});
  for (; it != entries_.end() && it->first.first == content_hash; ++it) {
    out.push_back(it->second);
  }
  return out;
}

Bytes DiscoveryIndex::Digest() const {
  // entries_ is an ordered map, so iteration is already canonical.
  crypto::Sha256 hasher;
  hasher.Update(std::string_view("pds2.discovery.digest.v1"));
  for (const auto& [key, advert] : entries_) {
    const Bytes serialized = advert.Serialize();
    hasher.Update(serialized);
  }
  return hasher.Finish();
}

Bytes DiscoveryIndex::SerializeAll() const {
  Writer body;
  body.PutU32(static_cast<uint32_t>(entries_.size()));
  for (const auto& [key, advert] : entries_) {
    body.PutBytes(advert.Serialize());
  }
  const Bytes payload = body.Take();
  // CRC-framed like the storage layer's records: gossip travels links the
  // fault injector flips bits on, and a flipped byte that still parses
  // (e.g. inside a price or a tag) would otherwise pollute every replica
  // it anti-entropies to.
  Writer w;
  w.PutU32(common::Crc32c(payload));
  w.PutRaw(payload);
  return w.Take();
}

Result<DiscoveryIndex::MergeResult> DiscoveryIndex::Merge(
    const Bytes& serialized) {
  // Parse fully before applying: a fault-injected bit flip mid-message
  // must not leave half a merge behind.
  Reader framed(serialized);
  PDS2_ASSIGN_OR_RETURN(uint32_t crc, framed.GetU32());
  PDS2_ASSIGN_OR_RETURN(Bytes payload, framed.GetRaw(framed.remaining()));
  if (common::Crc32c(payload) != crc) {
    return Status::Corruption("discovery index checksum mismatch");
  }
  Reader r(payload);
  PDS2_ASSIGN_OR_RETURN(uint32_t n, r.GetU32());
  // Each advert takes at least its u32 length prefix.
  PDS2_RETURN_IF_ERROR(r.CheckCount(n, sizeof(uint32_t)));
  std::vector<Advert> incoming;
  incoming.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    PDS2_ASSIGN_OR_RETURN(Bytes advert_bytes, r.GetBytes());
    Reader ar(advert_bytes);
    PDS2_ASSIGN_OR_RETURN(Advert a, Advert::Deserialize(ar));
    if (!ar.AtEnd()) return Status::Corruption("trailing advert bytes");
    incoming.push_back(std::move(a));
  }
  if (!r.AtEnd()) return Status::Corruption("trailing index bytes");

  MergeResult result;
  std::map<Key, uint64_t> sender_versions;
  for (const Advert& a : incoming) {
    sender_versions[Key{a.content_hash, a.provider}] = a.version;
    if (Upsert(a)) result.applied++;
  }
  // The sender is stale if we hold any entry they lack or have older.
  for (const auto& [key, advert] : entries_) {
    auto it = sender_versions.find(key);
    if (it == sender_versions.end() || it->second < advert.version) {
      result.sender_stale = true;
      break;
    }
  }
  return result;
}

void DiscoveryNode::OnStart(dml::NodeContext& ctx) {
  // Desynchronize the first push (deterministically, from the node's seed
  // stream) so all nodes don't flood the same instant.
  const common::SimTime jitter = static_cast<common::SimTime>(
      ctx.rng().NextU64(static_cast<uint64_t>(config_.push_interval)));
  ctx.SetTimer(config_.push_interval + jitter, kPushTimer);
}

void DiscoveryNode::Push(dml::NodeContext& ctx, size_t to, bool is_reply) {
  Writer w;
  w.PutU8(is_reply ? kMsgReply : kMsgPush);
  w.PutRaw(index_.SerializeAll());
  ctx.Send(to, w.Take());
  PDS2_M_COUNT("store.discovery.pushes", 1);
}

void DiscoveryNode::OnTimer(dml::NodeContext& ctx, uint64_t timer_id) {
  if (timer_id != kPushTimer) return;
  const size_t n = ctx.NumNodes();
  if (n > 1 && index_.size() > 0) {
    for (size_t i = 0; i < config_.fanout; ++i) {
      size_t peer = ctx.rng().NextU64(n - 1);
      if (peer >= ctx.self()) peer++;  // uniform over everyone but self
      Push(ctx, peer, /*is_reply=*/false);
    }
  }
  ctx.SetTimer(config_.push_interval, kPushTimer);
}

void DiscoveryNode::OnMessage(dml::NodeContext& ctx, size_t from,
                              const common::Bytes& payload) {
  Reader r(payload);
  auto kind = r.GetU8();
  if (!kind.ok()) return;
  auto body = r.GetRaw(r.remaining());
  if (!body.ok()) return;
  auto merged = index_.Merge(*body);
  if (!merged.ok()) {
    // Corrupted in flight (see NetSim fault injection) — drop it.
    PDS2_M_COUNT("store.discovery.corrupt_messages_dropped", 1);
    return;
  }
  PDS2_M_COUNT("store.discovery.merges", 1);
  // Push-pull: answer a stale pusher exactly once, never answer a reply.
  if (*kind == kMsgPush && merged->sender_stale) {
    Push(ctx, from, /*is_reply=*/true);
  }
}

}  // namespace pds2::store
