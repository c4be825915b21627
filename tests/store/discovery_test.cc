// Gossip discovery: CRDT merge semantics of the advert index (LWW with a
// deterministic tiebreak, idempotence, corruption rejection), anti-entropy
// convergence over NetSim — bit-identical digests across replicas and
// across runs of the same seed, including under fault-injected churn.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/serial.h"
#include "dml/fault_injector.h"
#include "dml/netsim.h"
#include "store/discovery.h"

namespace pds2::store {
namespace {

using common::Bytes;
using common::FaultPlan;
using common::FaultProfile;
using common::kMicrosPerSecond;
using common::SimTime;

Advert MakeAdvert(uint8_t tag, const std::string& provider,
                  uint64_t version = 1) {
  Advert advert;
  advert.content_hash = Bytes(32, tag);
  advert.provider = provider;
  advert.tags = {"iot/sensor", "schema:v" + std::to_string(tag)};
  advert.size_bytes = 1000u * tag;
  advert.price = 10u * tag;
  advert.version = version;
  return advert;
}

// The adverts for content hash Bytes(32, tag): MakeAdvert gives each hash
// its own schema tag.
std::vector<Advert> FindByHash(const DiscoveryIndex& index, uint8_t tag) {
  std::vector<Advert> found =
      index.FindByTag("schema:v" + std::to_string(tag));
  for (const Advert& advert : found) {
    EXPECT_EQ(advert.content_hash, Bytes(32, tag));
  }
  return found;
}

// --- DiscoveryIndex CRDT semantics ------------------------------------------

TEST(DiscoveryIndexTest, UpsertReportsChangeAndFindersSeeIt) {
  DiscoveryIndex index;
  EXPECT_TRUE(index.Upsert(MakeAdvert(1, "alice")));
  EXPECT_TRUE(index.Upsert(MakeAdvert(2, "bob")));
  EXPECT_EQ(index.size(), 2u);

  // Same (hash, provider) and version: no change, dedup point for gossip.
  EXPECT_FALSE(index.Upsert(MakeAdvert(1, "alice")));

  EXPECT_EQ(index.FindByTag("iot/sensor").size(), 2u);
  EXPECT_EQ(index.FindByTag("schema:v1").size(), 1u);
  EXPECT_EQ(FindByHash(index, 2).size(), 1u);
  EXPECT_TRUE(FindByHash(index, 9).empty());
}

TEST(DiscoveryIndexTest, HigherVersionWinsLowerLoses) {
  DiscoveryIndex index;
  Advert v2 = MakeAdvert(1, "alice", 2);
  v2.price = 99;
  EXPECT_TRUE(index.Upsert(v2));
  // A stale revision never regresses the entry.
  EXPECT_FALSE(index.Upsert(MakeAdvert(1, "alice", 1)));
  auto found = FindByHash(index, 1);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].price, 99u);

  Advert v3 = MakeAdvert(1, "alice", 3);
  v3.price = 7;
  EXPECT_TRUE(index.Upsert(v3));
  found = FindByHash(index, 1);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].price, 7u);
}

TEST(DiscoveryIndexTest, VersionTieResolvesIdenticallyOnBothReplicas) {
  // Two conflicting same-version revisions: whichever order two replicas
  // learn them in, they must pick the same winner (the CRDT property the
  // digest assertions below rely on).
  Advert x = MakeAdvert(1, "alice", 5);
  x.price = 1;
  Advert y = MakeAdvert(1, "alice", 5);
  y.price = 2;

  DiscoveryIndex ab, ba;
  ab.Upsert(x);
  ab.Upsert(y);
  ba.Upsert(y);
  ba.Upsert(x);
  EXPECT_EQ(ab.Digest(), ba.Digest());
  EXPECT_EQ(FindByHash(ab, 1)[0].price,
            FindByHash(ba, 1)[0].price);
}

TEST(DiscoveryIndexTest, DigestIsOrderIndependentAndContentSensitive) {
  DiscoveryIndex a, b;
  a.Upsert(MakeAdvert(1, "alice"));
  a.Upsert(MakeAdvert(2, "bob"));
  b.Upsert(MakeAdvert(2, "bob"));
  b.Upsert(MakeAdvert(1, "alice"));
  EXPECT_EQ(a.Digest(), b.Digest());

  b.Upsert(MakeAdvert(3, "carol"));
  EXPECT_NE(a.Digest(), b.Digest());
}

TEST(DiscoveryIndexTest, MergeAppliesNewsAndFlagsStaleSenders) {
  DiscoveryIndex ours, theirs;
  ours.Upsert(MakeAdvert(1, "alice", 2));
  theirs.Upsert(MakeAdvert(1, "alice", 1));  // stale revision
  theirs.Upsert(MakeAdvert(2, "bob"));       // news for us

  auto result = ours.Merge(theirs.SerializeAll());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->applied, 1u);      // bob's advert only
  EXPECT_TRUE(result->sender_stale);   // they miss our alice v2

  // Merge is idempotent: replaying the same message changes nothing.
  auto replay = ours.Merge(theirs.SerializeAll());
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->applied, 0u);

  // Symmetric merge converges the pair.
  ASSERT_TRUE(theirs.Merge(ours.SerializeAll()).ok());
  EXPECT_EQ(ours.Digest(), theirs.Digest());
}

TEST(DiscoveryIndexTest, CorruptMergeRejectsWholeMessageAtomically) {
  DiscoveryIndex source;
  source.Upsert(MakeAdvert(1, "alice"));
  source.Upsert(MakeAdvert(2, "bob"));
  Bytes wire = source.SerializeAll();

  DiscoveryIndex target;
  // Truncation must not half-apply: either parse fails and nothing lands,
  // or (for a cut at a record boundary the format can't detect) the state
  // still only ever holds fully-parsed adverts. Our framing rejects it.
  Bytes torn(wire.begin(), wire.end() - 3);
  auto torn_result = target.Merge(torn);
  EXPECT_FALSE(torn_result.ok());
  EXPECT_EQ(target.size(), 0u);

  // In-flight bit flip inside a length prefix.
  Bytes flipped = wire;
  flipped[1] ^= 0xff;
  auto flip_result = target.Merge(flipped);
  if (!flip_result.ok()) {
    EXPECT_EQ(target.size(), 0u);
  }
}

// --- Anti-entropy over NetSim -----------------------------------------------

struct DiscoveryNet {
  std::unique_ptr<dml::NetSim> sim;
  std::vector<DiscoveryNode*> nodes;
};

DiscoveryNet BuildDiscovery(size_t n, uint64_t seed,
                            double drop_rate = 0.0) {
  dml::NetConfig net;
  net.base_latency = 20 * common::kMicrosPerMilli;
  net.latency_jitter = 10 * common::kMicrosPerMilli;
  net.drop_rate = drop_rate;
  DiscoveryNet out;
  out.sim = std::make_unique<dml::NetSim>(net, seed);
  for (size_t i = 0; i < n; ++i) {
    auto node = std::make_unique<DiscoveryNode>(DiscoveryConfig{});
    out.nodes.push_back(node.get());
    out.sim->AddNode(std::move(node));
  }
  return out;
}

// Seeds one advert per provider node (0..k-1) before the sim starts.
void SeedAdverts(DiscoveryNet& net, size_t k) {
  for (size_t i = 0; i < k; ++i) {
    net.nodes[i]->Announce(
        MakeAdvert(static_cast<uint8_t>(i + 1),
                   "provider-" + std::to_string(i)));
  }
}

Bytes RunAndDigest(size_t n, size_t k, uint64_t seed, SimTime duration,
                   double drop_rate = 0.0) {
  DiscoveryNet net = BuildDiscovery(n, seed, drop_rate);
  SeedAdverts(net, k);
  net.sim->Start();
  net.sim->RunUntil(duration);
  // Convergence: every replica holds all k adverts, bit-identically.
  const Bytes digest = net.nodes[0]->index().Digest();
  for (DiscoveryNode* node : net.nodes) {
    EXPECT_EQ(node->index().size(), k);
    EXPECT_EQ(node->index().Digest(), digest);
  }
  return digest;
}

TEST(DiscoveryGossipTest, AllReplicasConvergeToOneIndex) {
  RunAndDigest(/*n=*/8, /*k=*/5, /*seed=*/42, 20 * kMicrosPerSecond);
}

TEST(DiscoveryGossipTest, ConvergesDespiteMessageLoss) {
  RunAndDigest(/*n=*/8, /*k=*/5, /*seed=*/7, 60 * kMicrosPerSecond,
               /*drop_rate=*/0.2);
}

TEST(DiscoveryGossipTest, SameSeedIsBitIdenticalAcrossRuns) {
  const Bytes a = RunAndDigest(8, 5, 42, 20 * kMicrosPerSecond);
  const Bytes b = RunAndDigest(8, 5, 42, 20 * kMicrosPerSecond);
  EXPECT_EQ(a, b);
}

TEST(DiscoveryGossipTest, ConvergesUnderSeededFaultPlanChurn) {
  // The acceptance scenario: nodes crash and rejoin on a seeded schedule,
  // links corrupt and drop, and the index still converges bit-identically
  // — twice, to prove the whole run is a pure function of the seed.
  auto run = [](uint64_t seed) {
    DiscoveryNet net = BuildDiscovery(8, seed, /*drop_rate=*/0.05);
    SeedAdverts(net, 6);

    FaultProfile profile;
    profile.crash_fraction = 0.5;
    profile.min_downtime = 2 * kMicrosPerSecond;
    profile.max_downtime = 6 * kMicrosPerSecond;
    profile.corrupt_rate = 0.02;  // exercises the Merge rejection path
    const FaultPlan plan =
        FaultPlan::Random(seed, 8, 30 * kMicrosPerSecond, profile);
    dml::FaultInjector::Install(*net.sim, plan);

    net.sim->Start();
    // Run well past the last churn event so rejoined nodes anti-entropy
    // back to parity.
    net.sim->RunUntil(90 * kMicrosPerSecond);

    const Bytes digest = net.nodes[0]->index().Digest();
    for (DiscoveryNode* node : net.nodes) {
      EXPECT_EQ(node->index().size(), 6u);
      EXPECT_EQ(node->index().Digest(), digest);
    }
    return digest;
  };

  EXPECT_EQ(run(1177), run(1177));
}

}  // namespace
}  // namespace pds2::store
