#ifndef PDS2_MARKET_MARKETPLACE_H_
#define PDS2_MARKET_MARKETPLACE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chain/chain.h"
#include "market/actors.h"
#include "market/spec.h"
#include "obs/health.h"
#include "obs/time_series.h"
#include "storage/semantic.h"
#include "store/artifact_store.h"
#include "store/discovery.h"
#include "store/memo.h"
#include "tee/attestation.h"

namespace pds2::market {

/// Marketplace-wide configuration.
struct MarketConfig {
  size_t num_validators = 3;
  uint64_t genesis_balance = 1'000'000'000'000ULL;  // per created actor
  uint64_t seed = 1;
  common::SimTime block_interval = common::kMicrosPerSecond;
  storage::Ontology ontology = storage::Ontology::StandardIot();
  /// Memoized computation (store/memo.h): when a workload's memo key
  /// resolves, the attested artifact is fetched and a reduced reuse fee is
  /// settled instead of recomputing. Off by default: substitution changes
  /// the run's economics, so callers opt in.
  bool enable_substitution = false;
  /// Reuse fee as a fraction of the (avoided) reward pool, in permille.
  uint64_t reuse_fee_permille = 100;
  /// Durable directory for the artifact store; empty = in-memory.
  std::string artifact_dir;
  /// Pool for the chain's parallel validation/execution (see
  /// ChainConfig::thread_pool). nullptr = process-wide pool; any size is
  /// bit-identical, which is what the health plane's 1-vs-N alert
  /// determinism checks sweep.
  common::ThreadPool* thread_pool = nullptr;
};

/// Extra per-run inputs a consumer may supply.
struct RunOptions {
  /// Externally computed provider weights (by provider name), used when the
  /// spec's reward policy is kShapley. Missing providers default to their
  /// record counts.
  std::map<std::string, uint64_t> provider_weights;
};

/// The outcome of one full workload lifecycle.
struct RunReport {
  uint64_t instance = 0;
  common::Bytes result_hash;
  common::Bytes result_address;  // content address in the result store
  ml::Vec model_params;
  size_t num_providers = 0;
  size_t num_executors = 0;
  std::map<std::string, uint64_t> provider_rewards;  // name -> tokens
  std::map<std::string, uint64_t> executor_rewards;  // name -> tokens
  uint64_t gas_used = 0;        // chain gas consumed by this run's txs
  uint64_t blocks_produced = 0; // chain progress during the run
  /// Executors lost along the way (failed attestation, crashed during
  /// setup/training, or never voted). Registered-but-dropped executors
  /// appear in executor_rewards with 0 tokens.
  std::vector<std::string> dropped_executors;
  /// Executors whose bond was slashed at finalize (minority-vote fraud or
  /// a consumer-reported attestation mismatch), name -> forfeited stake.
  std::map<std::string, uint64_t> slashed_executors;
  /// Tokens destroyed by slashing during this run (the burned half of each
  /// forfeited bond; the other half compensated the consumer).
  uint64_t tokens_burned = 0;
  std::vector<std::string> audit_log;
  /// Substitution (memoized computation): true when this run settled by
  /// reusing an already-computed artifact instead of training.
  bool substituted = false;
  uint64_t reuse_fee = 0;            // tokens paid for the reused artifact
  uint64_t reused_from_instance = 0; // workload that anchored the artifact
  common::Bytes memo_key;            // this run's memoization key
};

/// The PDS2 marketplace facade: wires the governance blockchain, the
/// attestation root, provider storage subsystems and TEE executors, and
/// drives the Fig. 2 lifecycle end to end:
///
///   submit spec -> notify/match providers -> providers verify attestation
///   and seal data to executors (with certificates) -> executors register
///   on-chain -> start -> in-enclave training + decentralized aggregation
///   -> result quorum on-chain -> finalize -> rewards distributed.
class Marketplace {
 public:
  explicit Marketplace(MarketConfig config = {});

  chain::Blockchain& chain() { return *chain_; }
  tee::AttestationService& attestation() { return attestation_; }
  const storage::Ontology& ontology() const { return config_.ontology; }
  common::SimTime Now() const { return now_; }

  /// Produces one block from the pending transactions.
  common::Status Tick();

  /// Wires the health plane into the lifecycle clock: after every Tick()
  /// (one block interval of sim time) the registry is sampled into `ts` at
  /// sim time Now() and, when `monitor` is non-null, its rules are
  /// evaluated at the new sample. Pass nullptrs to detach. The marketplace
  /// is single-driver, so sampling here is deterministic per seed.
  void SetHealthSampling(obs::TimeSeries* ts,
                         obs::HealthMonitor* monitor = nullptr);

  // --- Actor onboarding (funds the account, registers the actor role) ----
  ProviderAgent& AddProvider(const std::string& name);
  ExecutorAgent& AddExecutor(const std::string& name);
  ConsumerAgent& AddConsumer(const std::string& name);

  std::vector<std::unique_ptr<ProviderAgent>>& providers() {
    return providers_;
  }
  std::vector<std::unique_ptr<ExecutorAgent>>& executors() {
    return executors_;
  }

  /// Runs a complete workload lifecycle for `consumer`, one Fig. 2 step
  /// per contract state transition, checking the contract's phase after
  /// each. Once the contract is deployed, any failure aborts it (escrow and
  /// bonds refunded) before the error is returned; publication alone is
  /// best-effort.
  common::Result<RunReport> RunWorkload(ConsumerAgent& consumer,
                                        const WorkloadSpec& spec,
                                        const RunOptions& options = {});

  /// Convenience: submits a transaction from `sender`, produces a block,
  /// and returns the receipt (with automatic nonce management).
  common::Result<chain::Receipt> Execute(const crypto::SigningKey& sender,
                                         const chain::Address& to,
                                         uint64_t value, uint64_t gas_limit,
                                         chain::CallPayload payload);

  /// Registers a provider's dataset as an ERC-721 data NFT (paper §III-A:
  /// datasets are registered "by means of their hashes" and modeled as
  /// non-fungible tokens). Token id = the dataset's Merkle commitment;
  /// token metadata = the serialized semantic metadata. The shared data
  /// registry is deployed lazily on first use. Returns the token id.
  common::Result<common::Bytes> RegisterDatasetNft(
      ProviderAgent& provider, const std::string& dataset_name);

  /// Resolves the on-chain owner of a registered dataset commitment.
  common::Result<chain::Address> DatasetOwner(
      const common::Bytes& commitment) const;

  /// Retrieves a finished workload's model from the off-chain artifact
  /// store by its report and verifies it against the on-chain result hash —
  /// the consumer-side integrity check of Fig. 2's final step. The result
  /// hash and the paid phase of the workload (the reused one for a
  /// substituted run) are checked against the head block's state_root by
  /// proofs. Corruption if either is not proven or the stored blob does not
  /// hash to the agreed result.
  common::Result<ml::Vec> FetchResult(const RunReport& report) const;

  /// Publishes a discovery advert for one of the provider's registered
  /// datasets: (dataset commitment, semantic type tags, record count,
  /// asking price). Consumers' workload matching prefers providers whose
  /// adverts cover the spec's required types. Returns the advert.
  common::Result<store::Advert> AdvertiseDataset(ProviderAgent& provider,
                                                 const std::string& dataset_name,
                                                 uint64_t price);

  /// The marketplace's view of the gossip discovery index. In-process runs
  /// share one index; networked deployments converge theirs via
  /// store::DiscoveryNode (see discovery tests + E17).
  store::DiscoveryIndex& discovery_index() { return discovery_index_; }
  /// The memoized-computation cache consulted by RunWorkload.
  store::MemoIndex& memo_index() { return memo_index_; }
  /// The content-addressed artifact store backing result distribution.
  store::ArtifactStore& artifact_store() { return *artifact_store_; }

 private:
  void Onboard(const crypto::SigningKey& key, uint64_t roles,
               const std::string& name);
  void SampleHealth();

  // The lifecycle steps RunWorkload drives, sharing one run's state.
  struct RunContext;
  common::Status Post(RunContext& run);
  common::Status Match(RunContext& run);
  common::Status Substitute(RunContext& run);
  common::Status AttestSeal(RunContext& run);
  common::Status RegisterExecutors(RunContext& run);
  common::Status Start(RunContext& run);
  common::Status TrainAggregate(RunContext& run);
  common::Status Vote(RunContext& run);
  common::Status Finalize(RunContext& run);
  common::Status PublishArtifact(RunContext& run);
  common::Status SettleReuseFee(RunContext& run,
                                const store::MemoEntry& entry);

  MarketConfig config_;
  std::vector<crypto::SigningKey> validators_;
  std::unique_ptr<chain::Blockchain> chain_;
  tee::AttestationService attestation_;
  common::SimTime now_ = 0;
  obs::TimeSeries* health_ts_ = nullptr;
  obs::HealthMonitor* health_monitor_ = nullptr;
  uint64_t actor_registry_instance_ = 0;
  uint64_t dataset_registry_instance_ = 0;  // lazily deployed erc721

  std::vector<std::unique_ptr<ProviderAgent>> providers_;
  std::vector<std::unique_ptr<ExecutorAgent>> executors_;
  std::vector<std::unique_ptr<ConsumerAgent>> consumers_;
  uint64_t actor_seed_ = 0;

  // Off-chain result distribution (the chain stores only hashes): results
  // live in the content-addressed store, deduplicated and GC-rooted, with
  // their addresses anchored on-chain at publication.
  std::unique_ptr<store::ArtifactStore> artifact_store_;
  store::MemoIndex memo_index_;
  store::DiscoveryIndex discovery_index_;
};

}  // namespace pds2::market

#endif  // PDS2_MARKET_MARKETPLACE_H_
