#include "market/marketplace.h"

#include <algorithm>
#include <optional>
#include <set>

#include "chain/contracts/actor_registry.h"
#include "common/hex.h"
#include "common/serial.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tee/enclave.h"
#include "tee/training_kernel.h"

namespace pds2::market {

using common::Bytes;
using common::Reader;
using common::Result;
using common::Status;
using common::ToBytes;
using common::Writer;

namespace {
constexpr uint64_t kDefaultGas = 20'000'000;
}  // namespace

Marketplace::Marketplace(MarketConfig config)
    : config_(std::move(config)), attestation_(config_.seed ^ 0xa77e57) {
  store::ArtifactStoreOptions store_options;
  store_options.dir = config_.artifact_dir;
  auto opened = store::ArtifactStore::Open(store_options);
  if (!opened.ok()) {
    // A broken durable directory must not take the marketplace down:
    // results fall back to in-memory distribution (cannot fail).
    opened = store::ArtifactStore::Open({});
  }
  artifact_store_ = std::move(*opened);

  std::vector<Bytes> validator_keys;
  for (size_t i = 0; i < config_.num_validators; ++i) {
    validators_.push_back(crypto::SigningKey::FromSeed(
        ToBytes("pds2.validator." + std::to_string(config_.seed) + "." +
                std::to_string(i))));
    validator_keys.push_back(validators_.back().PublicKey());
  }
  chain::ChainConfig chain_config;
  chain_config.thread_pool = config_.thread_pool;
  chain_ = std::make_unique<chain::Blockchain>(
      validator_keys, chain::ContractRegistry::CreateDefault(), chain_config);

  // Governance bootstrap: validator 0 holds the funding treasury (enough
  // for ~1e6 actors) and deploys the actor registry.
  const chain::Address v0 =
      chain::AddressFromPublicKey(validators_[0].PublicKey());
  (void)chain_->CreditGenesis(v0, config_.genesis_balance * 1'000'000ULL);
  auto receipt =
      Execute(validators_[0], chain::Address{}, 0, kDefaultGas,
              chain::CallPayload{"actors", 0, "deploy", Bytes{}});
  if (receipt.ok() && receipt->success) {
    actor_registry_instance_ = *chain::InstanceIdFromReceipt(*receipt);
  }
}

void Marketplace::SetHealthSampling(obs::TimeSeries* ts,
                                    obs::HealthMonitor* monitor) {
  health_ts_ = ts;
  health_monitor_ = ts != nullptr ? monitor : nullptr;
}

Status Marketplace::Tick() {
  now_ += config_.block_interval;
  const size_t turn = chain_->Height() % validators_.size();
  Status status;
  {
    // Block production is the proposing validator's work, whoever's span we
    // are inside: the chain.produce_block span carries that validator's
    // identity while staying parented under the submitting actor's stage.
    obs::NodeScope node_scope("validator/", turn);
    auto block = chain_->ProduceBlock(validators_[turn], now_);
    status = block.ok() ? Status::Ok() : block.status();
  }
  SampleHealth();
  return status;
}

void Marketplace::SampleHealth() {
  if (health_ts_ == nullptr) return;
  health_ts_->Sample(obs::WallNowNs(), /*has_sim=*/true, now_);
  if (health_monitor_ != nullptr) health_monitor_->EvaluateLatest();
}

Result<chain::Receipt> Marketplace::Execute(const crypto::SigningKey& sender,
                                            const chain::Address& to,
                                            uint64_t value, uint64_t gas_limit,
                                            chain::CallPayload payload) {
  const chain::Address sender_addr =
      chain::AddressFromPublicKey(sender.PublicKey());
  chain::Transaction tx =
      chain::Transaction::Make(sender, chain_->GetNonce(sender_addr), to,
                               value, gas_limit, std::move(payload));
  PDS2_RETURN_IF_ERROR(chain_->SubmitTransaction(tx));
  PDS2_RETURN_IF_ERROR(Tick());
  return chain_->GetReceipt(tx.Id());
}

// Funds a new actor from the treasury and registers its role on-chain.
void Marketplace::Onboard(const crypto::SigningKey& key, uint64_t roles,
                          const std::string& name) {
  (void)Execute(validators_[0], chain::AddressFromPublicKey(key.PublicKey()),
                config_.genesis_balance, kDefaultGas, chain::CallPayload{});
  if (actor_registry_instance_ == 0) return;  // registry not deployed
  Writer args;
  args.PutBytes(key.PublicKey());
  args.PutU64(roles);
  args.PutString(name);
  (void)Execute(key, chain::Address{}, 0, kDefaultGas,
                chain::CallPayload{"actors", actor_registry_instance_,
                                   "register", args.Take()});
}

ProviderAgent& Marketplace::AddProvider(const std::string& name) {
  providers_.push_back(
      std::make_unique<ProviderAgent>(name, config_.seed + ++actor_seed_));
  Onboard(providers_.back()->key(), chain::contracts::kRoleProvider, name);
  return *providers_.back();
}

ExecutorAgent& Marketplace::AddExecutor(const std::string& name) {
  executors_.push_back(std::make_unique<ExecutorAgent>(
      name, config_.seed + ++actor_seed_, attestation_));
  Onboard(executors_.back()->key(), chain::contracts::kRoleExecutor, name);
  return *executors_.back();
}

ConsumerAgent& Marketplace::AddConsumer(const std::string& name) {
  consumers_.push_back(
      std::make_unique<ConsumerAgent>(name, config_.seed + ++actor_seed_));
  Onboard(consumers_.back()->key(), chain::contracts::kRoleConsumer, name);
  return *consumers_.back();
}

Result<common::Bytes> Marketplace::RegisterDatasetNft(
    ProviderAgent& provider, const std::string& dataset_name) {
  if (dataset_registry_instance_ == 0) {
    Writer args;
    args.PutString("pds2-datasets");
    PDS2_ASSIGN_OR_RETURN(
        chain::Receipt receipt,
        Execute(validators_[0], chain::Address{}, 0, kDefaultGas,
                chain::CallPayload{"erc721", 0, "deploy", args.Take()}));
    if (!receipt.success) return Status::Internal(receipt.error);
    PDS2_ASSIGN_OR_RETURN(dataset_registry_instance_,
                          chain::InstanceIdFromReceipt(receipt));
  }

  PDS2_ASSIGN_OR_RETURN(storage::DatasetSummary summary,
                        provider.store().Summary(dataset_name));
  Writer mint;
  mint.PutBytes(summary.commitment);
  mint.PutBytes(summary.metadata.Serialize());
  PDS2_ASSIGN_OR_RETURN(
      chain::Receipt receipt,
      Execute(provider.key(), chain::Address{}, 0, kDefaultGas,
              chain::CallPayload{"erc721", dataset_registry_instance_, "mint",
                                 mint.Take()}));
  if (!receipt.success) {
    return Status::Internal("dataset NFT mint failed: " + receipt.error);
  }
  return summary.commitment;
}

Result<chain::Address> Marketplace::DatasetOwner(
    const common::Bytes& commitment) const {
  if (dataset_registry_instance_ == 0) {
    return Status::NotFound("no datasets registered yet");
  }
  Writer q;
  q.PutBytes(commitment);
  return chain_->Query("erc721", dataset_registry_instance_, "owner_of",
                       q.Take());
}

Result<ml::Vec> Marketplace::FetchResult(const RunReport& report) const {
  // Light verification: the agreed result hash and the settled phase are
  // checked by proofs against the head header's state_root, not taken from
  // the report.
  const uint64_t instance =
      report.substituted ? report.reused_from_instance : report.instance;
  auto proven = [&](const char* key) -> Result<std::optional<Bytes>> {
    PDS2_ASSIGN_OR_RETURN(chain::StateProof proof,
                          chain_->QuerySlot("workload", instance, ToBytes(key)));
    return chain::WorldState::VerifySlot(
        chain_->blocks().back().header.state_root,
        chain::ContractSpace("workload", instance), ToBytes(key), proof);
  };
  PDS2_ASSIGN_OR_RETURN(std::optional<Bytes> agreed, proven("result"));
  PDS2_ASSIGN_OR_RETURN(std::optional<Bytes> phase, proven("phase"));
  if (agreed != report.result_hash ||
      phase != Bytes{static_cast<uint8_t>(
                   chain::contracts::WorkloadPhase::kPaid)}) {
    return Status::Corruption(
        "result hash or settlement not proven against the head block");
  }
  PDS2_ASSIGN_OR_RETURN(Bytes blob,
                        artifact_store_->Get(report.result_address));
  if (crypto::Sha256::Hash(blob) != report.result_hash) {
    return Status::Corruption(
        "stored result does not match the on-chain result hash");
  }
  Reader r(blob);
  PDS2_ASSIGN_OR_RETURN(ml::Vec params, r.GetDoubleVector());
  return params;
}

Result<store::Advert> Marketplace::AdvertiseDataset(
    ProviderAgent& provider, const std::string& dataset_name, uint64_t price) {
  PDS2_ASSIGN_OR_RETURN(storage::DatasetSummary summary,
                        provider.store().Summary(dataset_name));
  store::Advert advert;
  advert.content_hash = summary.commitment;
  advert.provider = provider.name();
  advert.tags = summary.metadata.types;
  advert.size_bytes = summary.num_records;
  advert.price = price;
  discovery_index_.Upsert(advert);
  PDS2_M_COUNT("market.dataset_adverts", 1);
  return advert;
}

// ---------------------------------------------------------------------------
// The Fig. 2 lifecycle. RunWorkload drives a table of steps, one per state
// transition of the workload contract; the steps share one RunContext.

namespace {

using chain::contracts::WorkloadPhase;
using Role = store::MemoBeneficiary::Role;

// A chain identity acting in the lifecycle, with its trace node label.
struct Actor {
  const char* role;
  const std::string& name;
  const crypto::SigningKey& key;
};
Actor Of(const ConsumerAgent& a) { return {"consumer/", a.name(), a.key()}; }
Actor Of(const ProviderAgent& a) { return {"provider/", a.name(), a.key()}; }
Actor Of(const ExecutorAgent& a) { return {"executor/", a.name(), a.key()}; }

// Runs `f` as `actor` inside the span `span`, timed on the simulated clock.
template <typename F>
auto InSpan(const Actor& actor, const char* span, const common::SimTime* now,
            F&& f) {
  obs::NodeScope scope(actor.role, actor.name);
  obs::ScopedSpan timed(span, now);
  return f();
}

// Internal unless the workload contract is in phase `want`.
Status ExpectPhase(const chain::Blockchain& chain, uint64_t instance,
                   WorkloadPhase want) {
  PDS2_ASSIGN_OR_RETURN(Bytes phase,
                        chain.Query("workload", instance, "phase", {}));
  if (phase == Bytes{static_cast<uint8_t>(want)}) return Status::Ok();
  return Status::Internal("workload contract in phase " +
                          common::HexEncode(phase) + ", expected " +
                          std::to_string(static_cast<int>(want)));
}

// Candidate executors for the i-th provider: its pinned executor first (if
// any), then round-robin over the full set, so a drop falls back to the
// next healthy one.
std::vector<size_t> CandidateOrder(
    const std::vector<std::unique_ptr<ExecutorAgent>>& executors, size_t i,
    const std::string& preferred) {
  std::vector<size_t> order;
  for (size_t k = 0; k < executors.size() && order.empty(); ++k) {
    if (!preferred.empty() && executors[k]->name() == preferred) {
      order.push_back(k);
    }
  }
  for (size_t k = 0; k < executors.size(); ++k) {
    const size_t candidate = (i + k) % executors.size();
    if (order.empty() || order[0] != candidate) order.push_back(candidate);
  }
  return order;
}

}  // namespace

// One lifecycle's working state, shared by the steps.
struct Marketplace::RunContext {
  struct Participation {
    ProviderAgent* provider;
    storage::DatasetSummary offer;
    ExecutorAgent* executor;
  };

  Marketplace& market;
  ConsumerAgent& consumer;
  const WorkloadSpec& spec;
  const RunOptions& options;
  RunReport report{};
  common::SimTime deadline = 0;
  std::vector<Participation> participations{};
  // Sealed contributions keyed by index in executors_, so registration and
  // audit order follow the seed, not heap addresses.
  std::map<size_t, std::vector<SealedContribution>> per_executor{};
  std::set<ExecutorAgent*> dropped{};
  // Registration-time roster in canonical (name) order, kept for the
  // reward report: executors dropped later still appear there, with 0.
  std::vector<ExecutorAgent*> registered{};
  std::vector<ExecutorAgent*> active{};  // executors still carrying the run
  std::vector<std::pair<ml::Vec, uint64_t>> states{};  // (params, samples)
  size_t result_size = 0;
  std::vector<std::pair<std::string, uint64_t>> settled_weights{};

  void Audit(std::string line) { report.audit_log.push_back(std::move(line)); }

  // Drops an executor from the run: it forfeits its reward share.
  void Drop(ExecutorAgent* executor, const Status& cause) {
    dropped.insert(executor);
    report.dropped_executors.push_back(executor->name());
    PDS2_M_COUNT("market.executors_dropped", 1);
    Audit("dropped executor " + executor->name() + ": " + cause.ToString());
  }

  // Calls `method` on this run's workload contract as `actor`, so the
  // chain.submit_tx span (and through its link, the block executing the
  // tx) is attributed to whoever acted; Tick() labels the validator's part.
  Result<chain::Receipt> Call(const Actor& actor, const std::string& method,
                              Bytes args = {}, uint64_t value = 0) {
    obs::NodeScope scope(actor.role, actor.name);
    return market.Execute(actor.key, chain::Address{}, value, kDefaultGas,
                          chain::CallPayload{"workload", report.instance,
                                             method, std::move(args)});
  }

  // Merges `inputs` in each executor's enclave, dropping the ones that
  // fail. Returns the survivors; `merged` (if set) gets the last result.
  std::vector<ExecutorAgent*> MergeOnEach(
      const std::vector<ExecutorAgent*>& executors,
      const std::vector<std::pair<ml::Vec, uint64_t>>& inputs,
      ml::Vec* merged) {
    std::vector<ExecutorAgent*> survivors;
    for (ExecutorAgent* executor : executors) {
      auto result = InSpan(Of(*executor), "market.executor.merge", &market.now_,
                           [&] { return executor->MergeAll(inputs); });
      if (!result.ok()) {
        Drop(executor, result.status());
        continue;
      }
      if (merged != nullptr) *merged = std::move(*result);
      survivors.push_back(executor);
    }
    return survivors;
  }

  // Aborts the workload, refunding the escrow and every bond, and returns
  // `cause`. The contract lets a consumer reclaim a *running* workload's
  // escrow only past its deadline (executors who did honest work must not
  // be rug-pulled), so if the immediate abort is refused the marketplace
  // waits the deadline out in simulated time and claims the refund then:
  // every failed run ends refunded, never with tokens stranded in the
  // contract. A run that already settled has nothing left to refund.
  Status Abort(const Status& cause) {
    const chain::Blockchain& chain = *market.chain_;
    if (ExpectPhase(chain, report.instance, WorkloadPhase::kPaid).ok() ||
        ExpectPhase(chain, report.instance, WorkloadPhase::kAborted).ok()) {
      return cause;
    }
    PDS2_M_COUNT("market.workloads_aborted", 1);
    auto aborted = Call(Of(consumer), "abort");
    if (aborted.ok() && !aborted->success && market.now_ <= deadline) {
      market.now_ = deadline;  // the next block's timestamp lands past it
      (void)Call(Of(consumer), "abort");
      Audit("abort deferred to the workload deadline; escrow reclaimed");
    }
    return cause;
  }
};

Result<RunReport> Marketplace::RunWorkload(ConsumerAgent& consumer,
                                           const WorkloadSpec& spec,
                                           const RunOptions& options) {
  PDS2_RETURN_IF_ERROR(spec.Validate());
  if (executors_.empty()) {
    return Status::FailedPrecondition("no executors registered");
  }
  // What the driver does when a step fails.
  enum class OnFailure {
    kReturn,      // no workload instance exists yet: nothing to refund
    kAbort,       // abort the contract (escrow refunded), then fail
    kBestEffort,  // the run is settled; a failure costs only extras
  };
  struct Step {
    const char* span;  // stage span, a direct child of market.run_workload
    Status (Marketplace::*run)(RunContext&);
    WorkloadPhase after;  // the contract's phase once the step succeeded
    OnFailure on_failure;
  };
  using enum WorkloadPhase;
  using enum OnFailure;
  using M = Marketplace;
  static const Step kSteps[] = {
      {"market.post", &M::Post, kAccepting, kReturn},
      {"market.match", &M::Match, kAccepting, kAbort},
      {"market.substitute", &M::Substitute, kAccepting, kAbort},
      {"market.attest_seal", &M::AttestSeal, kAccepting, kAbort},
      {"market.register_executors", &M::RegisterExecutors, kAccepting, kAbort},
      {"market.start", &M::Start, kRunning, kAbort},
      {"market.train_aggregate", &M::TrainAggregate, kRunning, kAbort},
      {"market.vote", &M::Vote, kCompleted, kAbort},
      {"market.finalize", &M::Finalize, kPaid, kAbort},
      {"market.publish_artifact", &M::PublishArtifact, kPaid, kBestEffort},
  };

  // The whole lifecycle plus one span per step, all against the simulated
  // clock (now_ advances one block interval per produced block).
  obs::ScopedSpan run_span("market.run_workload", &now_);
  PDS2_M_COUNT("market.workloads_started", 1);
  RunContext run{*this, consumer, spec, options};
  const uint64_t gas_before = chain_->TotalGasUsed();
  const uint64_t height_before = chain_->Height();
  for (const Step& step : kSteps) {
    obs::ScopedSpan span(step.span, &now_);
    Status status = (this->*step.run)(run);
    // Every step ends with the contract in its phase; a substituted run
    // released its escrow instead.
    if (status.ok()) {
      status = ExpectPhase(*chain_, run.report.instance,
                           run.report.substituted ? kAborted : step.after);
    }
    if (!status.ok() && step.on_failure == kReturn) return status;
    if (!status.ok() && step.on_failure == kAbort) return run.Abort(status);
    if (run.report.substituted) break;
  }

  run.report.gas_used = chain_->TotalGasUsed() - gas_before;
  run.report.blocks_produced = chain_->Height() - height_before;
  if (!run.report.substituted) PDS2_M_COUNT("market.workloads_completed", 1);
  // Settlement-stage counters (slashes, completion) land after the last
  // block's sample; one closing sample makes them visible to alert rules.
  SampleHealth();
  return std::move(run.report);
}

// Fig. 2, step 1: the consumer submits the workload specification and
// escrows the reward pool in a fresh workload contract.
Status Marketplace::Post(RunContext& run) {
  const WorkloadSpec& spec = run.spec;
  run.deadline = spec.deadline == 0 ? now_ + 3600 * common::kMicrosPerSecond
                                    : spec.deadline;
  Writer args;
  args.PutBytes(spec.SpecHash());
  args.PutU64(spec.reward_pool);
  args.PutU64(spec.min_providers);
  args.PutU64(spec.max_providers);
  args.PutU64(spec.executor_reward_permille);
  args.PutU64(run.deadline);
  args.PutString("gossip");
  args.PutU64(spec.executor_stake);
  PDS2_ASSIGN_OR_RETURN(
      chain::Receipt receipt,
      run.Call(Of(run.consumer), "deploy", args.Take(), spec.reward_pool));
  if (!receipt.success) {
    return Status::Internal("workload deploy failed: " + receipt.error);
  }
  PDS2_ASSIGN_OR_RETURN(run.report.instance,
                        chain::InstanceIdFromReceipt(receipt));
  run.Audit("deployed workload '" + spec.name + "' as instance " +
            std::to_string(run.report.instance) + ", escrow " +
            std::to_string(spec.reward_pool));
  return Status::Ok();
}

// Step 2: storage subsystems match data; providers decide.
Status Marketplace::Match(RunContext& run) {
  const WorkloadSpec& spec = run.spec;
  // Discovery-assisted matching: when providers have gossiped dataset
  // adverts, the ones whose advertised type tags cover the spec's
  // requirement are consulted first — the consumer asks the network who
  // claims to have the data before knocking on every door. An empty index
  // degrades to the plain registration-order walk.
  std::set<std::string> advertised;
  for (const std::string& type : spec.requirement.required_types) {
    for (const store::Advert& ad : discovery_index_.FindByTag(type)) {
      advertised.insert(ad.provider);
    }
  }
  std::vector<ProviderAgent*> order;
  for (auto& provider : providers_) order.push_back(provider.get());
  std::stable_partition(order.begin(), order.end(), [&](ProviderAgent* p) {
    return advertised.count(p->name()) > 0;
  });
  if (!advertised.empty()) {
    run.Audit("discovery index ranked " + std::to_string(advertised.size()) +
              " advertised providers first");
  }
  for (ProviderAgent* provider : order) {
    if (run.participations.size() >= spec.max_providers) break;
    auto offer = InSpan(Of(*provider), "market.provider.evaluate", &now_, [&] {
      return provider->EvaluateWorkload(config_.ontology, spec);
    });
    if (!offer.has_value()) continue;
    run.participations.push_back({provider, std::move(*offer), nullptr});
  }
  run.Audit(std::to_string(run.participations.size()) + " providers accepted");
  if (run.participations.size() < spec.min_providers) {
    return Status::FailedPrecondition(
        "only " + std::to_string(run.participations.size()) +
        " providers accepted (need " + std::to_string(spec.min_providers) +
        "); workload aborted and escrow refunded");
  }
  return Status::Ok();
}

// Substitution probe (store/memo.h): the matched inputs plus the training
// fingerprint and the enclave code measurement fully determine the result,
// so if the network already computed this exact function the consumer
// fetches the attested artifact instead of paying for training. The
// artifact is trusted only after it verifies against the *chain*: the
// source workload's anchored artifact address and agreed result hash. Any
// verification failure falls back to an honest recompute.
Status Marketplace::Substitute(RunContext& run) {
  RunReport& report = run.report;
  std::vector<Bytes> input_hashes;
  for (const auto& p : run.participations) {
    input_hashes.push_back(p.offer.commitment);
  }
  report.memo_key = store::ComputeMemoKey(
      tee::MeasureKernel("pds2.training", tee::TrainingKernel::kVersion),
      std::move(input_hashes), run.spec.TrainingFingerprint());
  if (!config_.enable_substitution) return Status::Ok();
  const store::MemoEntry* hit = memo_index_.Lookup(report.memo_key);
  if (hit == nullptr) return Status::Ok();

  PDS2_M_COUNT("market.substitution_probes_hit", 1);
  // The memo entry is trusted only as far as the chain anchors it; the
  // artifact is then fetched and verified like any consumer's result.
  // FetchResult proves the source's agreed result hash.
  RunReport source;
  source.instance = hit->source_instance;
  source.result_address = hit->artifact_address;
  source.result_hash = hit->result_hash;
  auto anchored =
      chain_->Query("workload", hit->source_instance, "artifact", {});
  Result<ml::Vec> params =
      Status::Corruption("memo entry disagrees with its chain anchor");
  if (anchored.ok() && *anchored == source.result_address) {
    params = FetchResult(source);
  }
  if (!params.ok()) {
    run.Audit("substitution declined: " + params.status().ToString());
    PDS2_M_COUNT("market.substitution_verify_failures", 1);
    return Status::Ok();
  }
  run.Audit("memo key hit: artifact " +
            common::HexPrefix(hit->artifact_address, 12) +
            " verified against the anchor of instance " +
            std::to_string(hit->source_instance));
  // Release this run's escrow (still in Accepting, so the abort refunds
  // immediately), then settle the reduced reuse fee.
  (void)run.Call(Of(run.consumer), "abort");
  PDS2_RETURN_IF_ERROR(SettleReuseFee(run, *hit));
  report.substituted = true;
  report.reused_from_instance = hit->source_instance;
  report.result_hash = hit->result_hash;
  report.result_address = hit->artifact_address;
  report.model_params = std::move(*params);
  report.num_providers = run.participations.size();
  PDS2_M_COUNT("market.workloads_substituted", 1);
  run.Audit("substituted memoized result; reuse fee " +
            std::to_string(report.reuse_fee) + " of pool " +
            std::to_string(run.spec.reward_pool) + " settled");
  return Status::Ok();
}

// Pays the reduced reuse fee for a memoized artifact through the ledger.
// The split mirrors finalize: the executor share (current spec's permille)
// divides evenly among the producing executors, the remainder goes to the
// producing providers by their recorded weights. Every token moves as a
// plain ledger transfer from the consumer, so conservation is inherited
// from the chain; integer-division dust simply never leaves the consumer.
Status Marketplace::SettleReuseFee(RunContext& run,
                                   const store::MemoEntry& entry) {
  const uint64_t fee = run.spec.reward_pool * config_.reuse_fee_permille / 1000;
  if (fee == 0) return Status::Ok();

  auto resolve =
      [&](const store::MemoBeneficiary& b) -> std::optional<chain::Address> {
    const bool provider = b.role == Role::kProvider;
    for (auto& p : providers_) {
      if (provider && p->name() == b.account) return p->address();
    }
    for (auto& e : executors_) {
      if (!provider && e->name() == b.account) return e->address();
    }
    return std::nullopt;
  };

  uint64_t executor_count = 0;
  uint64_t provider_weight_total = 0;
  for (const store::MemoBeneficiary& b : entry.beneficiaries) {
    if (b.role == Role::kExecutor) {
      executor_count++;
    } else {
      provider_weight_total += b.weight;
    }
  }
  const uint64_t executor_pool =
      provider_weight_total == 0
          ? fee
          : fee * run.spec.executor_reward_permille / 1000;
  const uint64_t provider_pool = fee - executor_pool;

  for (const store::MemoBeneficiary& b : entry.beneficiaries) {
    uint64_t amount = 0;
    if (b.role == Role::kExecutor) {
      if (executor_count > 0) amount = executor_pool / executor_count;
    } else if (provider_weight_total > 0) {
      amount = static_cast<uint64_t>(
          static_cast<unsigned __int128>(provider_pool) * b.weight /
          provider_weight_total);
    }
    if (amount == 0) continue;
    std::optional<chain::Address> to = resolve(b);
    if (!to.has_value()) continue;  // beneficiary left; share stays unpaid
    obs::NodeScope scope("consumer/", run.consumer.name());
    PDS2_ASSIGN_OR_RETURN(chain::Receipt receipt,
                          Execute(run.consumer.key(), *to, amount, kDefaultGas,
                                  chain::CallPayload{}));
    if (!receipt.success) {
      return Status::Internal("reuse fee transfer failed: " + receipt.error);
    }
    run.report.reuse_fee += amount;
    if (b.role == Role::kExecutor) {
      run.report.executor_rewards[b.account] += amount;
    } else {
      run.report.provider_rewards[b.account] += amount;
    }
  }
  return Status::Ok();
}

// Step 3: providers pick executors, verify attestation, send data.
// Providers with their own hardware (Fig. 3) pin their preferred executor;
// the rest are assigned round-robin across third parties. An executor that
// crashes during setup or fails attestation is dropped and its providers
// re-assigned to surviving executors — their sealed shards simply go to a
// different attested enclave; a dead compute node costs its own reward,
// not the workload.
Status Marketplace::AttestSeal(RunContext& run) {
  for (size_t i = 0; i < run.participations.size(); ++i) {
    RunContext::Participation& p = run.participations[i];
    for (size_t index : CandidateOrder(executors_, i,
                                       p.provider->preferred_executor())) {
      ExecutorAgent* candidate = executors_[index].get();
      if (run.dropped.count(candidate) > 0) continue;
      if (run.per_executor.find(index) == run.per_executor.end()) {
        Status setup = InSpan(Of(*candidate), "market.executor.setup", &now_,
                              [&] { return candidate->Setup(run.spec); });
        if (!setup.ok()) {
          run.Drop(candidate, setup);
          continue;
        }
        run.per_executor[index] = {};
      }
      const tee::AttestationQuote quote =
          candidate->QuoteFor(run.report.instance);
      auto contribution =
          InSpan(Of(*p.provider), "market.provider.prepare", &now_, [&] {
            return p.provider->PrepareContribution(
                p.offer, run.spec, run.report.instance, quote,
                attestation_.RootPublicKey(),
                candidate->enclave().Measurement(),
                candidate->key().PublicKey());
          });
      if (!contribution.ok()) {
        // The provider refused to release data: the quote did not verify.
        // The provider's trust decision is authoritative (§II-E) — the
        // executor is dropped, and this provider tries the next one.
        run.Drop(candidate, contribution.status());
        continue;
      }
      auto loaded = InSpan(Of(*candidate), "market.executor.accept", &now_,
                           [&] { return candidate->AcceptContribution(
                                     *contribution); });
      if (!loaded.ok()) {
        // In-enclave validation (§IV-C) may reject the data; the provider
        // is excluded rather than the workload failing.
        run.Audit("excluded " + p.provider->name() + ": " +
                  loaded.status().ToString());
        break;
      }
      run.per_executor[index].push_back(std::move(*contribution));
      p.executor = candidate;
      break;
    }
  }
  std::erase_if(run.participations, [&](const auto& p) {
    return p.executor == nullptr || run.dropped.count(p.executor) > 0;
  });
  if (run.participations.size() < run.spec.min_providers) {
    return Status::FailedPrecondition(
        run.dropped.size() == executors_.size()
            ? "no executor passed attestation and setup"
            : "too few providers passed in-enclave validation");
  }
  // Dropped executors, and those whose every assigned provider was
  // excluded, sit this one out.
  std::erase_if(run.per_executor, [&](const auto& entry) {
    return entry.second.empty() ||
           run.dropped.count(executors_[entry.first].get()) > 0;
  });
  run.report.num_providers = run.participations.size();
  run.report.num_executors = run.per_executor.size();
  run.Audit("data sealed to " + std::to_string(run.per_executor.size()) +
            " attested executors");
  return Status::Ok();
}

// Step 4: executors register participation (certs go on-chain) and bond
// their stake.
Status Marketplace::RegisterExecutors(RunContext& run) {
  for (const auto& [index, contributions] : run.per_executor) {
    ExecutorAgent* executor = executors_[index].get();
    Writer args;
    args.PutBytes(executor->key().PublicKey());
    args.PutU32(static_cast<uint32_t>(contributions.size()));
    for (const auto& c : contributions) args.PutBytes(c.cert.Serialize());
    PDS2_ASSIGN_OR_RETURN(chain::Receipt receipt,
                          run.Call(Of(*executor), "register_executor",
                                   args.Take(), run.spec.executor_stake));
    if (!receipt.success) {
      return Status::Internal("executor registration failed: " + receipt.error);
    }
  }
  std::string line = "all executor registrations validated on-chain";
  const uint64_t stake = run.spec.executor_stake;
  if (stake > 0) line += ", " + std::to_string(stake) + " tokens bonded each";
  run.Audit(std::move(line));
  return Status::Ok();
}

// Step 5: governance starts the workload.
Status Marketplace::Start(RunContext& run) {
  PDS2_ASSIGN_OR_RETURN(chain::Receipt receipt,
                        run.Call(Of(run.consumer), "start"));
  if (!receipt.success) return Status::Internal(receipt.error);
  run.Audit("workload started");

  // Runtime attestation re-audit (paper §II-D): now that executors are
  // bonded, the consumer re-verifies each enclave's quote. A quote that was
  // valid at sealing time but fails now (rollback, compromise) is reported
  // on-chain — the report converts the executor's bond into a slash at
  // settlement, which is exactly what the bond exists for.
  for (const auto& entry : run.per_executor) {
    ExecutorAgent* executor = executors_[entry.first].get();
    const Status verified = tee::VerifyQuote(
        executor->AuditQuote(run.report.instance),
        attestation_.RootPublicKey(), executor->enclave().Measurement());
    if (verified.ok()) continue;
    Writer args;
    args.PutBytes(executor->address());
    auto reported =
        run.Call(Of(run.consumer), "report_attestation", args.Take());
    if (reported.ok() && reported->success) {
      PDS2_M_COUNT("market.attestation_faults_reported", 1);
      run.Audit("runtime attestation audit failed for " + executor->name() +
                "; fault reported on-chain");
    }
  }
  return Status::Ok();
}

// Step 6: in-enclave training + decentralized aggregation. An executor that
// crashes here is already registered on-chain: it is dropped from the run
// (its reward share passes to the survivors at finalize) and the remaining
// quorum carries the workload. Only losing the whole quorum aborts.
Status Marketplace::TrainAggregate(RunContext& run) {
  for (const auto& entry : run.per_executor) {
    run.registered.push_back(executors_[entry.first].get());
  }
  std::sort(run.registered.begin(), run.registered.end(),  // canonical order
            [](auto* a, auto* b) { return a->name() < b->name(); });
  for (ExecutorAgent* executor : run.registered) {
    auto trained = InSpan(Of(*executor), "market.executor.train", &now_,
                          [&] { return executor->Train(); });
    if (!trained.ok()) {
      run.Drop(executor, trained.status());
      continue;
    }
    auto params = executor->Params();
    auto samples = executor->SampleCount();
    if (!params.ok() || !samples.ok()) {
      run.Drop(executor, params.ok() ? samples.status() : params.status());
      continue;
    }
    run.active.push_back(executor);
    run.states.emplace_back(std::move(*params), *samples);
  }
  if (run.active.empty()) {
    return Status::FailedPrecondition(
        "every executor crashed before training completed");
  }
  ml::Vec final_params;
  if (run.spec.aggregation == AggregationMethod::kTeeStar &&
      run.active.size() > 1) {
    // Star topology: the first (canonical) live executor's enclave
    // aggregates; everyone else adopts the distributed result. If the
    // aggregator dies, the next live executor takes over the star center.
    std::vector<ExecutorAgent*> star;
    size_t next = 0;
    while (star.empty() && next < run.active.size()) {
      star = run.MergeOnEach({run.active[next++]}, run.states, &final_params);
    }
    if (!star.empty()) {
      uint64_t total_samples = 0;
      for (const auto& state : run.states) total_samples += state.second;
      for (ExecutorAgent* adopted : run.MergeOnEach(
               {run.active.begin() + next, run.active.end()},
               {{final_params, total_samples}}, nullptr)) {
        star.push_back(adopted);
      }
      run.Audit("aggregation: TEE-hosted star via " + star[0]->name());
    }
    run.active = std::move(star);
  } else {
    // Deterministic all-reduce: every executor merges the same state list.
    run.active = run.MergeOnEach(run.active, run.states, &final_params);
  }
  if (run.active.empty()) {
    return Status::FailedPrecondition(
        "every executor crashed during aggregation");
  }
  Writer params_writer;
  params_writer.PutDoubleVector(final_params);
  const Bytes result_blob = params_writer.Take();
  run.report.result_hash = crypto::Sha256::Hash(result_blob);
  run.report.model_params = std::move(final_params);
  run.result_size = result_blob.size();
  // Executors publish the result blob off-chain; only its hash goes on
  // the ledger (the chain "is not used for storing any ... code or data").
  // The content-addressed store chunks and dedups it, and the address is
  // anchored on-chain at publication for substitution consumers.
  PDS2_ASSIGN_OR_RETURN(run.report.result_address,
                        artifact_store_->Put(result_blob));
  run.Audit("decentralized aggregation complete; result " +
            common::HexPrefix(run.report.result_hash, 12));
  return Status::Ok();
}

// Step 7: every surviving executor puts its vote on record (the contract
// accepts late votes after the quorum completes the workload, because
// finalize pays only executors whose vote matches the result). An executor
// that crashes before voting forfeits its reward share; only an
// unattainable quorum aborts the run.
Status Marketplace::Vote(RunContext& run) {
  const Bytes& result_hash = run.report.result_hash;
  for (ExecutorAgent* executor : run.active) {
    const ExecutorFault fault = executor->injected_fault();
    if (fault == ExecutorFault::kVote) {
      run.Drop(executor,
               Status::Unavailable("crashed before submitting its result"));
      continue;
    }
    // Byzantine voters commit on-chain to a result they never computed (or
    // computed from a tampered model update). The commitment is what makes
    // the fraud provable: finalize compares every recorded vote against
    // the agreed result and slashes the minority cheaters' bonds.
    Bytes vote_hash = result_hash;
    if (fault == ExecutorFault::kWrongVote ||
        fault == ExecutorFault::kTamperedUpdate) {
      common::Append(vote_hash, ToBytes(fault == ExecutorFault::kWrongVote
                                            ? "wrong-vote"
                                            : "tampered-update"));
      vote_hash = crypto::Sha256::Hash(vote_hash);
      run.Audit("executor " + executor->name() +
                " voted for a divergent result (injected fraud)");
    }
    Writer args;
    args.PutBytes(vote_hash);
    PDS2_ASSIGN_OR_RETURN(
        chain::Receipt receipt,
        run.Call(Of(*executor), "submit_result", args.Take()));
    if (!receipt.success) {
      run.Drop(executor, Status::Internal("result submission failed: " +
                                          receipt.error));
    }
  }
  auto agreed = chain_->Query("workload", run.report.instance, "result", {});
  if (!agreed.ok() || *agreed != result_hash) {
    return Status::Internal(
        "no on-chain result agreement reached (quorum unattainable)");
  }
  run.Audit("executor quorum agreed on the result");
  return Status::Ok();
}

// Step 8: the consumer finalizes; the contract pays out.
Status Marketplace::Finalize(RunContext& run) {
  RunReport& report = run.report;
  std::map<std::string, uint64_t> balances_before;
  for (const auto& p : run.participations) {
    balances_before[p.provider->name()] =
        chain_->GetBalance(p.provider->address());
  }
  for (ExecutorAgent* executor : run.registered) {
    balances_before[executor->name()] = chain_->GetBalance(executor->address());
  }

  Writer fin;
  fin.PutU32(static_cast<uint32_t>(run.participations.size()));
  for (const auto& p : run.participations) {
    uint64_t weight = p.offer.num_records;
    if (run.spec.reward_policy == RewardPolicy::kShapley) {
      auto it = run.options.provider_weights.find(p.provider->name());
      if (it != run.options.provider_weights.end()) weight = it->second;
    }
    weight = std::max<uint64_t>(1, weight);
    fin.PutBytes(p.provider->address());
    fin.PutU64(weight);
    run.settled_weights.emplace_back(p.provider->name(), weight);
  }
  const uint64_t burned_before = chain_->BurnedTotal();
  PDS2_ASSIGN_OR_RETURN(chain::Receipt receipt,
                        run.Call(Of(run.consumer), "finalize", fin.Take()));
  if (!receipt.success) return Status::Internal(receipt.error);
  report.tokens_burned = chain_->BurnedTotal() - burned_before;
  // Name the slashed executors from the settlement's audit events.
  for (const chain::Event& event : receipt.events) {
    if (event.name != "ExecutorSlashed") continue;
    Reader ev(event.data);
    auto addr = ev.GetBytes();
    auto stake = ev.GetU64();
    if (!addr.ok() || !stake.ok()) continue;
    for (ExecutorAgent* executor : run.registered) {
      if (executor->address() == *addr) {
        report.slashed_executors[executor->name()] = *stake;
        PDS2_M_COUNT("market.executors_slashed", 1);
        run.Audit("slashed executor " + executor->name() + ": bond of " +
                  std::to_string(*stake) +
                  " forfeited (half to consumer, half burned)");
      }
    }
  }
  for (const auto& p : run.participations) {
    report.provider_rewards[p.provider->name()] =
        chain_->GetBalance(p.provider->address()) -
        balances_before[p.provider->name()];
  }
  for (ExecutorAgent* executor : run.registered) {
    uint64_t delta = chain_->GetBalance(executor->address()) -
                     balances_before[executor->name()];
    // An honest executor's balance delta includes its refunded bond; the
    // report keeps "rewards" meaning rewards.
    if (report.slashed_executors.count(executor->name()) == 0) {
      delta -= std::min(delta, run.spec.executor_stake);
    }
    report.executor_rewards[executor->name()] = delta;
  }
  run.Audit("escrow discharged; rewards distributed");
  return Status::Ok();
}

// Publication: anchor the artifact's address on-chain and memoize
// the computation so future identical workloads substitute instead of
// retraining. Best-effort: the workload is already settled, so a failure
// here costs only future cache hits.
Status Marketplace::PublishArtifact(RunContext& run) {
  const RunReport& report = run.report;
  Writer args;
  args.PutBytes(report.result_address);
  args.PutBytes(report.result_hash);
  PDS2_ASSIGN_OR_RETURN(
      chain::Receipt receipt,
      run.Call(Of(run.consumer), "anchor_artifact", args.Take()));
  if (!receipt.success) return Status::Internal(receipt.error);
  run.Audit("artifact " + common::HexPrefix(report.result_address, 12) +
            " anchored on-chain");
  store::MemoEntry entry;
  entry.memo_key = report.memo_key;
  entry.artifact_address = report.result_address;
  entry.result_hash = report.result_hash;
  entry.source_instance = report.instance;
  for (ExecutorAgent* executor : run.active) {
    entry.beneficiaries.push_back({executor->name(), Role::kExecutor, 1});
  }
  for (const auto& [provider_name, weight] : run.settled_weights) {
    entry.beneficiaries.push_back({provider_name, Role::kProvider, weight});
  }
  if (memo_index_.Insert(std::move(entry))) {
    PDS2_M_COUNT("market.memo_entries_published", 1);
  }
  store::Advert advert;
  advert.content_hash = report.result_address;
  advert.provider = run.consumer.name();
  advert.tags = {"model:" + run.spec.model_kind,
                 "memo:" + common::HexEncode(report.memo_key)};
  advert.size_bytes = run.result_size;
  advert.price = run.spec.reward_pool * config_.reuse_fee_permille / 1000;
  discovery_index_.Upsert(advert);
  return Status::Ok();
}

}  // namespace pds2::market
