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
  if (health_ts_ != nullptr) {
    health_ts_->Sample(obs::WallNowNs(), /*has_sim=*/true, now_);
    if (health_monitor_ != nullptr) health_monitor_->EvaluateLatest();
  }
  return status;
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

Status Marketplace::RegisterActor(const crypto::SigningKey& key,
                                  uint64_t roles,
                                  const std::string& metadata) {
  if (actor_registry_instance_ == 0) {
    return Status::Internal("actor registry not deployed");
  }
  Writer args;
  args.PutBytes(key.PublicKey());
  args.PutU64(roles);
  args.PutString(metadata);
  PDS2_ASSIGN_OR_RETURN(
      chain::Receipt receipt,
      Execute(key, chain::Address{}, 0, kDefaultGas,
              chain::CallPayload{"actors", actor_registry_instance_,
                                 "register", args.Take()}));
  if (!receipt.success) return Status::Internal(receipt.error);
  return Status::Ok();
}

ProviderAgent& Marketplace::AddProvider(const std::string& name) {
  providers_.push_back(
      std::make_unique<ProviderAgent>(name, config_.seed + ++actor_seed_));
  ProviderAgent& provider = *providers_.back();
  (void)Execute(validators_[0], provider.address(), config_.genesis_balance,
                kDefaultGas, chain::CallPayload{});
  (void)RegisterActor(provider.key(), chain::contracts::kRoleProvider, name);
  return provider;
}

ExecutorAgent& Marketplace::AddExecutor(const std::string& name) {
  executors_.push_back(std::make_unique<ExecutorAgent>(
      name, config_.seed + ++actor_seed_, attestation_));
  ExecutorAgent& executor = *executors_.back();
  (void)Execute(validators_[0], executor.address(), config_.genesis_balance,
                kDefaultGas, chain::CallPayload{});
  (void)RegisterActor(executor.key(), chain::contracts::kRoleExecutor, name);
  return executor;
}

ConsumerAgent& Marketplace::AddConsumer(const std::string& name) {
  consumers_.push_back(
      std::make_unique<ConsumerAgent>(name, config_.seed + ++actor_seed_));
  ConsumerAgent& consumer = *consumers_.back();
  (void)Execute(validators_[0], consumer.address(), config_.genesis_balance,
                kDefaultGas, chain::CallPayload{});
  (void)RegisterActor(consumer.key(), chain::contracts::kRoleConsumer, name);
  return consumer;
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

// Pays the reduced reuse fee for a memoized artifact through the ledger.
// The split mirrors finalize: the executor share (current spec's permille)
// divides evenly among the producing executors, the remainder goes to the
// producing providers by their recorded weights. Every token moves as a
// plain ledger transfer from the consumer, so conservation is inherited
// from the chain; integer-division dust simply never leaves the consumer.
Status Marketplace::SettleReuseFee(ConsumerAgent& consumer,
                                   const store::MemoEntry& entry,
                                   const WorkloadSpec& spec,
                                   RunReport& report) {
  const uint64_t fee = spec.reward_pool * config_.reuse_fee_permille / 1000;
  if (fee == 0) return Status::Ok();

  auto resolve =
      [&](const store::MemoBeneficiary& b) -> std::optional<chain::Address> {
    if (b.role == store::MemoBeneficiary::Role::kProvider) {
      for (auto& p : providers_) {
        if (p->name() == b.account) return p->address();
      }
    } else {
      for (auto& e : executors_) {
        if (e->name() == b.account) return e->address();
      }
    }
    return std::nullopt;
  };

  uint64_t executor_count = 0;
  uint64_t provider_weight_total = 0;
  for (const store::MemoBeneficiary& b : entry.beneficiaries) {
    if (b.role == store::MemoBeneficiary::Role::kExecutor) {
      executor_count++;
    } else {
      provider_weight_total += b.weight;
    }
  }
  const uint64_t executor_pool =
      provider_weight_total == 0
          ? fee
          : fee * spec.executor_reward_permille / 1000;
  const uint64_t provider_pool = fee - executor_pool;

  for (const store::MemoBeneficiary& b : entry.beneficiaries) {
    uint64_t amount = 0;
    if (b.role == store::MemoBeneficiary::Role::kExecutor) {
      if (executor_count > 0) amount = executor_pool / executor_count;
    } else if (provider_weight_total > 0) {
      amount = static_cast<uint64_t>(
          static_cast<unsigned __int128>(provider_pool) * b.weight /
          provider_weight_total);
    }
    if (amount == 0) continue;
    std::optional<chain::Address> to = resolve(b);
    if (!to.has_value()) continue;  // beneficiary left; share stays unpaid
    obs::NodeScope scope("consumer/", consumer.name());
    PDS2_ASSIGN_OR_RETURN(
        chain::Receipt receipt,
        Execute(consumer.key(), *to, amount, kDefaultGas, chain::CallPayload{}));
    if (!receipt.success) {
      return Status::Internal("reuse fee transfer failed: " + receipt.error);
    }
    report.reuse_fee += amount;
    if (b.role == store::MemoBeneficiary::Role::kExecutor) {
      report.executor_rewards[b.account] += amount;
    } else {
      report.provider_rewards[b.account] += amount;
    }
  }
  return Status::Ok();
}

Result<RunReport> Marketplace::RunWorkload(ConsumerAgent& consumer,
                                           const WorkloadSpec& spec,
                                           const RunOptions& options) {
  PDS2_RETURN_IF_ERROR(spec.Validate());
  if (executors_.empty()) {
    return Status::FailedPrecondition("no executors registered");
  }

  // The whole lifecycle plus one span per Fig. 2 stage, all against the
  // marketplace's simulated clock (now_ advances one block interval per
  // produced block). Stage spans are closed explicitly at each phase
  // boundary; an early return ends whichever are still open.
  obs::ScopedSpan run_span("market.run_workload", &now_);
  PDS2_M_COUNT("market.workloads_started", 1);

  RunReport report;
  const uint64_t gas_before = chain_->TotalGasUsed();
  const uint64_t height_before = chain_->Height();
  auto audit = [&report](std::string line) {
    report.audit_log.push_back(std::move(line));
  };
  // Execute() with the acting role's node identity installed, so the
  // chain.submit_tx span (and through its link, the block that executes
  // the tx) is attributed to the consumer/provider/executor that acted —
  // Tick() re-labels the production itself with the proposing validator.
  auto execute_as = [&](const char* role, const std::string& actor,
                        const crypto::SigningKey& sender,
                        const chain::Address& to, uint64_t value,
                        uint64_t gas_limit, chain::CallPayload payload) {
    obs::NodeScope scope(role, actor);
    return Execute(sender, to, value, gas_limit, std::move(payload));
  };

  // --- Phase 1 (Fig. 2): consumer submits the workload specification. ----
  obs::ScopedSpan span_post("market.post", &now_);
  Writer deploy_args;
  deploy_args.PutBytes(spec.SpecHash());
  deploy_args.PutU64(spec.reward_pool);
  deploy_args.PutU64(spec.min_providers);
  deploy_args.PutU64(spec.max_providers);
  deploy_args.PutU64(spec.executor_reward_permille);
  const common::SimTime deadline =
      spec.deadline == 0 ? now_ + 3600 * common::kMicrosPerSecond
                         : spec.deadline;
  deploy_args.PutU64(deadline);
  deploy_args.PutString("gossip");
  deploy_args.PutU64(spec.executor_stake);
  PDS2_ASSIGN_OR_RETURN(
      chain::Receipt deploy_receipt,
      execute_as("consumer/", consumer.name(), consumer.key(),
                 chain::Address{}, spec.reward_pool, kDefaultGas,
                 chain::CallPayload{"workload", 0, "deploy",
                                    deploy_args.Take()}));
  if (!deploy_receipt.success) {
    return Status::Internal("workload deploy failed: " + deploy_receipt.error);
  }
  PDS2_ASSIGN_OR_RETURN(report.instance,
                        chain::InstanceIdFromReceipt(deploy_receipt));
  audit("deployed workload '" + spec.name + "' as instance " +
        std::to_string(report.instance) + ", escrow " +
        std::to_string(spec.reward_pool));

  // Abort helper used on every failure past this point. The contract only
  // lets a consumer reclaim a *running* workload's escrow past its
  // deadline (executors who did honest work must not be rug-pulled), so if
  // the immediate abort is refused the marketplace waits the deadline out
  // in simulated time and claims the refund then — every failed run ends
  // refunded, never with tokens stranded in the contract.
  auto abort_and_fail = [&](const Status& cause) -> Status {
    PDS2_M_COUNT("market.workloads_aborted", 1);
    auto aborted = execute_as(
        "consumer/", consumer.name(), consumer.key(), chain::Address{}, 0,
        kDefaultGas,
        chain::CallPayload{"workload", report.instance, "abort", {}});
    if (aborted.ok() && !aborted->success && now_ <= deadline) {
      now_ = deadline;  // the next block's timestamp lands past the deadline
      (void)execute_as(
          "consumer/", consumer.name(), consumer.key(), chain::Address{}, 0,
          kDefaultGas,
          chain::CallPayload{"workload", report.instance, "abort", {}});
      audit("abort deferred to the workload deadline; escrow reclaimed");
    }
    return cause;
  };

  span_post.End();

  // --- Phase 2: storage subsystems match data; providers decide. ---------
  obs::ScopedSpan span_match("market.match", &now_);
  struct Participation {
    ProviderAgent* provider;
    storage::DatasetSummary offer;
    ExecutorAgent* executor;
  };
  std::vector<Participation> participations;
  // Discovery-assisted matching: when providers have gossiped dataset
  // adverts, the ones whose advertised type tags cover the spec's
  // requirement are consulted first — the consumer asks the network who
  // claims to have the data before knocking on every door. An empty index
  // degrades to the plain registration-order walk.
  std::vector<ProviderAgent*> match_order;
  if (discovery_index_.size() > 0 && !spec.requirement.required_types.empty()) {
    std::set<std::string> advertised;
    for (const std::string& type : spec.requirement.required_types) {
      for (const store::Advert& ad : discovery_index_.FindByTag(type)) {
        advertised.insert(ad.provider);
      }
    }
    for (auto& provider : providers_) {
      if (advertised.count(provider->name()) > 0) {
        match_order.push_back(provider.get());
      }
    }
    for (auto& provider : providers_) {
      if (advertised.count(provider->name()) == 0) {
        match_order.push_back(provider.get());
      }
    }
    if (!advertised.empty()) {
      audit("discovery index ranked " + std::to_string(advertised.size()) +
            " advertised providers first");
    }
  } else {
    for (auto& provider : providers_) match_order.push_back(provider.get());
  }
  for (ProviderAgent* provider : match_order) {
    if (participations.size() >=
        static_cast<size_t>(spec.max_providers)) {
      break;
    }
    auto offer = [&] {
      obs::NodeScope scope("provider/", provider->name());
      obs::ScopedSpan span("market.provider.evaluate", &now_);
      return provider->EvaluateWorkload(config_.ontology, spec);
    }();
    if (!offer.has_value()) continue;
    participations.push_back({provider, std::move(*offer), nullptr});
  }
  audit(std::to_string(participations.size()) + " providers accepted");
  if (participations.size() < spec.min_providers) {
    return abort_and_fail(Status::FailedPrecondition(
        "only " + std::to_string(participations.size()) +
        " providers accepted (need " + std::to_string(spec.min_providers) +
        "); workload aborted and escrow refunded"));
  }

  span_match.End();

  // --- Substitution probe (store/memo.h): the matched inputs plus the
  // training fingerprint and the enclave code measurement fully determine
  // the result, so if the network already computed this exact function the
  // consumer fetches the attested artifact instead of paying for training.
  // The artifact is trusted only after it verifies against the *chain*:
  // the source workload's anchored artifact address and agreed result
  // hash. Any verification failure falls back to an honest recompute.
  {
    std::vector<Bytes> input_hashes;
    for (const Participation& p : participations) {
      input_hashes.push_back(p.offer.commitment);
    }
    report.memo_key = store::ComputeMemoKey(
        tee::MeasureKernel("pds2.training", tee::TrainingKernel::kVersion),
        std::move(input_hashes), spec.TrainingFingerprint());
  }
  const store::MemoEntry* memo_hit =
      config_.enable_substitution ? memo_index_.Lookup(report.memo_key)
                                  : nullptr;
  if (memo_hit != nullptr) {
    obs::ScopedSpan span_subst("market.substitute", &now_);
    PDS2_M_COUNT("market.substitution_probes_hit", 1);
    auto verified_fetch = [&]() -> Result<Bytes> {
      PDS2_ASSIGN_OR_RETURN(
          Bytes anchored,
          chain_->Query("workload", memo_hit->source_instance, "artifact",
                        {}));
      if (anchored != memo_hit->artifact_address) {
        return Status::Corruption("memo entry disagrees with chain anchor");
      }
      PDS2_ASSIGN_OR_RETURN(
          Bytes agreed_hash,
          chain_->Query("workload", memo_hit->source_instance, "result", {}));
      if (agreed_hash != memo_hit->result_hash) {
        return Status::Corruption("memo result hash disagrees with chain");
      }
      PDS2_ASSIGN_OR_RETURN(Bytes blob,
                            artifact_store_->Get(memo_hit->artifact_address));
      if (crypto::Sha256::Hash(blob) != memo_hit->result_hash) {
        return Status::Corruption("fetched artifact fails hash verification");
      }
      return blob;
    };
    auto blob = verified_fetch();
    if (blob.ok()) {
      Reader blob_reader(*blob);
      auto params = blob_reader.GetDoubleVector();
      if (params.ok()) {
        audit("memo key hit: artifact " +
              common::HexPrefix(memo_hit->artifact_address, 12) +
              " verified against the anchor of instance " +
              std::to_string(memo_hit->source_instance));
        // Release this run's escrow (still in Accepting, so the abort
        // refunds immediately), then settle the reduced reuse fee.
        (void)execute_as(
            "consumer/", consumer.name(), consumer.key(), chain::Address{}, 0,
            kDefaultGas,
            chain::CallPayload{"workload", report.instance, "abort", {}});
        PDS2_RETURN_IF_ERROR(
            SettleReuseFee(consumer, *memo_hit, spec, report));
        report.substituted = true;
        report.reused_from_instance = memo_hit->source_instance;
        report.result_hash = memo_hit->result_hash;
        report.result_address = memo_hit->artifact_address;
        report.model_params = *params;
        report.num_providers = participations.size();
        report.gas_used = chain_->TotalGasUsed() - gas_before;
        report.blocks_produced = chain_->Height() - height_before;
        audit("substituted memoized result; reuse fee " +
              std::to_string(report.reuse_fee) + " of pool " +
              std::to_string(spec.reward_pool) + " settled");
        PDS2_M_COUNT("market.workloads_substituted", 1);
        return report;
      }
      audit("substitution declined: " + params.status().ToString());
    } else {
      audit("substitution declined: " + blob.status().ToString());
      PDS2_M_COUNT("market.substitution_verify_failures", 1);
    }
  }

  // --- Phase 3: providers pick executors, verify attestation, send data.
  // Providers with their own hardware (Fig. 3) pin their preferred
  // executor; the rest are assigned round-robin across third parties. An
  // executor that crashes during setup or fails attestation is dropped and
  // its providers re-assigned to surviving executors — their sealed shards
  // simply go to a different attested enclave; a dead compute node costs
  // its own reward, not the workload.
  obs::ScopedSpan span_attest("market.attest_seal", &now_);
  // Keyed by index in executors_, so registration and audit order follow
  // the seed, not heap addresses.
  std::map<size_t, std::vector<SealedContribution>> per_executor;
  std::set<ExecutorAgent*> failed_executors;
  auto drop_executor = [&](size_t index, const Status& cause) {
    ExecutorAgent* executor = executors_[index].get();
    failed_executors.insert(executor);
    per_executor.erase(index);
    report.dropped_executors.push_back(executor->name());
    PDS2_M_COUNT("market.executors_dropped", 1);
    audit("dropped executor " + executor->name() + ": " + cause.ToString());
  };
  for (size_t i = 0; i < participations.size(); ++i) {
    Participation& p = participations[i];
    // Candidate order: the pinned executor first (if any), then round-robin
    // over the full set so a drop falls back to the next healthy one.
    std::vector<size_t> candidates;
    if (!p.provider->preferred_executor().empty()) {
      for (size_t k = 0; k < executors_.size(); ++k) {
        if (executors_[k]->name() == p.provider->preferred_executor()) {
          candidates.push_back(k);
          break;
        }
      }
    }
    for (size_t k = 0; k < executors_.size(); ++k) {
      const size_t candidate = (i + k) % executors_.size();
      if (candidates.empty() || candidates[0] != candidate) {
        candidates.push_back(candidate);
      }
    }
    p.executor = nullptr;
    for (size_t index : candidates) {
      ExecutorAgent* candidate = executors_[index].get();
      if (failed_executors.count(candidate) > 0) continue;
      if (per_executor.find(index) == per_executor.end()) {
        Status setup = [&] {
          obs::NodeScope scope("executor/", candidate->name());
          obs::ScopedSpan span("market.executor.setup", &now_);
          return candidate->Setup(spec);
        }();
        if (!setup.ok()) {
          drop_executor(index, setup);
          continue;
        }
        per_executor[index] = {};
      }
      const tee::AttestationQuote quote = candidate->QuoteFor(report.instance);
      auto contribution = [&] {
        obs::NodeScope scope("provider/", p.provider->name());
        obs::ScopedSpan span("market.provider.prepare", &now_);
        return p.provider->PrepareContribution(
            p.offer, spec, report.instance, quote,
            attestation_.RootPublicKey(), candidate->enclave().Measurement(),
            candidate->key().PublicKey());
      }();
      if (!contribution.ok()) {
        // The provider refused to release data: the quote did not verify.
        // The provider's trust decision is authoritative (§II-E) — the
        // executor is dropped, and this provider tries the next one.
        drop_executor(index, contribution.status());
        continue;
      }
      auto loaded = [&] {
        obs::NodeScope scope("executor/", candidate->name());
        obs::ScopedSpan span("market.executor.accept", &now_);
        return candidate->AcceptContribution(*contribution);
      }();
      if (!loaded.ok()) {
        // In-enclave validation (§IV-C) may reject the data; the provider
        // is excluded rather than the workload failing.
        audit("excluded " + p.provider->name() + ": " +
              loaded.status().ToString());
        break;
      }
      per_executor[index].push_back(std::move(*contribution));
      p.executor = candidate;
      break;
    }
  }
  participations.erase(
      std::remove_if(participations.begin(), participations.end(),
                     [&](const Participation& p) {
                       return p.executor == nullptr ||
                              failed_executors.count(p.executor) > 0;
                     }),
      participations.end());
  if (participations.size() < spec.min_providers) {
    return abort_and_fail(Status::FailedPrecondition(
        failed_executors.size() == executors_.size()
            ? "no executor passed attestation and setup"
            : "too few providers passed in-enclave validation"));
  }
  // Executors whose every assigned provider was excluded sit this one out.
  for (auto it = per_executor.begin(); it != per_executor.end();) {
    it = it->second.empty() ? per_executor.erase(it) : std::next(it);
  }
  report.num_providers = participations.size();
  report.num_executors = per_executor.size();
  audit("data sealed to " + std::to_string(per_executor.size()) +
        " attested executors");
  span_attest.End();

  // --- Phase 4: executors register participation (certs go on-chain). ----
  obs::ScopedSpan span_register("market.register_executors", &now_);
  for (auto& [index, contributions] : per_executor) {
    ExecutorAgent* executor = executors_[index].get();
    Writer args;
    args.PutBytes(executor->key().PublicKey());
    args.PutU32(static_cast<uint32_t>(contributions.size()));
    for (const auto& c : contributions) args.PutBytes(c.cert.Serialize());
    PDS2_ASSIGN_OR_RETURN(
        chain::Receipt receipt,
        execute_as("executor/", executor->name(), executor->key(),
                   chain::Address{}, spec.executor_stake, kDefaultGas,
                   chain::CallPayload{"workload", report.instance,
                                      "register_executor", args.Take()}));
    if (!receipt.success) {
      return abort_and_fail(
          Status::Internal("executor registration failed: " + receipt.error));
    }
  }
  audit(spec.executor_stake > 0
            ? "all executor registrations validated on-chain, " +
                  std::to_string(spec.executor_stake) + " tokens bonded each"
            : "all executor registrations validated on-chain");
  span_register.End();

  // --- Phase 5: governance starts the workload. ---------------------------
  obs::ScopedSpan span_start("market.start", &now_);
  PDS2_ASSIGN_OR_RETURN(
      chain::Receipt start_receipt,
      execute_as("consumer/", consumer.name(), consumer.key(),
                 chain::Address{}, 0, kDefaultGas,
                 chain::CallPayload{"workload", report.instance, "start", {}}));
  if (!start_receipt.success) {
    return abort_and_fail(Status::Internal(start_receipt.error));
  }
  audit("workload started");
  span_start.End();

  // Runtime attestation re-audit (paper §II-D): now that executors are
  // bonded, the consumer re-verifies each enclave's quote. A quote that was
  // valid at sealing time but fails now (rollback, compromise) is reported
  // on-chain — the report converts the executor's bond into a slash at
  // settlement, which is exactly what the bond exists for.
  for (auto& [index, contributions] : per_executor) {
    (void)contributions;
    ExecutorAgent* executor = executors_[index].get();
    const tee::AttestationQuote audit_quote =
        executor->AuditQuote(report.instance);
    const Status verified =
        tee::VerifyQuote(audit_quote, attestation_.RootPublicKey(),
                         executor->enclave().Measurement());
    if (verified.ok()) continue;
    Writer fault_args;
    fault_args.PutBytes(executor->address());
    auto reported = execute_as(
        "consumer/", consumer.name(), consumer.key(), chain::Address{}, 0,
        kDefaultGas,
        chain::CallPayload{"workload", report.instance, "report_attestation",
                           fault_args.Take()});
    if (reported.ok() && reported->success) {
      PDS2_M_COUNT("market.attestation_faults_reported", 1);
      audit("runtime attestation audit failed for " + executor->name() +
            "; fault reported on-chain");
    }
  }

  obs::ScopedSpan span_train("market.train_aggregate", &now_);
  // --- Phase 6: in-enclave training + decentralized aggregation. An
  // executor that crashes here is already registered on-chain: it is
  // dropped from the run (its reward share passes to the survivors at
  // finalize) and the remaining quorum carries the workload. Only losing
  // the whole quorum aborts.
  std::vector<ExecutorAgent*> active;
  for (auto& [index, _] : per_executor) {
    active.push_back(executors_[index].get());
  }
  std::sort(active.begin(), active.end(),
            [](const ExecutorAgent* a, const ExecutorAgent* b) {
              return a->name() < b->name();  // canonical order
            });
  // Registration-time roster, kept for the reward report (phase 8):
  // executors dropped from here on still appear there, with 0 tokens.
  const std::vector<ExecutorAgent*> registered = active;
  auto drop_lost = [&](ExecutorAgent* executor, const Status& cause) {
    report.dropped_executors.push_back(executor->name());
    PDS2_M_COUNT("market.executors_dropped", 1);
    audit("lost executor " + executor->name() + ": " + cause.ToString());
  };
  std::vector<std::pair<ml::Vec, uint64_t>> states;
  {
    std::vector<ExecutorAgent*> live;
    for (ExecutorAgent* executor : active) {
      auto trained = [&] {
        obs::NodeScope scope("executor/", executor->name());
        obs::ScopedSpan span("market.executor.train", &now_);
        return executor->Train();
      }();
      if (!trained.ok()) {
        drop_lost(executor, trained.status());
        continue;
      }
      auto params = executor->Params();
      auto samples = executor->SampleCount();
      if (!params.ok() || !samples.ok()) {
        drop_lost(executor,
                  params.ok() ? samples.status() : params.status());
        continue;
      }
      live.push_back(executor);
      states.emplace_back(std::move(*params), *samples);
    }
    active = std::move(live);
  }
  if (active.empty()) {
    return abort_and_fail(Status::FailedPrecondition(
        "every executor crashed before training completed"));
  }
  ml::Vec final_params;
  if (spec.aggregation == AggregationMethod::kTeeStar && active.size() > 1) {
    // Star topology: the first (canonical) live executor's enclave
    // aggregates; everyone else adopts the distributed result. If the
    // aggregator dies, the next live executor takes over the star center.
    while (!active.empty()) {
      auto merged = [&] {
        obs::NodeScope scope("executor/", active[0]->name());
        obs::ScopedSpan span("market.executor.merge", &now_);
        return active[0]->MergeAll(states);
      }();
      if (merged.ok()) {
        final_params = *merged;
        break;
      }
      drop_lost(active[0], merged.status());
      active.erase(active.begin());
    }
    if (active.empty()) {
      return abort_and_fail(Status::FailedPrecondition(
          "every executor crashed during aggregation"));
    }
    uint64_t total_samples = 0;
    for (const auto& [_, samples] : states) total_samples += samples;
    std::vector<ExecutorAgent*> adopted_ok = {active[0]};
    for (size_t i = 1; i < active.size(); ++i) {
      auto adopted = [&] {
        obs::NodeScope scope("executor/", active[i]->name());
        obs::ScopedSpan span("market.executor.merge", &now_);
        return active[i]->MergeAll({{final_params, total_samples}});
      }();
      if (!adopted.ok()) {
        drop_lost(active[i], adopted.status());
        continue;
      }
      adopted_ok.push_back(active[i]);
    }
    audit("aggregation: TEE-hosted star via " + active[0]->name());
    active = std::move(adopted_ok);
  } else {
    // Deterministic all-reduce: every executor merges the same state list.
    std::vector<ExecutorAgent*> merged_ok;
    for (ExecutorAgent* executor : active) {
      auto merged = [&] {
        obs::NodeScope scope("executor/", executor->name());
        obs::ScopedSpan span("market.executor.merge", &now_);
        return executor->MergeAll(states);
      }();
      if (!merged.ok()) {
        drop_lost(executor, merged.status());
        continue;
      }
      final_params = *merged;
      merged_ok.push_back(executor);
    }
    if (merged_ok.empty()) {
      return abort_and_fail(Status::FailedPrecondition(
          "every executor crashed during aggregation"));
    }
    active = std::move(merged_ok);
  }
  Writer params_writer;
  params_writer.PutDoubleVector(final_params);
  const Bytes result_blob = params_writer.Take();
  const Bytes result_hash = crypto::Sha256::Hash(result_blob);
  // Executors publish the result blob off-chain; only its hash goes on
  // the ledger (the chain "is not used for storing any ... code or data").
  // The content-addressed store chunks and dedups it, and the address is
  // anchored on-chain at finalize for substitution consumers.
  PDS2_ASSIGN_OR_RETURN(report.result_address,
                        artifact_store_->Put(result_blob));
  audit("decentralized aggregation complete; result " +
        common::HexPrefix(result_hash, 12));
  span_train.End();

  obs::ScopedSpan span_vote("market.vote", &now_);
  // --- Phase 7: every surviving executor puts its vote on record (the
  // contract accepts late votes after the quorum completes the workload,
  // because finalize pays only executors whose vote matches the result).
  // An executor that crashes before voting forfeits its reward share; only
  // an unattainable quorum aborts the run.
  for (ExecutorAgent* executor : active) {
    if (executor->injected_fault() == ExecutorFault::kVote) {
      drop_lost(executor,
                Status::Unavailable("crashed before submitting its result"));
      continue;
    }
    // Byzantine voters commit on-chain to a result they never computed (or
    // computed from a tampered model update). The commitment is what makes
    // the fraud provable: finalize compares every recorded vote against
    // the agreed result and slashes the minority cheaters' bonds.
    Bytes vote_hash = result_hash;
    if (executor->injected_fault() == ExecutorFault::kWrongVote ||
        executor->injected_fault() == ExecutorFault::kTamperedUpdate) {
      Bytes tampered = result_hash;
      common::Append(tampered,
                     ToBytes(executor->injected_fault() ==
                                     ExecutorFault::kWrongVote
                                 ? "wrong-vote"
                                 : "tampered-update"));
      vote_hash = crypto::Sha256::Hash(tampered);
      audit("executor " + executor->name() +
            " voted for a divergent result (injected fraud)");
    }
    Writer args;
    args.PutBytes(vote_hash);
    PDS2_ASSIGN_OR_RETURN(
        chain::Receipt receipt,
        execute_as("executor/", executor->name(), executor->key(),
                   chain::Address{}, 0, kDefaultGas,
                   chain::CallPayload{"workload", report.instance,
                                      "submit_result", args.Take()}));
    if (!receipt.success) {
      drop_lost(executor, Status::Internal("result submission failed: " +
                                           receipt.error));
    }
  }
  auto agreed = chain_->Query("workload", report.instance, "result", {});
  if (!agreed.ok() || *agreed != result_hash) {
    return abort_and_fail(Status::Internal(
        "no on-chain result agreement reached (quorum unattainable)"));
  }
  report.result_hash = result_hash;
  report.model_params = final_params;
  audit("executor quorum agreed on the result");
  span_vote.End();

  // --- Phase 8: consumer finalizes; contract pays out. ---------------------
  obs::ScopedSpan span_finalize("market.finalize", &now_);
  std::map<std::string, uint64_t> balances_before;
  for (const auto& p : participations) {
    balances_before[p.provider->name()] =
        chain_->GetBalance(p.provider->address());
  }
  for (ExecutorAgent* executor : registered) {
    balances_before[executor->name()] = chain_->GetBalance(executor->address());
  }

  Writer fin;
  fin.PutU32(static_cast<uint32_t>(participations.size()));
  std::vector<std::pair<std::string, uint64_t>> settled_weights;
  for (const auto& p : participations) {
    uint64_t weight = p.offer.num_records;
    if (spec.reward_policy == RewardPolicy::kShapley) {
      auto it = options.provider_weights.find(p.provider->name());
      if (it != options.provider_weights.end()) weight = it->second;
    }
    fin.PutBytes(p.provider->address());
    fin.PutU64(std::max<uint64_t>(1, weight));
    settled_weights.emplace_back(p.provider->name(),
                                 std::max<uint64_t>(1, weight));
  }
  const uint64_t burned_before = chain_->BurnedTotal();
  PDS2_ASSIGN_OR_RETURN(
      chain::Receipt fin_receipt,
      execute_as("consumer/", consumer.name(), consumer.key(),
                 chain::Address{}, 0, kDefaultGas,
                 chain::CallPayload{"workload", report.instance, "finalize",
                                    fin.Take()}));
  if (!fin_receipt.success) {
    return abort_and_fail(Status::Internal(fin_receipt.error));
  }
  report.tokens_burned = chain_->BurnedTotal() - burned_before;
  // Name the slashed executors from the settlement's audit events.
  for (const chain::Event& event : fin_receipt.events) {
    if (event.name != "ExecutorSlashed") continue;
    Reader ev(event.data);
    auto addr = ev.GetBytes();
    auto stake = ev.GetU64();
    if (!addr.ok() || !stake.ok()) continue;
    for (ExecutorAgent* executor : registered) {
      if (executor->address() == *addr) {
        report.slashed_executors[executor->name()] = *stake;
        PDS2_M_COUNT("market.executors_slashed", 1);
        audit("slashed executor " + executor->name() + ": bond of " +
              std::to_string(*stake) + " forfeited (half to consumer, half "
              "burned)");
      }
    }
  }
  for (const auto& p : participations) {
    report.provider_rewards[p.provider->name()] =
        chain_->GetBalance(p.provider->address()) -
        balances_before[p.provider->name()];
  }
  for (ExecutorAgent* executor : registered) {
    uint64_t delta = chain_->GetBalance(executor->address()) -
                     balances_before[executor->name()];
    // An honest executor's balance delta includes its refunded bond; the
    // report keeps "rewards" meaning rewards.
    if (report.slashed_executors.count(executor->name()) == 0) {
      delta -= std::min(delta, spec.executor_stake);
    }
    report.executor_rewards[executor->name()] = delta;
  }
  audit("escrow discharged; rewards distributed");
  span_finalize.End();

  // --- Publication: pin the artifact, anchor its address on-chain, and
  // memoize the computation so future identical workloads substitute
  // instead of retraining. Publication is best-effort — the workload is
  // already settled, so a failure here costs only future cache hits.
  {
    obs::ScopedSpan span_publish("market.publish_artifact", &now_);
    (void)artifact_store_->AddRoot(report.result_address);
    Writer anchor_args;
    anchor_args.PutBytes(report.result_address);
    anchor_args.PutBytes(result_hash);
    auto anchored = execute_as(
        "consumer/", consumer.name(), consumer.key(), chain::Address{}, 0,
        kDefaultGas,
        chain::CallPayload{"workload", report.instance, "anchor_artifact",
                           anchor_args.Take()});
    if (anchored.ok() && anchored->success) {
      audit("artifact " + common::HexPrefix(report.result_address, 12) +
            " anchored on-chain");
      store::MemoEntry entry;
      entry.memo_key = report.memo_key;
      entry.artifact_address = report.result_address;
      entry.result_hash = result_hash;
      entry.source_instance = report.instance;
      for (ExecutorAgent* executor : active) {
        entry.beneficiaries.push_back(
            {executor->name(), store::MemoBeneficiary::Role::kExecutor, 1});
      }
      for (const auto& [provider_name, weight] : settled_weights) {
        entry.beneficiaries.push_back(
            {provider_name, store::MemoBeneficiary::Role::kProvider, weight});
      }
      if (memo_index_.Insert(std::move(entry))) {
        PDS2_M_COUNT("market.memo_entries_published", 1);
      }
      store::Advert advert;
      advert.content_hash = report.result_address;
      advert.provider = consumer.name();
      advert.tags = {"model:" + spec.model_kind,
                     "memo:" + common::HexEncode(report.memo_key)};
      advert.size_bytes = result_blob.size();
      advert.price = spec.reward_pool * config_.reuse_fee_permille / 1000;
      discovery_index_.Upsert(advert);
    }
  }

  report.gas_used = chain_->TotalGasUsed() - gas_before;
  report.blocks_produced = chain_->Height() - height_before;
  PDS2_M_COUNT("market.workloads_completed", 1);
  // Settlement-stage counters (slashes, completion) land after the last
  // block's sample; one closing sample makes them visible to alert rules.
  if (health_ts_ != nullptr) {
    health_ts_->Sample(obs::WallNowNs(), /*has_sim=*/true, now_);
    if (health_monitor_ != nullptr) health_monitor_->EvaluateLatest();
  }
  return report;
}

}  // namespace pds2::market
