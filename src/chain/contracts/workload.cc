#include "chain/contracts/workload.h"

#include <vector>

#include "common/serial.h"

namespace pds2::chain::contracts {

using common::Bytes;
using common::Reader;
using common::Result;
using common::Status;
using common::ToBytes;
using common::Writer;

// ---------------------------------------------------------------------------
// ParticipationCert

Bytes ParticipationCert::SigningBytes() const {
  Writer w;
  w.PutU64(workload_instance);
  w.PutBytes(provider_public_key);
  w.PutBytes(executor_public_key);
  w.PutBytes(data_commitment);
  w.PutU64(num_records);
  return w.Take();
}

void ParticipationCert::Sign(const crypto::SigningKey& provider_key) {
  signature = provider_key.SignWithDomain(Domain(), SigningBytes());
}

Bytes ParticipationCert::Serialize() const {
  Writer w;
  w.PutRaw(SigningBytes());
  w.PutBytes(signature);
  return w.Take();
}

Result<ParticipationCert> ParticipationCert::Deserialize(const Bytes& data) {
  Reader r(data);
  ParticipationCert cert;
  PDS2_ASSIGN_OR_RETURN(cert.workload_instance, r.GetU64());
  PDS2_ASSIGN_OR_RETURN(cert.provider_public_key, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(cert.executor_public_key, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(cert.data_commitment, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(cert.num_records, r.GetU64());
  PDS2_ASSIGN_OR_RETURN(cert.signature, r.GetBytes());
  if (!r.AtEnd()) return Status::Corruption("trailing bytes in certificate");
  return cert;
}

// ---------------------------------------------------------------------------
// Storage layout helpers

namespace {

Bytes Key(const char* prefix, const Bytes& suffix) {
  Bytes key = ToBytes(prefix);
  common::Append(key, suffix);
  return key;
}

Bytes ProviderKey(const Address& addr) { return Key("prov/", addr); }
Bytes ExecutorKey(const Address& addr) { return Key("exec/", addr); }
Bytes ResultVoteKey(const Address& executor) { return Key("vote/", executor); }
Bytes StakeKey(const Address& executor) { return Key("stake/", executor); }
Bytes FaultKey(const Address& executor) { return Key("fault/", executor); }
Bytes ResultTallyKey(const Bytes& result_hash) {
  return Key("tally/", result_hash);
}

Status WritePhase(CallContext& ctx, WorkloadPhase phase) {
  PDS2_RETURN_IF_ERROR(ctx.Write(ToBytes("phase"),
                                 Bytes{static_cast<uint8_t>(phase)}));
  return ctx.Emit("PhaseChanged", Bytes{static_cast<uint8_t>(phase)});
}

// ---------------------------------------------------------------------------
// Transitions. The dispatcher has checked each row's phase and caller.

Result<Bytes> RegisterExecutor(CallContext& ctx, Reader& r) {
  PDS2_ASSIGN_OR_RETURN(Bytes executor_pubkey, r.GetBytes());
  if (AddressFromPublicKey(executor_pubkey) != ctx.sender()) {
    return Status::PermissionDenied("executor must register with its own key");
  }
  PDS2_ASSIGN_OR_RETURN(uint32_t n_certs, r.GetU32());
  if (n_certs == 0) {
    return Status::InvalidArgument("executor brings no certificates");
  }
  PDS2_ASSIGN_OR_RETURN(auto existing, ctx.Read(ExecutorKey(ctx.sender())));
  if (existing.has_value()) {
    return Status::AlreadyExists("executor already registered");
  }
  // Accountability bond: the registration must escrow exactly the stake
  // the workload demands. It is held by the contract until settlement —
  // refunded to honest executors, slashed for provable fraud.
  PDS2_ASSIGN_OR_RETURN(uint64_t required_stake,
                        ctx.ReadU64(ToBytes("exec_stake")));
  if (ctx.value() != required_stake) {
    return Status::InvalidArgument(
        "registration must escrow exactly the executor stake");
  }
  if (required_stake > 0) {
    PDS2_RETURN_IF_ERROR(ctx.WriteU64(StakeKey(ctx.sender()), required_stake));
  }

  PDS2_ASSIGN_OR_RETURN(uint64_t n_providers,
                        ctx.ReadU64(ToBytes("n_providers")));
  PDS2_ASSIGN_OR_RETURN(uint64_t max_providers,
                        ctx.ReadU64(ToBytes("max_prov")));
  uint64_t new_records = 0;
  for (uint32_t i = 0; i < n_certs; ++i) {
    PDS2_ASSIGN_OR_RETURN(Bytes cert_bytes, r.GetBytes());
    PDS2_ASSIGN_OR_RETURN(ParticipationCert cert,
                          ParticipationCert::Deserialize(cert_bytes));
    if (cert.workload_instance != ctx.instance()) {
      return Status::PermissionDenied(
          "certificate issued for another workload");
    }
    if (cert.executor_public_key != executor_pubkey) {
      return Status::PermissionDenied(
          "certificate issued for another executor");
    }
    if (cert.num_records == 0) {
      return Status::InvalidArgument("certificate covers no records");
    }
    PDS2_RETURN_IF_ERROR(ctx.VerifySig(cert.provider_public_key,
                                       ParticipationCert::Domain(),
                                       cert.SigningBytes(), cert.signature));

    const Address provider = AddressFromPublicKey(cert.provider_public_key);
    PDS2_ASSIGN_OR_RETURN(auto prior, ctx.Read(ProviderKey(provider)));
    if (prior.has_value()) {
      return Status::AlreadyExists(
          "provider already participates in this workload");
    }
    if (n_providers >= max_providers) {
      return Status::FailedPrecondition("provider limit reached");
    }
    Writer record;
    record.PutU64(cert.num_records);
    record.PutBytes(cert.data_commitment);
    record.PutBytes(ctx.sender());  // serving executor
    PDS2_RETURN_IF_ERROR(ctx.Write(ProviderKey(provider), record.Take()));
    ++n_providers;
    new_records += cert.num_records;
    PDS2_RETURN_IF_ERROR(ctx.Emit("ProviderJoined", provider));
  }

  PDS2_RETURN_IF_ERROR(ctx.WriteU64(ToBytes("n_providers"), n_providers));
  PDS2_ASSIGN_OR_RETURN(uint64_t n_exec, ctx.ReadU64(ToBytes("n_executors")));
  PDS2_RETURN_IF_ERROR(ctx.WriteU64(ToBytes("n_executors"), n_exec + 1));
  PDS2_RETURN_IF_ERROR(ctx.WriteU64(ExecutorKey(ctx.sender()), new_records));
  PDS2_RETURN_IF_ERROR(ctx.Emit("ExecutorRegistered", ctx.sender()));
  return Bytes{};
}

Result<Bytes> Start(CallContext& ctx, Reader&) {
  PDS2_ASSIGN_OR_RETURN(uint64_t n_providers,
                        ctx.ReadU64(ToBytes("n_providers")));
  PDS2_ASSIGN_OR_RETURN(uint64_t min_providers,
                        ctx.ReadU64(ToBytes("min_prov")));
  if (n_providers < min_providers) {
    return Status::FailedPrecondition(
        "not enough providers to start the workload");
  }
  PDS2_RETURN_IF_ERROR(WritePhase(ctx, WorkloadPhase::kRunning));
  return Bytes{};
}

// Votes are accepted while running AND after completion (until payout): an
// executor that did the work but whose vote arrived after the quorum formed
// must still be able to put its vote on record, because finalize pays only
// executors whose recorded vote matches the agreed result.
Result<Bytes> SubmitResult(CallContext& ctx, Reader& r) {
  PDS2_ASSIGN_OR_RETURN(Bytes result_hash, r.GetBytes());
  if (result_hash.empty()) {
    return Status::InvalidArgument("empty result hash");
  }
  PDS2_ASSIGN_OR_RETURN(auto exec_record, ctx.Read(ExecutorKey(ctx.sender())));
  if (!exec_record.has_value()) {
    return Status::PermissionDenied("sender is not a registered executor");
  }
  PDS2_ASSIGN_OR_RETURN(auto prior_vote, ctx.Read(ResultVoteKey(ctx.sender())));
  if (prior_vote.has_value()) {
    return Status::AlreadyExists("executor already submitted a result");
  }
  PDS2_RETURN_IF_ERROR(ctx.Write(ResultVoteKey(ctx.sender()), result_hash));

  PDS2_ASSIGN_OR_RETURN(uint64_t tally,
                        ctx.ReadU64(ResultTallyKey(result_hash)));
  ++tally;
  PDS2_RETURN_IF_ERROR(ctx.WriteU64(ResultTallyKey(result_hash), tally));
  PDS2_ASSIGN_OR_RETURN(uint64_t n_votes, ctx.ReadU64(ToBytes("n_votes")));
  PDS2_RETURN_IF_ERROR(ctx.WriteU64(ToBytes("n_votes"), n_votes + 1));

  PDS2_ASSIGN_OR_RETURN(uint64_t n_exec, ctx.ReadU64(ToBytes("n_executors")));
  // Strict majority of registered executors agreeing completes the
  // workload; a lone executor needs only its own vote. Late votes (phase
  // already kCompleted) are recorded above but cannot re-agree.
  if (ctx.phase() == static_cast<uint8_t>(WorkloadPhase::kRunning) &&
      tally * 2 > n_exec) {
    PDS2_RETURN_IF_ERROR(ctx.Write(ToBytes("result"), result_hash));
    PDS2_RETURN_IF_ERROR(WritePhase(ctx, WorkloadPhase::kCompleted));
    PDS2_RETURN_IF_ERROR(ctx.Emit("ResultAgreed", result_hash));
  }
  return Bytes{};
}

// The consumer puts an attestation mismatch on record: the executor's
// runtime quote no longer matches the measurement it registered with (paper
// §II-D audit). The flag converts the executor's bond into a slash at
// settlement; reporting is idempotent.
Result<Bytes> ReportAttestation(CallContext& ctx, Reader& r) {
  PDS2_ASSIGN_OR_RETURN(Bytes executor, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(auto exec_record, ctx.Read(ExecutorKey(executor)));
  if (!exec_record.has_value()) {
    return Status::NotFound("reported executor is not registered");
  }
  PDS2_RETURN_IF_ERROR(ctx.Write(FaultKey(executor), Bytes{1}));
  PDS2_RETURN_IF_ERROR(ctx.Emit("AttestationFault", executor));
  return Bytes{};
}

// Executor pool, split evenly among the executors whose recorded vote
// matches the agreed result (paper §II-B: infrastructure actors receive a
// share of the sellers' rewards). An executor that crashed before voting —
// or voted for a different result — earns nothing; its share goes to the
// survivors, so faults never strand tokens in escrow. Returns the amount
// paid.
Result<uint64_t> PayExecutors(CallContext& ctx, uint64_t n_exec,
                              uint64_t executor_pool) {
  if (n_exec == 0 || executor_pool == 0) return uint64_t{0};
  PDS2_ASSIGN_OR_RETURN(auto agreed, ctx.Read(ToBytes("result")));
  PDS2_ASSIGN_OR_RETURN(auto executors, ctx.Scan(ToBytes("exec/")));
  std::vector<Address> survivors;
  for (const auto& [key, _] : executors) {
    const Address executor(key.begin() + 5, key.end());
    PDS2_ASSIGN_OR_RETURN(auto vote, ctx.Read(ResultVoteKey(executor)));
    // A consumer-reported attestation fault forfeits the reward too, not
    // just the bond — a compromised enclave earned nothing.
    PDS2_ASSIGN_OR_RETURN(auto fault, ctx.Read(FaultKey(executor)));
    if (vote.has_value() && agreed.has_value() && *vote == *agreed &&
        !fault.has_value()) {
      survivors.push_back(executor);
    }
  }
  uint64_t paid = 0;
  if (!survivors.empty()) {
    const uint64_t per_executor = executor_pool / survivors.size();
    for (const Address& executor : survivors) {
      PDS2_RETURN_IF_ERROR(ctx.PayOut(executor, per_executor));
      paid += per_executor;
    }
  }
  return paid;
}

// Provider pool, split by the submitted weights. Returns the amount paid;
// the integer split's dust stays for the consumer's refund.
Result<uint64_t> PayProviders(
    CallContext& ctx, const std::vector<std::pair<Address, uint64_t>>& weights,
    uint64_t weight_total, uint64_t provider_pool) {
  uint64_t paid = 0;
  for (const auto& [addr, weight] : weights) {
    const uint64_t share =
        static_cast<uint64_t>(static_cast<unsigned __int128>(provider_pool) *
                              weight / weight_total);
    if (share > 0) {
      PDS2_RETURN_IF_ERROR(ctx.PayOut(addr, share));
      paid += share;
    }
    Writer ev;
    ev.PutBytes(addr);
    ev.PutU64(share);
    PDS2_RETURN_IF_ERROR(ctx.Emit("ProviderPaid", ev.Take()));
  }
  return paid;
}

// Executor bond settlement. Honest executors — recorded vote matches the
// agreed result and no attestation fault on record — get their bond back.
// Provable fraud (a vote committed to a losing result, or a
// consumer-reported attestation mismatch) forfeits it: half compensates
// the consumer, the remainder is burned out of circulation (total supply =
// balances + stakes + burned stays exactly conserved; see
// StateView::BurnedTotal). Silence is NOT slashed: a crashed executor is
// indistinguishable from a partitioned honest one, so a missing vote only
// forfeits the reward share, never the bond.
Status SettleBonds(CallContext& ctx) {
  PDS2_ASSIGN_OR_RETURN(auto agreed, ctx.Read(ToBytes("result")));
  PDS2_ASSIGN_OR_RETURN(auto stakes, ctx.Scan(ToBytes("stake/")));
  for (const auto& [key, value] : stakes) {
    const Address executor(key.begin() + 6, key.end());
    PDS2_ASSIGN_OR_RETURN(uint64_t stake, Reader(value).GetU64());
    PDS2_ASSIGN_OR_RETURN(auto fault, ctx.Read(FaultKey(executor)));
    PDS2_ASSIGN_OR_RETURN(auto vote, ctx.Read(ResultVoteKey(executor)));
    const bool wrong_vote =
        vote.has_value() && agreed.has_value() && *vote != *agreed;
    if (fault.has_value() || wrong_vote) {
      const uint64_t to_consumer = stake / 2;
      if (to_consumer > 0) {
        PDS2_RETURN_IF_ERROR(ctx.PayOut(ctx.sender(), to_consumer));
      }
      if (stake - to_consumer > 0) {
        PDS2_RETURN_IF_ERROR(ctx.Burn(stake - to_consumer));
      }
      Writer ev;
      ev.PutBytes(executor);
      ev.PutU64(stake);
      PDS2_RETURN_IF_ERROR(ctx.Emit("ExecutorSlashed", ev.Take()));
    } else if (stake > 0) {
      PDS2_RETURN_IF_ERROR(ctx.PayOut(executor, stake));
    }
    PDS2_RETURN_IF_ERROR(ctx.Delete(key));
  }
  return Status::Ok();
}

Result<Bytes> Finalize(CallContext& ctx, Reader& r) {
  PDS2_ASSIGN_OR_RETURN(uint32_t n_weights, r.GetU32());
  PDS2_ASSIGN_OR_RETURN(uint64_t n_providers,
                        ctx.ReadU64(ToBytes("n_providers")));
  if (n_weights != n_providers) {
    return Status::InvalidArgument(
        "weights must cover every registered provider exactly once");
  }
  std::vector<std::pair<Address, uint64_t>> weights;
  weights.reserve(n_weights);
  uint64_t weight_total = 0;
  for (uint32_t i = 0; i < n_weights; ++i) {
    PDS2_ASSIGN_OR_RETURN(Bytes addr, r.GetBytes());
    PDS2_ASSIGN_OR_RETURN(uint64_t weight, r.GetU64());
    PDS2_ASSIGN_OR_RETURN(auto record, ctx.Read(ProviderKey(addr)));
    if (!record.has_value()) {
      return Status::InvalidArgument("weight for unknown provider");
    }
    for (const auto& [seen, _] : weights) {
      if (seen == addr) {
        return Status::InvalidArgument("duplicate provider weight");
      }
    }
    weights.emplace_back(addr, weight);
    weight_total += weight;
  }
  if (weight_total == 0) {
    return Status::InvalidArgument("all weights are zero");
  }

  PDS2_ASSIGN_OR_RETURN(uint64_t pool, ctx.ReadU64(ToBytes("pool")));
  PDS2_ASSIGN_OR_RETURN(uint64_t exec_permille,
                        ctx.ReadU64(ToBytes("exec_permille")));
  PDS2_ASSIGN_OR_RETURN(uint64_t n_exec, ctx.ReadU64(ToBytes("n_executors")));
  const uint64_t executor_pool = pool * exec_permille / 1000;
  PDS2_ASSIGN_OR_RETURN(uint64_t executors_paid,
                        PayExecutors(ctx, n_exec, executor_pool));
  PDS2_ASSIGN_OR_RETURN(
      uint64_t providers_paid,
      PayProviders(ctx, weights, weight_total, pool - executor_pool));
  // Rounding dust back to the consumer, so the escrow always fully
  // discharges (audited by tests: no tokens stuck in the contract).
  const uint64_t paid = executors_paid + providers_paid;
  if (paid < pool) {
    PDS2_RETURN_IF_ERROR(ctx.PayOut(ctx.sender(), pool - paid));
  }
  PDS2_RETURN_IF_ERROR(SettleBonds(ctx));
  PDS2_RETURN_IF_ERROR(WritePhase(ctx, WorkloadPhase::kPaid));
  return Bytes{};
}

// Accepting workloads abort at once, others only past their deadline. The
// pool goes back to the consumer and, with no judgement made, every
// escrowed executor bond goes home.
Result<Bytes> Abort(CallContext& ctx, Reader&) {
  PDS2_ASSIGN_OR_RETURN(uint64_t deadline, ctx.ReadU64(ToBytes("deadline")));
  if (ctx.phase() != static_cast<uint8_t>(WorkloadPhase::kAccepting) &&
      ctx.block().timestamp < deadline) {
    return Status::FailedPrecondition(
        "running workloads can only be aborted past their deadline");
  }
  PDS2_ASSIGN_OR_RETURN(uint64_t pool, ctx.ReadU64(ToBytes("pool")));
  PDS2_RETURN_IF_ERROR(ctx.PayOut(ctx.sender(), pool));
  PDS2_ASSIGN_OR_RETURN(auto stakes, ctx.Scan(ToBytes("stake/")));
  for (const auto& [key, value] : stakes) {
    const Address executor(key.begin() + 6, key.end());
    PDS2_ASSIGN_OR_RETURN(uint64_t stake, Reader(value).GetU64());
    if (stake > 0) PDS2_RETURN_IF_ERROR(ctx.PayOut(executor, stake));
    PDS2_RETURN_IF_ERROR(ctx.Delete(key));
  }
  PDS2_RETURN_IF_ERROR(WritePhase(ctx, WorkloadPhase::kAborted));
  return Bytes{};
}

// Anchors the content address of the off-chain result artifact (the
// content-addressed store's manifest hash) next to the agreed result hash,
// so substitution consumers can verify a fetched artifact against chain
// state without trusting the provider.
Result<Bytes> AnchorArtifact(CallContext& ctx, Reader& r) {
  PDS2_ASSIGN_OR_RETURN(auto existing, ctx.Read(ToBytes("artifact")));
  if (existing.has_value()) {
    return Status::FailedPrecondition("artifact already anchored");
  }
  PDS2_ASSIGN_OR_RETURN(Bytes artifact_address, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(Bytes result_hash, r.GetBytes());
  if (artifact_address.empty()) {
    return Status::InvalidArgument("empty artifact address");
  }
  PDS2_ASSIGN_OR_RETURN(auto agreed, ctx.Read(ToBytes("result")));
  if (!agreed.has_value() || *agreed != result_hash) {
    return Status::InvalidArgument(
        "anchored result hash must match the agreed result");
  }
  PDS2_RETURN_IF_ERROR(ctx.Write(ToBytes("artifact"), artifact_address));
  PDS2_RETURN_IF_ERROR(ctx.Emit("ArtifactAnchored", artifact_address));
  return Bytes{};
}

// ---- Read-only queries ----

// Its row admits every phase, so the dispatcher has read the slot.
Result<Bytes> PhaseQuery(CallContext& ctx, Reader&) {
  return Bytes{ctx.phase()};
}

Result<Bytes> ResultQuery(CallContext& ctx, Reader&) {
  PDS2_ASSIGN_OR_RETURN(auto result, ctx.Read(ToBytes("result")));
  if (!result.has_value()) return Status::NotFound("no agreed result yet");
  return *result;
}

Result<Bytes> ArtifactQuery(CallContext& ctx, Reader&) {
  PDS2_ASSIGN_OR_RETURN(auto artifact, ctx.Read(ToBytes("artifact")));
  if (!artifact.has_value()) return Status::NotFound("no anchored artifact");
  return *artifact;
}

constexpr uint8_t In(std::initializer_list<WorkloadPhase> phases) {
  uint8_t mask = 0;
  for (WorkloadPhase p : phases) mask |= 1u << static_cast<unsigned>(p);
  return mask;
}

using P = WorkloadPhase;
constexpr const char* kNotAccepting = "workload is not accepting";
constexpr const char* kNotRunning = "workload is not running";

// name, handler, payable, phases, phase refusal, consumer-only refusal
constexpr Contract::Method kMethods[] = {
    {"register_executor", RegisterExecutor, true, In({P::kAccepting}),
     kNotAccepting},
    {"start", Start, false, In({P::kAccepting}), kNotAccepting},
    {"submit_result", SubmitResult, false, In({P::kRunning, P::kCompleted}),
     kNotRunning},
    {"report_attestation", ReportAttestation, false,
     In({P::kRunning, P::kCompleted}), kNotRunning,
     "only the consumer may report attestation faults"},
    {"finalize", Finalize, false, In({P::kCompleted}),
     "workload has no agreed result yet", "only the consumer may finalize"},
    {"abort", Abort, false, In({P::kAccepting, P::kRunning, P::kCompleted}),
     "workload already settled", "only the consumer may abort"},
    {"anchor_artifact", AnchorArtifact, false, In({P::kPaid}),
     "artifacts anchor only after settlement", "only the consumer may anchor"},
    {"phase", PhaseQuery, false,
     In({P::kAccepting, P::kRunning, P::kCompleted, P::kPaid, P::kAborted}),
     "workload phase unknown"},
    {"result", ResultQuery},
    {"artifact", ArtifactQuery},
};

}  // namespace

// ---------------------------------------------------------------------------
// WorkloadContract

WorkloadContract::WorkloadContract() : Contract(kMethods) {}

Status WorkloadContract::Deploy(CallContext& ctx, const Bytes& args) {
  Reader r(args);
  PDS2_ASSIGN_OR_RETURN(Bytes spec_hash, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(uint64_t reward_pool, r.GetU64());
  PDS2_ASSIGN_OR_RETURN(uint64_t min_providers, r.GetU64());
  PDS2_ASSIGN_OR_RETURN(uint64_t max_providers, r.GetU64());
  PDS2_ASSIGN_OR_RETURN(uint64_t executor_permille, r.GetU64());
  PDS2_ASSIGN_OR_RETURN(uint64_t deadline, r.GetU64());
  PDS2_ASSIGN_OR_RETURN(std::string aggregation, r.GetString());
  // Optional trailing accountability bond (older encodings omit it): every
  // registering executor must escrow this much, refunded at settlement
  // unless it provably misbehaved.
  uint64_t executor_stake = 0;
  if (!r.AtEnd()) {
    PDS2_ASSIGN_OR_RETURN(executor_stake, r.GetU64());
  }

  if (reward_pool == 0) {
    return Status::InvalidArgument("reward pool must be positive");
  }
  if (ctx.value() != reward_pool) {
    return Status::InvalidArgument(
        "escrowed value must equal the declared reward pool");
  }
  if (min_providers == 0 || max_providers < min_providers) {
    return Status::InvalidArgument("invalid provider bounds");
  }
  if (executor_permille > 1000) {
    return Status::InvalidArgument("executor share above 100%");
  }

  PDS2_RETURN_IF_ERROR(ctx.Write(ToBytes("spec"), args));
  PDS2_RETURN_IF_ERROR(ctx.Write(ToBytes("spec_hash"), spec_hash));
  PDS2_RETURN_IF_ERROR(ctx.Write(ToBytes("consumer"), ctx.sender()));
  PDS2_RETURN_IF_ERROR(ctx.WriteU64(ToBytes("pool"), reward_pool));
  PDS2_RETURN_IF_ERROR(ctx.WriteU64(ToBytes("min_prov"), min_providers));
  PDS2_RETURN_IF_ERROR(ctx.WriteU64(ToBytes("max_prov"), max_providers));
  PDS2_RETURN_IF_ERROR(
      ctx.WriteU64(ToBytes("exec_permille"), executor_permille));
  PDS2_RETURN_IF_ERROR(ctx.WriteU64(ToBytes("deadline"), deadline));
  PDS2_RETURN_IF_ERROR(ctx.Write(ToBytes("aggregation"), ToBytes(aggregation)));
  PDS2_RETURN_IF_ERROR(ctx.WriteU64(ToBytes("exec_stake"), executor_stake));
  PDS2_RETURN_IF_ERROR(ctx.WriteU64(ToBytes("n_providers"), 0));
  PDS2_RETURN_IF_ERROR(ctx.WriteU64(ToBytes("n_executors"), 0));
  PDS2_RETURN_IF_ERROR(ctx.WriteU64(ToBytes("n_votes"), 0));
  return WritePhase(ctx, WorkloadPhase::kAccepting);
}

}  // namespace pds2::chain::contracts
