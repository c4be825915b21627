#ifndef PDS2_CHAIN_CONTRACTS_WORKLOAD_H_
#define PDS2_CHAIN_CONTRACTS_WORKLOAD_H_

#include <string>

#include "chain/contract.h"
#include "crypto/schnorr.h"

namespace pds2::chain::contracts {

/// Lifecycle phases of a workload contract (paper Fig. 2).
enum class WorkloadPhase : uint8_t {
  kAccepting = 0,  // providers/executors may register participation
  kRunning = 1,    // conditions met, executors instructed to proceed
  kCompleted = 2,  // result hash agreed by executor quorum
  kPaid = 3,       // escrow distributed
  kAborted = 4,    // cancelled; escrow refunded to the consumer
};

/// A provider's signed consent to contribute a committed dataset to one
/// workload through one executor. Executors submit these on-chain when
/// registering (paper §II-D: certificates "confirming that they have indeed
/// accepted to participate"). The signature binds provider, workload
/// instance, executor and data commitment together, so a certificate can
/// neither be forged nor replayed for another executor or workload.
struct ParticipationCert {
  uint64_t workload_instance = 0;
  common::Bytes provider_public_key;
  common::Bytes executor_public_key;
  common::Bytes data_commitment;  // Merkle root of the contributed records
  uint64_t num_records = 0;
  common::Bytes signature;        // provider's, domain "pds2.cert"

  /// Byte string covered by the provider signature.
  common::Bytes SigningBytes() const;
  /// Signs with the provider key (fills `signature`).
  void Sign(const crypto::SigningKey& provider_key);
  /// Full wire encoding including the signature.
  common::Bytes Serialize() const;
  static common::Result<ParticipationCert> Deserialize(
      const common::Bytes& data);

  /// The signing domain.
  static const char* Domain() { return "pds2.cert"; }
};

/// The per-workload governance contract: escrow, participation tracking,
/// executor quorum on the result, and reward distribution.
///
/// Deploy args (consumer): bytes spec_hash, u64 reward_pool (must equal the
/// escrowed tx value), u64 min_providers, u64 max_providers, u64
/// executor_reward_permille, u64 deadline (sim-time), string aggregation,
/// [u64 executor_stake] (optional accountability bond; older encodings
/// omit it, meaning 0).
///
/// Methods (phase and caller checks are the dispatch table's rows; only
/// register_executor takes value, every other method refuses it):
///   "register_executor" (bytes executor_pubkey, u32 n, n x cert) -> ()
///       in Accepting; sender must be the executor; each certificate is
///       verified on-chain; the tx value must escrow exactly `executor_stake`
///   "start"             () -> ()    anyone, in Accepting, once
///       min_providers reached
///   "submit_result"     (bytes result_hash) -> ()   registered executors,
///       in Running or (late votes) Completed; completes when a strict
///       majority agrees on one hash
///   "report_attestation" (bytes executor_addr) -> ()   consumer only, in
///       Running/Completed; flags an attestation mismatch, converting the
///       executor's bond into a slash (and forfeiting its reward share)
///   "finalize"          (u32 n, n x (bytes provider_addr, u64 weight)) -> ()
///       consumer only, in Completed; splits the executor pool evenly among
///       executors whose vote matches the agreed result and carries no
///       fault flag, pays providers by weight from the remainder, then
///       settles bonds: matching voters refunded, wrong-voters and
///       fault-reported executors slashed (half to the consumer, half
///       burned), non-voters refunded (silence is not provable fraud)
///   "abort"             () -> ()    consumer, in Accepting or past
///       deadline; refunds the pool and every executor bond
///   "anchor_artifact"   (bytes artifact_address, bytes result_hash) -> ()
///       consumer only, in Paid, once; records the content address of the
///       off-chain result artifact (must carry the agreed result hash), so
///       substitution consumers can verify fetched artifacts against chain
///       state
///   -- queries --
///   "phase"             () -> u8
///   "result"            () -> bytes result_hash
///   "artifact"          () -> bytes artifact_address
class WorkloadContract : public Contract {
 public:
  WorkloadContract();
  std::string Name() const override { return "workload"; }
  common::Status Deploy(CallContext& ctx, const common::Bytes& args) override;
};

}  // namespace pds2::chain::contracts

#endif  // PDS2_CHAIN_CONTRACTS_WORKLOAD_H_
