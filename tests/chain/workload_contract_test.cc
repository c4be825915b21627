#include <gtest/gtest.h>

#include <functional>

#include "chain/chain.h"
#include "chain/contracts/workload.h"
#include "common/hex.h"
#include "common/serial.h"
#include "crypto/sha256.h"

namespace pds2::chain {
namespace {

using common::Bytes;
using common::Reader;
using common::ToBytes;
using common::Writer;
using contracts::ParticipationCert;
using contracts::WorkloadPhase;
using crypto::SigningKey;

constexpr uint64_t kGas = 5'000'000;
constexpr uint64_t kPool = 1'000'000;

class WorkloadContractTest : public ::testing::Test {
 protected:
  WorkloadContractTest()
      : validator_(SigningKey::FromSeed(ToBytes("validator"))),
        consumer_(SigningKey::FromSeed(ToBytes("consumer"))),
        executor_(SigningKey::FromSeed(ToBytes("executor-0"))),
        executor2_(SigningKey::FromSeed(ToBytes("executor-1"))),
        chain_({validator_.PublicKey()}, ContractRegistry::CreateDefault()) {
    for (int i = 0; i < 4; ++i) {
      providers_.push_back(
          SigningKey::FromSeed(ToBytes("provider-" + std::to_string(i))));
    }
    (void)chain_.CreditGenesis(Addr(consumer_), 1'000'000'000);
    (void)chain_.CreditGenesis(Addr(executor_), 1'000'000'000);
    (void)chain_.CreditGenesis(Addr(executor2_), 1'000'000'000);
  }

  static Address Addr(const SigningKey& key) {
    return AddressFromPublicKey(key.PublicKey());
  }

  Receipt Run(const Transaction& tx) {
    EXPECT_TRUE(chain_.SubmitTransaction(tx).ok());
    auto block = chain_.ProduceBlock(validator_, ++now_);
    EXPECT_TRUE(block.ok()) << block.status().ToString();
    return *chain_.GetReceipt(tx.Id());
  }

  uint64_t Nonce(const SigningKey& key) { return chain_.GetNonce(Addr(key)); }

  // Deploys a workload with the given bounds; returns the instance id.
  uint64_t DeployWorkload(uint64_t min_providers = 2,
                          uint64_t max_providers = 10,
                          uint64_t exec_permille = 200,
                          uint64_t deadline = 1'000'000) {
    Writer args;
    args.PutBytes(crypto::Sha256::Hash("spec"));
    args.PutU64(kPool);
    args.PutU64(min_providers);
    args.PutU64(max_providers);
    args.PutU64(exec_permille);
    args.PutU64(deadline);
    args.PutString("gossip");
    Receipt receipt = Run(Transaction::Make(
        consumer_, Nonce(consumer_), Address{}, kPool, kGas,
        CallPayload{"workload", 0, "deploy", args.Take()}));
    EXPECT_TRUE(receipt.success) << receipt.error;
    return *InstanceIdFromReceipt(receipt);
  }

  ParticipationCert MakeCert(uint64_t instance, const SigningKey& provider,
                             const SigningKey& executor, uint64_t records) {
    ParticipationCert cert;
    cert.workload_instance = instance;
    cert.provider_public_key = provider.PublicKey();
    cert.executor_public_key = executor.PublicKey();
    cert.data_commitment = crypto::Sha256::Hash("commitment");
    cert.num_records = records;
    cert.Sign(provider);
    return cert;
  }

  Receipt RegisterExecutor(uint64_t instance, const SigningKey& executor,
                           const std::vector<ParticipationCert>& certs) {
    Writer args;
    args.PutBytes(executor.PublicKey());
    args.PutU32(static_cast<uint32_t>(certs.size()));
    for (const auto& cert : certs) args.PutBytes(cert.Serialize());
    return Run(Transaction::Make(
        executor, Nonce(executor), Address{}, 0, kGas,
        CallPayload{"workload", instance, "register_executor", args.Take()}));
  }

  WorkloadPhase Phase(uint64_t instance) {
    auto result = chain_.Query("workload", instance, "phase", {});
    EXPECT_TRUE(result.ok());
    return static_cast<WorkloadPhase>((*result)[0]);
  }

  Receipt CallSimple(const SigningKey& sender, uint64_t instance,
                     const std::string& method, Bytes args = {}) {
    return Run(Transaction::Make(
        sender, Nonce(sender), Address{}, 0, kGas,
        CallPayload{"workload", instance, method, std::move(args)}));
  }

  SigningKey validator_, consumer_, executor_, executor2_;
  std::vector<SigningKey> providers_;
  Blockchain chain_;
  common::SimTime now_ = 0;
};

TEST_F(WorkloadContractTest, DeployEscrowsRewardPool) {
  const uint64_t before = chain_.GetBalance(Addr(consumer_));
  const uint64_t inst = DeployWorkload();
  EXPECT_EQ(Phase(inst), WorkloadPhase::kAccepting);
  EXPECT_EQ(chain_.GetBalance(ContractAddress("workload", inst)), kPool);
  EXPECT_LT(chain_.GetBalance(Addr(consumer_)), before - kPool + 1);
}

TEST_F(WorkloadContractTest, DeployRejectsMismatchedEscrow) {
  Writer args;
  args.PutBytes(crypto::Sha256::Hash("spec"));
  args.PutU64(kPool);
  args.PutU64(1);
  args.PutU64(10);
  args.PutU64(0);
  args.PutU64(100);
  args.PutString("gossip");
  Receipt receipt = Run(Transaction::Make(
      consumer_, Nonce(consumer_), Address{}, kPool / 2, kGas,
      CallPayload{"workload", 0, "deploy", args.Take()}));
  EXPECT_FALSE(receipt.success);
  // Escrowed half must have been returned by the rollback.
  EXPECT_EQ(chain_.GetBalance(ContractAddress("workload", 1)), 0u);
}

TEST_F(WorkloadContractTest, ExecutorRegistrationVerifiesCertificates) {
  const uint64_t inst = DeployWorkload();
  auto cert0 = MakeCert(inst, providers_[0], executor_, 100);
  auto cert1 = MakeCert(inst, providers_[1], executor_, 50);
  Receipt receipt = RegisterExecutor(inst, executor_, {cert0, cert1});
  EXPECT_TRUE(receipt.success) << receipt.error;

  // The provider record's slot, proven against the head block.
  Bytes key = ToBytes("prov/");
  common::Append(key, Addr(providers_[0]));
  auto proof = chain_.QuerySlot("workload", inst, key);
  ASSERT_TRUE(proof.ok());
  auto record = WorldState::VerifySlot(chain_.blocks().back().header.state_root,
                                       ContractSpace("workload", inst), key,
                                       *proof);
  ASSERT_TRUE(record.ok() && record->has_value());
  Reader r(**record);
  EXPECT_EQ(r.GetU64().value(), 100u);
}

TEST_F(WorkloadContractTest, ForgedCertificateRejected) {
  const uint64_t inst = DeployWorkload();
  auto cert = MakeCert(inst, providers_[0], executor_, 100);
  cert.num_records = 100000;  // tamper after signing
  Receipt receipt = RegisterExecutor(inst, executor_, {cert});
  EXPECT_FALSE(receipt.success);
  EXPECT_NE(receipt.error.find("Unauthenticated"), std::string::npos);
}

TEST_F(WorkloadContractTest, CertificateForOtherWorkloadRejected) {
  const uint64_t inst_a = DeployWorkload();
  const uint64_t inst_b = DeployWorkload();
  auto cert = MakeCert(inst_a, providers_[0], executor_, 10);
  Writer args;
  args.PutBytes(executor_.PublicKey());
  args.PutU32(1);
  args.PutBytes(cert.Serialize());
  Receipt receipt = Run(Transaction::Make(
      executor_, Nonce(executor_), Address{}, 0, kGas,
      CallPayload{"workload", inst_b, "register_executor", args.Take()}));
  EXPECT_FALSE(receipt.success);
}

TEST_F(WorkloadContractTest, CertificateForOtherExecutorRejected) {
  const uint64_t inst = DeployWorkload();
  auto cert = MakeCert(inst, providers_[0], executor2_, 10);
  Receipt receipt = RegisterExecutor(inst, executor_, {cert});
  EXPECT_FALSE(receipt.success);
}

TEST_F(WorkloadContractTest, DuplicateProviderRejected) {
  const uint64_t inst = DeployWorkload();
  auto cert = MakeCert(inst, providers_[0], executor_, 10);
  ASSERT_TRUE(RegisterExecutor(inst, executor_, {cert}).success);
  auto cert2 = MakeCert(inst, providers_[0], executor2_, 20);
  Receipt receipt = RegisterExecutor(inst, executor2_, {cert2});
  EXPECT_FALSE(receipt.success);
}

TEST_F(WorkloadContractTest, ProviderLimitEnforced) {
  const uint64_t inst = DeployWorkload(/*min=*/1, /*max=*/2);
  std::vector<ParticipationCert> certs;
  for (int i = 0; i < 3; ++i) {
    certs.push_back(MakeCert(inst, providers_[i], executor_, 10));
  }
  Receipt receipt = RegisterExecutor(inst, executor_, certs);
  EXPECT_FALSE(receipt.success);  // third provider exceeds max
}

TEST_F(WorkloadContractTest, StartRequiresMinProviders) {
  const uint64_t inst = DeployWorkload(/*min=*/2);
  auto cert = MakeCert(inst, providers_[0], executor_, 10);
  ASSERT_TRUE(RegisterExecutor(inst, executor_, {cert}).success);
  EXPECT_FALSE(CallSimple(consumer_, inst, "start").success);

  auto cert2 = MakeCert(inst, providers_[1], executor2_, 10);
  ASSERT_TRUE(RegisterExecutor(inst, executor2_, {cert2}).success);
  EXPECT_TRUE(CallSimple(consumer_, inst, "start").success);
  EXPECT_EQ(Phase(inst), WorkloadPhase::kRunning);
}

TEST_F(WorkloadContractTest, ResultQuorumAndFullSettlement) {
  const uint64_t inst = DeployWorkload(/*min=*/2, /*max=*/10,
                                       /*exec_permille=*/200);
  auto cert0 = MakeCert(inst, providers_[0], executor_, 100);
  auto cert1 = MakeCert(inst, providers_[1], executor2_, 300);
  ASSERT_TRUE(RegisterExecutor(inst, executor_, {cert0}).success);
  ASSERT_TRUE(RegisterExecutor(inst, executor2_, {cert1}).success);
  ASSERT_TRUE(CallSimple(consumer_, inst, "start").success);

  // Non-executor cannot submit.
  Writer bogus;
  bogus.PutBytes(crypto::Sha256::Hash("fake"));
  EXPECT_FALSE(
      CallSimple(consumer_, inst, "submit_result", bogus.Take()).success);

  const Bytes result_hash = crypto::Sha256::Hash("model-params");
  Writer r1;
  r1.PutBytes(result_hash);
  ASSERT_TRUE(CallSimple(executor_, inst, "submit_result", r1.Take()).success);
  EXPECT_EQ(Phase(inst), WorkloadPhase::kRunning);  // 1 of 2 is no majority

  Writer r2;
  r2.PutBytes(result_hash);
  ASSERT_TRUE(CallSimple(executor2_, inst, "submit_result", r2.Take()).success);
  EXPECT_EQ(Phase(inst), WorkloadPhase::kCompleted);

  auto agreed = chain_.Query("workload", inst, "result", {});
  ASSERT_TRUE(agreed.ok());
  EXPECT_EQ(*agreed, result_hash);

  // Finalize with Shapley-style weights 1:3.
  const uint64_t p0_before = chain_.GetBalance(Addr(providers_[0]));
  const uint64_t p1_before = chain_.GetBalance(Addr(providers_[1]));
  const uint64_t e0_before = chain_.GetBalance(Addr(executor_));
  const uint64_t e1_before = chain_.GetBalance(Addr(executor2_));
  const uint64_t c_before = chain_.GetBalance(Addr(consumer_));

  Writer fin;
  fin.PutU32(2);
  fin.PutBytes(Addr(providers_[0]));
  fin.PutU64(1);
  fin.PutBytes(Addr(providers_[1]));
  fin.PutU64(3);
  Receipt fr = CallSimple(consumer_, inst, "finalize", fin.Take());
  ASSERT_TRUE(fr.success) << fr.error;
  EXPECT_EQ(Phase(inst), WorkloadPhase::kPaid);

  const uint64_t exec_pool = kPool * 200 / 1000;  // 200000
  const uint64_t prov_pool = kPool - exec_pool;   // 800000
  EXPECT_EQ(chain_.GetBalance(Addr(executor_)) - e0_before, exec_pool / 2);
  EXPECT_EQ(chain_.GetBalance(Addr(executor2_)) - e1_before, exec_pool / 2);
  EXPECT_EQ(chain_.GetBalance(Addr(providers_[0])), p0_before + prov_pool / 4);
  EXPECT_EQ(chain_.GetBalance(Addr(providers_[1])),
            p1_before + prov_pool * 3 / 4);
  // Escrow fully discharged: no tokens stuck in the contract.
  EXPECT_EQ(chain_.GetBalance(ContractAddress("workload", inst)), 0u);
  // Consumer only paid gas beyond the pool (dust was zero here).
  EXPECT_GE(chain_.GetBalance(Addr(consumer_)) + fr.gas_used, c_before);
}

TEST_F(WorkloadContractTest, ConflictingResultsBlockCompletion) {
  const uint64_t inst = DeployWorkload(/*min=*/1);
  auto cert0 = MakeCert(inst, providers_[0], executor_, 10);
  auto cert1 = MakeCert(inst, providers_[1], executor2_, 10);
  ASSERT_TRUE(RegisterExecutor(inst, executor_, {cert0}).success);
  ASSERT_TRUE(RegisterExecutor(inst, executor2_, {cert1}).success);
  ASSERT_TRUE(CallSimple(consumer_, inst, "start").success);

  Writer r1;
  r1.PutBytes(crypto::Sha256::Hash("honest result"));
  ASSERT_TRUE(CallSimple(executor_, inst, "submit_result", r1.Take()).success);
  Writer r2;
  r2.PutBytes(crypto::Sha256::Hash("tampered result"));
  ASSERT_TRUE(CallSimple(executor2_, inst, "submit_result", r2.Take()).success);
  // 1-1 split: no strict majority, workload stays running (audit catches
  // the divergence rather than paying out).
  EXPECT_EQ(Phase(inst), WorkloadPhase::kRunning);
}

TEST_F(WorkloadContractTest, FinalizeRequiresWeightsForEveryProvider) {
  const uint64_t inst = DeployWorkload(/*min=*/1);
  auto cert0 = MakeCert(inst, providers_[0], executor_, 10);
  auto cert1 = MakeCert(inst, providers_[1], executor_, 10);
  ASSERT_TRUE(RegisterExecutor(inst, executor_, {cert0, cert1}).success);
  ASSERT_TRUE(CallSimple(consumer_, inst, "start").success);
  Writer r1;
  r1.PutBytes(crypto::Sha256::Hash("result"));
  ASSERT_TRUE(CallSimple(executor_, inst, "submit_result", r1.Take()).success);

  Writer missing;
  missing.PutU32(1);
  missing.PutBytes(Addr(providers_[0]));
  missing.PutU64(1);
  EXPECT_FALSE(CallSimple(consumer_, inst, "finalize", missing.Take()).success);

  Writer duplicate;
  duplicate.PutU32(2);
  duplicate.PutBytes(Addr(providers_[0]));
  duplicate.PutU64(1);
  duplicate.PutBytes(Addr(providers_[0]));
  duplicate.PutU64(1);
  EXPECT_FALSE(
      CallSimple(consumer_, inst, "finalize", duplicate.Take()).success);
}

TEST_F(WorkloadContractTest, OnlyConsumerFinalizes) {
  const uint64_t inst = DeployWorkload(/*min=*/1);
  auto cert = MakeCert(inst, providers_[0], executor_, 10);
  ASSERT_TRUE(RegisterExecutor(inst, executor_, {cert}).success);
  ASSERT_TRUE(CallSimple(consumer_, inst, "start").success);
  Writer r1;
  r1.PutBytes(crypto::Sha256::Hash("result"));
  ASSERT_TRUE(CallSimple(executor_, inst, "submit_result", r1.Take()).success);

  Writer fin;
  fin.PutU32(1);
  fin.PutBytes(Addr(providers_[0]));
  fin.PutU64(1);
  EXPECT_FALSE(CallSimple(executor_, inst, "finalize", fin.Take()).success);
}

TEST_F(WorkloadContractTest, AbortInAcceptingRefundsConsumer) {
  const uint64_t inst = DeployWorkload();
  const uint64_t before = chain_.GetBalance(Addr(consumer_));
  Receipt receipt = CallSimple(consumer_, inst, "abort");
  ASSERT_TRUE(receipt.success) << receipt.error;
  EXPECT_EQ(Phase(inst), WorkloadPhase::kAborted);
  EXPECT_EQ(chain_.GetBalance(Addr(consumer_)),
            before + kPool - receipt.gas_used);
  EXPECT_EQ(chain_.GetBalance(ContractAddress("workload", inst)), 0u);
}

TEST_F(WorkloadContractTest, RunningWorkloadAbortOnlyPastDeadline) {
  const uint64_t inst = DeployWorkload(/*min=*/1, /*max=*/10,
                                       /*exec_permille=*/0,
                                       /*deadline=*/1000);
  auto cert = MakeCert(inst, providers_[0], executor_, 10);
  ASSERT_TRUE(RegisterExecutor(inst, executor_, {cert}).success);
  ASSERT_TRUE(CallSimple(consumer_, inst, "start").success);
  // Block timestamps are still < deadline.
  EXPECT_FALSE(CallSimple(consumer_, inst, "abort").success);
  now_ = 2000;  // jump past the deadline
  EXPECT_TRUE(CallSimple(consumer_, inst, "abort").success);
  EXPECT_EQ(Phase(inst), WorkloadPhase::kAborted);
}

TEST_F(WorkloadContractTest, StrangerCannotAbort) {
  const uint64_t inst = DeployWorkload();
  EXPECT_FALSE(CallSimple(executor_, inst, "abort").success);
}

// Only register_executor takes value. Anything else sent with value is
// refused and the rollback returns it, so no method can strand tokens in an
// instance's account: not `start` on a workload, not `mint` on an erc721
// call at an instance id deployed as a workload, not a token deploy.
TEST_F(WorkloadContractTest, ValueToNonPayableMethodIsRefused) {
  const uint64_t inst = DeployWorkload(/*min=*/1);
  ASSERT_TRUE(RegisterExecutor(inst, executor_,
                               {MakeCert(inst, providers_[0], executor_, 10)})
                  .success);
  auto refused = [&](const std::string& contract, uint64_t instance,
                     const std::string& method, Bytes args, uint64_t value) {
    const uint64_t before = chain_.GetBalance(Addr(consumer_));
    Receipt receipt = Run(Transaction::Make(
        consumer_, Nonce(consumer_), Address{}, value, kGas,
        CallPayload{contract, instance, method, std::move(args)}));
    EXPECT_EQ(receipt.error, "InvalidArgument: call takes no value")
        << contract << " " << method;
    EXPECT_EQ(chain_.GetBalance(Addr(consumer_)), before - receipt.gas_used);
  };
  refused("workload", inst, "start", {}, 7);
  EXPECT_EQ(Phase(inst), WorkloadPhase::kAccepting);
  Writer mint;
  mint.PutBytes(ToBytes("token"));
  mint.PutBytes(ToBytes("metadata"));
  refused("erc721", inst, "mint", mint.Take(), 3);
  EXPECT_EQ(chain_.GetBalance(ContractAddress("erc721", inst)), 0u);
  Writer erc20;
  erc20.PutString("tok");
  erc20.PutU64(100);
  refused("erc20", 0, "deploy", erc20.Take(), 5);
  Writer erc721;
  erc721.PutString("registry");
  refused("erc721", 0, "deploy", erc721.Take(), 5);
  refused("actors", 0, "deploy", {}, 5);
  EXPECT_EQ(chain_.GetBalance(ContractAddress("workload", inst)), kPool);
}

TEST_F(WorkloadContractTest, RegistrationEmitsParticipants) {
  const uint64_t inst = DeployWorkload(/*min=*/1);
  auto cert0 = MakeCert(inst, providers_[0], executor_, 10);
  auto cert1 = MakeCert(inst, providers_[1], executor_, 20);
  Receipt receipt = RegisterExecutor(inst, executor_, {cert0, cert1});
  ASSERT_TRUE(receipt.success) << receipt.error;
  std::vector<std::pair<std::string, Bytes>> events;
  for (const Event& event : receipt.events) {
    events.emplace_back(event.name, event.data);
  }
  const std::vector<std::pair<std::string, Bytes>> expected = {
      {"ProviderJoined", Addr(providers_[0])},
      {"ProviderJoined", Addr(providers_[1])},
      {"ExecutorRegistered", Addr(executor_)}};
  EXPECT_EQ(events, expected);
}

// ---------------------------------------------------------------------------
// Receipt matrix: every method of every built-in contract, sent by each
// actor from each lifecycle phase on a fresh instance, with fixed
// arguments. The digest covers each receipt's status, error string, gas,
// output and events, so any change to what a call returns, costs or emits
// fails it.

using MatrixArgs = std::function<Bytes(const SigningKey& sender,
                                       uint64_t instance)>;

// One matrix row: a method and its arguments, which may depend on the
// sending actor and the instance.
struct MatrixCall {
  std::string method;
  MatrixArgs args;
  uint64_t value = 0;
};

MatrixArgs Fixed(Bytes args) {
  return [args](const SigningKey&, uint64_t) { return args; };
}

Bytes Args(std::initializer_list<Bytes> fields) {
  Writer w;
  for (const Bytes& field : fields) w.PutBytes(field);
  return w.Take();
}

Bytes ArgsU64(std::initializer_list<Bytes> fields, uint64_t amount) {
  Writer w;
  w.PutRaw(Args(fields));
  w.PutU64(amount);
  return w.Take();
}

void AppendReceipt(Writer& w, const Receipt& receipt) {
  w.PutBool(receipt.success);
  w.PutString(receipt.error);
  w.PutU64(receipt.gas_used);
  w.PutBytes(receipt.output);
  w.PutU32(static_cast<uint32_t>(receipt.events.size()));
  for (const Event& event : receipt.events) {
    w.PutString(event.contract);
    w.PutU64(event.instance);
    w.PutString(event.name);
    w.PutBytes(event.data);
  }
}

TEST_F(WorkloadContractTest, ReceiptMatrixDigest) {
  constexpr uint64_t kStake = 1'000;
  const SigningKey& stranger = executor2_;
  const Bytes agreed = crypto::Sha256::Hash("agreed");
  Writer weights;
  weights.PutU32(1);
  weights.PutBytes(Addr(providers_[0]));
  weights.PutU64(1);
  const Bytes finalize_args = weights.Take();

  auto call = [&](const SigningKey& sender, const std::string& contract,
                  uint64_t instance, const std::string& method, Bytes args,
                  uint64_t value = 0) {
    return Run(Transaction::Make(
        sender, Nonce(sender), Address{}, value, kGas,
        CallPayload{contract, instance, method, std::move(args)}));
  };
  auto deploy = [&](const std::string& contract, Bytes args,
                    uint64_t value = 0) {
    return *InstanceIdFromReceipt(
        call(consumer_, contract, 0, "deploy", std::move(args), value));
  };
  auto register_args = [&](const SigningKey& executor, uint64_t inst,
                           const SigningKey& provider) {
    Writer w;
    w.PutBytes(executor.PublicKey());
    w.PutU32(1);
    w.PutBytes(MakeCert(inst, provider, executor, 10).Serialize());
    return w.Take();
  };
  // Runs `calls` as each of `actors`, each cell on a fresh instance from
  // `fresh`, and returns the digest of the receipts in order.
  auto run_matrix = [&](const std::string& contract,
                        const std::vector<const SigningKey*>& actors,
                        const std::function<uint64_t()>& fresh,
                        const std::vector<MatrixCall>& calls) {
    Writer w;
    for (const MatrixCall& row : calls) {
      for (const SigningKey* actor : actors) {
        const uint64_t inst = fresh();
        AppendReceipt(w, call(*actor, contract, inst, row.method,
                              row.args(*actor, inst), row.value));
      }
    }
    return common::HexEncode(crypto::Sha256::Hash(w.data()));
  };

  // Workload: a fresh instance with a non-zero executor stake, brought to
  // `phase` with executor_ registered (and, from Completed on, voted for
  // `agreed`); the consumer, executor_ and a stranger each call.
  auto workload_in = [&](WorkloadPhase phase) {
    Writer spec;
    spec.PutBytes(crypto::Sha256::Hash("spec"));
    spec.PutU64(kPool);
    spec.PutU64(1);
    spec.PutU64(10);
    spec.PutU64(200);
    spec.PutU64(1'000'000);
    spec.PutString("gossip");
    spec.PutU64(kStake);
    const uint64_t inst = deploy("workload", spec.Take(), kPool);
    auto step = [&](const SigningKey& sender, const std::string& method,
                    Bytes args, uint64_t value = 0) {
      EXPECT_TRUE(
          call(sender, "workload", inst, method, std::move(args), value)
              .success)
          << method;
    };
    step(executor_, "register_executor",
         register_args(executor_, inst, providers_[0]), kStake);
    if (phase == WorkloadPhase::kAborted) step(consumer_, "abort", {});
    if (phase == WorkloadPhase::kAccepting ||
        phase == WorkloadPhase::kAborted) {
      return inst;
    }
    step(consumer_, "start", {});
    if (phase == WorkloadPhase::kRunning) return inst;
    step(executor_, "submit_result", Args({agreed}));
    if (phase == WorkloadPhase::kCompleted) return inst;
    step(consumer_, "finalize", finalize_args);
    return inst;
  };
  const std::vector<MatrixCall> workload_calls = {
      {"register_executor",
       [&](const SigningKey& sender, uint64_t inst) {
         return register_args(sender, inst, providers_[1]);
       },
       kStake},
      {"start", Fixed({})},
      {"submit_result", Fixed(Args({agreed}))},
      {"report_attestation", Fixed(Args({Addr(executor_)}))},
      {"finalize", Fixed(finalize_args)},
      {"abort", Fixed({})},
      {"anchor_artifact",
       Fixed(Args({crypto::Sha256::Hash("artifact"), agreed}))},
      {"phase", Fixed({})},
      {"result", Fixed({})},
      {"artifact", Fixed({})},
      {"no_such_method", Fixed({})},
  };
  std::string workload;
  for (int p = 0; p <= static_cast<int>(WorkloadPhase::kAborted); ++p) {
    workload += run_matrix(
        "workload", {&consumer_, &executor_, &stranger},
        [&] { return workload_in(static_cast<WorkloadPhase>(p)); },
        workload_calls);
  }
  // Two settlements no single call reaches: a fault-flagged executor
  // slashed at finalize, and a running workload aborted past its deadline
  // with the bond refunded.
  workload += run_matrix(
      "workload", {&consumer_},
      [&] {
        const uint64_t inst = workload_in(WorkloadPhase::kCompleted);
        EXPECT_TRUE(call(consumer_, "workload", inst, "report_attestation",
                         Args({Addr(executor_)}))
                        .success);
        return inst;
      },
      {{"finalize", Fixed(finalize_args)}});
  workload += run_matrix(
      "workload", {&consumer_},
      [&] {
        const uint64_t inst = workload_in(WorkloadPhase::kRunning);
        now_ += 1'000'000;
        return inst;
      },
      {{"abort", Fixed({})}});

  // Token contracts: consumer_ deploys and owns; stranger is the other
  // caller.
  const std::vector<const SigningKey*> owners = {&consumer_, &stranger};
  const std::string erc20 = run_matrix(
      "erc20", owners,
      [&] {
        Writer w;
        w.PutString("tok");
        w.PutU64(1'000);
        const uint64_t inst = deploy("erc20", w.Take());
        EXPECT_TRUE(call(consumer_, "erc20", inst, "approve",
                         ArgsU64({Addr(stranger)}, 5))
                        .success);
        return inst;
      },
      {
          {"transfer", Fixed(ArgsU64({Addr(executor_)}, 10))},
          {"approve", Fixed(ArgsU64({Addr(executor_)}, 4))},
          {"transfer_from",
           Fixed(ArgsU64({Addr(consumer_), Addr(executor_)}, 3))},
          {"mint", Fixed(ArgsU64({Addr(executor_)}, 7))},
          {"mint", Fixed(ArgsU64({Bytes(3, 1)}, 7))},
          {"balance_of", Fixed(Args({Addr(consumer_)}))},
          {"allowance", Fixed(Args({Addr(consumer_), Addr(stranger)}))},
          {"total_supply", Fixed({})},
          {"token_name", Fixed({})},
          {"no_such_method", Fixed({})},
      });

  const std::string erc721 = run_matrix(
      "erc721", owners,
      [&] {
        Writer w;
        w.PutString("registry");
        const uint64_t inst = deploy("erc721", w.Take());
        EXPECT_TRUE(call(consumer_, "erc721", inst, "mint",
                         Args({ToBytes("t1"), ToBytes("m1")}))
                        .success);
        return inst;
      },
      {
          {"mint", Fixed(Args({ToBytes("t2"), ToBytes("m2")}))},
          {"mint", Fixed(Args({ToBytes("t1"), ToBytes("m2")}))},
          {"transfer", Fixed(Args({ToBytes("t1"), Addr(executor_)}))},
          {"transfer", Fixed(Args({ToBytes("t1"), Bytes(3, 1)}))},
          {"owner_of", Fixed(Args({ToBytes("t1")}))},
          {"metadata_of", Fixed(Args({ToBytes("t1")}))},
          {"count", Fixed({})},
          {"no_such_method", Fixed({})},
      });

  auto actor_args = [](const Bytes& public_key, uint64_t roles) {
    Writer w;
    w.PutBytes(public_key);
    w.PutU64(roles);
    w.PutString("meta");
    return w.Take();
  };
  const std::string actors = run_matrix(
      "actors", owners,
      [&] {
        const uint64_t inst = deploy("actors", {});
        EXPECT_TRUE(call(consumer_, "actors", inst, "register",
                         actor_args(consumer_.PublicKey(), 3))
                        .success);
        return inst;
      },
      {
          {"register",
           [&](const SigningKey& sender, uint64_t) {
             return actor_args(sender.PublicKey(), 1);
           }},
          {"register", Fixed(actor_args(executor_.PublicKey(), 1))},
          {"register",
           [&](const SigningKey& sender, uint64_t) {
             return actor_args(sender.PublicKey(), 0);
           }},
          {"get", Fixed(Args({Addr(consumer_)}))},
          {"count", Fixed({})},
          {"no_such_method", Fixed({})},
      });

  EXPECT_EQ(common::HexEncode(crypto::Sha256::Hash(workload)),
            "e8ebc8c35a0dca0190cbead5d9518dafd1c8d60deced6bd440fb0dee7156e4ee");
  EXPECT_EQ(erc20,
            "7e25e3b8c6536f1328418edfcf080f599e1c17041fdd3deb1e46b1ac6a15afb3");
  EXPECT_EQ(erc721,
            "9e72eeb7328abea9f48ca1a238c2660f0e5a8fd0f790eb64842b3c32a5a8289e");
  EXPECT_EQ(actors,
            "1fd70472a92fae17500f20cf5929c530fd9cdb62f89eefe7138c6ef6626896d4");
}

}  // namespace
}  // namespace pds2::chain
