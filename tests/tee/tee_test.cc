#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "common/serial.h"
#include "ml/dataset.h"
#include "storage/provider_store.h"
#include "tee/attestation.h"
#include "tee/enclave.h"
#include "tee/oblivious.h"
#include "tee/training_kernel.h"

namespace pds2::tee {
namespace {

using common::Bytes;
using common::Reader;
using common::Rng;
using common::ToBytes;
using common::Writer;

Enclave MakeEnclave(AttestationService& service, const std::string& device,
                    uint64_t seed) {
  return Enclave(std::make_unique<TrainingKernel>(),
                 service.ProvisionDevice(device),
                 ToBytes("fused-secret-" + device), seed);
}

Bytes ConfigureArgs(const std::string& model, uint64_t features,
                    uint64_t epochs = 10) {
  Writer w;
  w.PutString(model);
  w.PutU64(features);
  w.PutU64(8);  // hidden
  w.PutDouble(0.2);
  w.PutU64(epochs);
  w.PutU64(16);
  w.PutDouble(0.0);
  w.PutBool(false);
  w.PutDouble(1.0);
  w.PutDouble(0.0);
  w.PutBool(false);  // validation off
  w.PutDouble(-1e30);
  w.PutDouble(1e30);
  w.PutDouble(0.0);
  return w.Take();
}

TEST(AttestationTest, QuoteVerifiesEndToEnd) {
  AttestationService service(1);
  Enclave enclave = MakeEnclave(service, "exec-0", 1);
  AttestationQuote quote = enclave.GenerateQuote(ToBytes("workload-7"));
  EXPECT_TRUE(VerifyQuote(quote, service.RootPublicKey(),
                          enclave.Measurement())
                  .ok());
}

TEST(AttestationTest, WrongRootRejected) {
  AttestationService real(3), fake(4);
  Enclave enclave = MakeEnclave(real, "exec-0", 1);
  AttestationQuote quote = enclave.GenerateQuote({});
  EXPECT_FALSE(
      VerifyQuote(quote, fake.RootPublicKey(), enclave.Measurement()).ok());
}

TEST(AttestationTest, WrongMeasurementRejected) {
  AttestationService service(5);
  Enclave enclave = MakeEnclave(service, "exec-0", 1);
  AttestationQuote quote = enclave.GenerateQuote({});
  EXPECT_FALSE(
      VerifyQuote(quote, service.RootPublicKey(), Bytes(32, 0xab)).ok());
}

TEST(AttestationTest, TamperedQuoteRejected) {
  AttestationService service(6);
  Enclave enclave = MakeEnclave(service, "exec-0", 1);
  AttestationQuote quote = enclave.GenerateQuote(ToBytes("data"));
  quote.report_data.push_back(0xff);
  EXPECT_FALSE(
      VerifyQuote(quote, service.RootPublicKey(), enclave.Measurement()).ok());
}

TEST(AttestationTest, SelfProvisionedDeviceRejected) {
  // A device that signs its own certificate is not trusted.
  AttestationService service(7);
  DeviceProvision rogue{
      "rogue", crypto::SigningKey::FromSeed(ToBytes("rogue-key")), {}};
  rogue.certificate = rogue.attestation_key.SignWithDomain(
      "pds2.tee.cert", DeviceProvision::CertifiedBytes(
                           "rogue", rogue.attestation_key.PublicKey()));
  Enclave enclave(std::make_unique<TrainingKernel>(), std::move(rogue),
                  ToBytes("secret"), 1);
  AttestationQuote quote = enclave.GenerateQuote({});
  EXPECT_FALSE(
      VerifyQuote(quote, service.RootPublicKey(), enclave.Measurement()).ok());
}

TEST(EnclaveTest, MeasurementDependsOnKernelIdentity) {
  EXPECT_EQ(MeasureKernel("pds2.training", 1), MeasureKernel("pds2.training", 1));
  EXPECT_NE(MeasureKernel("pds2.training", 1), MeasureKernel("pds2.training", 2));
  EXPECT_NE(MeasureKernel("pds2.training", 1), MeasureKernel("other", 1));
}

TEST(EnclaveTest, SealUnsealRoundTrip) {
  AttestationService service(8);
  Enclave enclave = MakeEnclave(service, "exec-0", 1);
  Bytes data = ToBytes("intermediate model state");
  Bytes sealed = enclave.Seal(data);
  auto opened = enclave.Unseal(sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, data);
}

TEST(EnclaveTest, SealedDataBoundToDevice) {
  AttestationService service(9);
  Enclave enclave_a = MakeEnclave(service, "device-a", 1);
  Enclave enclave_b = MakeEnclave(service, "device-b", 1);
  Bytes sealed = enclave_a.Seal(ToBytes("secret"));
  EXPECT_FALSE(enclave_b.Unseal(sealed).ok());
}

TEST(EnclaveTest, SealedDataBoundToMeasurement) {
  // Same device, different kernel version -> different measurement -> the
  // sealing policy refuses.
  class OtherKernel : public TrainingKernel {
   public:
    uint64_t Version() const override { return TrainingKernel::kVersion + 1; }
  };
  AttestationService service(10);
  DeviceProvision p1 = service.ProvisionDevice("dev");
  DeviceProvision p2 = service.ProvisionDevice("dev");
  Enclave enclave_v1(std::make_unique<TrainingKernel>(), std::move(p1),
                     ToBytes("fused"), 1);
  Enclave enclave_v2(std::make_unique<OtherKernel>(), std::move(p2),
                     ToBytes("fused"), 1);
  Bytes sealed = enclave_v1.Seal(ToBytes("model"));
  EXPECT_FALSE(enclave_v2.Unseal(sealed).ok());
}

// End-to-end: provider seals data to the attested enclave; training happens
// inside; host only sees parameters.
TEST(TrainingKernelTest, SealedDataFlowsThroughEnclave) {
  Rng rng(20);
  AttestationService service(12);
  Enclave enclave = MakeEnclave(service, "exec-0", 33);

  // Provider verifies attestation before encrypting anything.
  AttestationQuote quote = enclave.GenerateQuote({});
  ASSERT_TRUE(
      VerifyQuote(quote, service.RootPublicKey(), enclave.Measurement()).ok());

  // Provider data, ECDH against the enclave transport key. One generated
  // distribution, split so train and test share the class geometry.
  ml::Dataset all = ml::MakeTwoGaussians(600, 4, 4.0, rng);
  auto [data, test] = ml::TrainTestSplit(all, 0.33, rng);
  storage::ProviderStorage store(ToBytes("provider-master"));
  storage::SemanticMetadata meta;
  meta.types = {"iot/sensor/temperature"};
  ASSERT_TRUE(store.AddDataset("d", data, meta).ok());

  crypto::SigningKey provider_key =
      crypto::SigningKey::FromSeed(ToBytes("provider"));
  auto transport_key = provider_key.SharedSecret(enclave.TransportPublicKey());
  ASSERT_TRUE(transport_key.ok());
  auto sealed = store.SealForTransfer("d", *transport_key);
  ASSERT_TRUE(sealed.ok());

  ASSERT_TRUE(enclave.Ecall("configure", ConfigureArgs("logistic", 4)).ok());

  Writer load;
  load.PutBytes(*sealed);
  load.PutBytes(provider_key.PublicKey());
  load.PutBytes(storage::DatasetCommitment(data));
  auto loaded = enclave.Ecall("load_data", load.Take());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Reader lr(*loaded);
  EXPECT_EQ(lr.GetU64().value(), data.Size());

  auto trained = enclave.Ecall("train", {});
  ASSERT_TRUE(trained.ok());

  // Evaluate inside the enclave on held-out data.
  Writer eval;
  eval.PutBytes(storage::SerializeDataset(test));
  auto metrics = enclave.Ecall("evaluate", eval.Take());
  ASSERT_TRUE(metrics.ok());
  Reader mr(*metrics);
  EXPECT_GT(mr.GetDouble().value(), 0.9);  // accuracy
}

TEST(TrainingKernelTest, LoadBeforeConfigureFails) {
  AttestationService service(13);
  Enclave enclave = MakeEnclave(service, "exec-0", 1);
  Writer load;
  load.PutBytes(Bytes(64, 0));
  load.PutBytes(Bytes(64, 0));
  load.PutBytes(Bytes(32, 0));
  EXPECT_FALSE(enclave.Ecall("load_data", load.Take()).ok());
  EXPECT_FALSE(enclave.Ecall("train", {}).ok());
}

TEST(TrainingKernelTest, DataSealedToOtherEnclaveCannotBeLoaded) {
  Rng rng(21);
  AttestationService service(14);
  Enclave intended = MakeEnclave(service, "exec-a", 1);
  Enclave thief = MakeEnclave(service, "exec-b", 2);
  ASSERT_TRUE(thief.Ecall("configure", ConfigureArgs("logistic", 4)).ok());

  ml::Dataset data = ml::MakeTwoGaussians(50, 4, 1.0, rng);
  storage::ProviderStorage store(ToBytes("master"));
  ASSERT_TRUE(store.AddDataset("d", data, {}).ok());
  crypto::SigningKey provider = crypto::SigningKey::FromSeed(ToBytes("p"));
  auto key = provider.SharedSecret(intended.TransportPublicKey());
  ASSERT_TRUE(key.ok());
  auto sealed = store.SealForTransfer("d", *key);
  ASSERT_TRUE(sealed.ok());

  // The thief enclave has a different transport secret: ECDH gives a
  // different key, authentication fails.
  Writer load;
  load.PutBytes(*sealed);
  load.PutBytes(provider.PublicKey());
  load.PutBytes(storage::DatasetCommitment(data));
  EXPECT_FALSE(thief.Ecall("load_data", load.Take()).ok());
}

TEST(TrainingKernelTest, MergeIsSampleWeighted) {
  AttestationService service(15);
  Enclave enclave = MakeEnclave(service, "exec-0", 1);
  ASSERT_TRUE(enclave.Ecall("configure", ConfigureArgs("linear", 1)).ok());

  // Local params [0, 0] with 0 samples; peer [2, 2] with 100 -> peer wins.
  Writer merge;
  merge.PutDoubleVector({2.0, 2.0});
  merge.PutU64(100);
  ASSERT_TRUE(enclave.Ecall("merge", merge.Take()).ok());
  auto params = enclave.Ecall("get_params", {});
  ASSERT_TRUE(params.ok());
  Reader r(*params);
  ml::Vec v = r.GetDoubleVector().value();
  EXPECT_NEAR(v[0], 2.0, 1e-6);

  // Now merge with an equal-weight peer at [0, 0].
  Writer merge2;
  merge2.PutDoubleVector({0.0, 0.0});
  merge2.PutU64(100);
  ASSERT_TRUE(enclave.Ecall("merge", merge2.Take()).ok());
  auto params2 = enclave.Ecall("get_params", {});
  Reader r2(*params2);
  ml::Vec v2 = r2.GetDoubleVector().value();
  EXPECT_NEAR(v2[0], 1.0, 1e-6);
}

TEST(TrainingKernelTest, ParamSizeMismatchRejected) {
  AttestationService service(16);
  Enclave enclave = MakeEnclave(service, "exec-0", 1);
  ASSERT_TRUE(enclave.Ecall("configure", ConfigureArgs("logistic", 4)).ok());
  Writer w;
  w.PutDoubleVector({1.0, 2.0});  // wrong size (needs 5)
  EXPECT_FALSE(enclave.Ecall("set_params", w.Take()).ok());
}

TEST(TrainingKernelTest, UnknownMethodAndModelRejected) {
  AttestationService service(17);
  Enclave enclave = MakeEnclave(service, "exec-0", 1);
  ASSERT_TRUE(enclave.Ecall("configure", ConfigureArgs("logistic", 2)).ok());
  EXPECT_FALSE(enclave.Ecall("bogus", {}).ok());
  EXPECT_FALSE(enclave.Ecall("configure", ConfigureArgs("quantum", 2)).ok());
}

// Pins the status of every ecall on a kernel that was never configured:
// load_data opens the transfer before it checks the configuration, so a bad
// blob reports the transfer error and a good one the missing configuration.
TEST(TrainingKernelTest, UnconfiguredKernelRefusals) {
  Rng rng(22);
  AttestationService service(18);
  Enclave enclave = MakeEnclave(service, "exec-0", 1);
  auto status = [&](const std::string& method, const Bytes& input) {
    return enclave.Ecall(method, input).status().ToString();
  };
  const std::string kNotConfigured =
      "FailedPrecondition: kernel not configured";

  ml::Dataset data = ml::MakeTwoGaussians(20, 4, 1.0, rng);
  storage::ProviderStorage store(ToBytes("master"));
  ASSERT_TRUE(store.AddDataset("d", data, {}).ok());
  crypto::SigningKey provider = crypto::SigningKey::FromSeed(ToBytes("p"));
  auto key = provider.SharedSecret(enclave.TransportPublicKey());
  ASSERT_TRUE(key.ok());
  auto sealed = store.SealForTransfer("d", *key);
  ASSERT_TRUE(sealed.ok());

  Writer bad;
  bad.PutBytes(Bytes(64, 0));
  bad.PutBytes(provider.PublicKey());
  bad.PutBytes(storage::DatasetCommitment(data));
  EXPECT_EQ(status("load_data", bad.Take()),
            "Unauthenticated: MAC verification failed");
  Writer good;
  good.PutBytes(*sealed);
  good.PutBytes(provider.PublicKey());
  good.PutBytes(storage::DatasetCommitment(data));
  EXPECT_EQ(status("load_data", good.Take()), kNotConfigured);

  for (const char* method :
       {"train", "set_params", "get_params", "merge", "merge_all",
        "sample_count", "coalition_eval", "evaluate", "bogus"}) {
    EXPECT_EQ(status(method, {}), kNotConfigured) << method;
  }
  ASSERT_TRUE(enclave.Ecall("configure", ConfigureArgs("logistic", 4)).ok());
  EXPECT_EQ(status("bogus", {}),
            "NotFound: training kernel: unknown method bogus");
}

// --- Oblivious primitives ----------------------------------------------------

TEST(ObliviousTest, SelectMatchesTernary) {
  Rng rng(30);
  for (int i = 0; i < 200; ++i) {
    const uint64_t a = rng.NextU64(), b = rng.NextU64();
    const bool c = rng.NextBool(0.5);
    EXPECT_EQ(ObliviousSelect(c, a, b), c ? a : b);
  }
}

TEST(ObliviousTest, SortSortsCorrectly) {
  Rng rng(31);
  for (size_t n : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 100u, 255u}) {
    std::vector<uint64_t> v(n);
    for (auto& x : v) x = rng.NextU64(1000);
    std::vector<uint64_t> expected = v;
    std::sort(expected.begin(), expected.end());
    ObliviousSort(v);
    EXPECT_EQ(v, expected) << "n=" << n;
  }
}

TEST(ObliviousTest, SortTraceIsDataIndependent) {
  Rng rng(32);
  std::vector<uint64_t> sorted(64), reversed(64), random(64);
  for (size_t i = 0; i < 64; ++i) {
    sorted[i] = i;
    reversed[i] = 64 - i;
    random[i] = rng.NextU64();
  }
  MemoryTrace t1, t2, t3;
  ObliviousSort(sorted, &t1);
  ObliviousSort(reversed, &t2);
  ObliviousSort(random, &t3);
  EXPECT_EQ(t1.Digest(), t2.Digest());
  EXPECT_EQ(t1.Digest(), t3.Digest());
}

TEST(ObliviousTest, LeakySortTraceDependsOnData) {
  std::vector<uint64_t> sorted(64), reversed(64);
  for (size_t i = 0; i < 64; ++i) {
    sorted[i] = i;
    reversed[i] = 64 - i;
  }
  MemoryTrace t1, t2;
  LeakySort(sorted, &t1);
  LeakySort(reversed, &t2);
  EXPECT_NE(t1.Digest(), t2.Digest());
}

TEST(ObliviousTest, FilteredSumCorrectAndTraceUniform) {
  std::vector<uint64_t> values = {10, 20, 30, 40};
  std::vector<bool> all = {true, true, true, true};
  std::vector<bool> some = {true, false, false, true};
  MemoryTrace t1, t2;
  EXPECT_EQ(ObliviousFilteredSum(values, all, &t1), 100u);
  EXPECT_EQ(ObliviousFilteredSum(values, some, &t2), 50u);
  EXPECT_EQ(t1.Digest(), t2.Digest());  // same accesses despite flags
}

}  // namespace
}  // namespace pds2::tee
