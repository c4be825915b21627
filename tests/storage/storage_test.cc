#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/serial.h"
#include "crypto/cipher.h"
#include "ml/dataset.h"
#include "storage/provider_store.h"
#include "storage/semantic.h"

namespace pds2::storage {
namespace {

using common::Bytes;
using common::Rng;
using common::ToBytes;

// --- Ontology & semantics ---------------------------------------------------

TEST(OntologyTest, SubclassReasoning) {
  Ontology o = Ontology::StandardIot();
  EXPECT_TRUE(o.IsSubclassOf("iot/sensor/temperature", "iot/sensor"));
  EXPECT_TRUE(o.IsSubclassOf("iot/sensor/temperature", "iot"));
  EXPECT_TRUE(o.IsSubclassOf("iot/sensor", "iot/sensor"));
  EXPECT_FALSE(o.IsSubclassOf("iot/sensor", "iot/sensor/temperature"));
  EXPECT_FALSE(o.IsSubclassOf("iot/wearable/smartwatch", "iot/sensor"));
}

TEST(OntologyTest, SerializationRoundTrip) {
  Ontology o = Ontology::StandardIot();
  auto round = Ontology::Deserialize(o.Serialize());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->NumClasses(), o.NumClasses());
  EXPECT_TRUE(round->IsSubclassOf("iot/sensor/temperature", "iot"));
  EXPECT_FALSE(round->IsSubclassOf("iot", "iot/sensor"));
}

TEST(OntologyTest, DeserializeRejectsDanglingParent) {
  common::Writer w;
  w.PutU32(1);
  w.PutString("child");
  w.PutString("missing-parent");
  EXPECT_FALSE(Ontology::Deserialize(w.Take()).ok());
}

TEST(OntologyTest, DeserializeRejectsDuplicates) {
  common::Writer w;
  w.PutU32(2);
  w.PutString("a");
  w.PutString("");
  w.PutString("a");
  w.PutString("");
  EXPECT_FALSE(Ontology::Deserialize(w.Take()).ok());
}

TEST(OntologyTest, AddClassValidation) {
  Ontology o;
  EXPECT_TRUE(o.AddClass("root").ok());
  EXPECT_FALSE(o.AddClass("root").ok());            // duplicate
  EXPECT_FALSE(o.AddClass("child", "missing").ok()); // unknown parent
  EXPECT_FALSE(o.AddClass("").ok());                 // empty
  EXPECT_TRUE(o.AddClass("child", "root").ok());
  EXPECT_TRUE(o.HasClass("child"));
  EXPECT_FALSE(o.HasClass("nope"));
}

SemanticMetadata TempMeta() {
  SemanticMetadata meta;
  meta.types = {"iot/sensor/temperature"};
  meta.numeric["sampling_hz"] = 10.0;
  meta.text["region"] = "EU";
  return meta;
}

TEST(DataRequirementTest, TypeSubsumptionMatching) {
  Ontology o = Ontology::StandardIot();
  DataRequirement req;
  req.required_types = {"iot/sensor"};  // any sensor
  EXPECT_TRUE(req.Matches(o, TempMeta(), 100));

  req.required_types = {"iot/sensor/humidity"};
  EXPECT_FALSE(req.Matches(o, TempMeta(), 100));
}

TEST(DataRequirementTest, NumericRangeConstraint) {
  Ontology o = Ontology::StandardIot();
  DataRequirement req;
  req.constraints.push_back(
      {PropertyConstraint::Kind::kNumericRange, "sampling_hz", 5.0, 20.0, ""});
  EXPECT_TRUE(req.Matches(o, TempMeta(), 1));
  req.constraints[0].max = 9.0;
  EXPECT_FALSE(req.Matches(o, TempMeta(), 1));
  req.constraints[0] =
      {PropertyConstraint::Kind::kNumericRange, "missing_key", 0, 1, ""};
  EXPECT_FALSE(req.Matches(o, TempMeta(), 1));
}

TEST(DataRequirementTest, TextEqualsConstraint) {
  Ontology o = Ontology::StandardIot();
  DataRequirement req;
  req.constraints.push_back(
      {PropertyConstraint::Kind::kTextEquals, "region", 0, 0, "EU"});
  EXPECT_TRUE(req.Matches(o, TempMeta(), 1));
  req.constraints[0].value = "US";
  EXPECT_FALSE(req.Matches(o, TempMeta(), 1));
}

TEST(DataRequirementTest, MinRecordsEnforced) {
  Ontology o = Ontology::StandardIot();
  DataRequirement req;
  req.min_records = 50;
  EXPECT_FALSE(req.Matches(o, TempMeta(), 49));
  EXPECT_TRUE(req.Matches(o, TempMeta(), 50));
}

TEST(DataRequirementTest, SerializationRoundTrip) {
  DataRequirement req;
  req.required_types = {"iot/sensor", "iot/wearable"};
  req.constraints.push_back(
      {PropertyConstraint::Kind::kNumericRange, "hz", 1.0, 2.0, ""});
  req.constraints.push_back(
      {PropertyConstraint::Kind::kTextEquals, "region", 0, 0, "EU"});
  req.min_records = 7;
  auto round = DataRequirement::Deserialize(req.Serialize());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->required_types, req.required_types);
  EXPECT_EQ(round->constraints.size(), 2u);
  EXPECT_EQ(round->constraints[1].value, "EU");
  EXPECT_EQ(round->min_records, 7u);
}

TEST(SemanticMetadataTest, SerializationRoundTrip) {
  SemanticMetadata meta = TempMeta();
  auto round = SemanticMetadata::Deserialize(meta.Serialize());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->types, meta.types);
  EXPECT_EQ(round->numeric.at("sampling_hz"), 10.0);
  EXPECT_EQ(round->text.at("region"), "EU");
}

// --- Dataset serialization & commitment -------------------------------------

TEST(DatasetSerializationTest, RoundTrip) {
  Rng rng(2);
  ml::Dataset data = ml::MakeTwoGaussians(50, 3, 1.0, rng);
  auto round = DeserializeDataset(SerializeDataset(data));
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->Size(), data.Size());
  EXPECT_EQ(round->x, data.x);
  EXPECT_EQ(round->y, data.y);
}

TEST(DatasetSerializationTest, CommitmentDetectsAnyRecordChange) {
  Rng rng(3);
  ml::Dataset data = ml::MakeTwoGaussians(20, 2, 1.0, rng);
  Bytes commitment = DatasetCommitment(data);
  ml::Dataset tampered = data;
  tampered.y[7] = 1.0 - tampered.y[7];
  EXPECT_NE(DatasetCommitment(tampered), commitment);
  ml::Dataset reordered = data;
  std::swap(reordered.x[0], reordered.x[1]);
  std::swap(reordered.y[0], reordered.y[1]);
  EXPECT_NE(DatasetCommitment(reordered), commitment);
}

// --- ProviderStorage ---------------------------------------------------------

class ProviderStorageTest : public ::testing::Test {
 protected:
  ProviderStorageTest() : rng_(7), store_(ToBytes("master-key")) {
    data_ = ml::MakeTwoGaussians(100, 4, 2.0, rng_);
    EXPECT_TRUE(store_.AddDataset("temps", data_, TempMeta()).ok());
  }

  Rng rng_;
  ProviderStorage store_;
  ml::Dataset data_;
};

TEST_F(ProviderStorageTest, LoadReturnsOriginalData) {
  auto loaded = store_.Load("temps");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->x, data_.x);
  EXPECT_EQ(loaded->y, data_.y);
}

TEST_F(ProviderStorageTest, DuplicateAndEmptyRejected) {
  EXPECT_FALSE(store_.AddDataset("temps", data_, TempMeta()).ok());
  EXPECT_FALSE(store_.AddDataset("empty", ml::Dataset{}, TempMeta()).ok());
}

TEST_F(ProviderStorageTest, MatchUsesSemantics) {
  Ontology o = Ontology::StandardIot();
  DataRequirement req;
  req.required_types = {"iot/sensor"};
  req.min_records = 50;
  auto matches = store_.Match(o, req);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].name, "temps");
  EXPECT_EQ(matches[0].num_records, 100u);

  req.min_records = 1000;
  EXPECT_TRUE(store_.Match(o, req).empty());
}

TEST_F(ProviderStorageTest, SummaryExposesOnlyMetadata) {
  auto summary = store_.Summary("temps");
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->commitment, DatasetCommitment(data_));
  EXPECT_FALSE(store_.Summary("nope").ok());
}

TEST_F(ProviderStorageTest, TransferSealAndOpen) {
  Bytes transport_key = ToBytes("negotiated-transport-key");
  auto sealed = store_.SealForTransfer("temps", transport_key);
  ASSERT_TRUE(sealed.ok());

  auto opened = ProviderStorage::OpenTransfer(*sealed, transport_key,
                                              DatasetCommitment(data_));
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->x, data_.x);
}

// The transfer is the at-rest plaintext resealed under the transport key:
// byte for byte the seal of the dataset's wire encoding.
TEST_F(ProviderStorageTest, TransferCiphertextIsPinned) {
  const Bytes transport_key = ToBytes("negotiated-transport-key");
  auto sealed = store_.SealForTransfer("temps", transport_key);
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(*sealed, crypto::AuthCipher(transport_key)
                         .Seal(SerializeDataset(data_),
                               ToBytes("transfer.temps")));
}

TEST_F(ProviderStorageTest, TransferRejectsWrongKeyAndTampering) {
  Bytes transport_key = ToBytes("key-A");
  auto sealed = store_.SealForTransfer("temps", transport_key);
  ASSERT_TRUE(sealed.ok());

  EXPECT_FALSE(ProviderStorage::OpenTransfer(*sealed, ToBytes("key-B"),
                                             DatasetCommitment(data_))
                   .ok());
  Bytes tampered = *sealed;
  tampered[tampered.size() / 2] ^= 1;
  EXPECT_FALSE(ProviderStorage::OpenTransfer(tampered, transport_key,
                                             DatasetCommitment(data_))
                   .ok());
}

TEST_F(ProviderStorageTest, TransferRejectsCommitmentMismatch) {
  Bytes transport_key = ToBytes("key");
  auto sealed = store_.SealForTransfer("temps", transport_key);
  ASSERT_TRUE(sealed.ok());
  auto result = ProviderStorage::OpenTransfer(*sealed, transport_key,
                                              Bytes(32, 0x99));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kFailedPrecondition);
}

TEST_F(ProviderStorageTest, DataIsEncryptedAtRest) {
  // A store under another master key holds and loads its own copy.
  ProviderStorage other(ToBytes("different-master-key"));
  ASSERT_TRUE(other.AddDataset("temps", data_, TempMeta()).ok());
  EXPECT_TRUE(other.Load("temps").ok());
  // What is held is one sealed blob: the wire encoding plus the cipher's
  // 16-byte nonce and 32-byte tag.
  EXPECT_EQ(store_.StoredBytes(), SerializeDataset(data_).size() + 16 + 32);
}

}  // namespace
}  // namespace pds2::storage
