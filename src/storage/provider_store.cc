#include "storage/provider_store.h"

#include "common/serial.h"
#include "crypto/cipher.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"

namespace pds2::storage {

using common::Bytes;
using common::Reader;
using common::Result;
using common::Status;
using common::Writer;

std::vector<Bytes> SerializeRecords(const ml::Dataset& data) {
  std::vector<Bytes> records;
  records.reserve(data.Size());
  for (size_t i = 0; i < data.Size(); ++i) {
    Writer w;
    w.PutDoubleVector(data.x[i]);
    w.PutDouble(data.y[i]);
    records.push_back(w.Take());
  }
  return records;
}

Bytes SerializeDataset(const ml::Dataset& data) {
  Writer w;
  w.PutU64(data.Size());
  for (size_t i = 0; i < data.Size(); ++i) {
    w.PutDoubleVector(data.x[i]);
    w.PutDouble(data.y[i]);
  }
  return w.Take();
}

Result<ml::Dataset> DeserializeDataset(const Bytes& bytes) {
  Reader r(bytes);
  ml::Dataset data;
  PDS2_ASSIGN_OR_RETURN(uint64_t n, r.GetU64());
  // Each record takes at least a u32 feature count and a label.
  PDS2_RETURN_IF_ERROR(r.CheckCount(n, sizeof(uint32_t) + sizeof(double)));
  data.x.reserve(n);
  data.y.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    PDS2_ASSIGN_OR_RETURN(ml::Vec row, r.GetDoubleVector());
    PDS2_ASSIGN_OR_RETURN(double label, r.GetDouble());
    data.x.push_back(std::move(row));
    data.y.push_back(label);
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes in dataset");
  return data;
}

Bytes DatasetCommitment(const ml::Dataset& data) {
  return crypto::MerkleTree(SerializeRecords(data)).Root();
}

ProviderStorage::ProviderStorage(Bytes master_key)
    : master_key_(std::move(master_key)) {}

namespace {

crypto::AuthCipher AtRestCipher(const Bytes& master_key,
                                const std::string& name) {
  return crypto::AuthCipher(
      crypto::DeriveKey(master_key, "pds2.storage." + name, 32));
}

}  // namespace

Status ProviderStorage::AddDataset(const std::string& name,
                                   const ml::Dataset& data,
                                   SemanticMetadata metadata) {
  if (data.Size() == 0) {
    return Status::InvalidArgument("refusing to register an empty dataset");
  }
  if (datasets_.count(name) != 0) {
    return Status::AlreadyExists("dataset already registered: " + name);
  }

  // Encrypt at rest under a per-dataset key derived from the master key.
  Entry entry;
  entry.sealed = AtRestCipher(master_key_, name)
                     .Seal(SerializeDataset(data), common::ToBytes(name));
  entry.summary.name = name;
  entry.summary.num_records = data.Size();
  entry.summary.commitment = DatasetCommitment(data);
  entry.summary.metadata = std::move(metadata);
  stored_bytes_ += entry.sealed.size();
  datasets_.emplace(name, std::move(entry));
  return Status::Ok();
}

std::vector<DatasetSummary> ProviderStorage::Match(
    const Ontology& ontology, const DataRequirement& requirement) const {
  std::vector<DatasetSummary> eligible;
  for (const auto& [name, entry] : datasets_) {
    if (requirement.Matches(ontology, entry.summary.metadata,
                            entry.summary.num_records)) {
      eligible.push_back(entry.summary);
    }
  }
  return eligible;
}

Result<DatasetSummary> ProviderStorage::Summary(const std::string& name) const {
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::NotFound("unknown dataset: " + name);
  }
  return it->second.summary;
}

Result<Bytes> ProviderStorage::OpenAtRest(const std::string& name) const {
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::NotFound("unknown dataset: " + name);
  }
  return AtRestCipher(master_key_, name).Open(it->second.sealed);
}

Result<ml::Dataset> ProviderStorage::Load(const std::string& name) const {
  PDS2_ASSIGN_OR_RETURN(Bytes plain, OpenAtRest(name));
  return DeserializeDataset(plain);
}

Result<Bytes> ProviderStorage::SealForTransfer(
    const std::string& name, const Bytes& transport_key) const {
  // The at-rest plaintext is already the SerializeDataset wire form, so it
  // is resealed as is.
  PDS2_ASSIGN_OR_RETURN(Bytes plain, OpenAtRest(name));
  return crypto::AuthCipher(transport_key)
      .Seal(plain, common::ToBytes("transfer." + name));
}

Result<ml::Dataset> ProviderStorage::OpenTransfer(
    const Bytes& sealed, const Bytes& transport_key,
    const Bytes& expected_commitment) {
  crypto::AuthCipher cipher(transport_key);
  PDS2_ASSIGN_OR_RETURN(Bytes plain, cipher.Open(sealed));
  PDS2_ASSIGN_OR_RETURN(ml::Dataset data, DeserializeDataset(plain));
  if (DatasetCommitment(data) != expected_commitment) {
    return Status::FailedPrecondition(
        "received data does not match the certified commitment");
  }
  return data;
}

}  // namespace pds2::storage
