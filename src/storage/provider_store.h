#ifndef PDS2_STORAGE_PROVIDER_STORE_H_
#define PDS2_STORAGE_PROVIDER_STORE_H_

#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "ml/dataset.h"
#include "storage/semantic.h"

namespace pds2::storage {

/// Canonical per-record serialization (features || label). The unit of the
/// dataset Merkle commitment, so executors can verify that the data they
/// received is exactly what the provider's certificate committed to.
std::vector<common::Bytes> SerializeRecords(const ml::Dataset& data);

/// Whole-dataset wire encoding and its inverse.
common::Bytes SerializeDataset(const ml::Dataset& data);
common::Result<ml::Dataset> DeserializeDataset(const common::Bytes& bytes);

/// Merkle root over the per-record serialization — the `data_commitment`
/// carried in participation certificates.
common::Bytes DatasetCommitment(const ml::Dataset& data);

/// What the storage subsystem is willing to reveal about a dataset without
/// authorization: metadata, size and commitment — never records.
struct DatasetSummary {
  std::string name;
  uint64_t num_records = 0;
  common::Bytes commitment;
  SemanticMetadata metadata;
};

/// A provider's storage subsystem (paper §II-C): keeps each dataset as one
/// blob sealed under its own derived key, matches datasets against workload
/// requirements using metadata only, and releases records exclusively as
/// sealed transfers to executors the provider authorized.
class ProviderStorage {
 public:
  /// `master_key` encrypts everything at rest (derived per dataset).
  explicit ProviderStorage(common::Bytes master_key);

  /// Registers a dataset. Fails on duplicate names or empty data.
  common::Status AddDataset(const std::string& name, const ml::Dataset& data,
                            SemanticMetadata metadata);

  /// Summaries of all datasets eligible for `requirement`.
  std::vector<DatasetSummary> Match(const Ontology& ontology,
                                    const DataRequirement& requirement) const;

  /// Summary of one dataset by name (what a dataset NFT mints).
  common::Result<DatasetSummary> Summary(const std::string& name) const;

  /// Seals a dataset for transfer under a transport key the provider
  /// negotiated with an executor (ECDH). Only this call ever exposes
  /// records, and only in authenticated-encrypted form.
  common::Result<common::Bytes> SealForTransfer(
      const std::string& name, const common::Bytes& transport_key) const;

  /// Executor-side: opens a sealed transfer and verifies the records match
  /// the certificate's commitment. Unauthenticated on tampering, and
  /// FailedPrecondition if the commitment disagrees.
  static common::Result<ml::Dataset> OpenTransfer(
      const common::Bytes& sealed, const common::Bytes& transport_key,
      const common::Bytes& expected_commitment);

  /// Bytes of sealed blobs held at rest.
  size_t StoredBytes() const { return stored_bytes_; }

 private:
  struct Entry {
    common::Bytes sealed;  // SerializeDataset bytes, sealed at rest
    DatasetSummary summary;
  };

  common::Bytes master_key_;
  std::map<std::string, Entry> datasets_;
  size_t stored_bytes_ = 0;
};

}  // namespace pds2::storage

#endif  // PDS2_STORAGE_PROVIDER_STORE_H_
