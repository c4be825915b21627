#ifndef PDS2_STORE_ARTIFACT_STORE_H_
#define PDS2_STORE_ARTIFACT_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "storage/record_io.h"

namespace pds2::store {

/// Content-addressed artifact store — the "Nix binary cache for models"
/// (ROADMAP item 4). An artifact (dataset blob, trained model parameters)
/// is split into fixed-size chunks addressed by SHA-256 of their content;
/// a manifest lists the chunk hashes, and the artifact's address is the
/// hash of the manifest. Identical chunks are stored once, so overlapping
/// datasets and incremental model revisions deduplicate naturally.
///
/// Lifecycle safety:
///  - Reads are verified: every chunk is re-hashed against the manifest
///    before reassembly, so silent corruption cannot escape the store.
///  - The optional on-disk layout is two append-only record files of the
///    storage layer (storage/record_io.h): `chunks.pack` and
///    `manifests.log` take appends through handles that stay open, and
///    nothing is ever removed. A torn or bit-rotted tail record is
///    truncated on open, and the affected artifact fails closed on read
///    instead of returning garbage. The store shares the chain store's
///    crash model (a scripted common::CrashPoint kills it until reopened).
///    Writes are flushed to the OS but never fsynced: they survive a
///    process kill, not a power loss.
struct ArtifactStoreOptions {
  /// Chunking granularity. Smaller chunks dedup better, cost more hashes.
  size_t chunk_size = 4096;
  /// Directory for the durable layout; empty = in-memory only.
  std::string dir;
};

class ArtifactStore {
 public:
  /// Opens the store, replaying any durable state in `options.dir`. A
  /// corrupt tail record (torn write) is truncated away, matching the
  /// chain log's recovery policy; artifacts whose chunks were lost that
  /// way fail closed on Get.
  static common::Result<std::unique_ptr<ArtifactStore>> Open(
      ArtifactStoreOptions options = {});

  /// Stores a blob; returns its content address (hash of the manifest).
  /// Idempotent: re-putting the same bytes returns the same address and
  /// stores nothing new.
  common::Result<common::Bytes> Put(const common::Bytes& blob);

  /// Verified read: re-hashes every chunk against the manifest. Corruption
  /// if a chunk's content no longer matches its address, NotFound for an
  /// unknown address or a chunk lost to a torn write.
  common::Result<common::Bytes> Get(const common::Bytes& address) const;

  /// Dedup accounting. Logical = sum of blob sizes accepted by Put;
  /// stored = bytes of unique chunks. Ratio >= 1.0, and > 1.0 as
  /// soon as two artifacts share a chunk.
  uint64_t LogicalBytes() const { return logical_bytes_; }
  uint64_t StoredBytes() const { return stored_bytes_; }
  double DedupRatio() const {
    return stored_bytes_ == 0
               ? 1.0
               : static_cast<double>(logical_bytes_) /
                     static_cast<double>(stored_bytes_);
  }
  size_t NumArtifacts() const { return manifests_.size(); }

  struct Manifest {
    uint64_t blob_size = 0;
    std::vector<common::Bytes> chunk_hashes;
  };

  /// Manifest wire format: u64 blob size, u32 chunk count, then one
  /// length-prefixed hash per chunk. Decode reads bytes from disk, so a
  /// count the input cannot hold is Corruption, never a huge reserve.
  static common::Bytes EncodeManifest(const Manifest& m);
  static common::Result<Manifest> DecodeManifest(const common::Bytes& raw);

 private:
  explicit ArtifactStore(ArtifactStoreOptions options);

  common::Status ReplayDisk();

  ArtifactStoreOptions options_;
  // Disk mode only; null in memory.
  std::unique_ptr<storage::RecordDir> disk_;
  std::unique_ptr<storage::RecordLog> chunk_log_;     // chunks.pack
  std::unique_ptr<storage::RecordLog> manifest_log_;  // manifests.log
  std::map<common::Bytes, common::Bytes> chunks_;    // chunk hash -> data
  std::map<common::Bytes, Manifest> manifests_;      // address -> manifest
  uint64_t logical_bytes_ = 0;
  uint64_t stored_bytes_ = 0;
};

}  // namespace pds2::store

#endif  // PDS2_STORE_ARTIFACT_STORE_H_
