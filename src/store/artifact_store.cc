#include "store/artifact_store.h"

#include <algorithm>
#include <utility>

#include "common/serial.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"

namespace pds2::store {

using common::Bytes;
using common::Reader;
using common::Result;
using common::Status;
using common::Writer;

namespace {

constexpr storage::FileMagic kPackMagic = {'P', 'D', 'S', '2',
                                           'P', 'A', 'K', '\x01'};
constexpr storage::FileMagic kManifestMagic = {'P', 'D', 'S', '2',
                                               'M', 'A', 'N', '\x01'};

// Domain-separates the manifest hash from raw-chunk hashes so a one-chunk
// artifact's address can never collide with its own chunk's address.
constexpr char kManifestDomain[] = "pds2.store.manifest.v1";

// Pack and manifest record payload: [key][value], e.g. [hash][chunk].
Bytes KeyedRecord(const Bytes& key, const Bytes& value) {
  Writer w;
  w.PutBytes(key);
  w.PutBytes(value);
  return w.Take();
}

}  // namespace

ArtifactStore::ArtifactStore(ArtifactStoreOptions options)
    : options_(std::move(options)) {}

Result<std::unique_ptr<ArtifactStore>> ArtifactStore::Open(
    ArtifactStoreOptions options) {
  if (options.chunk_size == 0) {
    return Status::InvalidArgument("chunk_size must be > 0");
  }
  std::unique_ptr<ArtifactStore> s(new ArtifactStore(std::move(options)));
  if (!s->options_.dir.empty()) {
    PDS2_ASSIGN_OR_RETURN(s->disk_, storage::RecordDir::Open(s->options_.dir,
                                                             /*fsync=*/false));
    PDS2_RETURN_IF_ERROR(s->ReplayDisk());
  }
  return s;
}

Bytes ArtifactStore::EncodeManifest(const Manifest& m) {
  Writer w;
  w.PutU64(m.blob_size);
  w.PutU32(static_cast<uint32_t>(m.chunk_hashes.size()));
  for (const Bytes& h : m.chunk_hashes) w.PutBytes(h);
  return w.Take();
}

Result<ArtifactStore::Manifest> ArtifactStore::DecodeManifest(
    const Bytes& raw) {
  Reader r(raw);
  Manifest m;
  PDS2_ASSIGN_OR_RETURN(m.blob_size, r.GetU64());
  PDS2_ASSIGN_OR_RETURN(uint32_t n, r.GetU32());
  // Each hash takes at least its u32 length prefix.
  PDS2_RETURN_IF_ERROR(r.CheckCount(n, sizeof(uint32_t)));
  m.chunk_hashes.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    PDS2_ASSIGN_OR_RETURN(Bytes h, r.GetBytes());
    m.chunk_hashes.push_back(std::move(h));
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes in manifest");
  return m;
}

Result<Bytes> ArtifactStore::Put(const Bytes& blob) {
  Manifest m;
  m.blob_size = blob.size();
  for (size_t off = 0; off < blob.size(); off += options_.chunk_size) {
    const size_t len = std::min(options_.chunk_size, blob.size() - off);
    Bytes chunk(blob.begin() + static_cast<ptrdiff_t>(off),
                blob.begin() + static_cast<ptrdiff_t>(off + len));
    Bytes hash = crypto::Sha256::Hash(chunk);
    if (chunks_.find(hash) == chunks_.end()) {
      if (disk_) {
        PDS2_RETURN_IF_ERROR(chunk_log_->Append(KeyedRecord(hash, chunk)));
      }
      stored_bytes_ += chunk.size();
      PDS2_M_COUNT("store.chunks_stored", 1);
      chunks_.emplace(hash, std::move(chunk));
    } else {
      PDS2_M_COUNT("store.chunks_deduped", 1);
    }
    m.chunk_hashes.push_back(std::move(hash));
  }
  const Bytes manifest_bytes = EncodeManifest(m);
  crypto::Sha256 hasher;
  hasher.Update(std::string_view(kManifestDomain));
  hasher.Update(manifest_bytes);
  Bytes address = hasher.Finish();
  if (manifests_.find(address) == manifests_.end()) {
    if (disk_) {
      PDS2_RETURN_IF_ERROR(
          manifest_log_->Append(KeyedRecord(address, manifest_bytes)));
    }
    logical_bytes_ += m.blob_size;
    manifests_.emplace(address, std::move(m));
  }
  PDS2_M_COUNT("store.puts", 1);
  return address;
}

Result<Bytes> ArtifactStore::Get(const Bytes& address) const {
  auto it = manifests_.find(address);
  if (it == manifests_.end()) return Status::NotFound("unknown artifact");
  const Manifest& m = it->second;
  Bytes blob;
  blob.reserve(m.blob_size);
  for (const Bytes& hash : m.chunk_hashes) {
    auto cit = chunks_.find(hash);
    if (cit == chunks_.end()) {
      return Status::NotFound("artifact chunk missing (lost to corruption?)");
    }
    // Verified read: the store never trusts its own memory/disk state.
    if (crypto::Sha256::Hash(cit->second) != hash) {
      PDS2_M_COUNT("store.corrupt_chunks_rejected", 1);
      return Status::Corruption("chunk content does not match its address");
    }
    common::Append(blob, cit->second);
  }
  if (blob.size() != m.blob_size) {
    return Status::Corruption("reassembled size mismatch");
  }
  PDS2_M_COUNT("store.gets", 1);
  return blob;
}

Status ArtifactStore::ReplayDisk() {
  std::vector<Bytes> records;
  auto collect = [&records](Bytes payload) {
    records.push_back(std::move(payload));
    return true;
  };
  // Chunks: payload = [hash][data]; the content hash is re-verified so a
  // record whose CRC survived but whose payload lies is still rejected.
  PDS2_ASSIGN_OR_RETURN(chunk_log_,
                        disk_->OpenLog("chunks.pack", kPackMagic, collect));
  for (const Bytes& rec : records) {
    Reader r(rec);
    PDS2_ASSIGN_OR_RETURN(Bytes hash, r.GetBytes());
    PDS2_ASSIGN_OR_RETURN(Bytes data, r.GetBytes());
    if (!r.AtEnd() || crypto::Sha256::Hash(data) != hash) {
      return Status::Corruption("chunk record fails content verification");
    }
    if (chunks_.find(hash) == chunks_.end()) {
      stored_bytes_ += data.size();
      chunks_.emplace(std::move(hash), std::move(data));
    }
  }
  records.clear();
  PDS2_ASSIGN_OR_RETURN(
      manifest_log_,
      disk_->OpenLog("manifests.log", kManifestMagic, collect));
  for (const Bytes& rec : records) {
    Reader r(rec);
    PDS2_ASSIGN_OR_RETURN(Bytes address, r.GetBytes());
    PDS2_ASSIGN_OR_RETURN(Bytes manifest_bytes, r.GetBytes());
    if (!r.AtEnd()) return Status::Corruption("trailing manifest bytes");
    PDS2_ASSIGN_OR_RETURN(Manifest m, DecodeManifest(manifest_bytes));
    if (manifests_.find(address) == manifests_.end()) {
      logical_bytes_ += m.blob_size;
      manifests_.emplace(std::move(address), std::move(m));
    }
  }
  return Status::Ok();
}

}  // namespace pds2::store
