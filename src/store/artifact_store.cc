#include "store/artifact_store.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <utility>

#include "common/serial.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "storage/record_io.h"

namespace pds2::store {

namespace fs = std::filesystem;

using common::Bytes;
using common::Reader;
using common::Result;
using common::Status;
using common::Writer;

namespace {

// 8-byte file magics; trailing byte is the format version (see chain_store).
constexpr char kPackMagic[8] = {'P', 'D', 'S', '2', 'P', 'A', 'K', '\x01'};
constexpr char kManifestMagic[8] = {'P', 'D', 'S', '2', 'M', 'A', 'N', '\x01'};
constexpr char kRootsMagic[8] = {'P', 'D', 'S', '2', 'R', 'T', 'S', '\x01'};

// Domain-separates the manifest hash from raw-chunk hashes so a one-chunk
// artifact's address can never collide with its own chunk's address.
constexpr char kManifestDomain[] = "pds2.store.manifest.v1";

Status AppendRecord(const std::string& path, const char magic[8],
                    const Bytes& payload, bool fsync) {
  const bool fresh = !fs::exists(path);
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) return Status::Internal("cannot open " + path);
  Status status = Status::Ok();
  if (fresh && std::fwrite(magic, 1, 8, f) != 8) {
    status = Status::Internal("cannot write magic to " + path);
  }
  if (status.ok()) {
    const Bytes record = storage::EncodeCrcRecord(payload);
    if (std::fwrite(record.data(), 1, record.size(), f) != record.size()) {
      status = Status::Internal("cannot append record to " + path);
    }
  }
  if (status.ok() && std::fflush(f) != 0) {
    status = Status::Internal("flush failed for " + path);
  }
  if (status.ok() && fsync && ::fsync(::fileno(f)) != 0) {
    status = Status::Internal("fsync failed for " + path);
  }
  std::fclose(f);
  return status;
}

/// Reads every intact record from `path`. Like chain-log replay, it stops
/// at the first torn or bit-rotted record and truncates the file back to
/// the last clean record, so later appends land where replay reads them.
Result<std::vector<Bytes>> ReadRecords(const std::string& path,
                                       const char magic[8]) {
  std::vector<Bytes> records;
  if (!fs::exists(path)) return records;
  Bytes buf;
  PDS2_RETURN_IF_ERROR(storage::ReadFileBytes(path, &buf));
  if (buf.size() < 8 ||
      std::memcmp(buf.data(), magic, 8) != 0) {
    return Status::Corruption("bad magic in " + path);
  }
  Reader r(buf);
  (void)r.GetRaw(8);
  uint64_t valid_bytes = 8;
  while (true) {
    auto payload = storage::ReadCrcRecord(r);
    if (!payload.ok()) break;  // clean end, torn tail, or bit rot
    valid_bytes += storage::kRecordFrameBytes + payload->size();
    records.push_back(std::move(*payload));
  }
  if (valid_bytes < buf.size()) {
    std::error_code ec;
    fs::resize_file(path, valid_bytes, ec);
    if (ec) {
      return Status::Internal("cannot truncate torn tail of " + path + ": " +
                              ec.message());
    }
  }
  return records;
}

Status WriteAllRecords(const std::string& path, const char magic[8],
                       const std::vector<Bytes>& payloads) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::Internal("cannot open " + tmp);
    out.write(magic, 8);
    for (const Bytes& payload : payloads) {
      const Bytes record = storage::EncodeCrcRecord(payload);
      out.write(reinterpret_cast<const char*>(record.data()),
                static_cast<std::streamsize>(record.size()));
    }
    if (!out) return Status::Internal("write failed for " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) return Status::Internal("rename failed: " + ec.message());
  return Status::Ok();
}

}  // namespace

ArtifactStore::ArtifactStore(ArtifactStoreOptions options)
    : options_(std::move(options)) {}

ArtifactStore::~ArtifactStore() = default;

Result<std::unique_ptr<ArtifactStore>> ArtifactStore::Open(
    ArtifactStoreOptions options) {
  if (options.chunk_size == 0) {
    return Status::InvalidArgument("chunk_size must be > 0");
  }
  std::unique_ptr<ArtifactStore> s(new ArtifactStore(std::move(options)));
  if (!s->options_.dir.empty()) {
    std::error_code ec;
    fs::create_directories(s->options_.dir, ec);
    if (ec) {
      return Status::Internal("cannot create store directory " +
                              s->options_.dir + ": " + ec.message());
    }
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
  if (n > r.remaining() / sizeof(uint32_t)) {
    return Status::Corruption("manifest chunk count exceeds its bytes");
  }
  m.chunk_hashes.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    PDS2_ASSIGN_OR_RETURN(Bytes h, r.GetBytes());
    m.chunk_hashes.push_back(std::move(h));
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes in manifest");
  m.logical_size = m.blob_size;
  return m;
}

Result<Bytes> ArtifactStore::Put(const Bytes& blob) {
  Manifest m;
  m.blob_size = blob.size();
  m.logical_size = blob.size();
  std::vector<std::pair<Bytes, const uint8_t*>> new_chunks;
  for (size_t off = 0; off < blob.size(); off += options_.chunk_size) {
    const size_t len = std::min(options_.chunk_size, blob.size() - off);
    Bytes chunk(blob.begin() + static_cast<ptrdiff_t>(off),
                blob.begin() + static_cast<ptrdiff_t>(off + len));
    Bytes hash = crypto::Sha256::Hash(chunk);
    if (chunks_.find(hash) == chunks_.end()) {
      stored_bytes_ += chunk.size();
      PDS2_M_COUNT("store.chunks_stored", 1);
      if (!options_.dir.empty()) {
        PDS2_RETURN_IF_ERROR(AppendChunkRecord(hash, chunk));
      }
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
    logical_bytes_ += m.logical_size;
    if (!options_.dir.empty()) {
      PDS2_RETURN_IF_ERROR(AppendManifestRecord(address, manifest_bytes));
    }
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

bool ArtifactStore::Contains(const Bytes& address) const {
  return manifests_.find(address) != manifests_.end();
}

Status ArtifactStore::AddRoot(const Bytes& address) {
  if (manifests_.find(address) == manifests_.end()) {
    return Status::NotFound("cannot root unknown artifact");
  }
  roots_[address] += 1;
  if (!options_.dir.empty()) {
    PDS2_RETURN_IF_ERROR(AppendRootRecord(address, 1));
  }
  return Status::Ok();
}

Status ArtifactStore::RemoveRoot(const Bytes& address) {
  auto it = roots_.find(address);
  if (it == roots_.end()) return Status::NotFound("not a GC root");
  if (--it->second == 0) roots_.erase(it);
  if (!options_.dir.empty()) {
    PDS2_RETURN_IF_ERROR(AppendRootRecord(address, -1));
  }
  return Status::Ok();
}

Result<GcStats> ArtifactStore::CollectGarbage() {
  GcStats stats;
  // Mark: every manifest reachable from a root, and every chunk those
  // manifests reference.
  std::set<Bytes> live_chunks;
  for (auto it = manifests_.begin(); it != manifests_.end();) {
    if (roots_.find(it->first) == roots_.end()) {
      logical_bytes_ -= it->second.logical_size;
      stats.manifests_removed++;
      it = manifests_.erase(it);
    } else {
      for (const Bytes& h : it->second.chunk_hashes) live_chunks.insert(h);
      ++it;
    }
  }
  // Sweep unreferenced chunks.
  for (auto it = chunks_.begin(); it != chunks_.end();) {
    if (live_chunks.find(it->first) == live_chunks.end()) {
      stats.chunks_removed++;
      stats.bytes_reclaimed += it->second.size();
      stored_bytes_ -= it->second.size();
      it = chunks_.erase(it);
    } else {
      ++it;
    }
  }
  if (!options_.dir.empty() &&
      (stats.manifests_removed > 0 || stats.chunks_removed > 0)) {
    PDS2_RETURN_IF_ERROR(RewriteDisk());
  }
  PDS2_M_COUNT("store.gc_runs", 1);
  PDS2_M_COUNT("store.gc_chunks_removed", stats.chunks_removed);
  return stats;
}

Status ArtifactStore::ReplayDisk() {
  // Chunks: payload = [hash][data]; the content hash is re-verified so a
  // record whose CRC survived but whose payload lies is still rejected.
  PDS2_ASSIGN_OR_RETURN(
      std::vector<Bytes> chunk_records,
      ReadRecords(options_.dir + "/chunks.pack", kPackMagic));
  for (const Bytes& rec : chunk_records) {
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
  PDS2_ASSIGN_OR_RETURN(
      std::vector<Bytes> manifest_records,
      ReadRecords(options_.dir + "/manifests.log", kManifestMagic));
  for (const Bytes& rec : manifest_records) {
    Reader r(rec);
    PDS2_ASSIGN_OR_RETURN(Bytes address, r.GetBytes());
    PDS2_ASSIGN_OR_RETURN(Bytes manifest_bytes, r.GetBytes());
    if (!r.AtEnd()) return Status::Corruption("trailing manifest bytes");
    PDS2_ASSIGN_OR_RETURN(Manifest m, DecodeManifest(manifest_bytes));
    if (manifests_.find(address) == manifests_.end()) {
      logical_bytes_ += m.logical_size;
      manifests_.emplace(std::move(address), std::move(m));
    }
  }
  PDS2_ASSIGN_OR_RETURN(std::vector<Bytes> root_records,
                        ReadRecords(options_.dir + "/roots.log", kRootsMagic));
  for (const Bytes& rec : root_records) {
    Reader r(rec);
    PDS2_ASSIGN_OR_RETURN(Bytes address, r.GetBytes());
    PDS2_ASSIGN_OR_RETURN(int64_t delta, r.GetI64());
    if (!r.AtEnd()) return Status::Corruption("trailing root bytes");
    if (delta > 0) {
      roots_[address] += static_cast<uint64_t>(delta);
    } else {
      auto it = roots_.find(address);
      if (it != roots_.end() && it->second >= static_cast<uint64_t>(-delta)) {
        it->second -= static_cast<uint64_t>(-delta);
        if (it->second == 0) roots_.erase(it);
      }
    }
  }
  return Status::Ok();
}

Status ArtifactStore::AppendChunkRecord(const Bytes& hash, const Bytes& data) {
  Writer w;
  w.PutBytes(hash);
  w.PutBytes(data);
  return AppendRecord(options_.dir + "/chunks.pack", kPackMagic, w.Take(),
                     options_.fsync);
}

Status ArtifactStore::AppendManifestRecord(const Bytes& address,
                                           const Bytes& manifest) {
  Writer w;
  w.PutBytes(address);
  w.PutBytes(manifest);
  return AppendRecord(options_.dir + "/manifests.log", kManifestMagic,
                      w.Take(), options_.fsync);
}

Status ArtifactStore::AppendRootRecord(const Bytes& address, int64_t delta) {
  Writer w;
  w.PutBytes(address);
  w.PutI64(delta);
  return AppendRecord(options_.dir + "/roots.log", kRootsMagic, w.Take(),
                      options_.fsync);
}

Status ArtifactStore::RewriteDisk() {
  std::vector<Bytes> chunk_payloads;
  for (const auto& [hash, data] : chunks_) {
    Writer w;
    w.PutBytes(hash);
    w.PutBytes(data);
    chunk_payloads.push_back(w.Take());
  }
  std::vector<Bytes> manifest_payloads;
  for (const auto& [address, m] : manifests_) {
    Writer w;
    w.PutBytes(address);
    w.PutBytes(EncodeManifest(m));
    manifest_payloads.push_back(w.Take());
  }
  std::vector<Bytes> root_payloads;
  for (const auto& [address, count] : roots_) {
    Writer w;
    w.PutBytes(address);
    w.PutI64(static_cast<int64_t>(count));
    root_payloads.push_back(w.Take());
  }
  PDS2_RETURN_IF_ERROR(WriteAllRecords(options_.dir + "/chunks.pack",
                                       kPackMagic, chunk_payloads));
  PDS2_RETURN_IF_ERROR(WriteAllRecords(options_.dir + "/manifests.log",
                                       kManifestMagic, manifest_payloads));
  return WriteAllRecords(options_.dir + "/roots.log", kRootsMagic,
                         root_payloads);
}

}  // namespace pds2::store
