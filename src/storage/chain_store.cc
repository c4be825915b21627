#include "storage/chain_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/fault.h"
#include "storage/record_io.h"
#include "common/thread_pool.h"
#include "common/logging.h"
#include "common/serial.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"

namespace pds2::storage {

namespace fs = std::filesystem;

using common::Bytes;
using common::CrashPoint;
using common::Reader;
using common::Result;
using common::Status;
using common::Writer;

namespace {

// 8-byte file magics. The trailing byte is a format version; bumping it
// makes old readers fail cleanly with "bad magic" instead of misparsing.
constexpr char kLogMagic[8] = {'P', 'D', 'S', '2', 'L', 'O', 'G', '\x01'};
constexpr char kSnapshotMagic[8] = {'P', 'D', 'S', '2',
                                    'S', 'N', 'P', '\x01'};
constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kTmpSuffix[] = ".tmp";

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

ChainStore::ChainStore(std::string dir, ChainStoreOptions options)
    : dir_(std::move(dir)), options_(options) {}

ChainStore::~ChainStore() { CloseAppendHandle(); }

void ChainStore::CloseAppendHandle() {
  if (log_file_ != nullptr) {
    std::fclose(log_file_);
    log_file_ = nullptr;
  }
}

std::string ChainStore::LogPath() const { return dir_ + "/blocks.log"; }

std::string ChainStore::SnapshotPath(uint64_t height) const {
  return dir_ + "/" + kSnapshotPrefix + std::to_string(height);
}

Status ChainStore::SyncFile(std::FILE* file) {
  if (std::fflush(file) != 0) {
    return Status::Internal(std::string("fflush failed: ") +
                            std::strerror(errno));
  }
  if (!options_.fsync) return Status::Ok();
  obs::Stopwatch watch;
  if (::fsync(::fileno(file)) != 0) {
    return Status::Internal(std::string("fsync failed: ") +
                            std::strerror(errno));
  }
  PDS2_M_OBSERVE("store.fsync_us", watch.ElapsedUs());
  return Status::Ok();
}

Status ChainStore::SyncDir() {
  if (!options_.fsync) return Status::Ok();
  const int fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Internal(std::string("cannot open dir for fsync: ") +
                            std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::Internal(std::string("dir fsync failed: ") +
                            std::strerror(errno));
  }
  return Status::Ok();
}

Result<std::unique_ptr<ChainStore>> ChainStore::Open(
    const std::string& dir, ChainStoreOptions options) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create store directory " + dir + ": " +
                            ec.message());
  }
  std::unique_ptr<ChainStore> store(new ChainStore(dir, options));

  // Garbage-collect unrenamed temp files (a crash mid-snapshot leaves one
  // behind; its content never became visible to recovery) and index the
  // snapshots that did get renamed in.
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (HasSuffix(name, kTmpSuffix)) {
      fs::remove(entry.path(), ec);
      continue;
    }
    if (name.rfind(kSnapshotPrefix, 0) == 0) {
      const std::string digits = name.substr(std::strlen(kSnapshotPrefix));
      if (digits.empty() || digits.size() > 19 ||
          digits.find_first_not_of("0123456789") != std::string::npos) {
        continue;  // not a height we could have written
      }
      store->snapshot_heights_.push_back(std::stoull(digits));
    }
  }
  std::sort(store->snapshot_heights_.begin(), store->snapshot_heights_.end());

  PDS2_RETURN_IF_ERROR(store->ScanLog());
  PDS2_RETURN_IF_ERROR(store->OpenAppendHandle());
  return store;
}

Status ChainStore::ScanLog() {
  const std::string path = LogPath();
  std::error_code ec;
  const bool exists = fs::exists(path, ec);
  Bytes buf;
  if (exists) PDS2_RETURN_IF_ERROR(ReadFileBytes(path, &buf));

  if (buf.empty()) {
    // Fresh (or created-then-killed-before-magic) log: write the magic.
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      return Status::Internal("cannot create block log: " + path);
    }
    std::fwrite(kLogMagic, 1, sizeof(kLogMagic), f);
    Status sync = SyncFile(f);
    std::fclose(f);
    PDS2_RETURN_IF_ERROR(sync);
    return SyncDir();
  }
  if (buf.size() < sizeof(kLogMagic) ||
      std::memcmp(buf.data(), kLogMagic, sizeof(kLogMagic)) != 0) {
    return Status::Corruption("bad block log magic: " + path);
  }

  Reader r(buf);
  (void)r.GetRaw(sizeof(kLogMagic));
  uint64_t valid_bytes = sizeof(kLogMagic);
  while (true) {
    auto payload = ReadCrcRecord(r);  // torn or bit-rotted frames fail here
    if (!payload.ok()) break;
    auto block = chain::Block::Deserialize(*payload);
    if (!block.ok()) break;
    recovered_blocks_.push_back(std::move(*block));
    valid_bytes += kRecordFrameBytes + payload->size();
    record_end_offsets_.push_back(valid_bytes);
  }
  blocks_logged_ = recovered_blocks_.size();

  if (valid_bytes < buf.size()) {
    // Torn or corrupt tail: every record after the first bad one is
    // unusable anyway (blocks chain by parent hash), so truncate the log
    // back to the last clean record boundary.
    truncated_bytes_ = buf.size() - valid_bytes;
    fs::resize_file(path, valid_bytes, ec);
    if (ec) {
      return Status::Internal("cannot truncate torn log tail: " +
                              ec.message());
    }
    PDS2_M_COUNT("store.log_truncations", 1);
    PDS2_LOG(kWarn) << "chain store " << dir_ << ": truncated "
                    << truncated_bytes_ << " torn log bytes after block "
                    << recovered_blocks_.size();
  }
  return Status::Ok();
}

Status ChainStore::OpenAppendHandle() {
  CloseAppendHandle();
  log_file_ = std::fopen(LogPath().c_str(), "ab");
  if (log_file_ == nullptr) {
    return Status::Internal("cannot open block log for append: " + LogPath());
  }
  return Status::Ok();
}

Status ChainStore::AppendBlock(const chain::Block& block) {
  if (dead_) {
    return Status::Unavailable("chain store crashed; reopen to continue");
  }
  PDS2_M_TIME_US("store.append_us");
  const Bytes record = EncodeCrcRecord(block.Serialize());

  if (common::CrashRequested(CrashPoint::kLogMidAppend)) {
    // The process dies with only half the record flushed to the OS — the
    // classic torn write. Recovery must drop this record.
    std::fwrite(record.data(), 1, record.size() / 2, log_file_);
    std::fflush(log_file_);
    dead_ = true;
    PDS2_M_COUNT("store.crashes_simulated", 1);
    return Status::Unavailable("simulated crash mid-append");
  }

  if (std::fwrite(record.data(), 1, record.size(), log_file_) !=
      record.size()) {
    dead_ = true;  // the log tail is now indeterminate; force a reopen
    return Status::Internal("short write appending block record");
  }

  if (common::CrashRequested(CrashPoint::kLogPreFsync)) {
    // Full record handed to the OS, process dies before fsync. Within one
    // machine the page cache survives a process kill, so recovery sees the
    // whole record — it may legitimately keep this block.
    std::fflush(log_file_);
    dead_ = true;
    PDS2_M_COUNT("store.crashes_simulated", 1);
    return Status::Unavailable("simulated crash before fsync");
  }

  PDS2_RETURN_IF_ERROR(SyncFile(log_file_));
  ++blocks_logged_;
  record_end_offsets_.push_back(
      (record_end_offsets_.empty() ? sizeof(kLogMagic)
                                   : record_end_offsets_.back()) +
      record.size());
  PDS2_M_COUNT("store.log_appends", 1);
  PDS2_M_OBSERVE("store.log_record_bytes", record.size());
  return Status::Ok();
}

Status ChainStore::WriteSnapshot(const chain::Blockchain& chain) {
  if (dead_) {
    return Status::Unavailable("chain store crashed; reopen to continue");
  }
  PDS2_M_TIME_US("store.snapshot_us");
  const uint64_t height = chain.Height();
  const Bytes payload = chain.EncodeSnapshotState();
  const Bytes record = EncodeCrcRecord(payload);
  const std::string final_path = SnapshotPath(height);
  const std::string tmp_path = final_path + kTmpSuffix;

  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot create snapshot temp file: " + tmp_path);
  }
  std::fwrite(kSnapshotMagic, 1, sizeof(kSnapshotMagic), f);

  if (common::CrashRequested(CrashPoint::kSnapshotMidWrite)) {
    // Half the snapshot reaches the temp file; the rename never happens, so
    // recovery never even considers these bytes.
    std::fwrite(record.data(), 1, record.size() / 2, f);
    std::fclose(f);
    dead_ = true;
    PDS2_M_COUNT("store.crashes_simulated", 1);
    return Status::Unavailable("simulated crash mid-snapshot");
  }

  const size_t written = std::fwrite(record.data(), 1, record.size(), f);
  Status sync = written == record.size()
                    ? SyncFile(f)
                    : Status::Internal("short write in snapshot temp file");
  std::fclose(f);
  PDS2_RETURN_IF_ERROR(sync);

  // The atomic cut-over: readers see either the old snapshot set or the
  // new file, never a half-written one.
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    return Status::Internal("snapshot rename failed: " + ec.message());
  }
  PDS2_RETURN_IF_ERROR(SyncDir());
  snapshot_heights_.push_back(height);
  std::sort(snapshot_heights_.begin(), snapshot_heights_.end());
  snapshot_heights_.erase(
      std::unique(snapshot_heights_.begin(), snapshot_heights_.end()),
      snapshot_heights_.end());
  last_snapshot_height_ = height;
  PDS2_M_COUNT("store.snapshots_written", 1);
  PDS2_M_OBSERVE("store.snapshot_bytes", record.size());

  if (common::CrashRequested(CrashPoint::kSnapshotPostRename)) {
    // Snapshot is durable but the old-snapshot GC never runs; recovery
    // just sees one extra stale file and ignores it.
    dead_ = true;
    PDS2_M_COUNT("store.crashes_simulated", 1);
    return Status::Unavailable("simulated crash after snapshot rename");
  }

  GarbageCollectSnapshots();
  return Status::Ok();
}

void ChainStore::GarbageCollectSnapshots() {
  while (snapshot_heights_.size() > options_.keep_snapshots) {
    std::error_code ec;
    fs::remove(SnapshotPath(snapshot_heights_.front()), ec);
    snapshot_heights_.erase(snapshot_heights_.begin());
  }
}

Result<Bytes> ChainStore::LoadSnapshot(uint64_t height) const {
  Bytes buf;
  PDS2_RETURN_IF_ERROR(ReadFileBytes(SnapshotPath(height), &buf));
  Reader r(buf);
  auto magic = r.GetRaw(sizeof(kSnapshotMagic));
  if (!magic.ok() ||
      std::memcmp(magic->data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
          0) {
    return Status::Corruption("bad snapshot magic at height " +
                              std::to_string(height));
  }
  auto payload = ReadCrcRecord(r);
  if (!payload.ok()) {
    return Status::Corruption("snapshot checksum mismatch at height " +
                              std::to_string(height));
  }
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes in snapshot at height " +
                              std::to_string(height));
  }
  return *payload;
}

Status ChainStore::Rewrite(const chain::Blockchain& chain) {
  if (dead_) {
    return Status::Unavailable("chain store crashed; reopen to continue");
  }
  // Fork adoption replaced the chain's history; the log on disk describes
  // an orphaned branch. Rebuild it atomically next to the old one and
  // rename over, then drop every snapshot (their heights indexed the old
  // branch).
  const std::string tmp_path = LogPath() + kTmpSuffix;
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot create log rewrite file: " + tmp_path);
  }
  std::fwrite(kLogMagic, 1, sizeof(kLogMagic), f);
  std::vector<uint64_t> offsets;
  uint64_t offset = sizeof(kLogMagic);
  bool short_write = false;
  for (const chain::Block& block : chain.blocks()) {
    const Bytes record = EncodeCrcRecord(block.Serialize());
    if (std::fwrite(record.data(), 1, record.size(), f) != record.size()) {
      short_write = true;
      break;
    }
    offset += record.size();
    offsets.push_back(offset);
  }
  Status sync = short_write ? Status::Internal("short write rewriting log")
                            : SyncFile(f);
  std::fclose(f);
  if (!sync.ok()) {
    std::error_code ec;
    fs::remove(tmp_path, ec);
    return sync;
  }
  CloseAppendHandle();
  std::error_code ec;
  fs::rename(tmp_path, LogPath(), ec);
  if (ec) {
    return Status::Internal("log rewrite rename failed: " + ec.message());
  }
  PDS2_RETURN_IF_ERROR(SyncDir());
  for (uint64_t height : snapshot_heights_) {
    fs::remove(SnapshotPath(height), ec);
  }
  snapshot_heights_.clear();
  last_snapshot_height_ = 0;
  record_end_offsets_ = std::move(offsets);
  blocks_logged_ = chain.Height();
  PDS2_RETURN_IF_ERROR(OpenAppendHandle());
  PDS2_M_COUNT("store.log_rewrites", 1);
  if (options_.snapshot_interval > 0 && chain.Height() > 0) {
    return WriteSnapshot(chain);
  }
  return Status::Ok();
}

void ChainStore::OnBlockCommitted(const chain::Blockchain& chain,
                                  const chain::Block& block) {
  Status status = AppendBlock(block);
  if (status.ok() && options_.snapshot_interval > 0 &&
      chain.Height() % options_.snapshot_interval == 0) {
    status = WriteSnapshot(chain);
  }
  if (!status.ok()) {
    last_error_ = status;
    PDS2_LOG(kWarn) << "chain store " << dir_ << ": commit of block "
                    << block.header.number
                    << " not persisted: " << status.ToString();
  }
}

Result<RecoveredChain> OpenBlockchain(
    const std::string& dir, std::vector<common::Bytes> validator_public_keys,
    const std::vector<GenesisAccount>& genesis, chain::ChainConfig config,
    ChainStoreOptions store_options,
    std::function<std::unique_ptr<chain::ContractRegistry>()>
        registry_factory) {
  if (!registry_factory) {
    registry_factory = [] { return chain::ContractRegistry::CreateDefault(); };
  }
  PDS2_ASSIGN_OR_RETURN(std::unique_ptr<ChainStore> store,
                        ChainStore::Open(dir, store_options));
  obs::Stopwatch watch;
  const std::vector<chain::Block>& blocks = store->recovered_blocks();

  RecoveryInfo info;
  info.log_blocks = blocks.size();
  info.truncated_bytes = store->truncated_bytes();

  auto fresh_chain = [&] {
    return std::make_unique<chain::Blockchain>(validator_public_keys,
                                               registry_factory(), config);
  };
  auto replay_from_genesis =
      [&](uint64_t upto, const chain::ChainConfig& replay_config)
      -> Result<std::unique_ptr<chain::Blockchain>> {
    auto replica = std::make_unique<chain::Blockchain>(
        validator_public_keys, registry_factory(), replay_config);
    for (const GenesisAccount& alloc : genesis) {
      PDS2_RETURN_IF_ERROR(replica->CreditGenesis(alloc.address, alloc.amount));
    }
    for (uint64_t h = 0; h < upto; ++h) {
      Status status = replica->ApplyExternalBlock(blocks[h]);
      if (!status.ok()) {
        return Status::Corruption("log replay failed at block " +
                                  std::to_string(h) + ": " +
                                  status.ToString());
      }
    }
    return replica;
  };

  // Newest usable snapshot first; a corrupt or inconsistent snapshot is
  // skipped, falling back to older ones and finally to a genesis replay.
  std::unique_ptr<chain::Blockchain> replica;
  uint64_t restored_height = 0;
  const std::vector<uint64_t> heights = store->snapshot_heights();
  for (auto it = heights.rbegin(); it != heights.rend() && !replica; ++it) {
    const uint64_t height = *it;
    if (height == 0 || height > blocks.size()) continue;
    auto payload = store->LoadSnapshot(height);
    if (!payload.ok()) {
      PDS2_LOG(kWarn) << "chain store " << dir << ": snapshot " << height
                      << " unusable: " << payload.status().ToString();
      continue;
    }
    auto candidate = fresh_chain();
    std::vector<chain::Block> history(blocks.begin(), blocks.begin() + height);
    Status status =
        candidate->RestoreFromSnapshot(*payload, std::move(history));
    if (!status.ok()) {
      PDS2_LOG(kWarn) << "chain store " << dir << ": snapshot " << height
                      << " rejected: " << status.ToString();
      continue;
    }
    replica = std::move(candidate);
    restored_height = height;
    info.used_snapshot = true;
    info.snapshot_height = height;
  }
  if (!replica) {
    PDS2_ASSIGN_OR_RETURN(replica, replay_from_genesis(0, config));
  }

  // Replay the log tail through the normal validation path (proposer turn,
  // signatures, tx root, state root — identical to live replication).
  for (uint64_t h = restored_height; h < blocks.size(); ++h) {
    Status status = replica->ApplyExternalBlock(blocks[h]);
    if (!status.ok()) {
      return Status::Corruption("log replay failed at block " +
                                std::to_string(h) + ": " + status.ToString());
    }
    ++info.replayed_blocks;
  }

  // Recovery invariant: the recovered world state must be exactly the one
  // the head block committed to.
  if (replica->Height() > 0 &&
      replica->StateDigest() != replica->blocks().back().header.state_root) {
    return Status::Corruption("recovered state root mismatch at head");
  }
  // Optionally cross-check the recovered state against an uninterrupted
  // genesis replay on a forced-sequential replica — bit-identical or we
  // refuse. This guards two shortcuts at once: a snapshot that is
  // internally consistent but belongs to a different history, and the
  // optimistic parallel block executor (the recovery replay above runs on
  // the configured pool; the reference re-run cannot take the lane path).
  const bool parallel_replay_possible =
      config.thread_pool != nullptr && config.thread_pool->NumThreads() > 1;
  if (store_options.paranoid_recovery &&
      (info.used_snapshot || parallel_replay_possible)) {
    common::ThreadPool sequential_pool(1);
    chain::ChainConfig sequential_config = config;
    sequential_config.thread_pool = &sequential_pool;
    PDS2_ASSIGN_OR_RETURN(
        std::unique_ptr<chain::Blockchain> reference,
        replay_from_genesis(blocks.size(), sequential_config));
    if (reference->StateDigest() != replica->StateDigest()) {
      return Status::Corruption(
          "recovered state diverges from sequential full replay");
    }
  }

  PDS2_M_OBSERVE("store.recovery_replay_us", watch.ElapsedUs());
  PDS2_M_COUNT("store.recoveries", 1);
  replica->SetCommitListener(store.get());
  RecoveredChain result;
  result.chain = std::move(replica);
  result.store = std::move(store);
  result.info = info;
  return result;
}

}  // namespace pds2::storage
