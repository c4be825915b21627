#include "storage/chain_store.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"

namespace pds2::storage {

using common::Bytes;
using common::Result;
using common::Status;

namespace {

constexpr FileMagic kLogMagic = {'P', 'D', 'S', '2', 'L', 'O', 'G', '\x01'};
constexpr FileMagic kSnapshotMagic = {'P', 'D', 'S', '2',
                                      'S', 'N', 'P', '\x01'};
constexpr char kLogName[] = "blocks.log";
constexpr char kSnapshotPrefix[] = "snapshot-";
// Newest snapshot files kept after a snapshot write: the bounded on-disk
// footprint of the snapshot side, with one fallback behind the newest.
constexpr size_t kKeepSnapshots = 2;

std::string SnapshotName(uint64_t height) {
  return kSnapshotPrefix + std::to_string(height);
}

}  // namespace

ChainStore::ChainStore(std::unique_ptr<RecordDir> dir,
                       ChainStoreOptions options)
    : dir_(std::move(dir)), options_(options) {}

Result<std::unique_ptr<ChainStore>> ChainStore::Open(
    const std::string& dir, ChainStoreOptions options) {
  PDS2_ASSIGN_OR_RETURN(std::unique_ptr<RecordDir> records,
                        RecordDir::Open(dir, options.fsync));
  std::unique_ptr<ChainStore> store(
      new ChainStore(std::move(records), options));

  // Index the snapshots that were renamed in.
  const std::string prefix = kSnapshotPrefix;
  for (const std::string& name : store->dir_->List()) {
    if (name.rfind(prefix, 0) != 0) continue;
    const std::string digits = name.substr(prefix.size());
    if (digits.empty() || digits.size() > 19 ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;  // not a height we could have written
    }
    store->snapshot_heights_.push_back(std::stoull(digits));
  }
  std::sort(store->snapshot_heights_.begin(), store->snapshot_heights_.end());

  // A CRC-valid record that does not decode as a block ends the log too:
  // every later block links to it by parent hash.
  std::vector<chain::Block>& blocks = store->recovered_blocks_;
  PDS2_ASSIGN_OR_RETURN(
      store->log_, store->dir_->OpenLog(kLogName, kLogMagic, [&](Bytes p) {
        auto block = chain::Block::Deserialize(p);
        if (!block.ok()) return false;
        blocks.push_back(std::move(*block));
        return true;
      }));
  store->blocks_logged_ = blocks.size();
  return store;
}

Status ChainStore::AppendBlock(const chain::Block& block) {
  PDS2_M_TIME_US("store.append_us");
  const Bytes payload = block.Serialize();
  PDS2_RETURN_IF_ERROR(log_->Append(payload));
  ++blocks_logged_;
  PDS2_M_COUNT("store.log_appends", 1);
  PDS2_M_OBSERVE("store.log_record_bytes", kRecordFrameBytes + payload.size());
  return Status::Ok();
}

Status ChainStore::WriteSnapshot(const chain::Blockchain& chain) {
  PDS2_M_TIME_US("store.snapshot_us");
  const uint64_t height = chain.Height();
  std::vector<Bytes> payload;  // one record, moved in rather than copied
  payload.push_back(chain.EncodeSnapshotState());
  PDS2_RETURN_IF_ERROR(
      dir_->Replace(SnapshotName(height), kSnapshotMagic, payload));
  snapshot_heights_.push_back(height);
  std::sort(snapshot_heights_.begin(), snapshot_heights_.end());
  snapshot_heights_.erase(
      std::unique(snapshot_heights_.begin(), snapshot_heights_.end()),
      snapshot_heights_.end());
  last_snapshot_height_ = height;
  PDS2_M_COUNT("store.snapshots_written", 1);
  PDS2_M_OBSERVE("store.snapshot_bytes",
                 kRecordFrameBytes + payload[0].size());
  return GarbageCollectSnapshots();
}

Status ChainStore::GarbageCollectSnapshots() {
  while (snapshot_heights_.size() > kKeepSnapshots) {
    PDS2_RETURN_IF_ERROR(dir_->Remove(SnapshotName(snapshot_heights_.front())));
    snapshot_heights_.erase(snapshot_heights_.begin());
  }
  return Status::Ok();
}

Result<Bytes> ChainStore::LoadSnapshot(uint64_t height) const {
  return dir_->ReadOne(SnapshotName(height), kSnapshotMagic);
}

Status ChainStore::Rewrite(const chain::Blockchain& chain) {
  // Fork adoption replaced the chain's history; the log on disk describes
  // an orphaned branch. Drop every snapshot first (their heights index the
  // old branch), then replace the log atomically.
  for (uint64_t height : snapshot_heights_) {
    PDS2_RETURN_IF_ERROR(dir_->Remove(SnapshotName(height)));
  }
  snapshot_heights_.clear();
  last_snapshot_height_ = 0;
  std::vector<Bytes> payloads;
  payloads.reserve(chain.blocks().size());
  for (const chain::Block& block : chain.blocks()) {
    payloads.push_back(block.Serialize());
  }
  PDS2_RETURN_IF_ERROR(log_->Replace(payloads));
  blocks_logged_ = chain.Height();
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
    PDS2_LOG(kWarn) << "chain store " << dir_->path() << ": commit of block "
                    << block.header.number
                    << " not persisted: " << status.ToString();
  }
}

Result<std::unique_ptr<chain::Blockchain>> ReplayFromGenesis(
    std::vector<Bytes> validator_public_keys,
    std::unique_ptr<chain::ContractRegistry> registry,
    chain::ChainConfig config, const std::vector<GenesisAccount>& genesis,
    const std::vector<chain::Block>& blocks) {
  auto replica = std::make_unique<chain::Blockchain>(
      std::move(validator_public_keys), std::move(registry), config);
  for (const GenesisAccount& alloc : genesis) {
    PDS2_RETURN_IF_ERROR(replica->CreditGenesis(alloc.address, alloc.amount));
  }
  for (size_t h = 0; h < blocks.size(); ++h) {
    Status status = replica->ApplyExternalBlock(blocks[h]);
    if (!status.ok()) {
      return Status::Corruption("log replay failed at block " +
                                std::to_string(h) + ": " + status.ToString());
    }
  }
  return replica;
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
    PDS2_ASSIGN_OR_RETURN(
        replica, ReplayFromGenesis(validator_public_keys, registry_factory(),
                                   config, genesis, {}));
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
        ReplayFromGenesis(validator_public_keys, registry_factory(),
                          sequential_config, genesis, blocks));
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
