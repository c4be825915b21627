#ifndef PDS2_STORAGE_CHAIN_STORE_H_
#define PDS2_STORAGE_CHAIN_STORE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chain/chain.h"
#include "common/result.h"
#include "storage/record_io.h"

namespace pds2::storage {

/// Durability knobs for a ChainStore.
struct ChainStoreOptions {
  /// A WorldState snapshot is cut every `snapshot_interval` committed
  /// blocks (0 = never). Snapshots bound recovery replay: reopening loads
  /// the newest valid snapshot and re-executes only the log tail behind it.
  uint64_t snapshot_interval = 64;
  /// fsync every log record and snapshot before reporting it durable.
  /// Turning this off trades the post-OS-crash guarantee for throughput;
  /// process-crash tolerance (torn-tail truncation) is unaffected.
  bool fsync = true;
  /// During recovery, additionally replay the whole chain from genesis on a
  /// scratch replica forced onto a single-thread pool and require the
  /// recovered state digest to bit-match it. Catches both a snapshot that
  /// is internally consistent but belongs to a different genesis AND any
  /// divergence introduced by the optimistic parallel block executor (the
  /// reference replay cannot take the lane path). Costs O(chain) —
  /// benchmarks turn it off to measure the snapshot speedup
  /// (EXPERIMENTS.md E13).
  bool paranoid_recovery = true;
};

/// What recovery found and did when a durable chain was reopened.
struct RecoveryInfo {
  uint64_t log_blocks = 0;       // CRC-valid blocks decoded from the log
  uint64_t truncated_bytes = 0;  // torn/corrupt log tail dropped on open
  bool used_snapshot = false;
  uint64_t snapshot_height = 0;  // height of the snapshot restored (if any)
  uint64_t replayed_blocks = 0;  // blocks re-executed through validation
};

/// The chain durability layer: an append-only block log plus periodic
/// whole-state snapshots. Attached to a Blockchain as its CommitListener,
/// it persists every committed block (ProduceBlock and ApplyExternalBlock)
/// so a restarted process resumes from disk instead of a genesis full-sync.
///
/// Every file goes through a storage::RecordDir (record_io.h), which owns
/// the framing, torn-tail truncation, atomic replace and crash model: after
/// a scripted common::CrashPoint the store fails every write with
/// Unavailable until the directory is reopened. Recovery (OpenBlockchain)
/// falls back across corrupt snapshots and verifies the recovered head
/// state root before handing the chain back.
///
/// On-disk layout under `dir`:
///   blocks.log          8-byte magic, then records [u32 len][u32 crc][block]
///   snapshot-<height>   8-byte magic, [u32 len][u32 crc][chain snapshot]
///   *.tmp               in-flight snapshot/log replaces; swept on reopen
class ChainStore : public chain::CommitListener {
 public:
  /// Opens (creating if needed) the store directory and its block log. The
  /// log ends at the first torn, corrupt or undecodable record, and is
  /// truncated there. The decoded blocks are exposed via recovered_blocks()
  /// for OpenBlockchain to replay.
  static common::Result<std::unique_ptr<ChainStore>> Open(
      const std::string& dir, ChainStoreOptions options = {});

  ChainStore(const ChainStore&) = delete;
  ChainStore& operator=(const ChainStore&) = delete;

  /// CommitListener: appends the block; cuts a snapshot every
  /// snapshot_interval blocks. Failures (including scripted crashes) are
  /// recorded in last_error() — the in-memory chain is not rolled back.
  void OnBlockCommitted(const chain::Blockchain& chain,
                        const chain::Block& block) override;

  /// Appends one block record and fsyncs it.
  common::Status AppendBlock(const chain::Block& block);

  /// Writes a snapshot of the chain's current state as a one-record file
  /// through the atomic replace, and garbage-collects old snapshots.
  common::Status WriteSnapshot(const chain::Blockchain& chain);

  /// Replaces the entire log (and all snapshots) with the given chain's
  /// history — the fork-adoption path: the old log described an orphaned
  /// branch, so it is atomically rewritten, not appended to.
  common::Status Rewrite(const chain::Blockchain& chain);

  /// Blocks decoded from the log when the store was opened.
  const std::vector<chain::Block>& recovered_blocks() const {
    return recovered_blocks_;
  }
  /// Snapshot heights present on disk when opened (ascending).
  const std::vector<uint64_t>& snapshot_heights() const {
    return snapshot_heights_;
  }
  /// Reads the snapshot file at `height`, returning the chain snapshot
  /// payload. Corruption on any mismatch; never crashes.
  common::Result<common::Bytes> LoadSnapshot(uint64_t height) const;

  /// Bytes of torn/corrupt log tail dropped when the store was opened.
  uint64_t truncated_bytes() const { return log_->truncated_bytes(); }
  /// True after a scripted CrashPoint fired; reopen the directory to
  /// continue (mirrors a killed process).
  bool dead() const { return dir_->dead(); }
  /// Last append/snapshot failure observed by OnBlockCommitted.
  const common::Status& last_error() const { return last_error_; }
  uint64_t blocks_logged() const { return blocks_logged_; }
  uint64_t last_snapshot_height() const { return last_snapshot_height_; }

 private:
  ChainStore(std::unique_ptr<RecordDir> dir, ChainStoreOptions options);

  common::Status GarbageCollectSnapshots();

  std::unique_ptr<RecordDir> dir_;
  std::unique_ptr<RecordLog> log_;  // blocks.log
  ChainStoreOptions options_;
  common::Status last_error_;

  std::vector<chain::Block> recovered_blocks_;
  std::vector<uint64_t> snapshot_heights_;  // ascending
  uint64_t blocks_logged_ = 0;
  uint64_t last_snapshot_height_ = 0;
};

/// One genesis allocation (p2p::GenesisAlloc is an alias of it).
struct GenesisAccount {
  chain::Address address;
  uint64_t amount = 0;
};

/// Builds a chain from genesis: a fresh replica over `registry` with
/// `genesis` credited, then `blocks` applied in order through the normal
/// validation path. Corruption names the first block that fails.
common::Result<std::unique_ptr<chain::Blockchain>> ReplayFromGenesis(
    std::vector<common::Bytes> validator_public_keys,
    std::unique_ptr<chain::ContractRegistry> registry,
    chain::ChainConfig config, const std::vector<GenesisAccount>& genesis,
    const std::vector<chain::Block>& blocks);

/// A recovered durable chain: the replica, its attached store (already
/// registered as the chain's commit listener), and what recovery did.
struct RecoveredChain {
  std::unique_ptr<chain::Blockchain> chain;
  std::unique_ptr<ChainStore> store;
  RecoveryInfo info;
};

/// Opens the durable chain in `dir`: loads the newest valid snapshot (if
/// any), replays the log tail through the normal block validation path, and
/// verifies the recovered head state root. An empty/missing directory
/// yields a fresh chain with the genesis allocations applied. The returned
/// chain persists every subsequent commit through the returned store.
///
/// `registry_factory` builds the contract registry for the replica (and for
/// the scratch replicas recovery verification needs); nullptr uses
/// chain::ContractRegistry::CreateDefault.
common::Result<RecoveredChain> OpenBlockchain(
    const std::string& dir, std::vector<common::Bytes> validator_public_keys,
    const std::vector<GenesisAccount>& genesis,
    chain::ChainConfig config = {}, ChainStoreOptions store_options = {},
    std::function<std::unique_ptr<chain::ContractRegistry>()>
        registry_factory = nullptr);

}  // namespace pds2::storage

#endif  // PDS2_STORAGE_CHAIN_STORE_H_
