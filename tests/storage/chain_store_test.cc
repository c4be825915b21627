// ChainStore durability tests: append/reopen roundtrips, snapshot cadence
// and fallback, torn-tail truncation, and robustness of the log/snapshot
// readers against truncated or corrupted bytes (clean Status, never a
// crash). The scripted-crash cases live in durability_chaos_test.cc.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>

#include "chain/chain.h"
#include "common/serial.h"
#include "storage/chain_store.h"

namespace pds2::storage {
namespace {

namespace fs = std::filesystem;

using common::Bytes;
using common::StatusCode;
using common::ToBytes;
using crypto::SigningKey;

constexpr uint64_t kGas = 2'000'000;
constexpr uint64_t kGenesis = 10'000'000'000;

class ChainStoreTest : public ::testing::Test {
 protected:
  ChainStoreTest()
      : validator_(SigningKey::FromSeed(ToBytes("validator-0"))),
        alice_(SigningKey::FromSeed(ToBytes("alice"))),
        alice_addr_(chain::AddressFromPublicKey(alice_.PublicKey())),
        bob_addr_(chain::Address(20, 0x42)) {
    dir_ = ::testing::TempDir() + "chain_store_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }

  std::vector<GenesisAccount> Genesis() const {
    return {{alice_addr_, kGenesis}};
  }

  RecoveredChain MustOpen(ChainStoreOptions options = {}) {
    auto recovered = OpenBlockchain(dir_, {validator_.PublicKey()}, Genesis(),
                                    {}, options);
    EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
    return std::move(*recovered);
  }

  // Produces `n` blocks, each carrying one small transfer so the state
  // actually changes block to block. Timestamps continue from the head, so
  // this works across reopens.
  void ProduceBlocks(chain::Blockchain& chain, size_t n) {
    common::SimTime now =
        chain.Height() == 0 ? 0 : chain.blocks().back().header.timestamp;
    for (size_t i = 0; i < n; ++i) {
      auto tx = chain::Transaction::Make(alice_,
                                         chain.GetNonce(alice_addr_),
                                         bob_addr_, 10, kGas,
                                         chain::CallPayload{});
      ASSERT_TRUE(chain.SubmitTransaction(tx).ok());
      auto block = chain.ProduceBlock(validator_, ++now);
      ASSERT_TRUE(block.ok()) << block.status().ToString();
    }
  }

  std::string LogPath() const { return dir_ + "/blocks.log"; }
  std::string SnapshotPath(uint64_t h) const {
    return dir_ + "/snapshot-" + std::to_string(h);
  }

  static void FlipByteAt(const std::string& path, uint64_t offset) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good()) << path;
    f.seekg(0, std::ios::end);
    const uint64_t size = static_cast<uint64_t>(f.tellg());
    ASSERT_LT(offset, size);
    f.seekg(offset);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xff);
    f.seekp(offset);
    f.write(&byte, 1);
  }

  static void AppendBytes(const std::string& path, const Bytes& data) {
    std::ofstream f(path, std::ios::app | std::ios::binary);
    ASSERT_TRUE(f.good()) << path;
    f.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  }

  SigningKey validator_;
  SigningKey alice_;
  chain::Address alice_addr_;
  chain::Address bob_addr_;
  std::string dir_;
};

TEST_F(ChainStoreTest, EmptyDirectoryYieldsFreshGenesisChain) {
  RecoveredChain rec = MustOpen();
  EXPECT_EQ(rec.chain->Height(), 0u);
  EXPECT_EQ(rec.chain->GetBalance(alice_addr_), kGenesis);
  EXPECT_EQ(rec.info.log_blocks, 0u);
  EXPECT_FALSE(rec.info.used_snapshot);
  ProduceBlocks(*rec.chain, 3);
  EXPECT_EQ(rec.store->blocks_logged(), 3u);
  EXPECT_TRUE(rec.store->last_error().ok());
}

TEST_F(ChainStoreTest, ReopenReplaysLogAndResumesAppending) {
  {
    RecoveredChain rec = MustOpen();
    ProduceBlocks(*rec.chain, 5);
  }
  RecoveredChain rec = MustOpen();
  EXPECT_EQ(rec.chain->Height(), 5u);
  EXPECT_FALSE(rec.info.used_snapshot);  // default interval 64 > 5
  EXPECT_EQ(rec.info.replayed_blocks, 5u);
  EXPECT_EQ(rec.info.truncated_bytes, 0u);
  EXPECT_EQ(rec.chain->GetBalance(bob_addr_), 50u);
  EXPECT_EQ(rec.chain->StateDigest(),
            rec.chain->blocks().back().header.state_root);
  // The reopened store keeps persisting.
  ProduceBlocks(*rec.chain, 2);
  RecoveredChain again = MustOpen();
  EXPECT_EQ(again.chain->Height(), 7u);
}

TEST_F(ChainStoreTest, SnapshotBoundsRecoveryReplay) {
  ChainStoreOptions options;
  options.snapshot_interval = 4;
  {
    RecoveredChain rec = MustOpen(options);
    ProduceBlocks(*rec.chain, 10);  // snapshots at heights 4 and 8
    EXPECT_EQ(rec.store->last_snapshot_height(), 8u);
  }
  EXPECT_TRUE(fs::exists(SnapshotPath(8)));
  RecoveredChain rec = MustOpen(options);
  EXPECT_EQ(rec.chain->Height(), 10u);
  EXPECT_TRUE(rec.info.used_snapshot);
  EXPECT_EQ(rec.info.snapshot_height, 8u);
  EXPECT_EQ(rec.info.replayed_blocks, 2u);  // only the log tail
  EXPECT_EQ(rec.chain->GetBalance(bob_addr_), 100u);
  EXPECT_EQ(rec.chain->StateDigest(),
            rec.chain->blocks().back().header.state_root);
}

TEST_F(ChainStoreTest, OldSnapshotsAreGarbageCollected) {
  ChainStoreOptions options;
  options.snapshot_interval = 2;
  RecoveredChain rec = MustOpen(options);
  ProduceBlocks(*rec.chain, 9);  // snapshots at 2,4,6,8; keep newest two
  EXPECT_FALSE(fs::exists(SnapshotPath(2)));
  EXPECT_FALSE(fs::exists(SnapshotPath(4)));
  EXPECT_TRUE(fs::exists(SnapshotPath(6)));
  EXPECT_TRUE(fs::exists(SnapshotPath(8)));
}

TEST_F(ChainStoreTest, TornTailIsTruncatedOnReopen) {
  {
    RecoveredChain rec = MustOpen();
    ProduceBlocks(*rec.chain, 5);
  }
  // A crash mid-append leaves a half-written record: a plausible header
  // promising more payload than exists.
  common::Writer w;
  w.PutU32(100'000);
  w.PutU32(0xdeadbeef);
  const Bytes torn = {1, 2, 3, 4, 5, 6, 7};
  Bytes garbage = w.Take();
  garbage.insert(garbage.end(), torn.begin(), torn.end());
  AppendBytes(LogPath(), garbage);

  RecoveredChain rec = MustOpen();
  EXPECT_EQ(rec.chain->Height(), 5u);
  EXPECT_GT(rec.info.truncated_bytes, 0u);
  // The truncated log accepts new appends cleanly.
  ProduceBlocks(*rec.chain, 1);
  RecoveredChain again = MustOpen();
  EXPECT_EQ(again.chain->Height(), 6u);
  EXPECT_EQ(again.info.truncated_bytes, 0u);
}

TEST_F(ChainStoreTest, CorruptedMiddleRecordDropsTheSuffix) {
  uint64_t log_size = 0;
  {
    RecoveredChain rec = MustOpen();
    ProduceBlocks(*rec.chain, 6);
    log_size = fs::file_size(LogPath());
  }
  FlipByteAt(LogPath(), log_size / 2);  // lands inside some middle record
  RecoveredChain rec = MustOpen();
  // Everything from the corrupt record on is gone (later blocks chain to it
  // by parent hash), but what survives is a valid chain prefix.
  EXPECT_LT(rec.chain->Height(), 6u);
  EXPECT_GT(rec.info.truncated_bytes, 0u);
  if (rec.chain->Height() > 0) {
    EXPECT_EQ(rec.chain->StateDigest(),
              rec.chain->blocks().back().header.state_root);
  }
  EXPECT_EQ(rec.chain->TotalSupply(), kGenesis);
}

TEST_F(ChainStoreTest, CorruptNewestSnapshotFallsBackToOlder) {
  ChainStoreOptions options;
  options.snapshot_interval = 4;
  {
    RecoveredChain rec = MustOpen(options);
    ProduceBlocks(*rec.chain, 10);  // snapshots at 4 and 8
  }
  FlipByteAt(SnapshotPath(8), fs::file_size(SnapshotPath(8)) / 2);
  RecoveredChain rec = MustOpen(options);
  EXPECT_EQ(rec.chain->Height(), 10u);  // the log is intact
  EXPECT_TRUE(rec.info.used_snapshot);
  EXPECT_EQ(rec.info.snapshot_height, 4u);  // fell back past the corrupt one
  EXPECT_EQ(rec.chain->GetBalance(bob_addr_), 100u);
}

TEST_F(ChainStoreTest, AllSnapshotsCorruptStillRecoversFromGenesis) {
  ChainStoreOptions options;
  options.snapshot_interval = 4;
  {
    RecoveredChain rec = MustOpen(options);
    ProduceBlocks(*rec.chain, 10);
  }
  FlipByteAt(SnapshotPath(4), fs::file_size(SnapshotPath(4)) - 1);
  FlipByteAt(SnapshotPath(8), fs::file_size(SnapshotPath(8)) - 1);
  RecoveredChain rec = MustOpen(options);
  EXPECT_EQ(rec.chain->Height(), 10u);
  EXPECT_FALSE(rec.info.used_snapshot);
  EXPECT_EQ(rec.info.replayed_blocks, 10u);
}

TEST_F(ChainStoreTest, TruncatedSnapshotReadReturnsCleanStatus) {
  ChainStoreOptions options;
  options.snapshot_interval = 4;
  {
    RecoveredChain rec = MustOpen(options);
    ProduceBlocks(*rec.chain, 8);
  }
  fs::resize_file(SnapshotPath(8), 10);  // magic + 2 bytes of header
  RecoveredChain rec = MustOpen(options);  // falls back, no crash
  EXPECT_EQ(rec.chain->Height(), 8u);
  auto payload = rec.store->LoadSnapshot(8);
  EXPECT_FALSE(payload.ok());
  EXPECT_EQ(payload.status().code(), StatusCode::kCorruption);
}

TEST_F(ChainStoreTest, ForeignLogMagicIsCleanCorruption) {
  fs::create_directories(dir_);
  AppendBytes(LogPath(), ToBytes("NOTALOG!plus some trailing noise"));
  auto recovered =
      OpenBlockchain(dir_, {validator_.PublicKey()}, Genesis(), {}, {});
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption);
}

TEST_F(ChainStoreTest, LeftoverTempFilesAreSweptOnOpen) {
  {
    RecoveredChain rec = MustOpen();
    ProduceBlocks(*rec.chain, 2);
  }
  AppendBytes(dir_ + "/snapshot-99.tmp", ToBytes("half-written snapshot"));
  RecoveredChain rec = MustOpen();
  EXPECT_EQ(rec.chain->Height(), 2u);
  EXPECT_FALSE(fs::exists(dir_ + "/snapshot-99.tmp"));
}

TEST_F(ChainStoreTest, RewriteReplacesHistoryAtomically) {
  RecoveredChain rec = MustOpen();
  ProduceBlocks(*rec.chain, 3);

  // An alternative (longer) history from the same genesis — the shape fork
  // adoption produces.
  chain::Blockchain other({validator_.PublicKey()},
                          chain::ContractRegistry::CreateDefault());
  ASSERT_TRUE(other.CreditGenesis(alice_addr_, kGenesis).ok());
  ProduceBlocks(other, 5);
  ASSERT_NE(other.LastBlockHash(), rec.chain->LastBlockHash());

  ASSERT_TRUE(rec.store->Rewrite(other).ok());
  rec.chain->SetCommitListener(nullptr);
  rec.store.reset();
  rec.chain.reset();

  RecoveredChain again = MustOpen();
  EXPECT_EQ(again.chain->Height(), 5u);
  EXPECT_EQ(again.chain->LastBlockHash(), other.LastBlockHash());
  EXPECT_EQ(again.chain->StateDigest(), other.StateDigest());
}

TEST_F(ChainStoreTest, RecoveredStateBitMatchesFreshReplay) {
  ChainStoreOptions options;
  options.snapshot_interval = 3;
  {
    RecoveredChain rec = MustOpen(options);
    ProduceBlocks(*rec.chain, 7);
  }
  RecoveredChain rec = MustOpen(options);
  ASSERT_TRUE(rec.info.used_snapshot);  // the fast path, not a full replay

  chain::Blockchain scratch({validator_.PublicKey()},
                            chain::ContractRegistry::CreateDefault());
  ASSERT_TRUE(scratch.CreditGenesis(alice_addr_, kGenesis).ok());
  for (const chain::Block& block : rec.chain->blocks()) {
    ASSERT_TRUE(scratch.ApplyExternalBlock(block).ok());
  }
  EXPECT_EQ(rec.chain->StateDigest(), scratch.StateDigest());
  EXPECT_EQ(rec.chain->TotalSupply(), scratch.TotalSupply());
}

}  // namespace
}  // namespace pds2::storage
