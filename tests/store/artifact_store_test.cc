// Content-addressed artifact store: Put/Get roundtrips, chunk-level dedup
// accounting, verified reads that fail closed on corruption, and the
// durable CRC-framed layout (reopen, torn-tail truncation, bit-rot
// detection, interrupted creation, and kill-and-reopen at the scripted
// crash points the chain store shares).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/fault.h"
#include "common/result.h"
#include "common/rng.h"
#include "store/artifact_store.h"

namespace pds2::store {
namespace {

namespace fs = std::filesystem;
using common::Bytes;
using common::Rng;
using common::StatusCode;

Bytes RandomBlob(size_t n, Rng& rng) {
  Bytes blob(n);
  for (auto& b : blob) b = static_cast<uint8_t>(rng.NextU64(255));
  return blob;
}

class ArtifactStoreTest : public ::testing::Test {
 protected:
  ArtifactStoreTest() : rng_(1234) {
    dir_ = ::testing::TempDir() + "artifact_store_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
  }
  ~ArtifactStoreTest() override {
    common::DisarmCrash();
    fs::remove_all(dir_);
  }

  static std::unique_ptr<ArtifactStore> OpenOrDie(ArtifactStoreOptions opt) {
    auto store = ArtifactStore::Open(opt);
    EXPECT_TRUE(store.ok()) << store.status().message();
    return store.ok() ? std::move(*store) : nullptr;
  }

  Rng rng_;
  std::string dir_;
};

TEST_F(ArtifactStoreTest, PutGetRoundtripAndIdempotentPut) {
  auto store = OpenOrDie({});
  const Bytes blob = RandomBlob(10'000, rng_);

  auto addr = store->Put(blob);
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(store->NumArtifacts(), 1u);

  auto back = store->Get(*addr);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, blob);

  // Re-putting the same bytes is a no-op with the same address.
  const uint64_t stored_before = store->StoredBytes();
  auto addr2 = store->Put(blob);
  ASSERT_TRUE(addr2.ok());
  EXPECT_EQ(*addr2, *addr);
  EXPECT_EQ(store->NumArtifacts(), 1u);
  EXPECT_EQ(store->StoredBytes(), stored_before);
}

TEST_F(ArtifactStoreTest, EmptyAndSubChunkBlobsRoundtrip) {
  auto store = OpenOrDie({});
  for (size_t n : {size_t{0}, size_t{1}, size_t{100}, size_t{4096},
                   size_t{4097}}) {
    const Bytes blob = RandomBlob(n, rng_);
    auto addr = store->Put(blob);
    ASSERT_TRUE(addr.ok()) << "size " << n;
    auto back = store->Get(*addr);
    ASSERT_TRUE(back.ok()) << "size " << n;
    EXPECT_EQ(*back, blob) << "size " << n;
  }
}

TEST_F(ArtifactStoreTest, UnknownAddressIsNotFound) {
  auto store = OpenOrDie({});
  EXPECT_EQ(store->Get(Bytes(32, 0xab)).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ArtifactStoreTest, OverlappingBlobsDeduplicateByChunk) {
  ArtifactStoreOptions opt;
  opt.chunk_size = 256;
  auto store = OpenOrDie(opt);

  // Two "dataset revisions": same first 8 chunks, divergent tail.
  Bytes shared = RandomBlob(8 * 256, rng_);
  Bytes a = shared;
  Bytes tail_a = RandomBlob(2 * 256, rng_);
  a.insert(a.end(), tail_a.begin(), tail_a.end());
  Bytes b = shared;
  Bytes tail_b = RandomBlob(2 * 256, rng_);
  b.insert(b.end(), tail_b.begin(), tail_b.end());

  auto addr_a = store->Put(a);
  auto addr_b = store->Put(b);
  ASSERT_TRUE(addr_a.ok());
  ASSERT_TRUE(addr_b.ok());
  EXPECT_NE(*addr_a, *addr_b);

  // 10 + 10 logical chunks, but the 8 shared ones are stored once.
  EXPECT_EQ(store->LogicalBytes(), 20u * 256);
  EXPECT_EQ(store->StoredBytes(), 12u * 256);
  EXPECT_GT(store->DedupRatio(), 1.0);

  // Both reassemble intact despite sharing storage.
  auto back_a = store->Get(*addr_a);
  auto back_b = store->Get(*addr_b);
  ASSERT_TRUE(back_a.ok());
  ASSERT_TRUE(back_b.ok());
  EXPECT_EQ(*back_a, a);
  EXPECT_EQ(*back_b, b);
}

TEST_F(ArtifactStoreTest, DurableStoreReopensWithArtifacts) {
  ArtifactStoreOptions opt;
  opt.dir = dir_;
  opt.chunk_size = 256;

  Bytes blob_a = RandomBlob(5 * 256 + 17, rng_);
  Bytes blob_b = RandomBlob(2 * 256, rng_);
  Bytes addr_a, addr_b;
  {
    auto store = OpenOrDie(opt);
    auto a = store->Put(blob_a);
    auto b = store->Put(blob_b);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    addr_a = *a;
    addr_b = *b;
  }

  auto store = OpenOrDie(opt);
  EXPECT_EQ(store->NumArtifacts(), 2u);
  auto back_a = store->Get(addr_a);
  auto back_b = store->Get(addr_b);
  ASSERT_TRUE(back_a.ok());
  ASSERT_TRUE(back_b.ok());
  EXPECT_EQ(*back_a, blob_a);
  EXPECT_EQ(*back_b, blob_b);
  EXPECT_EQ(store->LogicalBytes(), blob_a.size() + blob_b.size());
}

TEST_F(ArtifactStoreTest, TornTailRecordIsTruncatedAtReplay) {
  ArtifactStoreOptions opt;
  opt.dir = dir_;
  opt.chunk_size = 256;

  Bytes addr;
  {
    auto store = OpenOrDie(opt);
    auto a = store->Put(RandomBlob(4 * 256, rng_));
    ASSERT_TRUE(a.ok());
    addr = *a;
  }

  // Simulate a torn append: chop bytes off the end of the pack file.
  const std::string pack = dir_ + "/chunks.pack";
  ASSERT_TRUE(fs::exists(pack));
  const auto full_size = fs::file_size(pack);
  fs::resize_file(pack, full_size - 5);

  // Replay survives (truncates the torn record); the artifact whose chunk
  // was lost fails closed instead of returning garbage.
  Bytes later;
  {
    auto store = OpenOrDie(opt);
    EXPECT_FALSE(store->Get(addr).ok());
    EXPECT_LT(fs::file_size(pack), full_size - 5);

    // A put after recovery appends behind the last clean record...
    auto b = store->Put(RandomBlob(3 * 256, rng_));
    ASSERT_TRUE(b.ok());
    later = *b;
    EXPECT_TRUE(store->Get(later).ok());
  }
  // ...so it survives the next reopen.
  auto store = OpenOrDie(opt);
  auto got = store->Get(later);
  EXPECT_TRUE(got.ok()) << got.status().ToString();
}

TEST_F(ArtifactStoreTest, BitRottedChunkIsRejectedByCrcAtReplay) {
  ArtifactStoreOptions opt;
  opt.dir = dir_;
  opt.chunk_size = 256;

  Bytes addr;
  {
    auto store = OpenOrDie(opt);
    auto a = store->Put(RandomBlob(4 * 256, rng_));
    ASSERT_TRUE(a.ok());
    addr = *a;
  }

  // Flip one byte in the middle of the pack: the framed record's CRC (or
  // the chunk's content hash) catches it, and the read fails closed.
  const std::string pack = dir_ + "/chunks.pack";
  const auto size = fs::file_size(pack);
  {
    std::fstream f(pack,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(size / 2));
    f.write(&byte, 1);
  }

  auto store = OpenOrDie(opt);
  auto got = store->Get(addr);
  EXPECT_FALSE(got.ok());
}

// Creation killed before the magic landed leaves an empty file; it opens as
// a fresh one, as the chain store's empty blocks.log does.
TEST_F(ArtifactStoreTest, EmptyFileFromInterruptedCreationOpensFresh) {
  for (const char* name : {"chunks.pack", "manifests.log"}) {
    SCOPED_TRACE(name);
    fs::remove_all(dir_);
    ArtifactStoreOptions opt;
    opt.dir = dir_;
    opt.chunk_size = 256;
    const Bytes blob = RandomBlob(3 * 256, rng_);
    Bytes addr;
    {
      auto store = OpenOrDie(opt);
      ASSERT_NE(store, nullptr);
      auto a = store->Put(blob);
      ASSERT_TRUE(a.ok());
      addr = *a;
    }
    fs::resize_file(dir_ + "/" + name, 0);

    {
      auto store = OpenOrDie(opt);
      ASSERT_NE(store, nullptr);
      // The store keeps working: a fresh put lands in the file.
      auto a = store->Put(blob);
      ASSERT_TRUE(a.ok());
    }
    auto store = OpenOrDie(opt);
    ASSERT_NE(store, nullptr);
    auto back = store->Get(addr);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, blob);
    EXPECT_EQ(store->NumArtifacts(), 1u);
  }
}

TEST_F(ArtifactStoreTest, LeftoverTmpFileIsSweptOnOpen) {
  ArtifactStoreOptions opt;
  opt.dir = dir_;
  fs::create_directories(dir_);
  const std::string tmp = dir_ + "/chunks.pack.tmp";
  std::ofstream(tmp, std::ios::binary) << "half a replace";
  ASSERT_TRUE(fs::exists(tmp));
  auto store = OpenOrDie(opt);
  ASSERT_NE(store, nullptr);
  EXPECT_FALSE(fs::exists(tmp));
}

// kLogMidAppend inside a multi-chunk Put: the store dies with half a chunk
// record on disk. After a reopen the earlier artifact still reads back and
// the interrupted one was never stored.
TEST_F(ArtifactStoreTest, CrashMidAppendDuringPutKeepsEarlierArtifacts) {
  ArtifactStoreOptions opt;
  opt.dir = dir_;
  opt.chunk_size = 256;
  const Bytes earlier_blob = RandomBlob(4 * 256, rng_);
  const Bytes torn_blob = RandomBlob(5 * 256, rng_);
  Bytes earlier, torn;
  {
    auto store = OpenOrDie(opt);
    auto a = store->Put(earlier_blob);
    ASSERT_TRUE(a.ok());
    earlier = *a;
    // The address the interrupted put would have had.
    ArtifactStoreOptions in_memory;
    in_memory.chunk_size = opt.chunk_size;
    torn = *OpenOrDie(in_memory)->Put(torn_blob);

    const uint64_t fired_before = common::CrashesFired();
    common::ArmCrash(common::CrashPoint::kLogMidAppend);
    auto b = store->Put(torn_blob);
    ASSERT_FALSE(b.ok());
    EXPECT_EQ(b.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(common::CrashesFired(), fired_before + 1);
    // Dead until reopened, like a killed process.
    EXPECT_EQ(store->Put(RandomBlob(256, rng_)).status().code(),
              StatusCode::kUnavailable);
  }
  auto store = OpenOrDie(opt);
  auto back = store->Get(earlier);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, earlier_blob);
  EXPECT_EQ(store->Get(torn).status().code(), StatusCode::kNotFound);
  // The reopened store accepts the interrupted put again.
  auto again = store->Put(torn_blob);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, torn);
}

}  // namespace
}  // namespace pds2::store
