// Property tests over the ledger's global invariants: supply conservation,
// deterministic replay, and robustness of every wire deserializer against
// corrupted or random input.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <vector>

#include "auth/device.h"
#include "chain/chain.h"
#include "chain/contracts/workload.h"
#include "chain/evidence.h"
#include "common/crc32.h"
#include "common/hex.h"
#include "common/rng.h"
#include "common/serial.h"
#include "crypto/ed25519.h"
#include "crypto/sha256.h"
#include "market/spec.h"
#include "storage/provider_store.h"
#include "storage/record_io.h"
#include "storage/semantic.h"
#include "store/artifact_store.h"
#include "store/discovery.h"
#include "tee/attestation.h"

namespace pds2::chain {
namespace {

using common::Bytes;
using common::Rng;
using common::ToBytes;
using common::Writer;
using crypto::SigningKey;

// --- Supply conservation under random transaction streams -------------------

class SupplyConservation : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SupplyConservation, RandomTransfersAndContractCallsConserveSupply) {
  Rng rng(GetParam());
  SigningKey validator = SigningKey::FromSeed(ToBytes("v"));
  Blockchain chain({validator.PublicKey()}, ContractRegistry::CreateDefault());

  std::vector<SigningKey> actors;
  uint64_t genesis_total = 0;
  for (int i = 0; i < 5; ++i) {
    actors.push_back(SigningKey::FromSeed(ToBytes("a" + std::to_string(i))));
    const uint64_t amount = 1'000'000 + rng.NextU64(1'000'000);
    ASSERT_TRUE(chain
                    .CreditGenesis(
                        AddressFromPublicKey(actors.back().PublicKey()), amount)
                    .ok());
    genesis_total += amount;
  }
  EXPECT_EQ(chain.TotalSupply(), genesis_total);

  // Deploy a token contract as extra state churn.
  Writer deploy;
  deploy.PutString("T");
  deploy.PutU64(1000);
  Transaction deploy_tx = Transaction::Make(
      actors[0], 0, Address{}, 0, 1'000'000,
      CallPayload{"erc20", 0, "deploy", deploy.Take()});
  ASSERT_TRUE(chain.SubmitTransaction(deploy_tx).ok());

  common::SimTime now = 0;
  for (int round = 0; round < 10; ++round) {
    // A burst of random (sometimes invalid) transactions.
    for (int t = 0; t < 6; ++t) {
      const size_t from = rng.NextU64(actors.size());
      const size_t to = rng.NextU64(actors.size());
      const uint64_t value = rng.NextU64(2'000'000);  // may exceed balance
      Transaction tx = Transaction::Make(
          actors[from],
          chain.GetNonce(AddressFromPublicKey(actors[from].PublicKey())),
          AddressFromPublicKey(actors[to].PublicKey()), value, 200'000,
          CallPayload{});
      (void)chain.SubmitTransaction(tx);
      // Note: same-nonce txs from one sender in a round; later ones are
      // dropped as stale — also part of the property.
    }
    ASSERT_TRUE(chain.ProduceBlock(validator, ++now).ok());
    EXPECT_EQ(chain.TotalSupply(), genesis_total) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SupplyConservation,
                         ::testing::Values(1, 2, 3, 7, 1234));

// --- Deserializer fuzz: random bytes must error, never crash -----------------

class DeserializerFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeserializerFuzz, RandomBytesAreRejectedGracefully) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const size_t len = rng.NextU64(300);
    Bytes junk = rng.NextBytes(len);
    // Every wire format in the system; none may crash or accept-and-verify.
    (void)Transaction::Deserialize(junk);
    (void)BlockHeader::Deserialize(junk);
    (void)Block::Deserialize(junk);
    (void)EquivocationEvidence::Deserialize(junk);
    (void)contracts::ParticipationCert::Deserialize(junk);
    (void)tee::AttestationQuote::Deserialize(junk);
    (void)auth::SignedReading::Deserialize(junk);
    (void)market::WorkloadSpec::Deserialize(junk);
    (void)storage::Ontology::Deserialize(junk);
    (void)storage::SemanticMetadata::Deserialize(junk);
    (void)storage::DataRequirement::Deserialize(junk);
    (void)WorldState::DeserializeSnapshot(junk);
    (void)StateProof::Deserialize(junk);
    (void)storage::DeserializeDataset(junk);
    (void)store::ArtifactStore::DecodeManifest(junk);
    (void)crypto::EdPoint::Decode(junk);
    (void)storage::DecodeCrcRecord(junk);
    common::Reader advert_reader(junk);
    (void)store::Advert::Deserialize(advert_reader);
    // The index checks its CRC first, so frame the junk with a valid one
    // as any sender can: the count and advert decoders must hold alone.
    store::DiscoveryIndex index;
    (void)index.Merge(junk);
    Writer framed;
    framed.PutU32(common::Crc32c(junk));
    framed.PutRaw(junk);
    (void)index.Merge(framed.Take());
  }
  SUCCEED();
}

// The record-file open: intact records, then random damage, after a valid
// magic. The open must not crash, must hand back a prefix of the intact
// records, and must cut the file to the end of that prefix.
TEST_P(DeserializerFuzz, RecordFileOpenKeepsAnIntactPrefix) {
  namespace fs = std::filesystem;
  const storage::FileMagic magic = {'F', 'U', 'Z', 'Z', 'R', 'E', 'C', 1};
  const std::string dir = ::testing::TempDir() + "record_fuzz_" +
                          std::to_string(GetParam());
  fs::remove_all(dir);
  Rng rng(GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<Bytes> written(rng.NextU64(5));
    Bytes file(magic.begin(), magic.end());
    for (Bytes& payload : written) {
      payload = rng.NextBytes(rng.NextU64(40));
      common::Append(file, storage::EncodeCrcRecord(payload));
    }
    switch (rng.NextU64(3)) {
      case 0:  // random bytes behind the records
        common::Append(file, rng.NextBytes(rng.NextU64(64)));
        break;
      case 1:  // a flipped byte anywhere after the magic
        if (file.size() > magic.size()) {
          file[magic.size() + rng.NextU64(file.size() - magic.size())] ^=
              static_cast<uint8_t>(1 + rng.NextU64(255));
        }
        break;
      default:  // a torn tail
        file.resize(magic.size() + rng.NextU64(file.size() - magic.size() + 1));
        break;
    }
    fs::create_directories(dir);
    std::ofstream(dir + "/log", std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(file.data()),
               static_cast<std::streamsize>(file.size()));

    auto records = storage::RecordDir::Open(dir, /*fsync=*/false);
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    std::vector<Bytes> read;
    auto log = (*records)->OpenLog("log", magic, [&read](Bytes payload) {
      read.push_back(std::move(payload));
      return true;
    });
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    ASSERT_LE(read.size(), written.size());
    uint64_t prefix_bytes = magic.size();
    for (size_t i = 0; i < read.size(); ++i) {
      ASSERT_EQ(read[i], written[i]) << "trial " << trial << " record " << i;
      prefix_bytes += storage::kRecordFrameBytes + read[i].size();
    }
    EXPECT_EQ(fs::file_size(dir + "/log"), prefix_bytes) << "trial " << trial;
    EXPECT_EQ((*log)->truncated_bytes(), file.size() - prefix_bytes);
  }
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeserializerFuzz,
                         ::testing::Values(10, 20, 30, 40));

// Canonicality: every accepted input must re-encode to exactly itself, so
// no value has two accepted wire forms. Driven by every single-bit flip and
// every truncation of each valid seed, random extensions, and shifted
// length prefixes (every little-endian u32 that could be one).
void ExpectCanonicalUnderMutation(
    const std::vector<Bytes>& seeds, Rng& rng,
    const std::function<std::optional<Bytes>(const Bytes&)>& reencode) {
  auto check = [&](const Bytes& input) {
    const std::optional<Bytes> again = reencode(input);
    if (again) {
      EXPECT_EQ(*again, input) << common::HexEncode(input);
    }
  };
  for (const Bytes& seed : seeds) {
    ASSERT_EQ(reencode(seed), seed);
    for (size_t bit = 0; bit < seed.size() * 8; ++bit) {
      Bytes flipped = seed;
      flipped[bit / 8] ^= static_cast<uint8_t>(1 << (bit % 8));
      check(flipped);
    }
    for (size_t len = 0; len < seed.size(); ++len) {
      check(Bytes(seed.begin(), seed.begin() + static_cast<ptrdiff_t>(len)));
    }
    for (int trial = 0; trial < 16; ++trial) {
      Bytes extended = seed;
      common::Append(extended, rng.NextBytes(1 + rng.NextU64(8)));
      check(extended);
    }
    for (size_t at = 0; at + 4 <= seed.size(); ++at) {
      uint32_t prefix = 0;
      for (int i = 0; i < 4; ++i) prefix |= uint32_t{seed[at + i]} << (8 * i);
      if (prefix > seed.size()) continue;
      for (uint32_t shifted : {prefix - 1, prefix + 1, prefix + 32, 0u,
                               0xFFFFFFFFu}) {
        Bytes mutated = seed;
        for (int i = 0; i < 4; ++i) {
          mutated[at + i] = static_cast<uint8_t>(shifted >> (8 * i));
        }
        check(mutated);
      }
    }
  }
}

TEST(CanonicalEncoding, EdPointDecodeAcceptsOnlyCanonicalBytes) {
  Rng rng(11);
  std::vector<Bytes> seeds = {crypto::EdPoint::Identity().Encode()};
  for (uint64_t k : {1, 2, 12345}) {
    seeds.push_back(
        crypto::EdPoint::ScalarBaseMul(crypto::BigUint(k)).Encode());
  }
  ExpectCanonicalUnderMutation(
      seeds, rng, [](const Bytes& b) -> std::optional<Bytes> {
        auto point = crypto::EdPoint::Decode(b);
        if (!point.ok()) return std::nullopt;
        return point->Encode();
      });
}

TEST(CanonicalEncoding, CrcRecordDecodeAcceptsOnlyCanonicalBytes) {
  Rng rng(12);
  const std::vector<Bytes> seeds = {
      storage::EncodeCrcRecord({}), storage::EncodeCrcRecord(ToBytes("x")),
      storage::EncodeCrcRecord(rng.NextBytes(40))};
  ExpectCanonicalUnderMutation(
      seeds, rng, [](const Bytes& b) -> std::optional<Bytes> {
        auto payload = storage::DecodeCrcRecord(b);
        if (!payload.ok()) return std::nullopt;
        return storage::EncodeCrcRecord(*payload);
      });
}

TEST(CanonicalEncoding, AdvertDecodeAcceptsOnlyCanonicalBytes) {
  Rng rng(13);
  store::Advert full;
  full.content_hash = rng.NextBytes(32);
  full.provider = "provider-7";
  full.tags = {"schema:iot", "memo:ab12", ""};
  full.size_bytes = 4096;
  full.price = 17;
  full.version = 3;
  const std::vector<Bytes> seeds = {store::Advert().Serialize(),
                                    full.Serialize()};
  ExpectCanonicalUnderMutation(
      seeds, rng, [](const Bytes& b) -> std::optional<Bytes> {
        common::Reader r(b);
        auto advert = store::Advert::Deserialize(r);
        if (!advert.ok() || !r.AtEnd()) return std::nullopt;
        return advert->Serialize();
      });
}

TEST(CanonicalEncoding, StateProofDecodeAcceptsOnlyCanonicalBytes) {
  Rng rng(14);
  WorldState state;
  ASSERT_TRUE(state.Credit(Bytes(kAddressSize, 3), 9).ok());
  state.StoragePut("ns", ToBytes("k"), ToBytes("v"));
  const Hash root = state.Digest();
  const std::vector<Bytes> seeds = {
      StateProof().Serialize(),
      state.ProveAccount(Bytes(kAddressSize, 3)).Serialize(),
      state.ProveSlot("ns", ToBytes("absent")).Serialize()};
  ExpectCanonicalUnderMutation(
      seeds, rng, [&root](const Bytes& b) -> std::optional<Bytes> {
        auto proof = StateProof::Deserialize(b);
        if (!proof.ok()) return std::nullopt;
        // Whatever decodes must also be safe to verify.
        (void)WorldState::VerifySlot(root, "ns", ToBytes("k"), *proof);
        (void)WorldState::VerifyAccount(root, Bytes(kAddressSize, 3), *proof);
        return proof->Serialize();
      });
}

// A transaction or header id hashes the re-serialization, so the check
// pins that the bytes a node accepts are the bytes the id names.
std::vector<Transaction> SeedTransactions() {
  const SigningKey sender = SigningKey::FromSeed(ToBytes("canonical-tx"));
  CallPayload call;
  call.contract = "workload";
  call.instance = 3;
  call.method = "vote";
  call.args = ToBytes("args");
  return {Transaction(),
          Transaction::Make(sender, 0, Bytes(kAddressSize, 9), 5, 21000,
                            CallPayload{}),
          Transaction::Make(sender, 7, Bytes(kAddressSize, 1), 0, 90000,
                            call, 2)};
}

// Two blocks of a running chain: one empty, one with transactions.
std::vector<Block> SeedBlocks() {
  const SigningKey validator = SigningKey::FromSeed(ToBytes("canonical-v"));
  const SigningKey sender = SigningKey::FromSeed(ToBytes("canonical-s"));
  Blockchain chain({validator.PublicKey()}, ContractRegistry::CreateDefault());
  EXPECT_TRUE(chain.CreditGenesis(AddressFromPublicKey(sender.PublicKey()),
                                  1'000'000)
                  .ok());
  std::vector<Block> blocks = {Block(), *chain.ProduceBlock(validator, 1)};
  for (uint64_t nonce = 0; nonce < 2; ++nonce) {
    EXPECT_TRUE(chain
                    .SubmitTransaction(Transaction::Make(
                        sender, nonce, Bytes(kAddressSize, 4), 10, 100000,
                        CallPayload{}))
                    .ok());
  }
  blocks.push_back(*chain.ProduceBlock(validator, 2));
  return blocks;
}

TEST(CanonicalEncoding, TransactionDecodeAcceptsOnlyCanonicalBytes) {
  Rng rng(15);
  std::vector<Bytes> seeds;
  for (const Transaction& tx : SeedTransactions()) {
    seeds.push_back(tx.Serialize());
  }
  ExpectCanonicalUnderMutation(
      seeds, rng, [](const Bytes& b) -> std::optional<Bytes> {
        auto tx = Transaction::Deserialize(b);
        if (!tx.ok()) return std::nullopt;
        EXPECT_EQ(tx->Id(), crypto::Sha256::Hash(b));
        return tx->Serialize();
      });
}

TEST(CanonicalEncoding, BlockHeaderDecodeAcceptsOnlyCanonicalBytes) {
  Rng rng(16);
  std::vector<Bytes> seeds;
  for (const Block& block : SeedBlocks()) {
    seeds.push_back(block.header.Serialize());
  }
  ExpectCanonicalUnderMutation(
      seeds, rng, [](const Bytes& b) -> std::optional<Bytes> {
        auto header = BlockHeader::Deserialize(b);
        if (!header.ok()) return std::nullopt;
        EXPECT_EQ(header->Id(), crypto::Sha256::Hash(b));
        return header->Serialize();
      });
}

TEST(CanonicalEncoding, BlockDecodeAcceptsOnlyCanonicalBytes) {
  Rng rng(17);
  std::vector<Bytes> seeds;
  for (const Block& block : SeedBlocks()) seeds.push_back(block.Serialize());
  ExpectCanonicalUnderMutation(
      seeds, rng, [](const Bytes& b) -> std::optional<Bytes> {
        auto block = Block::Deserialize(b);
        if (!block.ok()) return std::nullopt;
        return block->Serialize();
      });
}

// Evidence arrives inside transaction args from any submitter. The seed is
// a real double-sign: one validator's block 0 on two chains with different
// timestamps.
TEST(CanonicalEncoding, EquivocationEvidenceDecodeAcceptsOnlyCanonicalBytes) {
  Rng rng(18);
  const SigningKey validator = SigningKey::FromSeed(ToBytes("canonical-v"));
  const std::vector<Bytes> validators = {validator.PublicKey()};
  Blockchain fork_a(validators, ContractRegistry::CreateDefault());
  Blockchain fork_b(validators, ContractRegistry::CreateDefault());
  const EquivocationEvidence evidence{
      fork_a.ProduceBlock(validator, 1)->header,
      fork_b.ProduceBlock(validator, 2)->header};
  ASSERT_TRUE(evidence.Verify(validators).ok());
  ExpectCanonicalUnderMutation(
      {EquivocationEvidence().Serialize(), evidence.Serialize()}, rng,
      [&validators](const Bytes& b) -> std::optional<Bytes> {
        auto decoded = EquivocationEvidence::Deserialize(b);
        if (!decoded.ok()) return std::nullopt;
        // Whatever decodes must also be safe to verify.
        (void)decoded->Verify(validators);
        return decoded->Serialize();
      });
}

// Crafted seeds: a huge element count with no elements behind it must be
// rejected as Corruption, not turned into a giant reserve() that aborts.
TEST(CraftedDecoderInput, HugeElementCountsAreRejected) {
  Bytes block = Block().Serialize();
  for (size_t i = block.size() - 4; i < block.size(); ++i) block[i] = 0xFF;
  auto parsed_block = Block::Deserialize(block);
  ASSERT_FALSE(parsed_block.ok());
  EXPECT_EQ(parsed_block.status().code(), common::StatusCode::kCorruption);

  Writer dataset;
  dataset.PutU64(uint64_t{1} << 63);
  auto parsed_dataset = storage::DeserializeDataset(dataset.Take());
  ASSERT_FALSE(parsed_dataset.ok());
  EXPECT_EQ(parsed_dataset.status().code(), common::StatusCode::kCorruption);

  Writer manifest;
  manifest.PutU64(0);
  manifest.PutU32(0xFFFFFFFF);
  auto parsed_manifest = store::ArtifactStore::DecodeManifest(manifest.Take());
  ASSERT_FALSE(parsed_manifest.ok());
  EXPECT_EQ(parsed_manifest.status().code(), common::StatusCode::kCorruption);

  // Gossip input: any sender can compute the index CRC, so only the count
  // check stands between a peer and a huge reserve().
  Writer advert;
  advert.PutBytes(Bytes(32, 1));
  advert.PutString("p");
  advert.PutU32(0xFFFFFFFF);
  const Bytes advert_bytes = advert.Take();
  common::Reader advert_reader(advert_bytes);
  auto parsed_advert = store::Advert::Deserialize(advert_reader);
  ASSERT_FALSE(parsed_advert.ok());
  EXPECT_EQ(parsed_advert.status().code(), common::StatusCode::kCorruption);

  Writer index_body;
  index_body.PutU32(0xFFFFFFFF);
  const Bytes body = index_body.Take();
  Writer index;
  index.PutU32(common::Crc32c(body));
  index.PutRaw(body);
  store::DiscoveryIndex discovery;
  auto merged = discovery.Merge(index.Take());
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), common::StatusCode::kCorruption);

  Writer proof;
  proof.PutBytes({});
  proof.PutU32(0xFFFFFFFF);  // path steps
  auto parsed_proof = StateProof::Deserialize(proof.Take());
  ASSERT_FALSE(parsed_proof.ok());
  EXPECT_EQ(parsed_proof.status().code(), common::StatusCode::kCorruption);
}

// --- Truncation fuzz: every prefix of a valid message is rejected -----------

TEST(TruncationFuzz, EveryPrefixOfAValidTransactionIsRejected) {
  SigningKey key = SigningKey::FromSeed(ToBytes("k"));
  Transaction tx =
      Transaction::Make(key, 3, Address(kAddressSize, 1), 42, 100000,
                        CallPayload{"erc20", 1, "transfer", Bytes(20, 7)});
  const Bytes full = tx.Serialize();
  ASSERT_TRUE(Transaction::Deserialize(full).ok());
  for (size_t cut = 0; cut < full.size(); ++cut) {
    Bytes prefix(full.begin(), full.begin() + static_cast<ptrdiff_t>(cut));
    auto result = Transaction::Deserialize(prefix);
    EXPECT_FALSE(result.ok()) << "prefix length " << cut;
  }
}

TEST(TruncationFuzz, EveryPrefixOfAValidCertIsRejected) {
  SigningKey provider = SigningKey::FromSeed(ToBytes("p"));
  contracts::ParticipationCert cert;
  cert.workload_instance = 9;
  cert.provider_public_key = provider.PublicKey();
  cert.executor_public_key = provider.PublicKey();
  cert.data_commitment = Bytes(32, 2);
  cert.num_records = 10;
  cert.Sign(provider);
  const Bytes full = cert.Serialize();
  ASSERT_TRUE(contracts::ParticipationCert::Deserialize(full).ok());
  for (size_t cut = 0; cut < full.size(); ++cut) {
    Bytes prefix(full.begin(), full.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(contracts::ParticipationCert::Deserialize(prefix).ok());
  }
}

// --- Bit-flip fuzz: flipped valid messages never verify ---------------------

TEST(BitFlipFuzz, FlippedTransactionsNeverVerify) {
  Rng rng(5);
  SigningKey key = SigningKey::FromSeed(ToBytes("k"));
  Transaction tx = Transaction::Make(key, 0, Address(kAddressSize, 1), 1,
                                     100000, CallPayload{});
  const Bytes full = tx.Serialize();
  for (int trial = 0; trial < 100; ++trial) {
    Bytes mutated = full;
    mutated[rng.NextU64(mutated.size())] ^=
        static_cast<uint8_t>(1 << rng.NextU64(8));
    auto parsed = Transaction::Deserialize(mutated);
    if (!parsed.ok()) continue;  // structurally broken: fine
    EXPECT_FALSE(parsed->VerifySignature().ok())
        << "bit flip accepted by signature check";
  }
}

}  // namespace
}  // namespace pds2::chain
