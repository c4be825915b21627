#include <gtest/gtest.h>

#include <memory>

#include "chain/chain.h"
#include "chain/contracts/actor_registry.h"
#include "common/hex.h"
#include "common/rng.h"
#include "common/serial.h"
#include "crypto/sha256.h"

namespace pds2::chain {
namespace {

using common::Bytes;
using common::Reader;
using common::Rng;
using common::ToBytes;
using common::Writer;
using crypto::SigningKey;

constexpr uint64_t kGas = 2'000'000;

class ChainTest : public ::testing::Test {
 protected:
  ChainTest()
      : validator_(SigningKey::FromSeed(ToBytes("validator-0"))),
        alice_(SigningKey::FromSeed(ToBytes("alice"))),
        bob_(SigningKey::FromSeed(ToBytes("bob"))),
        chain_({validator_.PublicKey()}, ContractRegistry::CreateDefault()) {
    EXPECT_TRUE(chain_.CreditGenesis(AddressOf(alice_), 10'000'000'000).ok());
    EXPECT_TRUE(chain_.CreditGenesis(AddressOf(bob_), 10'000'000'000).ok());
  }

  static Address AddressOf(const SigningKey& key) {
    return AddressFromPublicKey(key.PublicKey());
  }

  // Submits, mines and returns the receipt.
  Receipt Run(const Transaction& tx) {
    EXPECT_TRUE(chain_.SubmitTransaction(tx).ok());
    auto block = chain_.ProduceBlock(validator_, ++now_);
    EXPECT_TRUE(block.ok()) << block.status().ToString();
    auto receipt = chain_.GetReceipt(tx.Id());
    EXPECT_TRUE(receipt.ok());
    return *receipt;
  }

  Transaction Transfer(const SigningKey& from, const Address& to,
                       uint64_t value) {
    return Transaction::Make(from, chain_.GetNonce(AddressOf(from)), to, value,
                             kGas, CallPayload{});
  }

  SigningKey validator_;
  SigningKey alice_;
  SigningKey bob_;
  Blockchain chain_;
  common::SimTime now_ = 0;
};

TEST_F(ChainTest, GenesisAfterFirstBlockRejected) {
  (void)Run(Transfer(alice_, AddressOf(bob_), 1));
  EXPECT_FALSE(chain_.CreditGenesis(AddressOf(alice_), 1).ok());
}

TEST_F(ChainTest, PlainTransferMovesValueAndChargesGas) {
  const uint64_t before_alice = chain_.GetBalance(AddressOf(alice_));
  const uint64_t before_bob = chain_.GetBalance(AddressOf(bob_));
  Receipt receipt = Run(Transfer(alice_, AddressOf(bob_), 12345));
  EXPECT_TRUE(receipt.success) << receipt.error;
  EXPECT_EQ(chain_.GetBalance(AddressOf(bob_)), before_bob + 12345);
  EXPECT_EQ(chain_.GetBalance(AddressOf(alice_)),
            before_alice - 12345 - receipt.gas_used);
  // Proposer collected the fee.
  EXPECT_EQ(chain_.GetBalance(AddressOf(validator_)), receipt.gas_used);
}

TEST_F(ChainTest, UnsignedGarbageRejectedAtSubmission) {
  Transaction tx = Transfer(alice_, AddressOf(bob_), 1);
  Bytes raw = tx.Serialize();
  raw[raw.size() - 10] ^= 0xff;  // corrupt signature
  auto tampered = Transaction::Deserialize(raw);
  ASSERT_TRUE(tampered.ok());
  EXPECT_FALSE(chain_.SubmitTransaction(*tampered).ok());
}

TEST_F(ChainTest, WrongProposerCannotProduce) {
  auto result = chain_.ProduceBlock(alice_, 1);
  EXPECT_EQ(result.status().code(), common::StatusCode::kPermissionDenied);
}

TEST_F(ChainTest, NonceOrderingEnforced) {
  // Future-nonce tx stays pooled until the gap is filled.
  Transaction tx_future = Transaction::Make(alice_, 5, AddressOf(bob_), 1,
                                            kGas, CallPayload{});
  EXPECT_TRUE(chain_.SubmitTransaction(tx_future).ok());
  auto block = chain_.ProduceBlock(validator_, ++now_);
  ASSERT_TRUE(block.ok());
  EXPECT_TRUE(block->transactions.empty());
  EXPECT_EQ(chain_.MempoolSize(), 1u);
}

TEST_F(ChainTest, MultipleTxsFromOneSenderInOneBlock) {
  Transaction t0 = Transaction::Make(alice_, 0, AddressOf(bob_), 1, kGas, {});
  Transaction t1 = Transaction::Make(alice_, 1, AddressOf(bob_), 2, kGas, {});
  Transaction t2 = Transaction::Make(alice_, 2, AddressOf(bob_), 3, kGas, {});
  EXPECT_TRUE(chain_.SubmitTransaction(t2).ok());  // out of order
  EXPECT_TRUE(chain_.SubmitTransaction(t0).ok());
  EXPECT_TRUE(chain_.SubmitTransaction(t1).ok());
  auto block = chain_.ProduceBlock(validator_, ++now_);
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(block->transactions.size(), 3u);
  EXPECT_EQ(chain_.GetNonce(AddressOf(alice_)), 3u);
}

TEST_F(ChainTest, InsufficientBalanceFailsWithoutSideEffects) {
  // A sender who cannot cover gas_limit * gas_price + value is evicted at
  // block selection: the transaction never reaches execution, burns no
  // fee, and does not linger in the pool.
  SigningKey pauper = SigningKey::FromSeed(ToBytes("pauper"));
  Transaction tx = Transaction::Make(pauper, 0, AddressOf(bob_), 1, kGas, {});
  EXPECT_TRUE(chain_.SubmitTransaction(tx).ok());
  auto block = chain_.ProduceBlock(validator_, ++now_);
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  EXPECT_TRUE(block->transactions.empty());
  EXPECT_EQ(chain_.MempoolSize(), 0u);  // evicted for good, not re-queued
  EXPECT_FALSE(chain_.GetReceipt(tx.Id()).ok());
  EXPECT_EQ(chain_.GetBalance(AddressOf(pauper)), 0u);
  EXPECT_EQ(chain_.GetNonce(AddressOf(pauper)), 0u);
}

TEST_F(ChainTest, FailedContractCallRollsBackButChargesGas) {
  // Transfer more ERC-20 tokens than owned: state rolls back, gas is paid.
  Writer deploy_args;
  deploy_args.PutString("REWARD");
  deploy_args.PutU64(1000);
  Receipt deploy = Run(Transaction::Make(
      alice_, 0, Address{}, 0, kGas,
      CallPayload{"erc20", 0, "deploy", deploy_args.Take()}));
  ASSERT_TRUE(deploy.success) << deploy.error;
  const uint64_t instance = *InstanceIdFromReceipt(deploy);

  Writer call_args;
  call_args.PutBytes(AddressOf(bob_));
  call_args.PutU64(999999);  // more than alice owns
  Receipt fail = Run(Transaction::Make(
      alice_, 1, Address{}, 0, kGas,
      CallPayload{"erc20", instance, "transfer", call_args.Take()}));
  EXPECT_FALSE(fail.success);
  EXPECT_GT(fail.gas_used, 0u);

  // Alice still owns all 1000 tokens.
  Writer query;
  query.PutBytes(AddressOf(alice_));
  auto balance = chain_.Query("erc20", instance, "balance_of", query.Take());
  ASSERT_TRUE(balance.ok());
  Reader r(*balance);
  EXPECT_EQ(r.GetU64().value(), 1000u);
}

TEST_F(ChainTest, Erc20FullFlow) {
  Writer deploy_args;
  deploy_args.PutString("DATA");
  deploy_args.PutU64(5000);
  Receipt deploy = Run(Transaction::Make(
      alice_, 0, Address{}, 0, kGas,
      CallPayload{"erc20", 0, "deploy", deploy_args.Take()}));
  ASSERT_TRUE(deploy.success);
  const uint64_t inst = *InstanceIdFromReceipt(deploy);

  // transfer 1200 to bob
  Writer t;
  t.PutBytes(AddressOf(bob_));
  t.PutU64(1200);
  ASSERT_TRUE(Run(Transaction::Make(alice_, 1, Address{}, 0, kGas,
                                    CallPayload{"erc20", inst, "transfer",
                                                t.Take()}))
                  .success);

  // approve bob for 300, bob spends 200 via transfer_from
  Writer a;
  a.PutBytes(AddressOf(bob_));
  a.PutU64(300);
  ASSERT_TRUE(Run(Transaction::Make(alice_, 2, Address{}, 0, kGas,
                                    CallPayload{"erc20", inst, "approve",
                                                a.Take()}))
                  .success);
  Writer tf;
  tf.PutBytes(AddressOf(alice_));
  tf.PutBytes(AddressOf(bob_));
  tf.PutU64(200);
  ASSERT_TRUE(Run(Transaction::Make(bob_, 0, Address{}, 0, kGas,
                                    CallPayload{"erc20", inst, "transfer_from",
                                                tf.Take()}))
                  .success);

  auto check = [&](const Address& addr, uint64_t expected) {
    Writer q;
    q.PutBytes(addr);
    auto result = chain_.Query("erc20", inst, "balance_of", q.Take());
    ASSERT_TRUE(result.ok());
    Reader r(*result);
    EXPECT_EQ(r.GetU64().value(), expected);
  };
  check(AddressOf(alice_), 5000 - 1200 - 200);
  check(AddressOf(bob_), 1400);

  // Allowance decreased to 100; overspending fails.
  Writer over;
  over.PutBytes(AddressOf(alice_));
  over.PutBytes(AddressOf(bob_));
  over.PutU64(150);
  EXPECT_FALSE(Run(Transaction::Make(bob_, 1, Address{}, 0, kGas,
                                     CallPayload{"erc20", inst,
                                                 "transfer_from", over.Take()}))
                   .success);

  // Non-owner cannot mint.
  Writer mint;
  mint.PutBytes(AddressOf(bob_));
  mint.PutU64(1);
  EXPECT_FALSE(Run(Transaction::Make(bob_, 2, Address{}, 0, kGas,
                                     CallPayload{"erc20", inst, "mint",
                                                 mint.Take()}))
                   .success);
}

TEST_F(ChainTest, Erc721MintAndTransfer) {
  Writer deploy_args;
  deploy_args.PutString("datasets");
  Receipt deploy = Run(Transaction::Make(
      alice_, 0, Address{}, 0, kGas,
      CallPayload{"erc721", 0, "deploy", deploy_args.Take()}));
  ASSERT_TRUE(deploy.success);
  const uint64_t inst = *InstanceIdFromReceipt(deploy);

  Bytes token_id = ToBytes("dataset-hash-001");
  Writer mint;
  mint.PutBytes(token_id);
  mint.PutBytes(ToBytes("temperature readings, 2026"));
  ASSERT_TRUE(Run(Transaction::Make(alice_, 1, Address{}, 0, kGas,
                                    CallPayload{"erc721", inst, "mint",
                                                mint.Take()}))
                  .success);

  // Double mint rejected.
  Writer mint2;
  mint2.PutBytes(token_id);
  mint2.PutBytes(ToBytes("dup"));
  EXPECT_FALSE(Run(Transaction::Make(bob_, 0, Address{}, 0, kGas,
                                     CallPayload{"erc721", inst, "mint",
                                                 mint2.Take()}))
                   .success);

  Writer who;
  who.PutBytes(token_id);
  const Bytes owner_query = who.Take();
  auto owner = chain_.Query("erc721", inst, "owner_of", owner_query);
  ASSERT_TRUE(owner.ok());
  EXPECT_EQ(*owner, AddressOf(alice_));

  // Only the owner transfers.
  Writer steal;
  steal.PutBytes(token_id);
  steal.PutBytes(AddressOf(bob_));
  EXPECT_FALSE(Run(Transaction::Make(bob_, 1, Address{}, 0, kGas,
                                     CallPayload{"erc721", inst, "transfer",
                                                 steal.Take()}))
                   .success);
  Writer give;
  give.PutBytes(token_id);
  give.PutBytes(AddressOf(bob_));
  EXPECT_TRUE(Run(Transaction::Make(alice_, 2, Address{}, 0, kGas,
                                    CallPayload{"erc721", inst, "transfer",
                                                give.Take()}))
                  .success);
  auto owner2 = chain_.Query("erc721", inst, "owner_of", owner_query);
  ASSERT_TRUE(owner2.ok());
  EXPECT_EQ(*owner2, AddressOf(bob_));
}

TEST_F(ChainTest, ActorRegistryBindsKeyToSender) {
  Writer deploy_args;
  Receipt deploy = Run(Transaction::Make(
      alice_, 0, Address{}, 0, kGas,
      CallPayload{"actors", 0, "deploy", deploy_args.Take()}));
  ASSERT_TRUE(deploy.success);
  const uint64_t inst = *InstanceIdFromReceipt(deploy);

  // Bob cannot register alice's key.
  Writer forged;
  forged.PutBytes(alice_.PublicKey());
  forged.PutU64(contracts::kRoleProvider);
  forged.PutString("forged");
  EXPECT_FALSE(Run(Transaction::Make(bob_, 0, Address{}, 0, kGas,
                                     CallPayload{"actors", inst, "register",
                                                 forged.Take()}))
                   .success);

  Writer legit;
  legit.PutBytes(alice_.PublicKey());
  legit.PutU64(contracts::kRoleProvider | contracts::kRoleExecutor);
  legit.PutString("alice's home server");
  EXPECT_TRUE(Run(Transaction::Make(alice_, 1, Address{}, 0, kGas,
                                    CallPayload{"actors", inst, "register",
                                                legit.Take()}))
                  .success);

  Writer q;
  q.PutBytes(AddressOf(alice_));
  auto record = chain_.Query("actors", inst, "get", q.Take());
  ASSERT_TRUE(record.ok());
  Reader r(*record);
  EXPECT_EQ(r.GetBytes().value(), alice_.PublicKey());
  EXPECT_EQ(r.GetU64().value(),
            contracts::kRoleProvider | contracts::kRoleExecutor);
}

TEST_F(ChainTest, QueryIsReadOnly) {
  Writer deploy_args;
  deploy_args.PutString("T");
  deploy_args.PutU64(100);
  Receipt deploy = Run(Transaction::Make(
      alice_, 0, Address{}, 0, kGas,
      CallPayload{"erc20", 0, "deploy", deploy_args.Take()}));
  const uint64_t inst = *InstanceIdFromReceipt(deploy);

  // A query that would mutate (transfer) must not stick.
  Writer t;
  t.PutBytes(AddressOf(bob_));
  t.PutU64(10);
  auto result =
      chain_.Query("erc20", inst, "transfer", t.Take(), AddressOf(alice_));
  EXPECT_TRUE(result.ok());  // executes...
  Writer q;
  q.PutBytes(AddressOf(alice_));
  auto balance = chain_.Query("erc20", inst, "balance_of", q.Take());
  Reader r(*balance);
  EXPECT_EQ(r.GetU64().value(), 100u);  // ...but did not persist
}

TEST_F(ChainTest, ExternalBlockReplayReproducesState) {
  // Build some history.
  (void)Run(Transfer(alice_, AddressOf(bob_), 777));
  Writer deploy_args;
  deploy_args.PutString("R");
  deploy_args.PutU64(42);
  (void)Run(Transaction::Make(alice_, 1, Address{}, 0, kGas,
                              CallPayload{"erc20", 0, "deploy",
                                          deploy_args.Take()}));

  // Replay on a fresh chain with the same genesis.
  Blockchain replica({validator_.PublicKey()},
                     ContractRegistry::CreateDefault());
  ASSERT_TRUE(replica.CreditGenesis(AddressOf(alice_), 10'000'000'000).ok());
  ASSERT_TRUE(replica.CreditGenesis(AddressOf(bob_), 10'000'000'000).ok());
  for (const Block& block : chain_.blocks()) {
    ASSERT_TRUE(replica.ApplyExternalBlock(block).ok());
  }
  EXPECT_EQ(replica.Height(), chain_.Height());
  EXPECT_EQ(replica.GetBalance(AddressOf(bob_)),
            chain_.GetBalance(AddressOf(bob_)));
  EXPECT_EQ(replica.LastBlockHash(), chain_.LastBlockHash());
}

TEST_F(ChainTest, QuerySlotIsProvenAgainstTheHeadHeader) {
  EXPECT_EQ(chain_.QuerySlot("erc20", 1, ToBytes("meta/name")).status().code(),
            common::StatusCode::kFailedPrecondition);  // no header yet
  (void)Run(Transfer(bob_, AddressOf(alice_), 1));
  Writer deploy_args;
  deploy_args.PutString("P");
  deploy_args.PutU64(5);
  const uint64_t inst = *InstanceIdFromReceipt(Run(Transaction::Make(
      alice_, 0, Address{}, 0, kGas,
      CallPayload{"erc20", 0, "deploy", deploy_args.Take()})));
  const Hash& root = chain_.blocks().back().header.state_root;
  const std::string space = ContractSpace("erc20", inst);

  auto name = chain_.QuerySlot("erc20", inst, ToBytes("meta/name"));
  ASSERT_TRUE(name.ok()) << name.status().ToString();
  auto shown = WorldState::VerifySlot(root, space, ToBytes("meta/name"), *name);
  ASSERT_TRUE(shown.ok()) << shown.status().ToString();
  EXPECT_EQ(*shown, ToBytes("P"));

  auto missing = chain_.QuerySlot("erc20", inst, ToBytes("meta/none"));
  ASSERT_TRUE(missing.ok());
  shown = WorldState::VerifySlot(root, space, ToBytes("meta/none"), *missing);
  ASSERT_TRUE(shown.ok()) << shown.status().ToString();
  EXPECT_FALSE(shown->has_value());

  // The previous header's root does not vouch for the new slot.
  EXPECT_FALSE(WorldState::VerifySlot(chain_.blocks()[0].header.state_root,
                                      space, ToBytes("meta/name"), *name)
                   .ok());
}

TEST_F(ChainTest, SnapshotRestoreChecksTheRecomputedRootAgainstTheHeader) {
  (void)Run(Transfer(alice_, AddressOf(bob_), 5));
  (void)Run(Transfer(bob_, AddressOf(alice_), 7));
  const Bytes snapshot = chain_.EncodeSnapshotState();
  auto fresh_chain = [&] {
    return std::make_unique<Blockchain>(
        std::vector<Bytes>{validator_.PublicKey()},
        ContractRegistry::CreateDefault());
  };

  auto restored = fresh_chain();
  ASSERT_TRUE(restored->RestoreFromSnapshot(snapshot, chain_.blocks()).ok());
  EXPECT_EQ(restored->StateDigest(), chain_.blocks().back().header.state_root);

  // A well-formed snapshot of a state no header committed to.
  Reader r(snapshot);
  Writer tampered;
  for (int i = 0; i < 3; ++i) tampered.PutU64(*r.GetU64());
  auto state = WorldState::DeserializeSnapshot(*r.GetBytes());
  ASSERT_TRUE(state.ok());
  ASSERT_TRUE(state->Credit(AddressOf(bob_), 1).ok());
  tampered.PutBytes(state->SerializeSnapshot());
  EXPECT_EQ(fresh_chain()
                ->RestoreFromSnapshot(tampered.Take(), chain_.blocks())
                .code(),
            common::StatusCode::kCorruption);
}

// Restore applies the same header rule as replication: a history block
// re-signed by a validator whose turn it was not is refused by both, even
// though its signature verifies and the snapshot matches the head root.
TEST(SnapshotRestoreTest, OutOfTurnProposerRejectedLikeReplication) {
  const SigningKey a = SigningKey::FromSeed(ToBytes("validator-a"));
  const SigningKey b = SigningKey::FromSeed(ToBytes("validator-b"));
  const std::vector<Bytes> validators = {a.PublicKey(), b.PublicKey()};
  Blockchain chain(validators, ContractRegistry::CreateDefault());
  ASSERT_TRUE(chain.ProduceBlock(a, 1).ok());
  ASSERT_TRUE(chain.ProduceBlock(b, 2).ok());
  const Bytes snapshot = chain.EncodeSnapshotState();

  std::vector<Block> forged = chain.blocks();
  BlockHeader& header = forged[1].header;
  header.proposer_public_key = a.PublicKey();
  header.signature =
      a.SignWithDomain(BlockHeader::Domain(), header.SigningBytes());

  Blockchain replica(validators, ContractRegistry::CreateDefault());
  ASSERT_TRUE(replica.ApplyExternalBlock(forged[0]).ok());
  EXPECT_EQ(replica.ApplyExternalBlock(forged[1]).code(),
            common::StatusCode::kPermissionDenied);

  Blockchain restored(validators, ContractRegistry::CreateDefault());
  EXPECT_EQ(restored.RestoreFromSnapshot(snapshot, forged).code(),
            common::StatusCode::kPermissionDenied);
  Blockchain honest(validators, ContractRegistry::CreateDefault());
  EXPECT_TRUE(honest.RestoreFromSnapshot(snapshot, chain.blocks()).ok());
}

TEST_F(ChainTest, TamperedExternalBlockRejected) {
  (void)Run(Transfer(alice_, AddressOf(bob_), 1));
  Block block = chain_.blocks()[0];

  Blockchain replica({validator_.PublicKey()},
                     ContractRegistry::CreateDefault());
  ASSERT_TRUE(replica.CreditGenesis(AddressOf(alice_), 10'000'000'000).ok());
  ASSERT_TRUE(replica.CreditGenesis(AddressOf(bob_), 10'000'000'000).ok());

  Block bad = block;
  bad.header.timestamp += 1;  // breaks the proposer signature
  EXPECT_FALSE(replica.ApplyExternalBlock(bad).ok());

  Block bad_txroot = block;
  bad_txroot.transactions.clear();  // txs no longer match committed root
  EXPECT_FALSE(replica.ApplyExternalBlock(bad_txroot).ok());
}

TEST_F(ChainTest, RoundRobinValidators) {
  SigningKey v0 = SigningKey::FromSeed(ToBytes("v0"));
  SigningKey v1 = SigningKey::FromSeed(ToBytes("v1"));
  Blockchain chain({v0.PublicKey(), v1.PublicKey()},
                   ContractRegistry::CreateDefault());
  EXPECT_TRUE(chain.ProduceBlock(v0, 1).ok());
  EXPECT_FALSE(chain.ProduceBlock(v0, 2).ok());  // v1's turn
  EXPECT_TRUE(chain.ProduceBlock(v1, 2).ok());
  EXPECT_TRUE(chain.ProduceBlock(v0, 3).ok());
}

TEST_F(ChainTest, BlockSerializationRoundTrip) {
  (void)Run(Transfer(alice_, AddressOf(bob_), 5));
  const Block& block = chain_.blocks()[0];
  auto round = Block::Deserialize(block.Serialize());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->header.Id(), block.header.Id());
  EXPECT_EQ(round->transactions.size(), block.transactions.size());
}

TEST_F(ChainTest, GasLimitBelowIntrinsicRejected) {
  Transaction tx = Transaction::Make(alice_, 0, AddressOf(bob_), 1, 100, {});
  EXPECT_FALSE(chain_.SubmitTransaction(tx).ok());
}

TEST_F(ChainTest, UnknownContractRejectedAtSubmission) {
  Transaction tx = Transaction::Make(alice_, 0, Address{}, 0, kGas,
                                     CallPayload{"bogus", 0, "deploy", {}});
  EXPECT_FALSE(chain_.SubmitTransaction(tx).ok());
}

TEST_F(ChainTest, ReceiptsCarryTheInstanceEvents) {
  Writer deploy_args;
  deploy_args.PutString("AUD");
  deploy_args.PutU64(500);
  Receipt deploy = Run(Transaction::Make(
      alice_, 0, Address{}, 0, kGas,
      CallPayload{"erc20", 0, "deploy", deploy_args.Take()}));
  const uint64_t inst = *InstanceIdFromReceipt(deploy);
  ASSERT_EQ(deploy.events.size(), 1u);
  EXPECT_EQ(deploy.events[0].name, "Deployed");
  EXPECT_EQ(deploy.events[0].contract, "erc20");
  EXPECT_EQ(deploy.events[0].instance, inst);

  for (uint64_t i = 0; i < 3; ++i) {
    Writer t;
    t.PutBytes(AddressOf(bob_));
    t.PutU64(10 + i);
    Receipt transfer = Run(Transaction::Make(
        alice_, 1 + i, Address{}, 0, kGas,
        CallPayload{"erc20", inst, "transfer", t.Take()}));
    ASSERT_TRUE(transfer.success);
    ASSERT_EQ(transfer.events.size(), 1u);
    EXPECT_EQ(transfer.events[0].name, "Transfer");
    EXPECT_EQ(transfer.events[0].instance, inst);
  }
}

TEST_F(ChainTest, CallToUndeployedInstanceFails) {
  Receipt receipt = Run(Transaction::Make(
      alice_, 0, Address{}, 0, kGas,
      CallPayload{"erc20", 99, "total_supply", {}}));
  EXPECT_FALSE(receipt.success);
}

// A known block-header signature: replicas of every build must sign and
// verify headers to the same bytes.
TEST(BlockHeaderKatTest, ProposerSignature) {
  const SigningKey proposer = SigningKey::FromSeed(ToBytes("validator-0"));
  BlockHeader h;
  h.parent_hash = Bytes(32, 0);
  h.number = 7;
  h.timestamp = 1000;
  h.tx_root = crypto::Sha256::Hash(std::string_view("tx"));
  h.state_root = crypto::Sha256::Hash(std::string_view("state"));
  h.proposer_public_key = proposer.PublicKey();
  EXPECT_EQ(common::HexEncode(proposer.SignWithDomain(BlockHeader::Domain(),
                                                      h.SigningBytes())),
            "7a923990d78309ab3fac850146e816b25e3a666c5ce8074c0e6f62c95c80fa1e"
            "90d8f9e307de913fdea81b625617b098e3b562dc3a319a0ee3a3dbb0c392392d"
            "0f3c8a43f1a29c4d4168d29062d16264c40516c3b31ea90056da0168221b475f");
}

}  // namespace
}  // namespace pds2::chain
