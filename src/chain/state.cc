#include "chain/state.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "common/bytes.h"
#include "common/checked_math.h"
#include "common/serial.h"
#include "crypto/sha256.h"

namespace pds2::chain {

using common::Bytes;
using common::Result;
using common::Status;

namespace {

common::Bytes EncodeStakeAmount(uint64_t amount) {
  common::Writer w;
  w.PutU64(amount);
  return w.Take();
}

uint64_t DecodeStakeAmount(const std::optional<Bytes>& value) {
  if (!value.has_value()) return 0;
  common::Reader r(*value);
  auto amount = r.GetU64();
  return amount.ok() ? *amount : 0;
}

common::Bytes BurnedKeyBytes() { return common::ToBytes(kBurnedKey); }

// Saturating: CreditGenesis caps the minted supply below uint64, so in a
// well-formed chain a total is exact; a hand-built state that exceeds the
// cap reads as uint64-max instead of a wrapped small number.
uint64_t Saturate(unsigned __int128 total) {
  return total > UINT64_MAX ? UINT64_MAX : static_cast<uint64_t>(total);
}

// --- State root buckets -----------------------------------------------------

static_assert(WorldState::kStateRootDepth <= 16);

// The top kStateRootDepth bits of `bytes`, read as zero-padded.
uint32_t BucketOf(const Bytes& bytes) {
  const uint32_t b0 = bytes.size() > 0 ? bytes[0] : 0;
  const uint32_t b1 = bytes.size() > 1 ? bytes[1] : 0;
  return ((b0 << 8) | b1) >> (16 - WorldState::kStateRootDepth);
}

// Addresses are hash outputs already, so an account's bucket is its own
// prefix: a bucket is then one contiguous range of the address order.
uint32_t AccountBucket(const Address& addr) { return BucketOf(addr); }

uint32_t SlotBucket(const std::string& space, const Bytes& key) {
  common::Writer w;
  w.PutString(space);
  w.PutBytes(key);
  return BucketOf(crypto::Sha256::Hash(w.data()));
}

// The smallest address in `bucket`: its prefix bits, trailing zero bytes
// dropped (a shorter zero-padded address sorts first).
Address BucketStart(uint32_t bucket) {
  const uint32_t prefix = bucket << (16 - WorldState::kStateRootDepth);
  Address start = {static_cast<uint8_t>(prefix >> 8),
                   static_cast<uint8_t>(prefix & 0xFF)};
  while (!start.empty() && start.back() == 0) start.pop_back();
  return start;
}

// A bucket leaf decoded by a verifier.
struct BucketContents {
  std::vector<std::pair<Address, Account>> accounts;
  std::vector<std::tuple<std::string, Bytes, Bytes>> slots;
};

// Canonical decoding of WorldState::EncodeBucket: every entry in `bucket`,
// strictly ascending, no trailing bytes, and no entries at all only as
// empty data.
Result<BucketContents> DecodeBucket(uint32_t bucket, const Bytes& data) {
  BucketContents out;
  if (data.empty()) return out;
  common::Reader r(data);
  PDS2_ASSIGN_OR_RETURN(uint32_t num_accounts, r.GetU32());
  PDS2_RETURN_IF_ERROR(r.CheckCount(num_accounts, 4 + 16));
  for (uint32_t i = 0; i < num_accounts; ++i) {
    PDS2_ASSIGN_OR_RETURN(Address addr, r.GetBytes());
    Account account;
    PDS2_ASSIGN_OR_RETURN(account.balance, r.GetU64());
    PDS2_ASSIGN_OR_RETURN(account.nonce, r.GetU64());
    if (AccountBucket(addr) != bucket ||
        (!out.accounts.empty() && !(out.accounts.back().first < addr))) {
      return Status::Corruption("state bucket accounts out of place");
    }
    out.accounts.emplace_back(std::move(addr), account);
  }
  PDS2_ASSIGN_OR_RETURN(uint32_t num_slots, r.GetU32());
  PDS2_RETURN_IF_ERROR(r.CheckCount(num_slots, 3 * 4));
  for (uint32_t i = 0; i < num_slots; ++i) {
    PDS2_ASSIGN_OR_RETURN(std::string space, r.GetString());
    PDS2_ASSIGN_OR_RETURN(Bytes key, r.GetBytes());
    PDS2_ASSIGN_OR_RETURN(Bytes value, r.GetBytes());
    if (SlotBucket(space, key) != bucket ||
        (!out.slots.empty() &&
         !(std::tie(std::get<0>(out.slots.back()),
                    std::get<1>(out.slots.back())) < std::tie(space, key)))) {
      return Status::Corruption("state bucket slots out of place");
    }
    out.slots.emplace_back(std::move(space), std::move(key), std::move(value));
  }
  if (num_accounts == 0 && num_slots == 0) {
    return Status::Corruption("empty state bucket must have no bytes");
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes in state bucket");
  return out;
}

// The contents of `bucket` under `state_root`, if `proof` is its proof.
Result<BucketContents> VerifyBucket(const Hash& state_root, uint32_t bucket,
                                    const StateProof& proof) {
  if (proof.path.size() != WorldState::kStateRootDepth) {
    return Status::Corruption("state proof has the wrong depth");
  }
  for (size_t height = 0; height < proof.path.size(); ++height) {
    if (proof.path[height].sibling_is_left != (((bucket >> height) & 1) == 1)) {
      return Status::Corruption("state proof is not the key's bucket");
    }
  }
  if (!crypto::MerkleTree::Verify(state_root, proof.bucket, proof.path)) {
    return Status::Corruption("state proof does not match the state root");
  }
  return DecodeBucket(bucket, proof.bucket);
}

}  // namespace

uint64_t StateView::StakeOf(const Address& addr) const {
  return DecodeStakeAmount(StorageGet(kStakeSpace, addr));
}

Status StateView::StakeBond(const Address& addr, uint64_t amount) {
  uint64_t new_stake;
  if (!common::CheckedAdd(StakeOf(addr), amount, &new_stake)) {
    return Status::InvalidArgument("bond would overflow stake record");
  }
  PDS2_RETURN_IF_ERROR(Debit(addr, amount));
  StoragePut(kStakeSpace, addr, EncodeStakeAmount(new_stake));
  return Status::Ok();
}

Status StateView::StakeRelease(const Address& addr, uint64_t amount) {
  const uint64_t stake = StakeOf(addr);
  if (stake < amount) {
    return Status::InsufficientFunds("stake below release amount");
  }
  PDS2_RETURN_IF_ERROR(Credit(addr, amount));
  if (stake == amount) {
    StorageDelete(kStakeSpace, addr);
  } else {
    StoragePut(kStakeSpace, addr, EncodeStakeAmount(stake - amount));
  }
  return Status::Ok();
}

Status StateView::StakeSlash(const Address& offender, uint64_t amount,
                             const Address& reporter, uint32_t reporter_bps) {
  if (reporter_bps > kSlashBpsDenominator) {
    return Status::InvalidArgument("reporter share above 100%");
  }
  const uint64_t stake = StakeOf(offender);
  if (stake < amount) {
    return Status::InsufficientFunds("stake below slash amount");
  }
  // Exact split: bounty rounds down, the burn picks up the remainder, so
  // bounty + burn == amount with no drift.
  const uint64_t bounty = static_cast<uint64_t>(
      static_cast<unsigned __int128>(amount) * reporter_bps /
      kSlashBpsDenominator);
  const uint64_t burn = amount - bounty;
  uint64_t new_burned;
  if (!common::CheckedAdd(BurnedTotal(), burn, &new_burned)) {
    return Status::InvalidArgument("slash would overflow burned total");
  }
  PDS2_RETURN_IF_ERROR(Credit(reporter, bounty));
  if (stake == amount) {
    StorageDelete(kStakeSpace, offender);
  } else {
    StoragePut(kStakeSpace, offender, EncodeStakeAmount(stake - amount));
  }
  StoragePut(kStakeSpace, BurnedKeyBytes(), EncodeStakeAmount(new_burned));
  return Status::Ok();
}

uint64_t StateView::BurnedTotal() const {
  return DecodeStakeAmount(StorageGet(kStakeSpace, BurnedKeyBytes()));
}

// --- Ledger rules -----------------------------------------------------------

uint64_t StateView::GetBalance(const Address& addr) const {
  auto account = LoadAccount(addr);
  return account ? account->balance : 0;
}

uint64_t StateView::GetNonce(const Address& addr) const {
  auto account = LoadAccount(addr);
  return account ? account->nonce : 0;
}

Status StateView::Credit(const Address& addr, uint64_t amount) {
  std::optional<Account> prior = LoadAccount(addr);
  Account updated = prior.value_or(Account{});
  if (!common::CheckedAdd(updated.balance, amount, &updated.balance)) {
    return Status::InvalidArgument("credit would overflow account balance");
  }
  WriteAccount(addr, std::move(prior), updated);
  return Status::Ok();
}

Status StateView::Debit(const Address& addr, uint64_t amount) {
  std::optional<Account> prior = LoadAccount(addr);
  if (!prior || prior->balance < amount) {
    return Status::InsufficientFunds("balance below debit amount");
  }
  Account updated = *prior;
  updated.balance -= amount;
  WriteAccount(addr, std::move(prior), updated);
  return Status::Ok();
}

Status StateView::Transfer(const Address& from, const Address& to,
                           uint64_t amount) {
  // Guard the credit side *before* debiting so a failed transfer has no
  // side effects. With a capped total supply the credit cannot actually
  // overflow, but the check keeps Transfer safe on its own terms.
  uint64_t new_balance;
  if (!common::CheckedAdd(GetBalance(to), amount, &new_balance)) {
    return Status::InvalidArgument("transfer would overflow recipient");
  }
  PDS2_RETURN_IF_ERROR(Debit(from, amount));
  return Credit(to, amount);
}

void StateView::BumpNonce(const Address& addr) {
  std::optional<Account> prior = LoadAccount(addr);
  Account updated = prior.value_or(Account{});
  updated.nonce += 1;
  WriteAccount(addr, std::move(prior), updated);
}

bool StateView::StoragePut(const std::string& space, const Bytes& key,
                           const Bytes& value) {
  std::optional<Bytes> prior = LoadSlot(space, key);
  const bool existed = prior.has_value();
  WriteSlot(space, key, std::move(prior), value);
  return existed;
}

void StateView::StorageDelete(const std::string& space, const Bytes& key) {
  std::optional<Bytes> prior = LoadSlot(space, key);
  if (!prior.has_value()) return;
  WriteSlot(space, key, std::move(prior), std::nullopt);
}

// --- Journal ----------------------------------------------------------------

void StateView::WriteAccount(const Address& addr, std::optional<Account> prior,
                             const std::optional<Account>& value) {
  if (!checkpoints_.empty()) {
    journal_.push_back({true, addr, std::move(prior), {}, {}, std::nullopt});
  }
  StoreAccount(addr, value);
}

void StateView::WriteSlot(const std::string& space, const Bytes& key,
                          std::optional<Bytes> prior,
                          const std::optional<Bytes>& value) {
  if (!checkpoints_.empty()) {
    journal_.push_back({false, {}, std::nullopt, space, key, std::move(prior)});
  }
  StoreSlot(space, key, value);
}

void StateView::Commit() {
  assert(!checkpoints_.empty());
  checkpoints_.pop_back();
  // An open outer checkpoint keeps the entries so its Rollback can still
  // undo them; otherwise they are dead.
  if (checkpoints_.empty()) journal_.clear();
}

void StateView::Rollback() {
  assert(!checkpoints_.empty());
  const size_t mark = checkpoints_.back();
  checkpoints_.pop_back();
  while (journal_.size() > mark) {
    const JournalEntry& entry = journal_.back();
    if (entry.is_account) {
      StoreAccount(entry.addr, entry.account);
    } else {
      StoreSlot(entry.space, entry.key, entry.value);
    }
    journal_.pop_back();
  }
}

// --- WorldState store -------------------------------------------------------

std::optional<Account> WorldState::LoadAccount(const Address& addr) const {
  auto it = accounts_.find(addr);
  if (it == accounts_.end()) return std::nullopt;
  return it->second;
}

void WorldState::StoreAccount(const Address& addr,
                              const std::optional<Account>& account) {
  auto it = accounts_.lower_bound(addr);
  const bool existed = it != accounts_.end() && it->first == addr;
  if (existed) total_balance_ -= it->second.balance;
  if (account.has_value()) {
    total_balance_ += account->balance;
    if (existed) {
      it->second = *account;
    } else {
      accounts_.emplace_hint(it, addr, *account);
    }
  } else if (existed) {
    accounts_.erase(it);
  }
  if (root_built_) MarkDirty(AccountBucket(addr));
}

std::optional<Bytes> WorldState::LoadSlot(const std::string& space,
                                          const Bytes& key) const {
  auto space_it = storage_.find(space);
  if (space_it == storage_.end()) return std::nullopt;
  auto it = space_it->second.find(key);
  if (it == space_it->second.end()) return std::nullopt;
  return it->second;
}

void WorldState::StoreSlot(const std::string& space, const Bytes& key,
                           const std::optional<Bytes>& value) {
  auto space_it = storage_.find(space);
  const Bytes* prior = nullptr;
  if (space_it != storage_.end()) {
    auto it = space_it->second.find(key);
    if (it != space_it->second.end()) prior = &it->second;
  }
  if (prior == nullptr && !value.has_value()) return;
  if (space == kStakeSpace && key.size() == kAddressSize) {
    total_staked_ += DecodeStakeAmount(value);
    total_staked_ -= prior != nullptr ? DecodeStakeAmount(*prior) : 0;
  }
  const uint32_t bucket = SlotBucket(space, key);
  if (value.has_value()) {
    if (prior == nullptr) slot_buckets_.emplace(bucket, space, key);
    if (space_it == storage_.end()) {
      space_it = storage_.emplace(space, std::map<Bytes, Bytes>{}).first;
    }
    space_it->second.insert_or_assign(key, *value);
  } else {
    slot_buckets_.erase({bucket, space, key});
    space_it->second.erase(key);
    if (space_it->second.empty()) storage_.erase(space_it);
  }
  if (root_built_) MarkDirty(bucket);
}

StateView::Slots WorldState::ScanSlots(const std::string& space,
                                       const Bytes& prefix) const {
  Slots out;
  auto space_it = storage_.find(space);
  if (space_it == storage_.end()) return out;
  for (auto it = space_it->second.lower_bound(prefix);
       it != space_it->second.end(); ++it) {
    const Bytes& key = it->first;
    if (key.size() < prefix.size() ||
        !std::equal(prefix.begin(), prefix.end(), key.begin())) {
      break;
    }
    out.emplace_back(key, it->second);
  }
  return out;
}

uint64_t WorldState::TotalBalance() const { return Saturate(total_balance_); }

uint64_t WorldState::TotalStaked() const { return Saturate(total_staked_); }

common::Bytes WorldState::SerializeSnapshot() const {
  assert(CheckpointDepth() == 0 && "snapshot inside an open transaction");
  common::Writer w;
  w.PutU64(accounts_.size());
  for (const auto& [addr, account] : accounts_) {
    w.PutBytes(addr);
    w.PutU64(account.balance);
    w.PutU64(account.nonce);
  }
  w.PutU64(storage_.size());
  for (const auto& [space, kv] : storage_) {
    w.PutString(space);
    w.PutU64(kv.size());
    for (const auto& [key, value] : kv) {
      w.PutBytes(key);
      w.PutBytes(value);
    }
  }
  return w.Take();
}

common::Result<WorldState> WorldState::DeserializeSnapshot(
    const common::Bytes& data) {
  // Canonical form only: every sequence strictly ascending (which also
  // rules out duplicates) and no empty space, exactly what
  // SerializeSnapshot writes.
  auto after_last = [](const auto& map, const auto& key) {
    return map.empty() || map.rbegin()->first < key;
  };
  common::Reader r(data);
  WorldState state;
  PDS2_ASSIGN_OR_RETURN(uint64_t num_accounts, r.GetU64());
  for (uint64_t i = 0; i < num_accounts; ++i) {
    PDS2_ASSIGN_OR_RETURN(Address addr, r.GetBytes());
    Account account;
    PDS2_ASSIGN_OR_RETURN(account.balance, r.GetU64());
    PDS2_ASSIGN_OR_RETURN(account.nonce, r.GetU64());
    if (!after_last(state.accounts_, addr)) {
      return Status::Corruption("state snapshot accounts not ascending");
    }
    state.StoreAccount(addr, account);
  }
  PDS2_ASSIGN_OR_RETURN(uint64_t num_spaces, r.GetU64());
  for (uint64_t i = 0; i < num_spaces; ++i) {
    PDS2_ASSIGN_OR_RETURN(std::string space, r.GetString());
    if (!after_last(state.storage_, space)) {
      return Status::Corruption("state snapshot spaces not ascending");
    }
    PDS2_ASSIGN_OR_RETURN(uint64_t num_slots, r.GetU64());
    if (num_slots == 0) {
      return Status::Corruption("empty storage space in state snapshot");
    }
    for (uint64_t j = 0; j < num_slots; ++j) {
      PDS2_ASSIGN_OR_RETURN(Bytes key, r.GetBytes());
      PDS2_ASSIGN_OR_RETURN(Bytes value, r.GetBytes());
      if (j > 0 && !after_last(state.storage_.at(space), key)) {
        return Status::Corruption("state snapshot keys not ascending");
      }
      state.StoreSlot(space, key, value);
    }
  }
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes in state snapshot");
  }
  return state;
}

// --- State root ---------------------------------------------------------------

Bytes WorldState::EncodeBucket(uint32_t bucket) const {
  common::Writer accounts;
  uint32_t num_accounts = 0;
  for (auto it = accounts_.lower_bound(BucketStart(bucket));
       it != accounts_.end() && AccountBucket(it->first) == bucket; ++it) {
    accounts.PutBytes(it->first);
    accounts.PutU64(it->second.balance);
    accounts.PutU64(it->second.nonce);
    ++num_accounts;
  }
  const auto slots_first = slot_buckets_.lower_bound({bucket, {}, {}});
  const auto slots_last = slot_buckets_.lower_bound({bucket + 1, {}, {}});
  const auto num_slots =
      static_cast<uint32_t>(std::distance(slots_first, slots_last));
  if (num_accounts == 0 && num_slots == 0) return {};

  common::Writer w;
  w.PutU32(num_accounts);
  w.PutRaw(accounts.data());
  w.PutU32(num_slots);
  for (auto it = slots_first; it != slots_last; ++it) {
    const auto& [unused, space, key] = *it;
    w.PutString(space);
    w.PutBytes(key);
    w.PutBytes(storage_.at(space).at(key));
  }
  return w.Take();
}

Hash WorldState::Digest(common::ThreadPool* pool) const {
  if (!root_built_) {
    for (const auto& [addr, unused] : accounts_) MarkDirty(AccountBucket(addr));
    for (const auto& [bucket, space, key] : slot_buckets_) MarkDirty(bucket);
    root_built_ = true;
  }
  std::vector<size_t> dirty;
  for (size_t word = 0; word < dirty_.size(); ++word) {
    for (uint64_t bits = std::exchange(dirty_[word], 0); bits != 0;
         bits &= bits - 1) {
      dirty.push_back(word * 64 + static_cast<size_t>(std::countr_zero(bits)));
    }
  }
  root_tree_.Update(
      dirty,
      [this](size_t bucket) {
        return EncodeBucket(static_cast<uint32_t>(bucket));
      },
      pool);
  return root_tree_.Root();
}

StateProof WorldState::ProveAccount(const Address& addr) const {
  (void)Digest();
  const uint32_t bucket = AccountBucket(addr);
  return {EncodeBucket(bucket), root_tree_.Prove(bucket)};
}

StateProof WorldState::ProveSlot(const std::string& space,
                                 const Bytes& key) const {
  (void)Digest();
  const uint32_t bucket = SlotBucket(space, key);
  return {EncodeBucket(bucket), root_tree_.Prove(bucket)};
}

Result<std::optional<Account>> WorldState::VerifyAccount(
    const Hash& state_root, const Address& addr, const StateProof& proof) {
  PDS2_ASSIGN_OR_RETURN(BucketContents contents,
                        VerifyBucket(state_root, AccountBucket(addr), proof));
  for (const auto& [entry, account] : contents.accounts) {
    if (entry == addr) return std::optional<Account>(account);
  }
  return std::optional<Account>();
}

Result<std::optional<Bytes>> WorldState::VerifySlot(const Hash& state_root,
                                                    const std::string& space,
                                                    const Bytes& key,
                                                    const StateProof& proof) {
  PDS2_ASSIGN_OR_RETURN(
      BucketContents contents,
      VerifyBucket(state_root, SlotBucket(space, key), proof));
  for (auto& [entry_space, entry_key, value] : contents.slots) {
    if (entry_space == space && entry_key == key) {
      return std::optional<Bytes>(std::move(value));
    }
  }
  return std::optional<Bytes>();
}

Bytes StateProof::Serialize() const {
  common::Writer w;
  w.PutBytes(bucket);
  w.PutU32(static_cast<uint32_t>(path.size()));
  for (const crypto::MerkleStep& step : path) {
    w.PutBool(step.sibling_is_left);
    w.PutBytes(step.sibling);
  }
  return w.Take();
}

Result<StateProof> StateProof::Deserialize(const Bytes& data) {
  common::Reader r(data);
  StateProof proof;
  PDS2_ASSIGN_OR_RETURN(proof.bucket, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(uint32_t steps, r.GetU32());
  PDS2_RETURN_IF_ERROR(r.CheckCount(steps, 1 + 4));
  proof.path.resize(steps);
  for (crypto::MerkleStep& step : proof.path) {
    PDS2_ASSIGN_OR_RETURN(step.sibling_is_left, r.GetBool());
    PDS2_ASSIGN_OR_RETURN(step.sibling, r.GetBytes());
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes in state proof");
  return proof;
}

}  // namespace pds2::chain
