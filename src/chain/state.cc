#include "chain/state.h"

#include <algorithm>
#include <cassert>

#include "common/bytes.h"
#include "common/checked_math.h"
#include "common/serial.h"
#include "crypto/sha256.h"

namespace pds2::chain {

using common::Bytes;
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

uint64_t StateView::TotalStaked() const {
  uint64_t total = 0;
  for (const auto& [key, value] : StorageScan(kStakeSpace, {})) {
    if (key.size() != kAddressSize) continue;  // skip the burned-total record
    total = common::SaturatingAdd(total, DecodeStakeAmount(value));
  }
  return total;
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
  if (account.has_value()) {
    accounts_[addr] = *account;
  } else {
    accounts_.erase(addr);
  }
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
  if (value.has_value()) {
    storage_[space].insert_or_assign(key, *value);
    return;
  }
  auto space_it = storage_.find(space);
  if (space_it == storage_.end()) return;
  space_it->second.erase(key);
  if (space_it->second.empty()) storage_.erase(space_it);
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

uint64_t WorldState::TotalBalance() const {
  // Saturating: CreditGenesis caps the minted supply below uint64, so in a
  // well-formed chain the sum is exact; a hand-built state that exceeds the
  // cap reads as uint64-max instead of a wrapped small number.
  uint64_t total = 0;
  for (const auto& [addr, account] : accounts_) {
    (void)addr;
    total = common::SaturatingAdd(total, account.balance);
  }
  return total;
}

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
    state.accounts_.emplace_hint(state.accounts_.end(), std::move(addr),
                                 account);
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
    auto& slots = state.storage_[std::move(space)];
    for (uint64_t j = 0; j < num_slots; ++j) {
      PDS2_ASSIGN_OR_RETURN(Bytes key, r.GetBytes());
      PDS2_ASSIGN_OR_RETURN(Bytes value, r.GetBytes());
      if (!after_last(slots, key)) {
        return Status::Corruption("state snapshot keys not ascending");
      }
      slots.emplace_hint(slots.end(), std::move(key), std::move(value));
    }
  }
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes in state snapshot");
  }
  return state;
}

Hash WorldState::Digest() const {
  crypto::Sha256 h;
  h.Update("pds2.state");
  for (const auto& [addr, account] : accounts_) {
    h.Update(addr);
    common::Writer w;
    w.PutU64(account.balance);
    w.PutU64(account.nonce);
    h.Update(w.data());
  }
  for (const auto& [space, kv] : storage_) {
    h.Update(space);
    for (const auto& [key, value] : kv) {
      h.Update(key);
      h.Update(value);
    }
  }
  return h.Finish();
}

}  // namespace pds2::chain
