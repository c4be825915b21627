#include "chain/parallel_exec.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace pds2::chain {

using common::Bytes;

void AccessSet::Merge(const AccessSet& other) {
  accounts.insert(other.accounts.begin(), other.accounts.end());
  spaces.insert(other.spaces.begin(), other.spaces.end());
  global = global || other.global;
}

bool AccessSet::Includes(const AccessSet& other) const {
  return std::includes(accounts.begin(), accounts.end(),
                       other.accounts.begin(), other.accounts.end()) &&
         std::includes(spaces.begin(), spaces.end(), other.spaces.begin(),
                       other.spaces.end());
}

// --- StateOverlay -----------------------------------------------------------

std::optional<Account> StateOverlay::LoadAccount(const Address& addr) const {
  footprint_.accounts.insert(addr);
  auto it = accounts_.find(addr);
  if (it != accounts_.end()) return it->second;
  return base_.LoadAccount(addr);
}

void StateOverlay::StoreAccount(const Address& addr,
                                const std::optional<Account>& account) {
  footprint_.accounts.insert(addr);
  accounts_[addr] = account;
}

std::optional<Bytes> StateOverlay::LoadSlot(const std::string& space,
                                            const Bytes& key) const {
  footprint_.spaces.insert(space);
  auto space_it = storage_.find(space);
  if (space_it != storage_.end()) {
    auto it = space_it->second.find(key);
    if (it != space_it->second.end()) return it->second;  // value or tombstone
  }
  return base_.LoadSlot(space, key);
}

void StateOverlay::StoreSlot(const std::string& space, const Bytes& key,
                             const std::optional<Bytes>& value) {
  footprint_.spaces.insert(space);
  storage_[space][key] = value;
}

StateView::Slots StateOverlay::ScanSlots(const std::string& space,
                                         const Bytes& prefix) const {
  footprint_.spaces.insert(space);
  Slots base_entries = base_.ScanSlots(space, prefix);
  auto space_it = storage_.find(space);
  if (space_it == storage_.end()) return base_entries;

  // Merge the sorted base scan with the overlay's entries in prefix range;
  // an overlay entry shadows the base entry with the same key.
  Slots out;
  auto overlay_it = space_it->second.lower_bound(prefix);
  auto overlay_end = space_it->second.end();
  auto in_prefix = [&prefix](const Bytes& key) {
    return key.size() >= prefix.size() &&
           std::equal(prefix.begin(), prefix.end(), key.begin());
  };
  size_t b = 0;
  while (true) {
    const bool overlay_ok =
        overlay_it != overlay_end && in_prefix(overlay_it->first);
    const bool base_ok = b < base_entries.size();
    if (!overlay_ok && !base_ok) break;
    if (overlay_ok &&
        (!base_ok || overlay_it->first <= base_entries[b].first)) {
      if (base_ok && overlay_it->first == base_entries[b].first) ++b;
      if (overlay_it->second.has_value()) {
        out.emplace_back(overlay_it->first, *overlay_it->second);
      }
      ++overlay_it;
    } else {
      out.push_back(std::move(base_entries[b]));
      ++b;
    }
  }
  return out;
}

void StateOverlay::MergeInto(StateView& target) const {
  assert(CheckpointDepth() == 0);
  for (const auto& [addr, account] : accounts_) {
    target.WriteAccount(addr, target.LoadAccount(addr), account);
  }
  for (const auto& [space, kv] : storage_) {
    for (const auto& [key, value] : kv) {
      target.WriteSlot(space, key, target.LoadSlot(space, key), value);
    }
  }
}

// --- Lane partition ---------------------------------------------------------

namespace {

size_t Find(std::vector<size_t>& parent, size_t i) {
  while (parent[i] != i) {
    parent[i] = parent[parent[i]];
    i = parent[i];
  }
  return i;
}

void Unite(std::vector<size_t>& parent, size_t a, size_t b) {
  a = Find(parent, a);
  b = Find(parent, b);
  if (a != b) parent[std::max(a, b)] = std::min(a, b);
}

}  // namespace

std::vector<std::vector<size_t>> PartitionIntoLanes(
    const std::vector<AccessSet>& sets) {
  const size_t n = sets.size();
  std::vector<std::vector<size_t>> lanes;
  if (n == 0) return lanes;
  for (const AccessSet& set : sets) {
    if (set.global) {
      lanes.emplace_back(n);
      std::iota(lanes.back().begin(), lanes.back().end(), size_t{0});
      return lanes;
    }
  }

  std::vector<size_t> parent(n);
  std::iota(parent.begin(), parent.end(), size_t{0});
  std::map<Address, size_t> account_owner;
  std::map<std::string, size_t> space_owner;
  for (size_t i = 0; i < n; ++i) {
    for (const Address& addr : sets[i].accounts) {
      auto [it, inserted] = account_owner.emplace(addr, i);
      if (!inserted) Unite(parent, it->second, i);
    }
    for (const std::string& space : sets[i].spaces) {
      auto [it, inserted] = space_owner.emplace(space, i);
      if (!inserted) Unite(parent, it->second, i);
    }
  }

  // Lanes ordered by their lowest transaction index; members ascending.
  std::map<size_t, size_t> root_to_lane;
  for (size_t i = 0; i < n; ++i) {
    const size_t root = Find(parent, i);
    auto [it, inserted] = root_to_lane.emplace(root, lanes.size());
    if (inserted) lanes.emplace_back();
    lanes[it->second].push_back(i);
  }
  return lanes;
}

}  // namespace pds2::chain
