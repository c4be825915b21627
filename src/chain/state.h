#ifndef PDS2_CHAIN_STATE_H_
#define PDS2_CHAIN_STATE_H_

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "chain/types.h"
#include "common/result.h"
#include "crypto/merkle.h"

namespace pds2::chain {

/// Balance, nonce and existence of one account.
struct Account {
  uint64_t balance = 0;
  uint64_t nonce = 0;
};

/// Reserved storage space holding the stake ledger: 20-byte address keys map
/// to u64 bonded amounts, plus the (non-address-sized) burned-total key. The
/// space lives in ordinary contract storage, so journaling, state roots,
/// snapshots and lane overlays all cover it with no special cases.
inline constexpr char kStakeSpace[] = "pds2.stake";
/// Key under kStakeSpace accumulating burned (slashed-and-destroyed) tokens.
/// Deliberately not 20 bytes long, so it can never collide with an address.
inline constexpr char kBurnedKey[] = "burned-total";
/// Denominator of the reporter's share of a slash (basis points).
inline constexpr uint32_t kSlashBpsDenominator = 10'000;

/// The ledger surface transaction execution runs against, and the one
/// implementation of the ledger rules: Credit, Debit, Transfer, BumpNonce,
/// storage put/delete, the stake helpers and the nested Begin/Commit/
/// Rollback journal are non-virtual code here. They sit on five protected
/// storage primitives (load/store an account record, load/store a storage
/// slot, scan a prefix), which a store implements:
///   - WorldState: the replicated flat maps that Digest() commits to;
///   - StateOverlay (parallel_exec.h): private copy-on-write maps over a
///     frozen base, recording the footprint of what runs on it.
/// Every store therefore applies the same rules by construction: the
/// sequential path, lane execution, the access-set pre-pass and read-only
/// queries cannot drift apart.
class StateView {
 public:
  StateView() = default;
  StateView(const StateView&) = default;
  StateView(StateView&&) = default;
  StateView& operator=(const StateView&) = default;
  StateView& operator=(StateView&&) = default;
  virtual ~StateView() = default;

  // --- Accounts -----------------------------------------------------------

  /// Balance of `addr` (0 for unknown accounts).
  uint64_t GetBalance(const Address& addr) const;
  /// Current nonce of `addr` (0 for unknown accounts).
  uint64_t GetNonce(const Address& addr) const;
  /// Credits an account, creating it if absent (used for genesis
  /// allocations, block rewards and gas refunds). Guarded: InvalidArgument
  /// when the credit would wrap the balance past uint64, leaving the account
  /// untouched. Transfers and fee credits can never trip the guard
  /// (conservation bounds every balance by the total supply, which
  /// CreditGenesis caps below uint64), so callers on those paths may assert
  /// success.
  common::Status Credit(const Address& addr, uint64_t amount);
  /// Debits; InsufficientFunds if the balance is too small or the account
  /// does not exist.
  common::Status Debit(const Address& addr, uint64_t amount);
  /// Atomic transfer from -> to: fails with no side effects.
  common::Status Transfer(const Address& from, const Address& to,
                          uint64_t amount);
  /// Increments the account nonce, creating the account if absent.
  void BumpNonce(const Address& addr);

  // --- Contract storage ----------------------------------------------------

  /// Reads a storage slot; nullopt when unset.
  std::optional<common::Bytes> StorageGet(const std::string& space,
                                          const common::Bytes& key) const {
    return LoadSlot(space, key);
  }
  /// Writes a storage slot. Returns true if the slot already existed
  /// (drives the cheaper "update" gas price).
  bool StoragePut(const std::string& space, const common::Bytes& key,
                  const common::Bytes& value);
  /// Deletes a slot (no-op if absent).
  void StorageDelete(const std::string& space, const common::Bytes& key);
  /// All (key, value) pairs in a namespace whose key starts with `prefix`,
  /// in key order. Used by read-only enumeration queries.
  std::vector<std::pair<common::Bytes, common::Bytes>> StorageScan(
      const std::string& space, const common::Bytes& prefix) const {
    return ScanSlots(space, prefix);
  }

  // --- Journaling -----------------------------------------------------------

  /// Opens a nested checkpoint. Every mutation after this point can be
  /// undone with Rollback or kept with Commit.
  void Begin() { checkpoints_.push_back(journal_.size()); }
  /// Discards the most recent checkpoint, keeping its mutations (an outer
  /// checkpoint can still undo them).
  void Commit();
  /// Undoes all mutations since the most recent checkpoint, restoring the
  /// exact prior records (so the store is as if they never happened).
  void Rollback();
  /// Depth of open checkpoints (0 outside any transaction).
  size_t CheckpointDepth() const { return checkpoints_.size(); }

  // --- Stake ledger ---------------------------------------------------------
  // Accountability deposits (paper's D2M-style incentive layer). Stake
  // lives in the kStakeSpace storage namespace; bonding moves value from an
  // account's spendable balance into its stake record, and slashing moves
  // it out to a reporter and the burned total. The conserved quantity is
  // TotalBalance() + TotalStaked() + BurnedTotal().

  /// Bonded stake of `addr` (0 when none).
  uint64_t StakeOf(const Address& addr) const;
  /// Moves `amount` from `addr`'s balance into its stake record.
  common::Status StakeBond(const Address& addr, uint64_t amount);
  /// Confiscates `amount` from `offender`'s stake: `reporter_bps` basis
  /// points go to `reporter` as a bounty, the remainder is burned (added to
  /// the burned-total record, never to any balance). Exact: the three-way
  /// split always sums to `amount`.
  common::Status StakeSlash(const Address& offender, uint64_t amount,
                            const Address& reporter, uint32_t reporter_bps);
  /// Total tokens destroyed by slashing so far (one record read).
  uint64_t BurnedTotal() const;

 protected:
  using Slots = std::vector<std::pair<common::Bytes, common::Bytes>>;

  // Storage primitives. Loads return the visible record (nullopt: absent);
  // stores install one verbatim (nullopt: remove) with no journaling.
  virtual std::optional<Account> LoadAccount(const Address& addr) const = 0;
  virtual void StoreAccount(const Address& addr,
                            const std::optional<Account>& account) = 0;
  virtual std::optional<common::Bytes> LoadSlot(
      const std::string& space, const common::Bytes& key) const = 0;
  virtual void StoreSlot(const std::string& space, const common::Bytes& key,
                         const std::optional<common::Bytes>& value) = 0;
  /// Visible slots of `space` whose key starts with `prefix`, in key order.
  virtual Slots ScanSlots(const std::string& space,
                          const common::Bytes& prefix) const = 0;

 private:
  // The overlay reads its base and merges into a target through the
  // primitives and journaled writes below.
  friend class StateOverlay;

  // Journaled writes: `prior` is the visible record being replaced; it is
  // recorded for Rollback while a checkpoint is open.
  void WriteAccount(const Address& addr, std::optional<Account> prior,
                    const std::optional<Account>& value);
  void WriteSlot(const std::string& space, const common::Bytes& key,
                 std::optional<common::Bytes> prior,
                 const std::optional<common::Bytes>& value);

  // The prior record of one account (is_account) or one slot.
  struct JournalEntry {
    bool is_account;
    Address addr;
    std::optional<Account> account;
    std::string space;
    common::Bytes key;
    std::optional<common::Bytes> value;
  };
  std::vector<JournalEntry> journal_;
  std::vector<size_t> checkpoints_;  // journal sizes at Begin()
};

/// One key's bucket of a state root plus the Merkle path from that bucket
/// to the root (docs/PROTOCOL.md "State root"). The same proof shows a key
/// present (its record is in the bucket) or absent (it is not).
struct StateProof {
  common::Bytes bucket;      // the bucket's leaf encoding; empty: no entries
  crypto::MerkleProof path;  // siblings from the bucket up to the root
};

/// The replicated ledger state: native-token accounts plus raw contract
/// storage in flat ordered maps. A storage space exists exactly while it
/// holds a slot, so a rolled-back or emptied space leaves no trace in
/// Digest() or a snapshot.
///
/// StoreAccount/StoreSlot, the only write path (journal rollback and
/// overlay merges included), also keep the supply totals and mark the state
/// root's bucket of every key they write, so Digest() rehashes only buckets
/// written since the last call.
class WorldState final : public StateView {
 public:
  /// The state root is a Merkle tree over 2^kStateRootDepth buckets.
  static constexpr unsigned kStateRootDepth = 12;
  static constexpr size_t kStateRootBuckets = size_t{1} << kStateRootDepth;

  WorldState() = default;

  /// The state root: a Merkle root over the key buckets of every account
  /// and slot (docs/PROTOCOL.md "State root"). Included in block headers.
  /// The first call hashes every non-empty bucket; later calls rehash the
  /// buckets written since, on `pool` when given (same root at any pool
  /// size). Updates a cache, so it must not run concurrently with any other
  /// call on this state.
  Hash Digest(common::ThreadPool* pool = nullptr) const;

  /// SHA-256 leaf and node hashes Digest() has spent on this state (and the
  /// states it was copied from): the state root's whole cost.
  uint64_t RootHashCount() const { return root_tree_.hash_count(); }

  /// Sum of all account balances — the circulating native supply. Only
  /// genesis allocations create tokens, so this is invariant across
  /// transaction execution (fees merely move value to the proposer); the
  /// audit tests assert it. A running total: O(1).
  uint64_t TotalBalance() const;
  /// Sum of all bonded stakes. A running total: O(1).
  uint64_t TotalStaked() const;

  // --- Proofs ---------------------------------------------------------------

  /// The bucket of slot (`space`, `key`) with its path to Digest() (which
  /// it brings up to date, so the same concurrency rule applies).
  StateProof ProveSlot(const std::string& space,
                       const common::Bytes& key) const;

  /// Checks `proof` for slot (`space`, `key`) under `state_root`: the
  /// slot's value, or nullopt when the proof shows it absent. Corruption
  /// when the proof is not a proof of that key's bucket under that root.
  static common::Result<std::optional<common::Bytes>> VerifySlot(
      const Hash& state_root, const std::string& space,
      const common::Bytes& key, const StateProof& proof);

  // --- Snapshots ------------------------------------------------------------

  /// Canonical byte serialization of the full state (accounts in address
  /// order, then storage spaces in name/key order), so a restored state
  /// digests identically. Requires no open checkpoints.
  common::Bytes SerializeSnapshot() const;

  /// Rebuilds a state from SerializeSnapshot bytes. Canonical: accepts only
  /// strictly ascending accounts, spaces and keys and no empty space, so
  /// every accepted input re-serializes to itself. Corruption on anything
  /// else; never crashes.
  static common::Result<WorldState> DeserializeSnapshot(
      const common::Bytes& data);

 private:
  std::optional<Account> LoadAccount(const Address& addr) const override;
  void StoreAccount(const Address& addr,
                    const std::optional<Account>& account) override;
  std::optional<common::Bytes> LoadSlot(
      const std::string& space, const common::Bytes& key) const override;
  void StoreSlot(const std::string& space, const common::Bytes& key,
                 const std::optional<common::Bytes>& value) override;
  Slots ScanSlots(const std::string& space,
                  const common::Bytes& prefix) const override;

  void MarkDirty(uint32_t bucket) const {
    dirty_[bucket / 64] |= uint64_t{1} << (bucket % 64);
  }
  // The leaf encoding of one bucket (empty when it holds nothing).
  common::Bytes EncodeBucket(uint32_t bucket) const;

  std::map<Address, Account> accounts_;
  // space -> key -> value; never holds an empty space.
  std::map<std::string, std::map<common::Bytes, common::Bytes>> storage_;
  // (bucket, space, key) of every slot, so a bucket's slots are one range.
  // Accounts need no index: a bucket is a prefix range of accounts_.
  std::set<std::tuple<uint32_t, std::string, common::Bytes>> slot_buckets_;
  // Exact running sums (no uint64 wrap); reads saturate.
  unsigned __int128 total_balance_ = 0;
  unsigned __int128 total_staked_ = 0;

  // The state root cache. Until the first Digest() nothing is marked and
  // the tree holds no nodes; that call marks every non-empty bucket.
  mutable crypto::IncrementalMerkleTree root_tree_{kStateRootDepth};
  mutable bool root_built_ = false;
  mutable std::array<uint64_t, kStateRootBuckets / 64> dirty_{};
};

}  // namespace pds2::chain

#endif  // PDS2_CHAIN_STATE_H_
