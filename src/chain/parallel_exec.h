#ifndef PDS2_CHAIN_PARALLEL_EXEC_H_
#define PDS2_CHAIN_PARALLEL_EXEC_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "chain/state.h"
#include "chain/types.h"

namespace pds2::chain {

/// The ledger footprint of one transaction: the native accounts and the
/// contract storage spaces it may read or write. Plain transfers declare
/// their sets exactly ({sender, recipient}); contract calls get theirs from
/// the footprint of a throwaway StateOverlay run (see Blockchain). `global`
/// marks a transaction that conflicts with everything (deploys, which
/// allocate the shared instance-id counter) and forces the whole block
/// sequential.
struct AccessSet {
  std::set<Address> accounts;
  std::set<std::string> spaces;
  bool global = false;

  /// Absorbs `other` into this set (lane union).
  void Merge(const AccessSet& other);
  /// True when every account and space of `other` is in this set.
  bool Includes(const AccessSet& other) const;
};

/// A copy-on-write store over a frozen base state: reads fall through to
/// the base, writes (deleted slots and rolled-back account creations as
/// tombstones) stay in private maps, and every account and storage space
/// read or written is recorded in footprint(). The ledger rules and the
/// journal are StateView's, so an overlay computes exactly what the base
/// would. The base must not change while the overlay is alive; it is only
/// read, so any number of overlays may share it across threads.
///
/// Uses: the access-set pre-pass (run a call, read off its footprint),
/// optimistic lanes (run a lane, check footprint ⊆ allowed, merge) and
/// read-only contract queries (run, then drop).
class StateOverlay final : public StateView {
 public:
  explicit StateOverlay(const StateView& base) : base_(base) {}

  /// Every account and storage space touched so far.
  const AccessSet& footprint() const { return footprint_; }

  /// Writes the buffered records into `target` (the base this overlay was
  /// built over) through its journaled writes, so a checkpoint open on the
  /// target also covers the merge. Requires no open checkpoint here.
  void MergeInto(StateView& target) const;

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

  const StateView& base_;
  mutable AccessSet footprint_;
  // nullopt = absent here even if present in the base (a tombstone).
  std::map<Address, std::optional<Account>> accounts_;
  std::map<std::string, std::map<common::Bytes, std::optional<common::Bytes>>>
      storage_;
};

/// Partitions transactions [0, n) into conflict lanes: union-find over
/// overlapping access sets, so two transactions land in the same lane iff
/// they are connected through shared accounts or storage spaces. Lane order
/// and in-lane order both follow the canonical (block) transaction order.
/// If any set is global the result is a single lane holding everything.
std::vector<std::vector<size_t>> PartitionIntoLanes(
    const std::vector<AccessSet>& sets);

}  // namespace pds2::chain

#endif  // PDS2_CHAIN_PARALLEL_EXEC_H_
