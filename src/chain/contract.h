#ifndef PDS2_CHAIN_CONTRACT_H_
#define PDS2_CHAIN_CONTRACT_H_

#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "chain/gas.h"
#include "chain/state.h"
#include "chain/types.h"
#include "common/result.h"
#include "common/serial.h"
#include "common/sim_clock.h"

namespace pds2::chain {

/// Block-level information visible to contract code.
struct BlockContext {
  uint64_t number = 0;
  common::SimTime timestamp = 0;
};

/// An event emitted by contract code into the transaction receipt — the
/// audit trail the governance layer exposes to all actors.
struct Event {
  std::string contract;
  uint64_t instance = 0;
  std::string name;
  common::Bytes data;
};

/// The WorldState storage space of contract instance (`contract`,
/// `instance`): "<contract>/<instance>".
std::string ContractSpace(const std::string& contract, uint64_t instance);

/// Everything a contract method may touch during execution. All state
/// access goes through this object, which meters gas and scopes storage to
/// the contract instance's namespace.
class CallContext {
 public:
  CallContext(StateView& state, GasMeter& gas, Address sender, uint64_t value,
              std::string contract_name, uint64_t instance,
              const BlockContext& block, std::vector<Event>* events);

  /// Gas-metered storage read within this instance's namespace.
  common::Result<std::optional<common::Bytes>> Read(const common::Bytes& key);
  /// Gas-metered storage write.
  common::Status Write(const common::Bytes& key, const common::Bytes& value);
  /// Gas-metered storage delete.
  common::Status Delete(const common::Bytes& key);
  /// Read of a u64 slot: one Read, and a missing key reads as 0.
  common::Result<uint64_t> ReadU64(const common::Bytes& key);
  /// Write of a u64 slot: one Write.
  common::Status WriteU64(const common::Bytes& key, uint64_t value);
  /// Gas-metered prefix scan (charged one read per returned entry).
  common::Result<std::vector<std::pair<common::Bytes, common::Bytes>>> Scan(
      const common::Bytes& prefix);

  /// Emits an audit event into the receipt.
  common::Status Emit(const std::string& name, const common::Bytes& data);

  /// Gas-metered signature verification (contracts validating certificates
  /// pay for the check).
  common::Status VerifySig(const common::Bytes& public_key,
                           const std::string& domain,
                           const common::Bytes& message,
                           const common::Bytes& signature);

  /// Pays `amount` native tokens out of the contract's own balance
  /// (escrowed funds) to `to`.
  common::Status PayOut(const Address& to, uint64_t amount);

  /// Destroys `amount` native tokens out of the contract's own balance:
  /// the funds move to the global burned-total record (see
  /// StateView::BurnedTotal), never to any account. Used by slashing paths
  /// so confiscated escrow provably leaves circulation while total supply
  /// (balances + stakes + burned) stays exactly conserved.
  common::Status Burn(uint64_t amount);

  /// InvalidArgument when the call carries value: a method or constructor
  /// that takes none would otherwise strand it in the instance's account.
  common::Status RequireNoValue() const;

  const Address& sender() const { return sender_; }
  uint64_t value() const { return value_; }
  /// The `phase` slot as the dispatcher read it for a phase-guarded method.
  uint8_t phase() const { return phase_; }
  const BlockContext& block() const { return block_; }
  uint64_t instance() const { return instance_; }
  /// The contract instance's own account address (escrow holder).
  Address SelfAddress() const;
  GasMeter& gas() { return gas_; }
  StateView& state() { return state_; }

 private:
  StateView& state_;
  GasMeter& gas_;
  Address sender_;
  uint64_t value_;
  std::string contract_name_;
  uint64_t instance_;
  std::string space_;
  BlockContext block_;
  std::vector<Event>* events_;
  uint8_t phase_ = 0;

  friend class Contract;
};

/// A contract type: stateless logic whose persistent state lives in the
/// WorldState namespace of each deployed instance. Mirrors how Solidity
/// code is shared while storage is per-deployment. Each type hands the base
/// one static table with a row per method (one state transition or query).
class Contract {
 public:
  /// One dispatch-table row. The guards run in column order before the
  /// handler, which reads its arguments from the Reader.
  struct Method {
    std::string_view name;
    common::Result<common::Bytes> (*handler)(CallContext&, common::Reader&);
    /// Whether the call may carry value; other rows refuse value > 0.
    bool payable = false;
    /// Bit p admits `phase` slot value p, else FailedPrecondition with
    /// `phase_refusal`. 0: any phase, and the slot is not read.
    uint8_t phases = 0;
    const char* phase_refusal = nullptr;
    /// Set: only the `consumer` slot's address may call, else
    /// PermissionDenied with this string.
    const char* consumer_refusal = nullptr;
  };

  explicit Contract(std::span<const Method> methods) : methods_(methods) {}
  virtual ~Contract() = default;

  /// Registered type name ("erc20", "workload", ...).
  virtual std::string Name() const = 0;

  /// Called once at deployment with constructor arguments. The default
  /// ignores them and refuses value.
  virtual common::Status Deploy(CallContext& ctx, const common::Bytes& args);

  /// Dispatches a method call through its row; returns the method's
  /// serialized result.
  common::Result<common::Bytes> Call(CallContext& ctx,
                                     const std::string& method,
                                     const common::Bytes& args) const;

 private:
  std::span<const Method> methods_;
};

/// Maps contract type names to their logic singletons.
class ContractRegistry {
 public:
  /// Registers a contract type; AlreadyExists if the name is taken.
  common::Status Register(std::unique_ptr<Contract> contract);

  /// Looks up a contract by type name; nullptr when unknown.
  Contract* Find(const std::string& name) const;

  /// Registry preloaded with every built-in PDS2 contract (erc20, erc721,
  /// actor registry, workload).
  static std::unique_ptr<ContractRegistry> CreateDefault();

 private:
  std::map<std::string, std::unique_ptr<Contract>> contracts_;
};

}  // namespace pds2::chain

#endif  // PDS2_CHAIN_CONTRACT_H_
