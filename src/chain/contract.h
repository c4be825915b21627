#ifndef PDS2_CHAIN_CONTRACT_H_
#define PDS2_CHAIN_CONTRACT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chain/gas.h"
#include "chain/state.h"
#include "chain/types.h"
#include "common/result.h"
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

  const Address& sender() const { return sender_; }
  uint64_t value() const { return value_; }
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
};

/// A contract type: stateless logic whose persistent state lives in the
/// WorldState namespace of each deployed instance. Mirrors how Solidity
/// code is shared while storage is per-deployment.
class Contract {
 public:
  virtual ~Contract() = default;

  /// Registered type name ("erc20", "workload", ...).
  virtual std::string Name() const = 0;

  /// Called once at deployment with constructor arguments.
  virtual common::Status Deploy(CallContext& ctx, const common::Bytes& args) {
    (void)ctx;
    (void)args;
    return common::Status::Ok();
  }

  /// Dispatches a method call; returns the method's serialized result.
  virtual common::Result<common::Bytes> Call(CallContext& ctx,
                                             const std::string& method,
                                             const common::Bytes& args) = 0;
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
