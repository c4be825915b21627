#ifndef PDS2_CHAIN_CONTRACTS_ACTOR_REGISTRY_H_
#define PDS2_CHAIN_CONTRACTS_ACTOR_REGISTRY_H_

#include <string>

#include "chain/contract.h"

namespace pds2::chain::contracts {

/// On-chain registration of platform actors by blockchain address
/// (paper §III-A: "registration of all actors, by using their blockchain
/// addresses"). An actor declares one or more roles; the marketplace layer
/// consults this registry when matching providers, executors and consumers.
///
/// Roles are a bitmask so a single entity can act in several roles
/// (paper §II-C: "each entity ... can act in multiple roles").
enum ActorRole : uint64_t {
  kRoleProvider = 1 << 0,
  kRoleConsumer = 1 << 1,
  kRoleExecutor = 1 << 2,
  kRoleStorage = 1 << 3,
};

/// Deploy args: none. No method or deploy takes value.
///
/// Methods:
///   "register" (bytes public_key, u64 roles, string metadata) -> ()
///       sender must be the address of public_key
///   "get"      (bytes address) -> (bytes public_key, u64 roles, string metadata)
///   "count"    () -> u64
class ActorRegistry : public Contract {
 public:
  ActorRegistry();
  std::string Name() const override { return "actors"; }
};

}  // namespace pds2::chain::contracts

#endif  // PDS2_CHAIN_CONTRACTS_ACTOR_REGISTRY_H_
