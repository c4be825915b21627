#ifndef PDS2_CHAIN_CONTRACTS_ERC20_H_
#define PDS2_CHAIN_CONTRACTS_ERC20_H_

#include <string>

#include "chain/contract.h"

namespace pds2::chain::contracts {

/// Fungible token following ERC-20 semantics (EIP-20): balances,
/// allowances, transfer / approve / transferFrom, owner-gated minting. The
/// marketplace uses instances of this for reward tokens beyond the native
/// coin.
///
/// Deploy args: string name, u64 initial_supply (minted to the deployer).
/// No method or deploy takes value.
///
/// Methods (args -> result):
///   "transfer"      (bytes to_addr, u64 amount) -> ()
///   "approve"       (bytes spender, u64 amount) -> ()
///   "transfer_from" (bytes from, bytes to, u64 amount) -> ()
///   "mint"          (bytes to, u64 amount) -> ()            [owner only]
///   "balance_of"    (bytes addr) -> u64
///   "allowance"     (bytes owner, bytes spender) -> u64
///   "total_supply"  () -> u64
///   "token_name"    () -> string
class Erc20Token : public Contract {
 public:
  Erc20Token();
  std::string Name() const override { return "erc20"; }
  common::Status Deploy(CallContext& ctx, const common::Bytes& args) override;
};

}  // namespace pds2::chain::contracts

#endif  // PDS2_CHAIN_CONTRACTS_ERC20_H_
