#ifndef PDS2_CHAIN_CONTRACTS_ERC721_H_
#define PDS2_CHAIN_CONTRACTS_ERC721_H_

#include <string>

#include "chain/contract.h"

namespace pds2::chain::contracts {

/// Non-fungible token registry following ERC-721 semantics (EIP-721). The
/// platform models datasets and workload code as NFTs (paper §III-A): the
/// token id is the content hash registered by its owner, and the metadata
/// blob carries the semantic description. The data itself never touches the
/// chain.
///
/// Deploy args: string name. No method or deploy takes value.
///
/// Methods:
///   "mint"        (bytes token_id, bytes metadata) -> ()    [id must be new]
///   "transfer"    (bytes token_id, bytes to) -> ()          [owner only]
///   "owner_of"    (bytes token_id) -> bytes address
///   "metadata_of" (bytes token_id) -> bytes
///   "count"       () -> u64
class Erc721Registry : public Contract {
 public:
  Erc721Registry();
  std::string Name() const override { return "erc721"; }
  common::Status Deploy(CallContext& ctx, const common::Bytes& args) override;
};

}  // namespace pds2::chain::contracts

#endif  // PDS2_CHAIN_CONTRACTS_ERC721_H_
