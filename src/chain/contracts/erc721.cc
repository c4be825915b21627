#include "chain/contracts/erc721.h"

#include "common/serial.h"

namespace pds2::chain::contracts {

using common::Bytes;
using common::Reader;
using common::Result;
using common::Status;
using common::ToBytes;
using common::Writer;

namespace {

Bytes OwnerKey(const Bytes& token_id) {
  Bytes key = ToBytes("own/");
  common::Append(key, token_id);
  return key;
}

Bytes MetadataKey(const Bytes& token_id) {
  Bytes key = ToBytes("meta/");
  common::Append(key, token_id);
  return key;
}

// Mints a new token id to the sender, with its metadata.
Result<Bytes> Mint(CallContext& ctx, Reader& r) {
  PDS2_ASSIGN_OR_RETURN(Bytes token_id, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(Bytes metadata, r.GetBytes());
  if (token_id.empty()) {
    return Status::InvalidArgument("empty token id");
  }
  PDS2_ASSIGN_OR_RETURN(auto existing, ctx.Read(OwnerKey(token_id)));
  if (existing.has_value()) {
    return Status::AlreadyExists("token id already minted");
  }
  PDS2_RETURN_IF_ERROR(ctx.Write(OwnerKey(token_id), ctx.sender()));
  PDS2_RETURN_IF_ERROR(ctx.Write(MetadataKey(token_id), metadata));
  PDS2_ASSIGN_OR_RETURN(uint64_t count, ctx.ReadU64(ToBytes("registry/count")));
  PDS2_RETURN_IF_ERROR(ctx.WriteU64(ToBytes("registry/count"), count + 1));
  PDS2_RETURN_IF_ERROR(ctx.Emit("Minted", token_id));
  return Bytes{};
}

// Owner only.
Result<Bytes> Transfer(CallContext& ctx, Reader& r) {
  PDS2_ASSIGN_OR_RETURN(Bytes token_id, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(Bytes to, r.GetBytes());
  if (to.size() != kAddressSize) {
    return Status::InvalidArgument("malformed destination address");
  }
  PDS2_ASSIGN_OR_RETURN(auto owner, ctx.Read(OwnerKey(token_id)));
  if (!owner.has_value()) return Status::NotFound("unknown token id");
  if (*owner != ctx.sender()) {
    return Status::PermissionDenied("sender does not own this token");
  }
  PDS2_RETURN_IF_ERROR(ctx.Write(OwnerKey(token_id), to));
  PDS2_RETURN_IF_ERROR(ctx.Emit("Transferred", token_id));
  return Bytes{};
}

Result<Bytes> OwnerOf(CallContext& ctx, Reader& r) {
  PDS2_ASSIGN_OR_RETURN(Bytes token_id, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(auto owner, ctx.Read(OwnerKey(token_id)));
  if (!owner.has_value()) return Status::NotFound("unknown token id");
  return *owner;
}

Result<Bytes> MetadataOf(CallContext& ctx, Reader& r) {
  PDS2_ASSIGN_OR_RETURN(Bytes token_id, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(auto metadata, ctx.Read(MetadataKey(token_id)));
  if (!metadata.has_value()) return Status::NotFound("unknown token id");
  return *metadata;
}

Result<Bytes> Count(CallContext& ctx, Reader&) {
  PDS2_ASSIGN_OR_RETURN(auto count_bytes, ctx.Read(ToBytes("registry/count")));
  return count_bytes.value_or(Bytes(8, 0));
}

constexpr Contract::Method kMethods[] = {
    {"mint", Mint},           {"transfer", Transfer}, {"owner_of", OwnerOf},
    {"metadata_of", MetadataOf}, {"count", Count},
};

}  // namespace

Erc721Registry::Erc721Registry() : Contract(kMethods) {}

Status Erc721Registry::Deploy(CallContext& ctx, const Bytes& args) {
  PDS2_RETURN_IF_ERROR(ctx.RequireNoValue());
  Reader r(args);
  PDS2_ASSIGN_OR_RETURN(std::string name, r.GetString());
  PDS2_RETURN_IF_ERROR(ctx.Write(ToBytes("registry/name"), ToBytes(name)));
  return ctx.WriteU64(ToBytes("registry/count"), 0);
}

}  // namespace pds2::chain::contracts
