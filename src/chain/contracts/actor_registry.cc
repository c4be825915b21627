#include "chain/contracts/actor_registry.h"

#include "common/serial.h"

namespace pds2::chain::contracts {

using common::Bytes;
using common::Reader;
using common::Result;
using common::Status;
using common::ToBytes;
using common::Writer;

namespace {

Bytes ActorKey(const Address& addr) {
  Bytes key = ToBytes("actor/");
  common::Append(key, addr);
  return key;
}

// Registers (or re-registers) the sender under its own key.
Result<Bytes> Register(CallContext& ctx, Reader& r) {
  PDS2_ASSIGN_OR_RETURN(Bytes public_key, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(uint64_t roles, r.GetU64());
  PDS2_ASSIGN_OR_RETURN(std::string metadata, r.GetString());
  if (roles == 0) return Status::InvalidArgument("no roles declared");
  // The registration must come from the key owner: the sender address must
  // be derived from the registered public key.
  if (AddressFromPublicKey(public_key) != ctx.sender()) {
    return Status::PermissionDenied(
        "sender address does not match the registered key");
  }
  PDS2_ASSIGN_OR_RETURN(auto existing, ctx.Read(ActorKey(ctx.sender())));
  Writer w;
  w.PutBytes(public_key);
  w.PutU64(roles);
  w.PutString(metadata);
  PDS2_RETURN_IF_ERROR(ctx.Write(ActorKey(ctx.sender()), w.Take()));
  if (!existing.has_value()) {
    PDS2_ASSIGN_OR_RETURN(uint64_t count, ctx.ReadU64(ToBytes("count")));
    PDS2_RETURN_IF_ERROR(ctx.WriteU64(ToBytes("count"), count + 1));
  }
  PDS2_RETURN_IF_ERROR(ctx.Emit("Registered", ctx.sender()));
  return Bytes{};
}

Result<Bytes> Get(CallContext& ctx, Reader& r) {
  PDS2_ASSIGN_OR_RETURN(Bytes addr, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(auto record, ctx.Read(ActorKey(addr)));
  if (!record.has_value()) return Status::NotFound("actor not registered");
  return *record;
}

Result<Bytes> Count(CallContext& ctx, Reader&) {
  PDS2_ASSIGN_OR_RETURN(auto count_bytes, ctx.Read(ToBytes("count")));
  return count_bytes.value_or(Bytes(8, 0));
}

constexpr Contract::Method kMethods[] = {
    {"register", Register}, {"get", Get}, {"count", Count}};

}  // namespace

ActorRegistry::ActorRegistry() : Contract(kMethods) {}

}  // namespace pds2::chain::contracts
