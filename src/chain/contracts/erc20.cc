#include "chain/contracts/erc20.h"

#include "common/serial.h"

namespace pds2::chain::contracts {

using common::Bytes;
using common::Reader;
using common::Result;
using common::Status;
using common::ToBytes;
using common::Writer;

namespace {

Bytes BalanceKey(const Address& addr) {
  Bytes key = ToBytes("bal/");
  common::Append(key, addr);
  return key;
}

Bytes AllowanceKey(const Address& owner, const Address& spender) {
  Bytes key = ToBytes("alw/");
  common::Append(key, owner);
  key.push_back('/');
  common::Append(key, spender);
  return key;
}

Status AddressValid(const Bytes& addr) {
  if (addr.size() != kAddressSize) {
    return Status::InvalidArgument("malformed address");
  }
  return Status::Ok();
}

Status CreditBalance(CallContext& ctx, const Address& addr, uint64_t amount) {
  PDS2_ASSIGN_OR_RETURN(uint64_t balance, ctx.ReadU64(BalanceKey(addr)));
  if (balance + amount < balance) {
    return Status::OutOfRange("balance overflow");
  }
  return ctx.WriteU64(BalanceKey(addr), balance + amount);
}

Status DebitBalance(CallContext& ctx, const Address& addr, uint64_t amount) {
  PDS2_ASSIGN_OR_RETURN(uint64_t balance, ctx.ReadU64(BalanceKey(addr)));
  if (balance < amount) {
    return Status::InsufficientFunds("token balance too low");
  }
  return ctx.WriteU64(BalanceKey(addr), balance - amount);
}

Result<Bytes> Transfer(CallContext& ctx, Reader& r) {
  PDS2_ASSIGN_OR_RETURN(Bytes to, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(uint64_t amount, r.GetU64());
  PDS2_RETURN_IF_ERROR(AddressValid(to));
  PDS2_RETURN_IF_ERROR(DebitBalance(ctx, ctx.sender(), amount));
  PDS2_RETURN_IF_ERROR(CreditBalance(ctx, to, amount));
  Writer ev;
  ev.PutBytes(ctx.sender());
  ev.PutBytes(to);
  ev.PutU64(amount);
  PDS2_RETURN_IF_ERROR(ctx.Emit("Transfer", ev.Take()));
  return Bytes{};
}

Result<Bytes> Approve(CallContext& ctx, Reader& r) {
  PDS2_ASSIGN_OR_RETURN(Bytes spender, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(uint64_t amount, r.GetU64());
  PDS2_RETURN_IF_ERROR(AddressValid(spender));
  PDS2_RETURN_IF_ERROR(
      ctx.WriteU64(AllowanceKey(ctx.sender(), spender), amount));
  return Bytes{};
}

Result<Bytes> TransferFrom(CallContext& ctx, Reader& r) {
  PDS2_ASSIGN_OR_RETURN(Bytes from, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(Bytes to, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(uint64_t amount, r.GetU64());
  PDS2_RETURN_IF_ERROR(AddressValid(from));
  PDS2_RETURN_IF_ERROR(AddressValid(to));
  PDS2_ASSIGN_OR_RETURN(uint64_t allowance,
                        ctx.ReadU64(AllowanceKey(from, ctx.sender())));
  if (allowance < amount) {
    return Status::PermissionDenied("allowance exceeded");
  }
  PDS2_RETURN_IF_ERROR(DebitBalance(ctx, from, amount));
  PDS2_RETURN_IF_ERROR(CreditBalance(ctx, to, amount));
  PDS2_RETURN_IF_ERROR(
      ctx.WriteU64(AllowanceKey(from, ctx.sender()), allowance - amount));
  return Bytes{};
}

// Owner only; the destination is validated before the owner is read.
Result<Bytes> Mint(CallContext& ctx, Reader& r) {
  PDS2_ASSIGN_OR_RETURN(Bytes to, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(uint64_t amount, r.GetU64());
  PDS2_RETURN_IF_ERROR(AddressValid(to));
  PDS2_ASSIGN_OR_RETURN(auto owner, ctx.Read(ToBytes("meta/owner")));
  if (!owner.has_value() || *owner != ctx.sender()) {
    return Status::PermissionDenied("only the token owner may mint");
  }
  PDS2_ASSIGN_OR_RETURN(uint64_t supply, ctx.ReadU64(ToBytes("meta/supply")));
  if (supply + amount < supply) return Status::OutOfRange("supply overflow");
  PDS2_RETURN_IF_ERROR(ctx.WriteU64(ToBytes("meta/supply"), supply + amount));
  PDS2_RETURN_IF_ERROR(CreditBalance(ctx, to, amount));
  return Bytes{};
}

// A u64 slot as a query result; a missing slot reads as 0.
Result<Bytes> U64Result(CallContext& ctx, const Bytes& key) {
  PDS2_ASSIGN_OR_RETURN(uint64_t value, ctx.ReadU64(key));
  Writer w;
  w.PutU64(value);
  return w.Take();
}

Result<Bytes> BalanceOf(CallContext& ctx, Reader& r) {
  PDS2_ASSIGN_OR_RETURN(Bytes addr, r.GetBytes());
  PDS2_RETURN_IF_ERROR(AddressValid(addr));
  return U64Result(ctx, BalanceKey(addr));
}

Result<Bytes> Allowance(CallContext& ctx, Reader& r) {
  PDS2_ASSIGN_OR_RETURN(Bytes owner, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(Bytes spender, r.GetBytes());
  return U64Result(ctx, AllowanceKey(owner, spender));
}

Result<Bytes> TotalSupply(CallContext& ctx, Reader&) {
  return U64Result(ctx, ToBytes("meta/supply"));
}

Result<Bytes> TokenName(CallContext& ctx, Reader&) {
  PDS2_ASSIGN_OR_RETURN(auto name, ctx.Read(ToBytes("meta/name")));
  return name.value_or(Bytes{});
}

constexpr Contract::Method kMethods[] = {
    {"transfer", Transfer},         {"approve", Approve},
    {"transfer_from", TransferFrom}, {"mint", Mint},
    {"balance_of", BalanceOf},      {"allowance", Allowance},
    {"total_supply", TotalSupply},  {"token_name", TokenName},
};

}  // namespace

Erc20Token::Erc20Token() : Contract(kMethods) {}

Status Erc20Token::Deploy(CallContext& ctx, const Bytes& args) {
  PDS2_RETURN_IF_ERROR(ctx.RequireNoValue());
  Reader r(args);
  PDS2_ASSIGN_OR_RETURN(std::string name, r.GetString());
  PDS2_ASSIGN_OR_RETURN(uint64_t initial_supply, r.GetU64());

  PDS2_RETURN_IF_ERROR(ctx.Write(ToBytes("meta/name"), ToBytes(name)));
  PDS2_RETURN_IF_ERROR(ctx.Write(ToBytes("meta/owner"), ctx.sender()));
  PDS2_RETURN_IF_ERROR(ctx.WriteU64(ToBytes("meta/supply"), initial_supply));
  if (initial_supply > 0) {
    PDS2_RETURN_IF_ERROR(CreditBalance(ctx, ctx.sender(), initial_supply));
  }
  return ctx.Emit("Deployed", ToBytes(name));
}

}  // namespace pds2::chain::contracts
