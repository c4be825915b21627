#include "chain/contract.h"

#include "chain/contracts/actor_registry.h"
#include "chain/contracts/erc20.h"
#include "chain/contracts/erc721.h"
#include "chain/contracts/workload.h"
#include "common/bytes.h"
#include "common/checked_math.h"
#include "common/serial.h"
#include "crypto/schnorr.h"

namespace pds2::chain {

using common::Bytes;
using common::Result;
using common::Status;

std::string ContractSpace(const std::string& contract, uint64_t instance) {
  return contract + "/" + std::to_string(instance);
}

CallContext::CallContext(StateView& state, GasMeter& gas, Address sender,
                         uint64_t value, std::string contract_name,
                         uint64_t instance, const BlockContext& block,
                         std::vector<Event>* events)
    : state_(state),
      gas_(gas),
      sender_(std::move(sender)),
      value_(value),
      contract_name_(std::move(contract_name)),
      instance_(instance),
      space_(ContractSpace(contract_name_, instance)),
      block_(block),
      events_(events) {}

Result<std::optional<Bytes>> CallContext::Read(const Bytes& key) {
  PDS2_RETURN_IF_ERROR(gas_.Charge(DefaultGasSchedule().storage_read));
  return state_.StorageGet(space_, key);
}

Status CallContext::Write(const Bytes& key, const Bytes& value) {
  // Peek existence first to charge the cheaper update price.
  const bool existed = state_.StorageGet(space_, key).has_value();
  const auto& schedule = DefaultGasSchedule();
  PDS2_RETURN_IF_ERROR(gas_.Charge(existed ? schedule.storage_update
                                           : schedule.storage_write));
  state_.StoragePut(space_, key, value);
  return Status::Ok();
}

Status CallContext::Delete(const Bytes& key) {
  PDS2_RETURN_IF_ERROR(gas_.Charge(DefaultGasSchedule().storage_update));
  state_.StorageDelete(space_, key);
  return Status::Ok();
}

Result<std::vector<std::pair<Bytes, Bytes>>> CallContext::Scan(
    const Bytes& prefix) {
  auto entries = state_.StorageScan(space_, prefix);
  PDS2_RETURN_IF_ERROR(gas_.Charge(
      DefaultGasSchedule().storage_read * (entries.size() + 1)));
  return entries;
}

Status CallContext::Emit(const std::string& name, const Bytes& data) {
  const auto& schedule = DefaultGasSchedule();
  PDS2_RETURN_IF_ERROR(
      gas_.Charge(schedule.event_emit + (data.size() / 8) * schedule.event_emit / 8));
  if (events_ != nullptr) {
    events_->push_back(Event{contract_name_, instance_, name, data});
  }
  return Status::Ok();
}

Status CallContext::VerifySig(const Bytes& public_key,
                              const std::string& domain, const Bytes& message,
                              const Bytes& signature) {
  PDS2_RETURN_IF_ERROR(gas_.Charge(DefaultGasSchedule().signature_check));
  return crypto::VerifySignatureWithDomain(public_key, domain, message,
                                           signature);
}

Status CallContext::PayOut(const Address& to, uint64_t amount) {
  PDS2_RETURN_IF_ERROR(gas_.Charge(DefaultGasSchedule().transfer));
  return state_.Transfer(SelfAddress(), to, amount);
}

Status CallContext::Burn(uint64_t amount) {
  PDS2_RETURN_IF_ERROR(gas_.Charge(DefaultGasSchedule().transfer));
  PDS2_RETURN_IF_ERROR(state_.Debit(SelfAddress(), amount));
  uint64_t new_burned;
  if (!common::CheckedAdd(state_.BurnedTotal(), amount, &new_burned)) {
    return Status::InvalidArgument("burn would overflow burned total");
  }
  common::Writer w;
  w.PutU64(new_burned);
  state_.StoragePut(kStakeSpace, common::ToBytes(kBurnedKey), w.Take());
  return Status::Ok();
}

Address CallContext::SelfAddress() const {
  return ContractAddress(contract_name_, instance_);
}

Status ContractRegistry::Register(std::unique_ptr<Contract> contract) {
  const std::string name = contract->Name();
  auto [it, inserted] = contracts_.emplace(name, std::move(contract));
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists("contract type already registered: " + name);
  }
  return Status::Ok();
}

Contract* ContractRegistry::Find(const std::string& name) const {
  auto it = contracts_.find(name);
  return it == contracts_.end() ? nullptr : it->second.get();
}

std::unique_ptr<ContractRegistry> ContractRegistry::CreateDefault() {
  auto registry = std::make_unique<ContractRegistry>();
  // Built-ins can never collide at startup.
  (void)registry->Register(std::make_unique<contracts::Erc20Token>());
  (void)registry->Register(std::make_unique<contracts::Erc721Registry>());
  (void)registry->Register(std::make_unique<contracts::ActorRegistry>());
  (void)registry->Register(std::make_unique<contracts::WorkloadContract>());
  return registry;
}

}  // namespace pds2::chain
