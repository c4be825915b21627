#include "storage/semantic.h"

#include "common/serial.h"

namespace pds2::storage {

using common::Bytes;
using common::Status;
using common::Writer;

Status Ontology::AddClass(const std::string& name, const std::string& parent) {
  if (name.empty()) return Status::InvalidArgument("empty class name");
  if (parents_.count(name) != 0) {
    return Status::AlreadyExists("class already defined: " + name);
  }
  if (!parent.empty() && parents_.count(parent) == 0) {
    return Status::NotFound("unknown parent class: " + parent);
  }
  parents_[name] = parent;
  return Status::Ok();
}

bool Ontology::IsSubclassOf(const std::string& cls,
                            const std::string& ancestor) const {
  std::string current = cls;
  while (!current.empty()) {
    if (current == ancestor) return true;
    auto it = parents_.find(current);
    if (it == parents_.end()) return false;
    current = it->second;
  }
  return false;
}

Ontology Ontology::StandardIot() {
  Ontology o;
  (void)o.AddClass("iot");
  (void)o.AddClass("iot/sensor", "iot");
  (void)o.AddClass("iot/sensor/temperature", "iot/sensor");
  (void)o.AddClass("iot/sensor/humidity", "iot/sensor");
  (void)o.AddClass("iot/sensor/heart_rate", "iot/sensor");
  (void)o.AddClass("iot/sensor/location", "iot/sensor");
  (void)o.AddClass("iot/wearable", "iot");
  (void)o.AddClass("iot/wearable/smartwatch", "iot/wearable");
  (void)o.AddClass("iot/wearable/fitness_band", "iot/wearable");
  return o;
}

Bytes SemanticMetadata::Serialize() const {
  Writer w;
  w.PutU32(static_cast<uint32_t>(types.size()));
  for (const auto& t : types) w.PutString(t);
  w.PutU32(static_cast<uint32_t>(numeric.size()));
  for (const auto& [k, v] : numeric) {
    w.PutString(k);
    w.PutDouble(v);
  }
  w.PutU32(static_cast<uint32_t>(text.size()));
  for (const auto& [k, v] : text) {
    w.PutString(k);
    w.PutString(v);
  }
  return w.Take();
}

bool DataRequirement::Matches(const Ontology& ontology,
                              const SemanticMetadata& metadata,
                              uint64_t num_records) const {
  if (num_records < min_records) return false;

  for (const std::string& required : required_types) {
    bool found = false;
    for (const std::string& have : metadata.types) {
      if (ontology.IsSubclassOf(have, required)) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }

  for (const PropertyConstraint& c : constraints) {
    if (c.kind == PropertyConstraint::Kind::kNumericRange) {
      auto it = metadata.numeric.find(c.key);
      if (it == metadata.numeric.end()) return false;
      if (it->second < c.min || it->second > c.max) return false;
    } else {
      auto it = metadata.text.find(c.key);
      if (it == metadata.text.end()) return false;
      if (it->second != c.value) return false;
    }
  }
  return true;
}

Bytes DataRequirement::Serialize() const {
  Writer w;
  w.PutU32(static_cast<uint32_t>(required_types.size()));
  for (const auto& t : required_types) w.PutString(t);
  w.PutU32(static_cast<uint32_t>(constraints.size()));
  for (const auto& c : constraints) {
    w.PutU8(static_cast<uint8_t>(c.kind));
    w.PutString(c.key);
    w.PutDouble(c.min);
    w.PutDouble(c.max);
    w.PutString(c.value);
  }
  w.PutU64(min_records);
  return w.Take();
}

}  // namespace pds2::storage
