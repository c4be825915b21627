#ifndef PDS2_STORAGE_SEMANTIC_H_
#define PDS2_STORAGE_SEMANTIC_H_

#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace pds2::storage {

/// A small ontology: a forest of class names with single inheritance
/// ("iot/temperature" is-a "iot/sensor"). The data-discovery layer (paper
/// §IV-C) reasons over it to decide whether a provider's metadata satisfies
/// a workload's requirements without ever reading the data.
class Ontology {
 public:
  /// Adds a class, optionally under a parent. Fails if the class exists or
  /// the parent does not.
  common::Status AddClass(const std::string& name,
                          const std::string& parent = "");

  /// True if `cls` equals `ancestor` or transitively derives from it.
  bool IsSubclassOf(const std::string& cls, const std::string& ancestor) const;

  /// The standard PDS2 IoT ontology used by the examples and benchmarks:
  /// iot -> {sensor -> {temperature, humidity, heart_rate, location},
  ///         wearable -> {smartwatch, fitness_band}}.
  static Ontology StandardIot();

 private:
  std::map<std::string, std::string> parents_;  // class -> parent ("" = root)
};

/// Machine-readable description a provider attaches to a dataset. Only
/// metadata — never the data — is visible to the storage subsystem and the
/// marketplace, which is exactly the §IV-C trade-off: richer metadata means
/// better matching but more leakage.
struct SemanticMetadata {
  std::vector<std::string> types;             // ontology classes
  std::map<std::string, double> numeric;      // e.g. {"sampling_hz", 10}
  std::map<std::string, std::string> text;    // e.g. {"region", "EU"}

  /// The bytes a dataset NFT carries next to the dataset commitment.
  common::Bytes Serialize() const;
};

/// One property constraint inside a data requirement.
struct PropertyConstraint {
  enum class Kind : uint8_t { kNumericRange = 0, kTextEquals = 1 };
  Kind kind = Kind::kNumericRange;
  std::string key;
  double min = 0.0;   // numeric range (inclusive)
  double max = 0.0;
  std::string value;  // text equality
};

/// A workload's declarative input-data requirements. A dataset is eligible
/// when it carries (a subclass of) every required type, satisfies every
/// property constraint, and has at least `min_records` records.
struct DataRequirement {
  std::vector<std::string> required_types;
  std::vector<PropertyConstraint> constraints;
  uint64_t min_records = 0;

  bool Matches(const Ontology& ontology, const SemanticMetadata& metadata,
               uint64_t num_records) const;

  /// Part of the workload spec's hashed encoding.
  common::Bytes Serialize() const;
};

}  // namespace pds2::storage

#endif  // PDS2_STORAGE_SEMANTIC_H_
