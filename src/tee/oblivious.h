#ifndef PDS2_TEE_OBLIVIOUS_H_
#define PDS2_TEE_OBLIVIOUS_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"

namespace pds2::tee {

/// Records the sequence of logical memory accesses an algorithm performs —
/// the side channel an SGX adversary observes through page faults and cache
/// probing ([12] Ohrimenko et al.). Two runs over different data are
/// side-channel-safe when their traces are identical.
class MemoryTrace {
 public:
  void RecordRead(size_t index) { accesses_.push_back({'R', index}); }
  void RecordWrite(size_t index) { accesses_.push_back({'W', index}); }

  const std::vector<std::pair<char, size_t>>& accesses() const {
    return accesses_;
  }
  size_t size() const { return accesses_.size(); }
  bool operator==(const MemoryTrace& other) const {
    return accesses_ == other.accesses_;
  }

  /// Digest of the trace, for cheap equality over long traces.
  common::Bytes Digest() const;

 private:
  std::vector<std::pair<char, size_t>> accesses_;
};

/// Branchless select: returns a when cond, else b, with no data-dependent
/// control flow.
uint64_t ObliviousSelect(bool cond, uint64_t a, uint64_t b);

/// Branchless compare-and-swap used by the oblivious sort.
void ObliviousMinMax(uint64_t& a, uint64_t& b);

/// Data-oblivious sort (Batcher odd-even mergesort): the comparison
/// sequence depends only on the input size, never the values. O(n log^2 n)
/// compare-exchanges. Optionally records the access trace.
void ObliviousSort(std::vector<uint64_t>& values, MemoryTrace* trace = nullptr);

/// Ordinary quicksort-flavored sort whose access pattern leaks the data
/// (the baseline for experiment E9). Optionally records the access trace.
void LeakySort(std::vector<uint64_t>& values, MemoryTrace* trace = nullptr);

/// Oblivious linear scan aggregation: sums values[i] where flags[i], but
/// touches every element identically regardless of the flags.
uint64_t ObliviousFilteredSum(const std::vector<uint64_t>& values,
                              const std::vector<bool>& flags,
                              MemoryTrace* trace = nullptr);

}  // namespace pds2::tee

#endif  // PDS2_TEE_OBLIVIOUS_H_
