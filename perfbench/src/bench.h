// The repository benchmark's workload interface.
//
// A run of one workload is a sequence of rounds. A round builds a fresh
// system from the seed (timed as set-up), runs a fixed number of
// identical-kind operations against it (each timed), then runs its
// end-of-round output checks. Every round of a run replays the same inputs,
// so per-op cost never depends on how long the run lasted (chain state and
// store history grow op by op within a round, identically in every round)
// and the exact cost counts of every round must agree bit for bit.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pds2::common {
class ThreadPool;
}  // namespace pds2::common

namespace perfbench {

/// Exact, seed-determined costs of one round's timed ops.
struct Costs {
  uint64_t gas = 0;          // chain gas of the ops' transactions
  uint64_t chain_bytes = 0;  // serialized bytes of the blocks they appended
  uint64_t net_bytes = 0;    // NetStats::bytes_sent during the ops
  uint64_t blocks = 0;       // blocks appended to the primary chain
  uint64_t txs = 0;          // transactions in those blocks
  uint64_t net_events = 0;   // NetSim events processed during the ops
  uint64_t net_messages = 0; // NetSim messages sent during the ops
  /// Digest of the round's end state (chain head hash, NetStats), compared
  /// across rounds and across runs of the same seed.
  std::string fingerprint;
};

/// One round's system. Construction is the round's set-up.
class Round {
 public:
  virtual ~Round() = default;
  /// Runs timed op `i` (0-based within the round). Returns false when the
  /// operation itself reported failure.
  virtual bool Op(size_t i) = 0;
  /// Untimed output checks of op `i`, run right after it.
  virtual bool CheckOp(size_t i) = 0;
  /// Untimed end-of-round checks (supply, accuracy, replica agreement).
  virtual bool CheckRound() = 0;
  virtual Costs costs() = 0;
};

/// A named workload: inputs shared by every round plus a round factory.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual size_t OpsPerRound() const = 0;
  /// Builds a fresh system for one round, using `pool` for the chain.
  virtual std::unique_ptr<Round> NewRound(pds2::common::ThreadPool* pool) = 0;
};

/// Names of the four workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds the named workload's shared inputs from `seed` (timed by the
/// caller as part of set-up). nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

std::unique_ptr<Workload> MakeLifecycle(uint64_t seed);
std::unique_ptr<Workload> MakeReuse(uint64_t seed);
std::unique_ptr<Workload> MakeChainApply(uint64_t seed);
std::unique_ptr<Workload> MakeGossip(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
