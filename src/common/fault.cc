#include "common/fault.h"

#include <algorithm>
#include <atomic>

#include "common/rng.h"

namespace pds2::common {

namespace {

// The armed scripted-crash point. Atomic so sanitizer builds running the
// durability chaos suite under TSan see no race between the arming test
// thread and a storage write on a pool thread.
std::atomic<CrashPoint> g_armed_crash{CrashPoint::kNone};
std::atomic<uint64_t> g_crashes_fired{0};

}  // namespace

void ArmCrash(CrashPoint point) {
  g_armed_crash.store(point, std::memory_order_release);
}

void DisarmCrash() {
  g_armed_crash.store(CrashPoint::kNone, std::memory_order_release);
}

bool CrashRequested(CrashPoint point) {
  if (point == CrashPoint::kNone) return false;
  CrashPoint expected = point;
  if (g_armed_crash.compare_exchange_strong(expected, CrashPoint::kNone,
                                            std::memory_order_acq_rel)) {
    g_crashes_fired.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

uint64_t CrashesFired() {
  return g_crashes_fired.load(std::memory_order_relaxed);
}

namespace {

size_t GroupOf(const PartitionEvent& partition, size_t node) {
  if (node >= partition.group_of_node.size()) return 0;
  return partition.group_of_node[node];
}

}  // namespace

bool FaultPlan::Reachable(size_t from, size_t to, SimTime now) const {
  for (const PartitionEvent& partition : partitions) {
    if (now < partition.start || now >= partition.heal) continue;
    if (GroupOf(partition, from) != GroupOf(partition, to)) return false;
  }
  return true;
}

FaultPlan::LinkEffect FaultPlan::EffectAt(size_t from, size_t to,
                                          SimTime now) const {
  LinkEffect effect;
  effect.corrupt_rate = corrupt_rate;
  if (!Reachable(from, to, now)) {
    effect.blocked = true;
    return effect;
  }
  for (const LinkFault& fault : link_faults) {
    if (fault.from != from || fault.to != to) continue;
    if (now < fault.start || now >= fault.end) continue;
    // Independent loss processes compose multiplicatively on the survival
    // probability; latency multipliers compose directly.
    effect.extra_drop =
        1.0 - (1.0 - effect.extra_drop) * (1.0 - fault.extra_drop);
    effect.latency_mult *= fault.latency_mult;
  }
  return effect;
}

SimTime FaultPlan::LastTransition() const {
  SimTime last = 0;
  for (const ChurnEvent& event : churn) last = std::max(last, event.at);
  for (const PartitionEvent& partition : partitions) {
    last = std::max(last, partition.heal);
  }
  for (const LinkFault& fault : link_faults) last = std::max(last, fault.end);
  return last;
}

FaultPlan FaultPlan::Random(uint64_t seed, size_t num_nodes, SimTime duration,
                            const FaultProfile& profile) {
  FaultPlan plan;
  plan.corrupt_rate = profile.corrupt_rate;
  if (num_nodes == 0 || duration == 0) return plan;
  Rng rng(seed ^ 0xfa017'5c4ed'01eULL);

  // Crash/restart pairs. Crashes land in the first 60% of the run and every
  // node is back online by 90%, so convergence past LastTransition() is a
  // fair liveness question.
  std::vector<size_t> nodes(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) nodes[i] = i;
  rng.Shuffle(nodes);
  const size_t crashers = static_cast<size_t>(
      profile.crash_fraction * static_cast<double>(num_nodes));
  const SimTime restart_cap = duration - duration / 10;
  for (size_t k = 0; k < crashers && k < num_nodes; ++k) {
    ChurnEvent crash;
    crash.node = nodes[k];
    crash.at = duration / 10 + rng.NextU64(duration / 2);
    crash.restart = false;
    SimTime downtime = profile.min_downtime;
    if (profile.max_downtime > profile.min_downtime) {
      downtime += rng.NextU64(profile.max_downtime - profile.min_downtime);
    }
    ChurnEvent restart;
    restart.node = crash.node;
    restart.at = std::min(crash.at + downtime, restart_cap);
    restart.restart = true;
    plan.churn.push_back(crash);
    plan.churn.push_back(restart);
  }
  std::sort(plan.churn.begin(), plan.churn.end(),
            [](const ChurnEvent& a, const ChurnEvent& b) { return a.at < b.at; });

  // Two-group partition episodes, each healing within the run.
  for (size_t p = 0; p < profile.num_partitions; ++p) {
    PartitionEvent partition;
    partition.start = duration / 10 + rng.NextU64(duration / 2);
    SimTime width = profile.min_partition;
    if (profile.max_partition > profile.min_partition) {
      width += rng.NextU64(profile.max_partition - profile.min_partition);
    }
    partition.heal = std::min(partition.start + width, restart_cap);
    partition.group_of_node.resize(num_nodes, 0);
    // Guarantee both groups are non-empty (a one-sided "partition" is a
    // no-op and would silently weaken the schedule).
    partition.group_of_node[rng.NextU64(num_nodes)] = 1;
    for (size_t i = 0; i < num_nodes; ++i) {
      if (rng.NextBool(0.5)) partition.group_of_node[i] = 1;
    }
    bool has_zero = false;
    for (size_t g : partition.group_of_node) has_zero |= (g == 0);
    if (!has_zero) partition.group_of_node[rng.NextU64(num_nodes)] = 0;
    plan.partitions.push_back(std::move(partition));
  }

  // Byzantine validator assignments: distinct nodes, behaviour drawn
  // uniformly from the non-kNone values. Seed-derived like everything else,
  // so a cell (seed, f) names exactly one adversary configuration.
  if (profile.num_byzantine_validators > 0) {
    std::vector<size_t> byz_nodes(num_nodes);
    for (size_t i = 0; i < num_nodes; ++i) byz_nodes[i] = i;
    rng.Shuffle(byz_nodes);
    const size_t count =
        std::min(profile.num_byzantine_validators, num_nodes);
    constexpr ByzantineBehavior kBehaviors[] = {
        ByzantineBehavior::kEquivocate, ByzantineBehavior::kInvalidStateRoot,
        ByzantineBehavior::kGasCheat, ByzantineBehavior::kWithhold};
    for (size_t k = 0; k < count; ++k) {
      ByzantineValidatorSpec spec;
      spec.node = byz_nodes[k];
      spec.behavior = kBehaviors[rng.NextU64(std::size(kBehaviors))];
      plan.byzantine_validators.push_back(spec);
    }
  }

  // Byzantine executor assignments: a seed-chosen subset of executor slots
  // (indices over num_nodes; harnesses with a different executor count take
  // the index modulo theirs), fault bytes cycling through the profile list.
  if (profile.byzantine_executor_fraction > 0.0) {
    std::vector<size_t> exec_slots(num_nodes);
    for (size_t i = 0; i < num_nodes; ++i) exec_slots[i] = i;
    rng.Shuffle(exec_slots);
    const size_t count = static_cast<size_t>(
        profile.byzantine_executor_fraction * static_cast<double>(num_nodes) +
        0.5);
    for (size_t k = 0; k < count && k < num_nodes; ++k) {
      ByzantineExecutorSpec spec;
      spec.executor = exec_slots[k];
      spec.fault = profile.byzantine_executor_faults.empty()
                       ? 0
                       : profile.byzantine_executor_faults
                             [k % profile.byzantine_executor_faults.size()];
      plan.byzantine_executors.push_back(spec);
    }
  }

  // Directed link degradations.
  if (profile.link_fault_rate > 0.0) {
    for (size_t from = 0; from < num_nodes; ++from) {
      for (size_t to = 0; to < num_nodes; ++to) {
        if (from == to || !rng.NextBool(profile.link_fault_rate)) continue;
        LinkFault fault;
        fault.from = from;
        fault.to = to;
        fault.start = rng.NextU64(duration / 2);
        fault.end = std::min(fault.start + duration / 4 + 1, restart_cap);
        fault.extra_drop = rng.NextDouble(0.0, profile.max_extra_drop);
        fault.latency_mult = rng.NextDouble(1.0, profile.max_latency_mult);
        plan.link_faults.push_back(fault);
      }
    }
  }
  return plan;
}

}  // namespace pds2::common
