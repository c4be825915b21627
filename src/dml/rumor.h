#ifndef PDS2_DML_RUMOR_H_
#define PDS2_DML_RUMOR_H_

#include <cstdint>

#include "dml/netsim.h"

namespace pds2::dml {

/// Rumor-spread (push epidemic) parameters.
struct RumorConfig {
  common::SimTime push_interval = 200 * common::kMicrosPerMilli;
  size_t fanout = 2;  // peers contacted per round once infected
};

/// Minimal push-epidemic endpoint used to exercise NetSim itself at
/// 10^5-10^6 nodes (the scale determinism tests and bench_scale): a seeded
/// node pushes a one-byte rumor to `fanout` uniformly random peers every
/// jittered `push_interval`; a node that hears the rumor becomes infected
/// and starts pushing too. The protocol state is two words per node, so a
/// sweep measures the simulator — event queue, churn, parallel batches —
/// rather than any model math. Every random draw (timer jitter, peer
/// choice) comes from ctx.rng(), i.e. the node's private stream, which is
/// what makes runs bit-identical across pool sizes. Crash semantics: the
/// timer chain dies with the node (NetSim drops old-life timers) but the
/// infection bit survives, so OnRestart re-desynchronizes and resumes
/// pushing.
class RumorNode : public Node {
 public:
  explicit RumorNode(RumorConfig config) : config_(config) {}

  /// Marks this node infected before Start() — the rumor's origin.
  void Seed() { infected_ = true; }

  void OnStart(NodeContext& ctx) override { Arm(ctx); }
  void OnRestart(NodeContext& ctx) override { Arm(ctx); }
  void OnMessage(NodeContext& ctx, size_t from,
                 const common::Bytes& payload) override;
  void OnTimer(NodeContext& ctx, uint64_t timer_id) override;

  bool infected() const { return infected_; }
  /// Sim time this node first heard the rumor (0 for the seed).
  common::SimTime infected_at() const { return infected_at_; }
  uint64_t pushes() const { return pushes_; }

 private:
  void Arm(NodeContext& ctx);

  RumorConfig config_;
  bool infected_ = false;
  common::SimTime infected_at_ = 0;
  uint64_t pushes_ = 0;
};

}  // namespace pds2::dml

#endif  // PDS2_DML_RUMOR_H_
