#ifndef PDS2_DML_FAULT_INJECTOR_H_
#define PDS2_DML_FAULT_INJECTOR_H_

#include <memory>

#include "common/fault.h"
#include "dml/netsim.h"

namespace pds2::dml {

/// Drives a common::FaultPlan through a NetSim: an extra simulator node that
/// arms one timer per scheduled churn transition (and toggles SetOnline when
/// it fires), plus a LinkFaultHook that answers partition / degradation /
/// corruption queries from FaultPlan::EffectAt. Because the plan is pure
/// data and the injector draws no randomness of its own, replaying the same
/// (plan, sim seed) pair reproduces the same run bit for bit.
///
/// Churn goes through NodeContext::SetOnline, which inside a handler defers
/// to the deterministic merge phase after the batch, so timer callbacks
/// never mutate shared simulator state from a worker thread and the run is
/// identical at any pool size.
class FaultInjector : public Node, public LinkFaultHook {
 public:
  /// Adds the injector to `sim` (as the highest node index) and installs it
  /// as the link-fault hook. Call after adding every protocol node and
  /// before Start(). The returned pointer is owned by `sim` and stays valid
  /// for the simulation's lifetime.
  static FaultInjector* Install(NetSim& sim, common::FaultPlan plan);

  // Node: schedule every churn transition as a timer against this node.
  void OnStart(NodeContext& ctx) override;
  void OnMessage(NodeContext& ctx, size_t from,
                 const common::Bytes& payload) override;
  void OnTimer(NodeContext& ctx, uint64_t timer_id) override;

  // LinkFaultHook: the plan's aggregate effect on one directed link.
  Effect OnLink(size_t from, size_t to, common::SimTime now) override;

  const common::FaultPlan& plan() const { return plan_; }

 private:
  explicit FaultInjector(common::FaultPlan plan);

  common::FaultPlan plan_;
};

}  // namespace pds2::dml

#endif  // PDS2_DML_FAULT_INJECTOR_H_
