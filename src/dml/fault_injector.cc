#include "dml/fault_injector.h"

#include <cassert>
#include <string>
#include <utility>

#include "obs/flight_recorder.h"

namespace pds2::dml {

FaultInjector::FaultInjector(common::FaultPlan plan)
    : plan_(std::move(plan)) {}

FaultInjector* FaultInjector::Install(NetSim& sim, common::FaultPlan plan) {
  auto injector =
      std::unique_ptr<FaultInjector>(new FaultInjector(std::move(plan)));
  FaultInjector* raw = injector.get();
  raw->sim_ = &sim;
  sim.AddNode(std::move(injector));
  sim.SetLinkFaultHook(raw);
  return raw;
}

void FaultInjector::OnStart(NodeContext& ctx) {
  // One timer per churn transition, identified by its index in the plan.
  // The injector itself never goes offline, so none of these are dropped.
  for (size_t i = 0; i < plan_.churn.size(); ++i) {
    ctx.SetTimer(plan_.churn[i].at, i);
  }
  // Leave the adversary roster in the black box: the Byzantine specs are
  // enacted by the protocol layer (p2p::ValidatorNode::SetByzantine, the
  // marketplace harnesses), not by this injector, so a chaos dump would
  // otherwise not show who was scripted to cheat.
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  for (const common::ByzantineValidatorSpec& spec :
       plan_.byzantine_validators) {
    recorder.Note("fault plan scripts byzantine behavior " +
                      std::to_string(static_cast<int>(spec.behavior)) +
                      " on validator " + std::to_string(spec.node),
                  /*has_sim=*/true, ctx.Now());
  }
  for (const common::ByzantineExecutorSpec& spec :
       plan_.byzantine_executors) {
    recorder.Note("fault plan scripts executor fault " +
                      std::to_string(static_cast<int>(spec.fault)) +
                      " on executor slot " + std::to_string(spec.executor),
                  /*has_sim=*/true, ctx.Now());
  }
}

void FaultInjector::OnMessage(NodeContext& ctx, size_t from,
                              const common::Bytes& payload) {
  // Nothing addresses the injector; ignore stray traffic defensively.
  (void)ctx;
  (void)from;
  (void)payload;
}

void FaultInjector::OnTimer(NodeContext& ctx, uint64_t timer_id) {
  assert(timer_id < plan_.churn.size());
  const common::ChurnEvent& event = plan_.churn[timer_id];
  // Through the context, not sim_->SetOnline directly: inside a parallel
  // batch the transition must be deferred to the deterministic merge phase
  // (a direct call would mutate online_/epoch_ under concurrent readers).
  ctx.SetOnline(event.node, event.restart);
  if (!event.restart) {
    // A node just died: dump the black box so the chaos run leaves a
    // readable record of what that node (and the rest of the fleet) was
    // doing in its final moments.
    obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
    recorder.Note("fault injector crashed " + sim_->NodeName(event.node),
                  /*has_sim=*/true, sim_->Now());
    (void)recorder.DumpNow("node-crash-" + sim_->NodeName(event.node));
  }
}

FaultInjector::Effect FaultInjector::OnLink(size_t from, size_t to,
                                            common::SimTime now) {
  const common::FaultPlan::LinkEffect effect = plan_.EffectAt(from, to, now);
  Effect out;
  out.blocked = effect.blocked;
  out.extra_drop = effect.extra_drop;
  out.latency_mult = effect.latency_mult;
  out.corrupt_rate = effect.corrupt_rate;
  return out;
}

}  // namespace pds2::dml
