#include "dml/gossip.h"

#include "common/serial.h"
#include "obs/metrics.h"

namespace pds2::dml {

using common::Bytes;
using common::Reader;
using common::Writer;

namespace {
constexpr uint64_t kPushTimer = 1;
}  // namespace

GossipNode::GossipNode(std::unique_ptr<ml::Model> model, ml::Dataset local_data,
                       GossipConfig config)
    : model_(std::move(model)),
      data_(std::move(local_data)),
      config_(config) {}

void GossipNode::OnStart(NodeContext& ctx) {
  // Desynchronize the first push across nodes.
  ctx.SetTimer(ctx.rng().NextU64(config_.push_interval) + 1, kPushTimer);
}

Bytes GossipNode::EncodeState() const {
  const ml::Vec& params = model_->GetParams();
  Writer w(4 + 8 * params.size() + 8 + 8);  // count, params, age, samples
  w.PutDoubleVector(params);
  w.PutU64(age_);
  w.PutU64(data_.Size());
  return w.Take();
}

void GossipNode::LocalUpdate(NodeContext& ctx) {
  if (data_.Size() == 0) return;
  ml::Train(*model_, data_, config_.local_sgd, ctx.rng(), config_.dp);
  ++age_;
}

void GossipNode::OnTimer(NodeContext& ctx, uint64_t timer_id) {
  if (timer_id != kPushTimer) return;
  if (age_ == 0) LocalUpdate(ctx);  // first wake-up: train before pushing

  // Push to `fanout` uniformly random peers (self excluded).
  const size_t n = ctx.NumNodes();
  if (n > 1) {
    for (size_t k = 0; k < config_.fanout; ++k) {
      size_t peer = ctx.rng().NextU64(n - 1);
      if (peer >= ctx.self()) ++peer;
      ctx.Send(peer, EncodeState());
      PDS2_M_COUNT("dml.gossip.pushes", 1);
    }
  }
  ctx.SetTimer(config_.push_interval, kPushTimer);
}

void GossipNode::OnMessage(NodeContext& ctx, size_t /*from*/,
                           const Bytes& payload) {
  Reader r(payload);
  auto params = r.GetDoubleVector();
  auto peer_age = r.GetU64();
  auto peer_samples = r.GetU64();
  if (!params.ok() || !peer_age.ok() || !peer_samples.ok()) return;
  if (params->size() != model_->NumParams()) return;
  (void)peer_samples;

  switch (config_.merge_rule) {
    case GossipMergeRule::kAgeWeighted: {
      // A fresher peer model carries more accumulated updates and gets
      // proportionally more weight (Ormándi et al.).
      const double own_w = static_cast<double>(age_);
      const double peer_w = static_cast<double>(*peer_age);
      if (own_w + peer_w != 0.0) {
        // WeightedAverage's per-element arithmetic, in place in the decoded
        // peer vector (its leading 0.0 + turns -0.0 into 0.0, so keep it).
        const double wa = own_w + 1e-9, wb = peer_w + 1e-9;
        const double ca = wa / (wa + wb), cb = wb / (wa + wb);
        const ml::Vec& own = model_->GetParams();
        ml::Vec& peer = *params;
        for (size_t i = 0; i < peer.size(); ++i) {
          peer[i] = (0.0 + ca * own[i]) + cb * peer[i];
        }
      }
      model_->SetParams(*params);
      break;
    }
    case GossipMergeRule::kPlainAverage:
      model_->SetParams(ml::Lerp(model_->GetParams(), *params, 0.5));
      break;
    case GossipMergeRule::kOverwrite:
      model_->SetParams(*params);
      break;
  }
  age_ = std::max(age_, *peer_age);
  PDS2_M_COUNT("dml.gossip.merges", 1);

  // Local update on own data after absorbing the peer model.
  LocalUpdate(ctx);
}

}  // namespace pds2::dml
