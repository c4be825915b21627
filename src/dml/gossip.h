#ifndef PDS2_DML_GOSSIP_H_
#define PDS2_DML_GOSSIP_H_

#include <memory>

#include "dml/netsim.h"
#include "ml/model.h"
#include "ml/sgd.h"

namespace pds2::dml {

/// How a node combines an incoming peer model with its own.
enum class GossipMergeRule {
  kAgeWeighted,   // weight by model age (Ormándi et al.) — default
  kPlainAverage,  // unweighted 50/50 average — ablation baseline
  kOverwrite,     // adopt the peer model wholesale — degenerate baseline
};

/// Gossip-learning parameters (Ormándi et al. [22]).
struct GossipConfig {
  common::SimTime push_interval = common::kMicrosPerSecond;  // gossip period
  size_t fanout = 1;            // peers contacted per round
  GossipMergeRule merge_rule = GossipMergeRule::kAgeWeighted;
  ml::SgdConfig local_sgd;      // local update applied after each merge
  ml::DpConfig dp;              // DP-SGD for every local update (§IV-D):
                                // models leave the node each round, so the
                                // noise bounds what a curious peer learns
};

/// One gossip-learning participant: periodically pushes (parameters, age,
/// sample count) to a uniformly random peer; on receipt, merges the peer
/// model with an age-weighted average and takes a local SGD pass on its own
/// data. Fully decentralized — there is no aggregator to bottleneck,
/// surveil, or bias the process (the §III-C argument for gossip).
class GossipNode : public Node {
 public:
  GossipNode(std::unique_ptr<ml::Model> model, ml::Dataset local_data,
             GossipConfig config);

  void OnStart(NodeContext& ctx) override;
  /// Rejoin after churn: the push-timer chain died with the crash, so the
  /// node re-desynchronizes and starts a fresh one (model state survives —
  /// churn costs rounds, not learned progress).
  void OnRestart(NodeContext& ctx) override { OnStart(ctx); }
  void OnMessage(NodeContext& ctx, size_t from,
                 const common::Bytes& payload) override;
  void OnTimer(NodeContext& ctx, uint64_t timer_id) override;

  /// Read-only access for evaluation harnesses. (In the full marketplace
  /// the model lives inside a TEE; here the DML layer is benchmarked in
  /// isolation.)
  const ml::Model& model() const { return *model_; }
  uint64_t age() const { return age_; }

 private:
  void LocalUpdate(NodeContext& ctx);
  common::Bytes EncodeState() const;

  std::unique_ptr<ml::Model> model_;
  ml::Dataset data_;
  GossipConfig config_;
  uint64_t age_ = 0;  // number of merge+update steps this model absorbed
};

}  // namespace pds2::dml

#endif  // PDS2_DML_GOSSIP_H_
