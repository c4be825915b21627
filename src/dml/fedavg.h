#ifndef PDS2_DML_FEDAVG_H_
#define PDS2_DML_FEDAVG_H_

#include <memory>
#include <vector>

#include "dml/netsim.h"
#include "ml/model.h"
#include "ml/sgd.h"

namespace pds2::dml {

/// Federated-averaging parameters (McMahan et al. [17]).
struct FedAvgConfig {
  double client_fraction = 1.0;       // C: clients sampled per round
  ml::SgdConfig local_sgd;            // E local epochs on each client
  common::SimTime round_timeout = 5 * common::kMicrosPerSecond;
};

/// The central aggregator — the component whose bottleneck, single point of
/// failure and privacy exposure motivate gossip learning in the paper. Node
/// index 0 by convention.
class FedServerNode : public Node {
 public:
  FedServerNode(std::unique_ptr<ml::Model> model, FedAvgConfig config,
                std::vector<size_t> client_ids);

  void OnStart(NodeContext& ctx) override;
  /// A restarted server abandons the in-flight round (its timeout timer
  /// died with the crash) and opens a new one.
  void OnRestart(NodeContext& ctx) override { BeginRound(ctx); }
  void OnMessage(NodeContext& ctx, size_t from,
                 const common::Bytes& payload) override;
  void OnTimer(NodeContext& ctx, uint64_t timer_id) override;

  const ml::Model& model() const { return *model_; }
  uint64_t rounds_completed() const { return rounds_completed_; }

 private:
  void BeginRound(NodeContext& ctx);
  void FinishRound(NodeContext& ctx);

  std::unique_ptr<ml::Model> model_;
  FedAvgConfig config_;
  std::vector<size_t> client_ids_;

  uint64_t round_ = 0;
  uint64_t rounds_completed_ = 0;
  size_t awaiting_ = 0;
  std::vector<ml::Vec> round_params_;
  std::vector<double> round_weights_;
};

/// A federated client: on a "train" request it loads the global parameters,
/// runs E local epochs on its private data and returns the updated
/// parameters with its sample count.
class FedClientNode : public Node {
 public:
  FedClientNode(std::unique_ptr<ml::Model> model, ml::Dataset local_data,
                ml::SgdConfig local_sgd);

  void OnMessage(NodeContext& ctx, size_t from,
                 const common::Bytes& payload) override;

 private:
  std::unique_ptr<ml::Model> model_;
  ml::Dataset data_;
  ml::SgdConfig local_sgd_;
};

}  // namespace pds2::dml

#endif  // PDS2_DML_FEDAVG_H_
