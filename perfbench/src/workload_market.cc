// lifecycle and reuse: one long-lived Marketplace per round in the E12
// shape (3 validators, 8 providers x 60 records, 2 executors, logistic
// model with 6 features and 5 epochs) and one consumer.
//
//   lifecycle  every op is a fresh Fig. 2 lifecycle (distinct spec name,
//              substitution off) followed by the consumer's FetchResult.
//   reuse      substitution on; set-up computes the spec once, and every op
//              resubmits the identical spec, which must settle by reusing
//              the memoized artifact, followed by FetchResult.
#include <optional>
#include <string>
#include <utility>

#include "bench.h"
#include "common/hex.h"
#include "market/marketplace.h"
#include "ml/dataset.h"
#include "ml/metrics.h"
#include "ml/model.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

using namespace pds2;

constexpr size_t kProviders = 8;
constexpr size_t kRecordsPerProvider = 60;
constexpr size_t kExecutors = 2;
constexpr size_t kFeatures = 6;
constexpr size_t kTestRecords = 500;
/// Test-split accuracy every trained model must reach. Two Gaussians at
/// separation 3.5 are ~96% separable; a broken training or aggregation
/// path lands near 50%.
constexpr double kAccuracyFloor = 0.85;

market::WorkloadSpec MakeSpec(const std::string& name) {
  market::WorkloadSpec spec;
  spec.name = name;
  spec.requirement.required_types = {"iot/sensor"};
  spec.model_kind = "logistic";
  spec.features = kFeatures;
  spec.epochs = 5;
  spec.reward_pool = 1'000'000;
  spec.min_providers = kProviders;
  spec.max_providers = kProviders;
  spec.executor_reward_permille = 150;
  return spec;
}

/// The provider shards and held-out test split, drawn from the seed.
struct MarketInputs {
  std::vector<ml::Dataset> shards;
  ml::Dataset test;
};

MarketInputs MakeInputs(uint64_t seed) {
  common::Rng rng(seed);
  ml::Dataset world = ml::MakeTwoGaussians(
      kRecordsPerProvider * kProviders + kTestRecords, kFeatures, 3.5, rng);
  auto [train, test] = ml::TrainTestSplit(
      world, static_cast<double>(kTestRecords) /
                 static_cast<double>(world.Size()),
      rng);
  return {ml::PartitionIid(train, kProviders, rng), std::move(test)};
}

class MarketRound : public Round {
 public:
  MarketRound(const MarketInputs& inputs, uint64_t seed, bool reuse,
              common::ThreadPool* pool)
      : inputs_(inputs), seed_(seed), reuse_(reuse),
        market_(Config(seed, reuse, pool)) {
    storage::SemanticMetadata meta;
    meta.types = {"iot/sensor/temperature"};
    for (size_t i = 0; i < kProviders; ++i) {
      auto& provider = market_.AddProvider("p" + std::to_string(i));
      ok_ = provider.store().AddDataset("d", inputs_.shards[i], meta).ok() &&
            ok_;
    }
    for (size_t i = 0; i < kExecutors; ++i) {
      market_.AddExecutor("e" + std::to_string(i));
    }
    consumer_ = &market_.AddConsumer("c");
    if (reuse_) {
      // The one computation every timed op reuses.
      auto base = market_.RunWorkload(*consumer_, MakeSpec(ReuseSpecName()));
      ok_ = ok_ && base.ok() && !base->substituted &&
            Accurate(base->model_params);
      if (base.ok()) base_params_ = base->model_params;
    }
    supply_ = market_.chain().TotalSupply();
    gas0_ = market_.chain().TotalGasUsed();
    height0_ = market_.chain().Height();
  }

  bool Op(size_t i) override {
    const std::string name =
        reuse_ ? ReuseSpecName() : "lc-" + std::to_string(seed_) + "-" +
                                       std::to_string(i);
    auto report = market_.RunWorkload(*consumer_, MakeSpec(name));
    if (!report.ok()) {
      report_.reset();
      return false;
    }
    report_ = *std::move(report);
    obs::ScopedSpan span("bench.store.fetch");
    fetched_ = market_.FetchResult(*report_);
    return fetched_.ok();
  }

  bool CheckOp(size_t) override {
    if (!ok_ || !report_.has_value() || !fetched_.ok()) return false;
    if (*fetched_ != report_->model_params) return false;
    if (report_->substituted != reuse_) return false;
    if (reuse_) return report_->model_params == base_params_;
    // The fetched blob matched report.result_hash; that hash must be the
    // one the chain agreed on.
    auto agreed = market_.chain().Query("workload", report_->instance,
                                        "result", {});
    return agreed.ok() && *agreed == report_->result_hash &&
           Accurate(report_->model_params);
  }

  bool CheckRound() override {
    return ok_ && market_.chain().TotalSupply() == supply_;
  }

  Costs costs() override {
    const chain::Blockchain& chain = market_.chain();
    Costs c;
    c.gas = chain.TotalGasUsed() - gas0_;
    for (size_t h = height0_; h < chain.Height(); ++h) {
      const chain::Block& block = chain.blocks()[h];
      c.chain_bytes += block.Serialize().size();
      c.txs += block.transactions.size();
    }
    c.blocks = chain.Height() - height0_;
    c.fingerprint = common::HexEncode(chain.LastBlockHash());
    return c;
  }

 private:
  static market::MarketConfig Config(uint64_t seed, bool reuse,
                                     common::ThreadPool* pool) {
    market::MarketConfig config;
    config.seed = seed;
    config.enable_substitution = reuse;
    config.thread_pool = pool;
    return config;
  }

  std::string ReuseSpecName() const {
    return "reuse-" + std::to_string(seed_);
  }

  bool Accurate(const ml::Vec& params) const {
    ml::LogisticRegressionModel model(kFeatures);
    model.SetParams(params);
    return ml::Accuracy(model, inputs_.test) >= kAccuracyFloor;
  }

  const MarketInputs& inputs_;
  uint64_t seed_;
  bool reuse_;
  market::Marketplace market_;
  market::ConsumerAgent* consumer_ = nullptr;
  bool ok_ = true;
  ml::Vec base_params_;
  uint64_t supply_ = 0;
  uint64_t gas0_ = 0;
  uint64_t height0_ = 0;
  std::optional<market::RunReport> report_;
  common::Result<ml::Vec> fetched_ = common::Status::Internal("no op yet");
};

class MarketWorkload : public Workload {
 public:
  MarketWorkload(uint64_t seed, bool reuse, size_t ops)
      : seed_(seed), reuse_(reuse), ops_(ops), inputs_(MakeInputs(seed)) {}

  size_t OpsPerRound() const override { return ops_; }

  std::unique_ptr<Round> NewRound(common::ThreadPool* pool) override {
    return std::make_unique<MarketRound>(inputs_, seed_, reuse_, pool);
  }

 private:
  uint64_t seed_;
  bool reuse_;
  size_t ops_;
  MarketInputs inputs_;
};

}  // namespace

std::unique_ptr<Workload> MakeLifecycle(uint64_t seed) {
  return std::make_unique<MarketWorkload>(seed, /*reuse=*/false, 50);
}

std::unique_ptr<Workload> MakeReuse(uint64_t seed) {
  return std::make_unique<MarketWorkload>(seed, /*reuse=*/true, 50);
}

}  // namespace perfbench
