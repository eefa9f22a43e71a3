// Engine: owns one complete instantiation of the substrate stack — catalog,
// data, statistics, estimator, oracle, cost model, latency simulator, and
// the traditional optimizer. Everything the learned optimizers (and the
// benches/examples) need, built from two knobs: scale and seed.
#ifndef HFQ_CORE_ENGINE_H_
#define HFQ_CORE_ENGINE_H_

#include <memory>

#include "catalog/imdb_like.h"
#include "cost/cost_model.h"
#include "exec/executor.h"
#include "exec/latency_model.h"
#include "optimizer/optimizer.h"
#include "stats/estimator.h"
#include "stats/truth_oracle.h"
#include "storage/data_generator.h"
#include "util/status.h"

namespace hfq {

/// All construction knobs for an Engine.
struct EngineOptions {
  EngineOptions() {}
  ImdbLikeOptions imdb;
  uint64_t data_seed = 42;
  /// Materialization knobs (the skew_scale data-skew knob in particular);
  /// defaults reproduce the historic data bit-for-bit.
  DataGenOptions data_gen;
  StatsOptions stats;
  CostParams cost;
  LatencyParams latency;
  OptimizerOptions optimizer;
  TrueCardinalityOracle::Options oracle;
};

/// One database + everything built on top of it. Create once, share across
/// experiments (the oracle memoizes per query name and structure, so
/// repeat queries are cheap).
class Engine {
 public:
  /// Builds the synthetic IMDB-like database and the full stack.
  static Result<std::unique_ptr<Engine>> CreateImdbLike(
      EngineOptions options = EngineOptions());

  const Catalog& catalog() const { return catalog_; }
  const Database& db() const { return *db_; }
  const StatsCatalog& stats() const { return stats_; }
  CardinalityEstimator& estimator() { return *estimator_; }
  TrueCardinalityOracle& oracle() { return *oracle_; }
  /// Cost model over *estimated* cardinalities (the expert's beliefs).
  CostModel& cost_model() { return *cost_model_; }
  /// Cost model over *true* cardinalities (for ablations).
  CostModel& true_cost_model() { return *true_cost_model_; }
  LatencySimulator& latency() { return *latency_; }
  TraditionalOptimizer& expert() { return *expert_; }
  Executor& executor() { return *executor_; }

  /// Convenience: expert plan + its cost and simulated latency.
  struct ExpertResult {
    PlanNodePtr plan;
    double cost = 0.0;
    double latency_ms = 0.0;
    double planning_ms = 0.0;
  };
  Result<ExpertResult> RunExpert(const Query& query);

 private:
  Engine() = default;

  Catalog catalog_;
  std::unique_ptr<Database> db_;
  StatsCatalog stats_;
  std::unique_ptr<CardinalityEstimator> estimator_;
  std::unique_ptr<TrueCardinalityOracle> oracle_;
  std::unique_ptr<CostModel> cost_model_;
  std::unique_ptr<CostModel> true_cost_model_;
  std::unique_ptr<LatencySimulator> latency_;
  std::unique_ptr<TraditionalOptimizer> expert_;
  std::unique_ptr<Executor> executor_;
};

}  // namespace hfq

#endif  // HFQ_CORE_ENGINE_H_
