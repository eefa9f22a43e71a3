// MICRO — google-benchmark microbenchmarks for the components every
// experiment leans on: network forward/backward, featurization, cost
// annotation, oracle counting, planning, and execution.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/hands_free.h"
#include "exec/executor.h"
#include "nn/layer.h"
#include "nn/mlp.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "optimizer/plan_gen.h"
#include "plan/physical_plan.h"
#include "rejoin/featurizer.h"
#include "rl/reward_predictor.h"
#include "serve/plan_server.h"
#include "sql/parser.h"

namespace hfq {
namespace {

Engine& BenchEngine() {
  static std::unique_ptr<Engine> engine = bench::MakeEngine(0.1);
  return *engine;
}

Query BenchQuery(int n, uint64_t seed) {
  WorkloadGenerator gen(&BenchEngine().catalog(), seed);
  auto q = gen.GenerateQuery(n, "micro" + std::to_string(seed) +
                                    "_" + std::to_string(n));
  HFQ_CHECK(q.ok());
  return std::move(*q);
}

void BM_MlpForward(benchmark::State& state) {
  Rng rng(1);
  MlpConfig config;
  config.input_dim = 612;  // ReJOIN featurization at 17 relations.
  config.hidden_dims = {128, 128};
  config.output_dim = 289;
  Mlp mlp(config, &rng);
  Matrix x(1, config.input_dim);
  for (int64_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.Forward(x));
  }
}
BENCHMARK(BM_MlpForward);

void BM_MlpForwardBackward(benchmark::State& state) {
  Rng rng(1);
  MlpConfig config;
  config.input_dim = 612;
  config.hidden_dims = {128, 128};
  config.output_dim = 289;
  Mlp mlp(config, &rng);
  Matrix x(1, config.input_dim);
  for (int64_t i = 0; i < x.size(); ++i) x.data()[i] = rng.Normal();
  Matrix grad(1, config.output_dim);
  grad.Fill(1e-3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.Forward(x));
    benchmark::DoNotOptimize(mlp.Backward(grad));
  }
}
BENCHMARK(BM_MlpForwardBackward);

void BM_Featurize(benchmark::State& state) {
  Query q = BenchQuery(static_cast<int>(state.range(0)), 7);
  RejoinFeaturizer featurizer(17, &BenchEngine().estimator());
  std::vector<std::unique_ptr<JoinTreeNode>> leaves;
  std::vector<const JoinTreeNode*> subtrees;
  for (int i = 0; i < q.num_relations(); ++i) {
    leaves.push_back(JoinTreeNode::Leaf(i));
    subtrees.push_back(leaves.back().get());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(featurizer.Featurize(q, subtrees));
  }
}
BENCHMARK(BM_Featurize)->Arg(4)->Arg(10)->Arg(17);

void BM_CostAnnotate(benchmark::State& state) {
  Query q = BenchQuery(6, 11);
  auto plan = BenchEngine().expert().Optimize(q);
  HFQ_CHECK(plan.ok());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BenchEngine().cost_model().Annotate(q, plan->get()));
  }
}
BENCHMARK(BM_CostAnnotate);

void BM_OracleRowsCold(benchmark::State& state) {
  // Fresh oracle per iteration: measures the actual grouped-count sweep.
  Query q = BenchQuery(static_cast<int>(state.range(0)), 13);
  for (auto _ : state) {
    TrueCardinalityOracle oracle(&BenchEngine().db());
    benchmark::DoNotOptimize(
        oracle.Rows(q, RelSetAll(q.num_relations())));
  }
}
BENCHMARK(BM_OracleRowsCold)->Arg(3)->Arg(6);

void BM_OracleRowsCached(benchmark::State& state) {
  Query q = BenchQuery(6, 17);
  TrueCardinalityOracle oracle(&BenchEngine().db());
  oracle.Rows(q, RelSetAll(q.num_relations()));  // Warm the memo.
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.Rows(q, RelSetAll(q.num_relations())));
  }
}
BENCHMARK(BM_OracleRowsCached);

void BM_ExpertOptimizeDp(benchmark::State& state) {
  Query q = BenchQuery(static_cast<int>(state.range(0)), 19);
  for (auto _ : state) {
    auto plan = BenchEngine().expert().Optimize(q);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_ExpertOptimizeDp)->Arg(4)->Arg(8)->Arg(11);

// DP plan-generator scaling across join-graph shape x size, at production
// budgets. Sparse graphs (chains) stay exact far past the historic 3^n
// wall; dense graphs cross the subproblem budget and degrade into a fast
// ResourceExhausted (the GEQO-fallback trigger) — the `exhausted` counter
// records which regime a combo landed in, `subproblems` how much of the
// space it materialized. n <= 12 runs the historic exhaustive subset walk
// (clique-12 is the worst case, a few hundred ms per enumeration on the
// cost-only table); n > 12 runs connected subgraphs only.
void BM_DpEnumerate(benchmark::State& state) {
  const JoinTopology topologies[] = {JoinTopology::kChain,
                                     JoinTopology::kStar,
                                     JoinTopology::kClique};
  const JoinTopology topology = topologies[state.range(0)];
  const int n = static_cast<int>(state.range(1));
  WorkloadGenerator gen(&BenchEngine().catalog(), 31);
  auto query = gen.GenerateTopologyQuery(
      topology, n,
      std::string("dp_") + JoinTopologyName(topology) + "_" +
          std::to_string(n));
  HFQ_CHECK(query.ok());
  PlanGenStats last;
  bool exhausted = false;
  for (auto _ : state) {
    PlanGenerator plan_gen(&BenchEngine().expert(), *query);
    auto plan = plan_gen.FindCheapestJoinPlan();
    benchmark::DoNotOptimize(plan);
    exhausted = !plan.ok();
    last = plan_gen.stats();
  }
  state.counters["subproblems"] = static_cast<double>(last.subproblems);
  state.counters["exhausted"] = exhausted ? 1.0 : 0.0;
}
BENCHMARK(BM_DpEnumerate)
    ->ArgNames({"topo", "rels"})
    ->ArgsProduct({{0, 1, 2}, {8, 12, 16, 20}})
    ->Unit(benchmark::kMillisecond);

void BM_ExpertOptimizeGeqo(benchmark::State& state) {
  Query q = BenchQuery(14, 23);
  for (auto _ : state) {
    auto plan = BenchEngine().expert().Optimize(q);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_ExpertOptimizeGeqo);

void BM_LatencySimulate(benchmark::State& state) {
  Query q = BenchQuery(8, 29);
  auto plan = BenchEngine().expert().Optimize(q);
  HFQ_CHECK(plan.ok());
  BenchEngine().latency().SimulateMs(q, **plan);  // Warm oracle memo.
  for (auto _ : state) {
    benchmark::DoNotOptimize(BenchEngine().latency().SimulateMs(q, **plan));
  }
}
BENCHMARK(BM_LatencySimulate);

void BM_ExecuteHashJoinPlan(benchmark::State& state) {
  Query q = BenchQuery(4, 31);
  q.aggregates.clear();
  q.group_by.clear();
  auto plan = BenchEngine().expert().Optimize(q);
  HFQ_CHECK(plan.ok());
  Executor executor(&BenchEngine().db());
  int64_t tuples = 0;
  for (auto _ : state) {
    auto result = executor.Execute(q, **plan);
    HFQ_CHECK(result.ok());
    tuples = result->join_rows;
    benchmark::DoNotOptimize(result);
  }
  state.counters["tuples_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(tuples),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExecuteHashJoinPlan);

// --- Per-operator execution A/B -----------------------------------------
// The same two-relation IMDB-like join (cast_info JOIN title, one
// selection per side) forced through each physical operator, under both
// engines: engine:0 is the vectorized default, engine:1 the
// tuple-at-a-time reference. Adjacent rows are an interleaved
// same-machine A/B of the vectorization payoff per operator; both
// engines produce bit-identical ExecResults (tests/exec_test.cc pins
// this), so tuples_per_s compares like for like.

ExecOptions ExecEngineArg(int64_t arg) {
  ExecOptions options;
  options.engine =
      arg == 0 ? ExecEngine::kVectorized : ExecEngine::kTupleAtATime;
  return options;
}

const Query& ExecBenchJoinQuery() {
  static const Query* query = [] {
    auto q = ParseSql(
        "SELECT count(*) FROM title t, cast_info ci "
        "WHERE ci.movie_id = t.id AND t.production_year > 20 AND "
        "ci.nr_order = 1",
        BenchEngine().catalog());
    HFQ_CHECK(q.ok());
    // Executor benches measure the join pipeline, not aggregation.
    q->aggregates.clear();
    q->group_by.clear();
    return new Query(std::move(*q));
  }();
  return *query;
}

// cast_info (rel 1, selection 1: nr_order = 1) outer, title (rel 0,
// selection 0: production_year > 20) inner. INLJ probes title's
// built-in BTree id index through join predicate 0.
PlanNodePtr ExecBenchJoinPlan(PhysicalOp op) {
  PlanNodePtr outer = MakeSeqScan(1, {1});
  PlanNodePtr inner = MakeSeqScan(0, {0});
  const int probe = op == PhysicalOp::kIndexNestedLoopJoin ? 0 : -1;
  return MakeJoin(op, std::move(outer), std::move(inner), {0}, probe);
}

void RunExecJoinBench(benchmark::State& state, PhysicalOp op) {
  const Query& q = ExecBenchJoinQuery();
  PlanNodePtr plan = ExecBenchJoinPlan(op);
  Executor executor(&BenchEngine().db(), ExecEngineArg(state.range(0)));
  int64_t tuples = 0;
  for (auto _ : state) {
    auto result = executor.Execute(q, *plan);
    HFQ_CHECK(result.ok());
    tuples = result->join_rows;
    benchmark::DoNotOptimize(result);
  }
  state.counters["tuples_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(tuples),
      benchmark::Counter::kIsRate);
}

void BM_ExecuteScanFilterPlan(benchmark::State& state) {
  static const Query* query = [] {
    auto q = ParseSql(
        "SELECT count(*) FROM cast_info ci WHERE ci.nr_order = 1",
        BenchEngine().catalog());
    HFQ_CHECK(q.ok());
    q->aggregates.clear();
    q->group_by.clear();
    return new Query(std::move(*q));
  }();
  PlanNodePtr plan = MakeSeqScan(0, {0});
  Executor executor(&BenchEngine().db(), ExecEngineArg(state.range(0)));
  int64_t tuples = 0;
  for (auto _ : state) {
    auto result = executor.Execute(*query, *plan);
    HFQ_CHECK(result.ok());
    tuples = result->output_rows;
    benchmark::DoNotOptimize(result);
  }
  state.counters["tuples_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(tuples),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExecuteScanFilterPlan)->ArgNames({"engine"})->Arg(0)->Arg(1);

void BM_ExecuteNestedLoopJoinPlan(benchmark::State& state) {
  RunExecJoinBench(state, PhysicalOp::kNestedLoopJoin);
}
BENCHMARK(BM_ExecuteNestedLoopJoinPlan)
    ->ArgNames({"engine"})
    ->Arg(0)
    ->Arg(1);

void BM_ExecuteMergeJoinPlan(benchmark::State& state) {
  RunExecJoinBench(state, PhysicalOp::kMergeJoin);
}
BENCHMARK(BM_ExecuteMergeJoinPlan)->ArgNames({"engine"})->Arg(0)->Arg(1);

void BM_ExecuteIndexNestedLoopJoinPlan(benchmark::State& state) {
  RunExecJoinBench(state, PhysicalOp::kIndexNestedLoopJoin);
}
BENCHMARK(BM_ExecuteIndexNestedLoopJoinPlan)
    ->ArgNames({"engine"})
    ->Arg(0)
    ->Arg(1);

// Join + grouped aggregation: the heaviest per-tuple column-access path in
// the executor (every group key and aggregate argument is fetched per
// surviving tuple). Exercises the once-per-operator column binding — the
// old code re-resolved each ColumnRef with two string-keyed hash lookups
// per tuple per predicate.
void BM_ExecuteGroupByAggregatePlan(benchmark::State& state) {
  QueryShapeOptions shape;
  shape.aggregate_prob = 1.0;
  shape.group_by_prob = 1.0;
  WorkloadGenerator gen(&BenchEngine().catalog(), 37, shape,
                       &BenchEngine().db());
  auto q = gen.GenerateQuery(4, "micro_groupby");
  HFQ_CHECK(q.ok());
  HFQ_CHECK(!q->group_by.empty());
  auto plan = BenchEngine().expert().Optimize(*q);
  HFQ_CHECK(plan.ok());
  Executor executor(&BenchEngine().db());
  int64_t tuples = 0;
  for (auto _ : state) {
    auto result = executor.Execute(*q, **plan);
    HFQ_CHECK(result.ok());
    tuples = result->join_rows;
    benchmark::DoNotOptimize(result);
  }
  state.counters["tuples_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(tuples),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExecuteGroupByAggregatePlan);

void BM_ParseSql(benchmark::State& state) {
  const std::string sql =
      "SELECT count(*) FROM title t, cast_info ci, movie_keyword mk "
      "WHERE ci.movie_id = t.id AND mk.movie_id = t.id AND "
      "t.production_year > 20 AND ci.nr_order = 1";
  for (auto _ : state) {
    auto q = ParseSql(sql, BenchEngine().catalog());
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_ParseSql);

// 8 episodes x 8 steps = a 64-sample update at ReJOIN dimensions.
std::vector<Episode> MakeUpdateBatch(int episodes, int steps, int state_dim,
                                     int action_dim) {
  Rng rng(3);
  std::vector<Episode> batch;
  for (int e = 0; e < episodes; ++e) {
    Episode episode;
    for (int s = 0; s < steps; ++s) {
      Transition t;
      t.state.resize(static_cast<size_t>(state_dim));
      for (auto& v : t.state) v = rng.Normal();
      t.mask.assign(static_cast<size_t>(action_dim), true);
      t.action = static_cast<int>(rng.UniformInt(0, action_dim - 1));
      t.old_prob = 1.0 / static_cast<double>(action_dim);
      t.reward = s + 1 == steps ? rng.Uniform() : 0.0;
      episode.steps.push_back(std::move(t));
    }
    batch.push_back(std::move(episode));
  }
  return batch;
}

// The minibatched policy+value update (one forward + one backward per
// epoch). Compare against BM_PolicyUpdatePerSampleReference below.
void BM_PolicyUpdate(benchmark::State& state) {
  PolicyGradientConfig config;
  config.hidden_dims = {128, 128};
  PolicyGradientAgent agent(612, 289, config, 37);
  std::vector<Episode> batch = MakeUpdateBatch(8, 8, 612, 289);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.Update(batch));
  }
}
BENCHMARK(BM_PolicyUpdate);

// Reference re-implementation of the pre-batching update path (two policy
// forwards + one backward per sample per PPO epoch, plus per-sample value
// passes) over the same 64-sample batch: the speedup of BM_PolicyUpdate
// over this is the payoff of minibatching.
void BM_PolicyUpdatePerSampleReference(benchmark::State& state) {
  constexpr double kMaskedLogit = -1e9;
  constexpr int kActions = 289;
  PolicyGradientConfig config;
  config.hidden_dims = {128, 128};
  PolicyGradientAgent agent(612, 289, config, 37);
  Mlp& policy = agent.policy_net();
  Mlp& value = agent.value_net();
  Adam policy_opt(config.policy_lr);
  Adam value_opt(config.value_lr);
  std::vector<Episode> batch = MakeUpdateBatch(8, 8, 612, 289);
  for (auto _ : state) {
    struct Sample {
      const Transition* t;
      double ret;
    };
    std::vector<Sample> samples;
    for (const auto& ep : batch) {
      double ret = 0.0;
      std::vector<double> rets(ep.steps.size());
      for (size_t i = ep.steps.size(); i-- > 0;) {
        ret = ep.steps[i].reward + config.gamma * ret;
        rets[i] = ret;
      }
      for (size_t i = 0; i < ep.steps.size(); ++i) {
        samples.push_back({&ep.steps[i], rets[i]});
      }
    }
    std::vector<double> advantages(samples.size());
    for (size_t i = 0; i < samples.size(); ++i) {
      Matrix v = value.Forward(Matrix::RowVector(samples[i].t->state));
      advantages[i] = samples[i].ret - v.At(0, 0);
    }
    double mean = 0.0, var = 0.0;
    for (double a : advantages) mean += a;
    mean /= static_cast<double>(advantages.size());
    for (double a : advantages) var += (a - mean) * (a - mean);
    var /= static_cast<double>(advantages.size());
    double stddev = std::sqrt(std::max(var, 1e-12));
    for (double& a : advantages) a = (a - mean) / stddev;

    for (int epoch = 0; epoch < config.ppo_epochs; ++epoch) {
      policy.ZeroGrads();
      for (size_t i = 0; i < samples.size(); ++i) {
        const Transition& t = *samples[i].t;
        Matrix logits = policy.Forward(Matrix::RowVector(t.state));
        for (int a = 0; a < kActions; ++a) {
          if (!t.mask[static_cast<size_t>(a)]) logits.At(0, a) = kMaskedLogit;
        }
        Matrix probs = Softmax(logits);
        const double p = std::max(probs.At(0, t.action), 1e-12);
        const double ratio = p / std::max(t.old_prob, 1e-12);
        const double adv = advantages[i];
        const double clipped = std::clamp(ratio, 1.0 - config.clip_epsilon,
                                          1.0 + config.clip_epsilon);
        const bool active = ratio * adv <= clipped * adv;
        const double weight = active ? adv * ratio : 0.0;
        Matrix grad(1, kActions);
        for (int a = 0; a < kActions; ++a) {
          double g = probs.At(0, a) - (a == t.action ? 1.0 : 0.0);
          grad.At(0, a) = weight * g / static_cast<double>(samples.size());
        }
        Matrix ent_grad;
        SoftmaxEntropy(logits, config.entropy_coef, &ent_grad);
        for (int a = 0; a < kActions; ++a) {
          if (t.mask[static_cast<size_t>(a)]) {
            grad.At(0, a) +=
                ent_grad.At(0, a) / static_cast<double>(samples.size());
          }
        }
        (void)policy.Forward(Matrix::RowVector(t.state));
        policy.Backward(grad);
      }
      ClipGradientsByGlobalNorm(policy.Grads(), config.max_grad_norm);
      policy_opt.Step(policy.Params(), policy.Grads());
    }

    value.ZeroGrads();
    for (const auto& s : samples) {
      Matrix pred = value.Forward(Matrix::RowVector(s.t->state));
      Matrix target = Matrix::Constant(1, 1, s.ret);
      Matrix grad;
      MseLoss(pred, target, &grad);
      grad.Scale(1.0 / static_cast<double>(samples.size()));
      value.Backward(grad);
    }
    ClipGradientsByGlobalNorm(value.Grads(), config.max_grad_norm);
    value_opt.Step(value.Params(), value.Grads());
    benchmark::DoNotOptimize(policy.Grads());
  }
}
BENCHMARK(BM_PolicyUpdatePerSampleReference);

// Rollout-throughput scaling curve: the policy-gradient trainer's
// collection phase training ReJOIN on 1/2/4/8 workers over a fixed
// 6-relation workload. episodes_per_update equals the per-iteration
// budget, so one iteration is one frozen-policy collection round plus a
// single batched update — collection dominates the time, and items/sec
// reports episode throughput.
void BM_RejoinRolloutCollection(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  constexpr int kEpisodesPerIter = 32;
  std::vector<Query> workload;
  for (int i = 0; i < 4; ++i) workload.push_back(BenchQuery(6, 41 + i));
  PolicyGradientConfig pg;
  pg.hidden_dims = {128, 128};
  bench::RejoinHarness harness(&BenchEngine(), 8, pg, kEpisodesPerIter,
                               workers, /*seed=*/53);
  for (auto _ : state) {
    harness.trainer.Train(workload, kEpisodesPerIter);
  }
  state.SetItemsProcessed(state.iterations() * kEpisodesPerIter);
}
BENCHMARK(BM_RejoinRolloutCollection)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Frontier evaluation, the per-candidate way the searchers used to do it:
// N separate single-row forwards at ReJOIN inference dimensions. Pair with
// BM_FrontierForwardBatched at the same Arg to read off the batching
// payoff per frontier size (beam-4 fans out ~4 x valid-actions rows).
void BM_FrontierForwardPerCandidate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  MlpConfig config;
  config.input_dim = 612;
  config.hidden_dims = {128, 128};
  config.output_dim = 289;
  Mlp mlp(config, &rng);
  std::vector<Matrix> rows;
  for (int i = 0; i < n; ++i) {
    Matrix x(1, config.input_dim);
    for (int64_t j = 0; j < x.size(); ++j) x.data()[j] = rng.Normal();
    rows.push_back(std::move(x));
  }
  MlpWorkspace ws;
  for (auto _ : state) {
    for (const Matrix& x : rows) {
      benchmark::DoNotOptimize(mlp.ForwardInto(x, &ws));
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FrontierForwardPerCandidate)->Arg(4)->Arg(16)->Arg(64);

// The same N frontier rows evaluated in ONE matrix forward (the batched
// search core's inner loop). Row i of the output is bit-identical to the
// per-candidate run above. The batch pays twice: one network call instead
// of N, and the matmul kernel's 4-row register tiles load each weight
// vector once per four rows instead of once per row.
void BM_FrontierForwardBatched(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  MlpConfig config;
  config.input_dim = 612;
  config.hidden_dims = {128, 128};
  config.output_dim = 289;
  Mlp mlp(config, &rng);
  Matrix batch(n, config.input_dim);
  for (int64_t j = 0; j < batch.size(); ++j) batch.data()[j] = rng.Normal();
  MlpWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.ForwardBatchInto(batch, &ws));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FrontierForwardBatched)->Arg(4)->Arg(16)->Arg(64);

// The reward predictor at the benchmark driver's shape: 254 state
// features, hidden layers of 128 and 128, 100 actions.
constexpr int kPredictorStateDim = 254;
constexpr int kPredictorActions = 100;

// A state row shaped like the featurizer's: mostly 0/1 indicators.
std::vector<double> PredictorState(Rng* rng) {
  std::vector<double> state(static_cast<size_t>(kPredictorStateDim));
  for (double& v : state) v = rng->Uniform() < 0.1 ? 1.0 : 0.0;
  return state;
}

// One TrainSteps minibatch at the default batch of 64: the forward, the
// loss, the backward, gradient clipping and the Adam step — what every
// retrain (learning from demonstration, the teacher loop, a serving
// update) repeats.
void BM_RewardPredictorTrainSteps(benchmark::State& state) {
  RewardPredictor predictor(kPredictorStateDim, kPredictorActions,
                            RewardPredictorConfig(), /*seed=*/41);
  Rng rng(42);
  for (int i = 0; i < 512; ++i) {
    OutcomeExample example;
    example.state = PredictorState(&rng);
    example.action =
        static_cast<int>(rng.UniformInt(0, kPredictorActions - 1));
    example.target = rng.Normal();
    example.from_expert = i % 2 == 0;
    predictor.AddExample(std::move(example));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.TrainSteps(1));
  }
}
BENCHMARK(BM_RewardPredictorTrainSteps)->Unit(benchmark::kMicrosecond);

// The predictor's forward over 1 row (a greedy step), 4 rows (a beam-4
// frontier) and 64 rows (a training minibatch).
void BM_PredictorForward(benchmark::State& state) {
  const int64_t rows = state.range(0);
  RewardPredictor predictor(kPredictorStateDim, kPredictorActions,
                            RewardPredictorConfig(), /*seed=*/41);
  Rng rng(43);
  Matrix batch = StackRows(rows, kPredictorStateDim,
                           [&rng, state_row = std::vector<double>()](
                               int64_t) mutable -> const std::vector<double>& {
                             state_row = PredictorState(&rng);
                             return state_row;
                           });
  MlpWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        predictor.net().ForwardBatchInto(batch, &ws).data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_PredictorForward)->Arg(1)->Arg(4)->Arg(64);

// Plan-time search cost: one searched inference of a 7-relation query
// under each mode. Greedy is the single-rollout floor; best-of-8 pays ~8
// rollouts; beam-4 pays ~width x valid-actions expansions plus the value
// head. Together with fig3c this is the latency side of the plan-quality
// trade-off the eval matrix measures.
void BM_PlanSearch(benchmark::State& state) {
  static bench::RejoinHarness* harness = [] {
    auto* h = new bench::RejoinHarness(&BenchEngine(), 8);
    std::vector<Query> workload;
    for (int i = 0; i < 3; ++i) workload.push_back(BenchQuery(7, 71 + i));
    h->trainer.Train(workload, 64);
    return h;
  }();
  const Query query = BenchQuery(7, 71);
  SearchConfig config;
  switch (state.range(0)) {
    case 0:
      config.mode = SearchMode::kGreedy;
      break;
    case 1:
      config.mode = SearchMode::kBestOfK;
      config.best_of_k = 8;
      break;
    default:
      config.mode = SearchMode::kBeam;
      config.beam_width = 4;
      break;
  }
  double planning_ms = 0.0;
  SearchResult found;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        harness->Plan(query, config, &planning_ms, &found));
  }
  state.SetLabel(SearchConfigName(config));
  // The per-strategy planning time (the searcher's own stopwatch, i.e.
  // the Figure 3c charge) next to the plan cost it buys — the trade-off
  // in one row.
  state.counters["planning_ms"] = planning_ms;
  state.counters["plan_cost"] = found.cost;
}
BENCHMARK(BM_PlanSearch)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

double Percentile(std::vector<double>* sorted_in_place, double p) {
  std::sort(sorted_in_place->begin(), sorted_in_place->end());
  const size_t n = sorted_in_place->size();
  if (n == 0) return 0.0;
  const size_t idx = static_cast<size_t>(p * static_cast<double>(n - 1));
  return (*sorted_in_place)[idx];
}

// Sustained serving throughput and tail latency of PlanServer: each bench
// thread hammers Plan() on a fixed query mix under a finite per-request
// budget. warm=0 disables the plan cache (every request is a real
// budget-tiered search — the cold serving floor); warm=1 pre-warms the
// cache so the loop measures the fingerprint-hit path. items/sec is
// aggregate plans/sec (UseRealTime); p50_ms/p99_ms are per-request
// service-time percentiles pooled across threads.
void BM_PlanServer(benchmark::State& state) {
  static HandsFreeOptimizer* optimizer = [] {
    HandsFreeConfig config;
    config.strategy = TrainingStrategy::kIncrementalHybrid;
    config.max_relations = 8;
    config.training_episodes = 16;
    config.seed = 97;
    config.incremental_pg.hidden_dims = {64};
    auto* opt = new HandsFreeOptimizer(&BenchEngine(), config);
    std::vector<Query> workload;
    for (int i = 0; i < 4; ++i) workload.push_back(BenchQuery(5, 2100 + i));
    HFQ_CHECK(opt->Train(workload).ok());
    return opt;
  }();
  static std::vector<Query>* serving = [] {
    auto* queries = new std::vector<Query>;
    for (int i = 0; i < 6; ++i) {
      queries->push_back(BenchQuery(4 + i % 3, 2200 + i));
    }
    return queries;
  }();
  static PlanServer* server = nullptr;
  static std::mutex latency_mu;
  static std::vector<double> latencies;
  static std::atomic<int> threads_done{0};

  constexpr double kBudgetMs = 1.0;
  const bool warm = state.range(0) != 0;
  // Thread 0 sets up before the start barrier releases any iteration.
  if (state.thread_index() == 0) {
    PlanServerConfig config;
    config.num_workers = state.threads();
    config.enable_cache = warm;
    server = new PlanServer(optimizer, config);
    HFQ_CHECK(server->PublishPolicy().ok());
    if (warm) {
      for (const Query& q : *serving) {
        HFQ_CHECK(server->Plan(q, kBudgetMs).ok());
      }
    }
    latencies.clear();
    threads_done.store(0);
  }

  std::vector<double> local;
  size_t next = static_cast<size_t>(state.thread_index());
  for (auto _ : state) {
    const Query& q = (*serving)[next++ % serving->size()];
    auto response = server->Plan(q, kBudgetMs);
    HFQ_CHECK(response.ok());
    benchmark::DoNotOptimize(response->cost);
    local.push_back(response->service_ms);
  }
  state.SetItemsProcessed(state.iterations());

  {
    std::lock_guard<std::mutex> lock(latency_mu);
    latencies.insert(latencies.end(), local.begin(), local.end());
  }
  threads_done.fetch_add(1);
  if (state.thread_index() == 0) {
    while (threads_done.load() != state.threads()) {
      std::this_thread::yield();
    }
    state.counters["p50_ms"] = Percentile(&latencies, 0.50);
    state.counters["p99_ms"] = Percentile(&latencies, 0.99);
    state.counters["cache_hits"] =
        static_cast<double>(server->stats().cache_hits);
    delete server;
    server = nullptr;
  }
}
BENCHMARK(BM_PlanServer)
    ->ArgNames({"warm"})
    ->Arg(0)
    ->Arg(1)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace hfq

BENCHMARK_MAIN();
