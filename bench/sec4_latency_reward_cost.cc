// SEC4-LAT — Section 4, "Performance Evaluation Overhead" (and footnote 2):
// with latency as the reward signal, an untrained agent's early plans are
// so slow that training from scratch is prohibitive — "the initial query
// plans produced could not be executed in any reasonable amount of time."
// Our latency simulator can *price* those plans without running them, so
// this bench quantifies the claim: the total (simulated) execution time an
// agent would have to pay for its first K random episodes, vs what the
// expert's plans cost on the same queries.
#include <algorithm>

#include "bench/bench_common.h"
#include "core/full_env.h"

using namespace hfq;         // NOLINT
using namespace hfq::bench;  // NOLINT

int main() {
  PrintHeader(
      "SEC4-LAT  the price of latency-as-reward from scratch",
      "early random plans take hours vs seconds — executing them for "
      "reward is prohibitive");

  auto engine = MakeEngine();
  std::vector<Query> workload =
      MakeLatencyWorkload(engine.get(), /*count=*/10, /*min_rels=*/8,
                          /*max_rels=*/12, /*seed=*/777);

  RejoinFeaturizer featurizer(13, &engine->estimator());
  FullEnvConfig config;
  config.allow_cross_products = true;  // Naive agent: nothing is masked.
  FullPipelineEnv env(&featurizer, &engine->expert(), config);

  const int kEpisodes = 500;
  Rng rng(99);
  std::vector<double> latencies;
  double total_ms = 0.0;
  for (int e = 0; e < kEpisodes; ++e) {
    const Query& q = workload[static_cast<size_t>(e) % workload.size()];
    env.SetQuery(&q);
    env.Reset();
    while (!env.Done()) {
      std::vector<bool> mask = env.ActionMask();
      std::vector<int> valid;
      for (int a = 0; a < env.action_dim(); ++a) {
        if (mask[static_cast<size_t>(a)]) valid.push_back(a);
      }
      env.Step(rng.Choice(valid));
    }
    double ms = engine->latency().SimulateMs(q, *env.FinalPlan());
    latencies.push_back(ms);
    total_ms += ms;
  }
  std::sort(latencies.begin(), latencies.end());
  auto pct = [&](double p) {
    return latencies[static_cast<size_t>(p * (latencies.size() - 1))];
  };

  double expert_total = 0.0;
  double expert_max = 0.0;
  for (const Query& q : workload) {
    auto expert = engine->RunExpert(q);
    HFQ_CHECK(expert.ok());
    expert_total += expert->latency_ms;
    expert_max = std::max(expert_max, expert->latency_ms);
  }
  double expert_mean = expert_total / static_cast<double>(workload.size());

  std::printf("simulated latency of %d untrained-agent plans:\n", kEpisodes);
  std::printf("  median %s   p90 %s\n  p99 %s   worst %s\n",
              HumanTime(pct(0.5)).c_str(), HumanTime(pct(0.9)).c_str(),
              HumanTime(pct(0.99)).c_str(),
              HumanTime(latencies.back()).c_str());
  std::printf("  total time to 'execute' all %d plans for their rewards: %s\n",
              kEpisodes, HumanTime(total_ms).c_str());
  std::printf("expert plans on the same queries: mean %s, max %s\n",
              HumanTime(expert_mean).c_str(), HumanTime(expert_max).c_str());
  PrintRule(78);
  std::printf(
      "claim check: the median random plan already runs %.0fx longer than "
      "the\nexpert mean; the tail is unexecutable (%s). Collecting latency\n"
      "rewards for 500 episodes costs %s of query execution, vs %s\n"
      "if every plan were expert-quality — training on raw latency from "
      "scratch\nis prohibitive, exactly as Section 4 argues.\n",
      pct(0.5) / expert_mean, HumanTime(latencies.back()).c_str(),
      HumanTime(total_ms).c_str(),
      HumanTime(kEpisodes * expert_mean).c_str());
  return 0;
}
