// FIG3A — Figure 3a, "ReJOIN convergence": mean plan cost relative to the
// traditional optimizer (PostgreSQL in the paper) as training progresses.
// The paper's curve starts around 800-900% and crosses ~100% near 8-9k
// episodes. We train ReJOIN (the pipeline env's join-order stage) with the
// expert's cost model as reward, normalized per query by the expert's own
// plan cost, over the JOB-like suite and print the same series.
#include <algorithm>
#include <cmath>
#include <map>

#include "bench/bench_common.h"

using namespace hfq;         // NOLINT
using namespace hfq::bench;  // NOLINT

int main() {
  PrintHeader(
      "FIG3A  ReJOIN convergence (plan cost relative to expert optimizer)",
      "starts ~800-900%, reaches ~100% (parity) after thousands of episodes");

  auto engine = MakeEngine();
  std::vector<Query> workload = MakeJobSuite(engine.get());

  // Expert baseline cost per query (computed once; the expert is static).
  std::map<std::string, double> expert_cost;
  for (const Query& q : workload) {
    auto plan = engine->expert().Optimize(q);
    HFQ_CHECK(plan.ok());
    expert_cost[q.name] = std::max(1.0, (*plan)->est_cost);
  }

  PolicyGradientConfig pg;
  pg.hidden_dims = {128, 128};  // ReJOIN's architecture.
  pg.policy_lr = 1e-3;
  RejoinHarness harness(engine.get(), 17, pg, /*episodes_per_update=*/16);

  const int kEpisodes = 9000;  // The paper needed ~9k to reach parity.
  const int kWindow = 250;
  double window_ratio_sum = 0.0;
  int window_count = 0;

  std::printf("%-10s %-26s %s\n", "episodes", "plan cost rel. to expert",
              "(window mean over last 250 episodes)");
  harness.trainer.Train(
      workload, kEpisodes, [&](const TrainedEpisode& episode) {
        ApplyRejoinSchedule(&harness.trainer.agent(), episode.index,
                            kEpisodes);
        // reward = -log10(cost / expert)  =>  ratio = 10^(-reward).
        double ratio = std::pow(10.0, -episode.reward);
        window_ratio_sum += ratio;
        ++window_count;
        if ((episode.index + 1) % kWindow == 0) {
          std::printf("%-10d %6.0f%%\n", episode.index + 1,
                      100.0 * window_ratio_sum / window_count);
          std::fflush(stdout);
          window_ratio_sum = 0.0;
          window_count = 0;
        }
      });

  // Post-training greedy evaluation across the suite.
  double total_ratio = 0.0;
  double wins = 0.0;
  for (const Query& q : workload) {
    double ratio = harness.Plan(q)->est_cost / expert_cost[q.name];
    total_ratio += ratio;
    if (ratio <= 1.001) wins += 1.0;
  }
  PrintRule(78);
  std::printf(
      "final greedy policy: mean cost %.0f%% of expert; matches or beats "
      "expert on %.0f%% of %zu queries\n",
      100.0 * total_ratio / static_cast<double>(workload.size()),
      100.0 * wins / static_cast<double>(workload.size()), workload.size());
  return 0;
}
