// SEC51-LFD — Section 5.1, learning from demonstration: an agent
// pre-trained on the expert's episode histories (H_q, L_q) starts near
// expert quality, never pays for catastrophic plans, and can exceed the
// expert by exploiting its systemic errors; a tabula-rasa twin of the same
// learner (no demonstrations) pays a large exploration tax. Slips trigger
// re-training on the stored demonstrations (step 5 of the paper's recipe).
#include <algorithm>

#include "bench/bench_common.h"
#include "core/demonstration.h"
#include "core/full_env.h"

using namespace hfq;         // NOLINT
using namespace hfq::bench;  // NOLINT

namespace {

struct WindowStats {
  double mean = 0.0;
  double worst = 0.0;
};

WindowStats Summarize(const std::vector<double>& window) {
  WindowStats s;
  if (window.empty()) return s;
  for (double v : window) {
    s.mean += v;
    s.worst = std::max(s.worst, v);
  }
  s.mean /= static_cast<double>(window.size());
  return s;
}

}  // namespace

int main() {
  PrintHeader(
      "SEC51-LFD  learning from demonstration vs tabula rasa",
      "LfD starts near expert quality and avoids catastrophic plans; "
      "tabula-rasa DRL pays a huge exploration tax");

  auto engine = MakeEngine();
  std::vector<Query> workload =
      MakeLatencyWorkload(engine.get(), /*count=*/14, /*min_rels=*/5,
                          /*max_rels=*/8, /*seed=*/51);

  RejoinFeaturizer featurizer(8, &engine->estimator());

  double expert_mean = 0.0;
  for (const Query& q : workload) {
    auto expert = engine->RunExpert(q);
    HFQ_CHECK(expert.ok());
    expert_mean += expert->latency_ms;
  }
  expert_mean /= static_cast<double>(workload.size());

  const int kEpisodes = 900;
  const int kWindow = 100;

  // --- LfD learner: demonstrations + pre-training, then fine-tuning. ---
  FullPipelineEnv lfd_env(&featurizer, &engine->expert());
  LfdConfig lfd_config;
  lfd_config.predictor.hidden_dims = {128, 128};
  lfd_config.pretrain_steps = 3000;
  // Footnote-3 exploration: "an action besides the one predicted to result
  // in the lowest latency may be selected with SMALL probability".
  lfd_config.epsilon_start = 0.05;
  lfd_config.epsilon_end = 0.01;
  DemonstrationLearner lfd(&lfd_env, engine.get(), lfd_config, 11);
  auto collected = lfd.CollectDemonstrations(workload);
  HFQ_CHECK(collected.ok());
  std::printf("collected %d expert (state, action) demonstrations; "
              "pre-training...\n",
              *collected);
  lfd.Pretrain();

  // --- Tabula rasa twin: same learner, no demonstrations. ---
  FullPipelineEnv tr_env(&featurizer, &engine->expert());
  LfdConfig tr_config = lfd_config;
  tr_config.epsilon_start = 0.5;  // It must explore from nothing.
  tr_config.slip_window = 1 << 30;  // No demonstrations to fall back on.
  DemonstrationLearner tabula(&tr_env, engine.get(), tr_config, 13);

  std::printf("\n%-10s | %-22s | %-22s\n", "episodes",
              "LfD  mean%  worst-plan", "TabulaRasa mean%  worst");
  PrintRule(78);
  std::vector<double> lfd_window, tr_window;
  int slips = 0;
  for (int e = 0; e < kEpisodes; ++e) {
    const Query& q = workload[static_cast<size_t>(e) % workload.size()];
    LfdEpisodeStats ls = lfd.FineTuneEpisode(q);
    if (ls.slip_retrained) ++slips;
    LfdEpisodeStats ts = tabula.FineTuneEpisode(q);
    lfd_window.push_back(ls.latency_ms);
    tr_window.push_back(ts.latency_ms);
    if ((e + 1) % kWindow == 0) {
      WindowStats lw = Summarize(lfd_window);
      WindowStats tw = Summarize(tr_window);
      std::printf("%-10d | %7.0f%%  %8.0f ms | %8.0f%%  %8.0f ms\n", e + 1,
                  100.0 * lw.mean / expert_mean, lw.worst,
                  100.0 * tw.mean / expert_mean, tw.worst);
      std::fflush(stdout);
      lfd_window.clear();
      tr_window.clear();
    }
  }
  PrintRule(78);

  // Final greedy evaluation.
  double lfd_final = 0.0, tr_final = 0.0;
  int lfd_wins = 0;
  for (const Query& q : workload) {
    double lfd_ms = lfd.EvaluateQuery(q);
    double tr_ms = tabula.EvaluateQuery(q);
    auto expert = engine->RunExpert(q);
    HFQ_CHECK(expert.ok());
    lfd_final += lfd_ms;
    tr_final += tr_ms;
    if (lfd_ms < expert->latency_ms) ++lfd_wins;
  }
  lfd_final /= static_cast<double>(workload.size());
  tr_final /= static_cast<double>(workload.size());
  std::printf(
      "final greedy means: expert %.0f ms | LfD %.0f ms (%.0f%%, beats "
      "expert on %d/%zu) | tabula rasa %.0f ms (%.0f%%)\n",
      expert_mean, lfd_final, 100.0 * lfd_final / expert_mean, lfd_wins,
      workload.size(), tr_final, 100.0 * tr_final / expert_mean);
  std::printf("slip re-trainings triggered: %d\n", slips);
  return 0;
}
