#include "search/plan_search.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

#include "util/check.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace hfq {

const char* SearchModeName(SearchMode mode) {
  switch (mode) {
    case SearchMode::kGreedy:
      return "greedy";
    case SearchMode::kBestOfK:
      return "best-of-k";
    case SearchMode::kBeam:
      return "beam";
    case SearchMode::kBestFirst:
      return "best-first";
  }
  return "?";
}

std::string SearchConfigName(const SearchConfig& config) {
  switch (config.mode) {
    case SearchMode::kGreedy:
      return "greedy";
    case SearchMode::kBestOfK:
      return StrFormat("best-of-%d", config.best_of_k);
    case SearchMode::kBeam:
      return StrFormat("beam-%d", config.beam_width);
    case SearchMode::kBestFirst:
      return StrFormat("best-first-%d", config.beam_width);
  }
  return "?";
}

Result<SearchConfig> ParseSearchSpec(const std::string& spec) {
  SearchConfig config;
  if (spec == "greedy") {
    config.mode = SearchMode::kGreedy;
    return config;
  }
  // Parses the numeric suffix of "best-of-<K>" / "beam-<W>". An empty
  // suffix (trailing dash) is rejected; values outside [1, 1e6] are
  // rejected before the narrowing cast so overflow cannot wrap a huge
  // request into a tiny (or negative) knob.
  auto parse_suffix = [](const std::string& s, size_t prefix_len,
                         int* out) {
    if (s.size() <= prefix_len) return false;
    char* end = nullptr;
    errno = 0;
    long long v = std::strtoll(s.c_str() + prefix_len, &end, 10);
    if (end == nullptr || *end != '\0' || errno == ERANGE || v < 1 ||
        v > 1000000) {
      return false;
    }
    *out = static_cast<int>(v);
    return true;
  };
  // "best-first" must be checked before "best-of-": the prefixes are
  // distinct, but keeping the more specific spelling first makes that
  // independence obvious.
  if (spec == "best-first" || spec.rfind("best-first-", 0) == 0) {
    config.mode = SearchMode::kBestFirst;
    if (spec == "best-first") return config;
    if (!parse_suffix(spec, 11, &config.beam_width)) {
      return Status::InvalidArgument("bad best-first spec: " + spec);
    }
    return config;
  }
  if (spec.rfind("best-of-", 0) == 0 || spec == "best-of-k") {
    config.mode = SearchMode::kBestOfK;
    if (spec == "best-of-k") return config;
    if (!parse_suffix(spec, 8, &config.best_of_k)) {
      return Status::InvalidArgument("bad best-of-K spec: " + spec);
    }
    return config;
  }
  if (spec == "beam" || spec.rfind("beam-", 0) == 0) {
    config.mode = SearchMode::kBeam;
    if (spec == "beam") return config;
    if (!parse_suffix(spec, 5, &config.beam_width)) {
      return Status::InvalidArgument("bad beam spec: " + spec);
    }
    return config;
  }
  return Status::InvalidArgument("unknown search spec: " + spec);
}

std::unique_ptr<PlanSearch> MakePlanSearch(const SearchConfig& config) {
  switch (config.mode) {
    case SearchMode::kGreedy:
      return std::make_unique<GreedySearch>(config);
    case SearchMode::kBestOfK:
      return std::make_unique<BestOfKSearch>(config);
    case SearchMode::kBeam:
      return std::make_unique<BeamSearch>(config);
    case SearchMode::kBestFirst:
      return std::make_unique<BestFirstSearch>(config);
  }
  HFQ_CHECK_MSG(false, "unknown search mode");
  return nullptr;
}

namespace search_internal {

std::vector<int> GreedyRollout(SearchEnv* env, const SearchContext& ctx,
                               double* select_ms_out) {
  env->Reset();
  std::vector<int> actions;
  while (!env->Done()) {
    Stopwatch watch;
    std::vector<double> state = env->StateVector();
    std::vector<bool> mask = env->ActionMask();
    int action = ctx.policy->Greedy(state, mask, ctx.ws);
    if (select_ms_out != nullptr) *select_ms_out += watch.ElapsedMillis();
    env->Step(action);
    actions.push_back(action);
  }
  return actions;
}

std::vector<int> SampledRollout(SearchEnv* env, const FrozenPolicy& policy,
                                Rng* rng, MlpWorkspace* ws) {
  env->Reset();
  std::vector<int> actions;
  while (!env->Done()) {
    std::vector<double> state = env->StateVector();
    std::vector<bool> mask = env->ActionMask();
    int action = policy.Sample(state, mask, rng, ws);
    env->Step(action);
    actions.push_back(action);
  }
  return actions;
}

std::vector<int> TopActions(const std::vector<double>& probs,
                            const std::vector<bool>& mask, int width) {
  std::vector<int> valid;
  for (size_t a = 0; a < probs.size(); ++a) {
    if (mask[a]) valid.push_back(static_cast<int>(a));
  }
  std::stable_sort(valid.begin(), valid.end(), [&probs](int a, int b) {
    return probs[static_cast<size_t>(a)] > probs[static_cast<size_t>(b)];
  });
  if (static_cast<int>(valid.size()) > width) {
    valid.resize(static_cast<size_t>(width));
  }
  return valid;
}

int SampleFromProbs(const std::vector<double>& probs,
                    const std::vector<bool>& mask, Rng* rng) {
  HFQ_CHECK(rng != nullptr);
  int action = static_cast<int>(rng->Categorical(probs));
  HFQ_CHECK(mask[static_cast<size_t>(action)]);
  return action;
}

const ActionPrefix* ExtendPrefix(Arena* arena, const ActionPrefix* prefix,
                                 int action) {
  ActionPrefix* node = arena->New<ActionPrefix>();
  node->parent = prefix;
  node->action = action;
  node->length = (prefix != nullptr ? prefix->length : 0) + 1;
  return node;
}

std::vector<int> MaterializePrefix(const ActionPrefix* prefix) {
  std::vector<int> actions(
      static_cast<size_t>(prefix != nullptr ? prefix->length : 0));
  size_t i = actions.size();
  for (const ActionPrefix* node = prefix; node != nullptr;
       node = node->parent) {
    actions[--i] = node->action;
  }
  HFQ_CHECK(i == 0);
  return actions;
}

void ReplayActions(SearchEnv* env, const std::vector<int>& actions) {
  env->Reset();
  for (int action : actions) {
    HFQ_CHECK_MSG(!env->Done(), "replay overran the episode");
    env->Step(action);
  }
  HFQ_CHECK_MSG(env->Done(), "replay ended before the episode did");
}

void FinishSearch(SearchEnv* env, const Stopwatch& total,
                  SearchResult* result) {
  ReplayActions(env, result->actions);
  HFQ_CHECK(env->FinalCost() == result->cost);
  // Charged last, after the replay (and after any fallback work that led
  // here), so planning_ms is the full wall clock of the call.
  result->planning_ms = total.ElapsedMillis();
}

}  // namespace search_internal

GreedySearch::GreedySearch(SearchConfig config) : config_(config) {}

Result<SearchResult> GreedySearch::Search(SearchEnv* env,
                                          const SearchContext& ctx,
                                          ThreadPool* pool) {
  (void)pool;  // A single rollout has nothing to fan out.
  HFQ_CHECK(env != nullptr && ctx.policy != nullptr && ctx.ws != nullptr);
  SearchResult result;
  result.actions =
      search_internal::GreedyRollout(env, ctx, &result.planning_ms);
  result.cost = env->FinalCost();
  result.rollouts = 1;
  return result;
}

}  // namespace hfq
