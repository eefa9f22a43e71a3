#include "rl/teacher_loop.h"

#include <utility>

#include "util/check.h"

namespace hfq {

AgentTeacherStudent::AgentTeacherStudent(PolicyGradientAgent* agent)
    : agent_(agent) {
  HFQ_CHECK(agent != nullptr);
}

double AgentTeacherStudent::Learn(const std::vector<TeacherDemo>& demos) {
  std::vector<Transition> batch;
  std::vector<Episode> episodes;
  for (const TeacherDemo& demo : demos) {
    if (demo.episode.steps.empty()) continue;  // Trivial single-relation query.
    for (const Transition& t : demo.episode.steps) batch.push_back(t);
    episodes.push_back(demo.episode);
  }
  if (batch.empty()) return 0.0;
  const double loss = agent_->BehaviourCloneStep(batch);
  agent_->ValueRegressionStep(episodes);
  return loss;
}

std::vector<Matrix*> AgentTeacherStudent::Params() {
  std::vector<Matrix*> params = agent_->policy_net().Params();
  for (Matrix* p : agent_->value_net().Params()) params.push_back(p);
  return params;
}

PredictorTeacherStudent::PredictorTeacherStudent(RewardPredictor* predictor,
                                                 int train_steps)
    : predictor_(predictor), train_steps_(train_steps) {
  HFQ_CHECK(predictor != nullptr);
  HFQ_CHECK(train_steps > 0);
}

double PredictorTeacherStudent::Learn(const std::vector<TeacherDemo>& demos) {
  for (const TeacherDemo& demo : demos) {
    for (const Transition& t : demo.episode.steps) {
      OutcomeExample example;
      example.state = t.state;
      example.action = t.action;
      example.target = demo.target;
      example.from_expert = true;
      // Unique insert: the best plan per query is re-offered every
      // iteration, and duplicates must not overweight replay sampling.
      predictor_->AddExampleUnique(std::move(example));
    }
  }
  return predictor_->TrainSteps(train_steps_);
}

std::vector<Matrix*> PredictorTeacherStudent::Params() {
  return predictor_->net().Params();
}

Result<std::vector<TeacherIterationStats>> RunTeacherLoop(
    const TeacherLoopTask& task, const TeacherConfig& config) {
  std::vector<TeacherIterationStats> stats;
  if (config.iterations <= 0) return stats;
  if (task.env == nullptr || !task.select_query || !task.search ||
      task.policy == nullptr || task.student == nullptr ||
      task.pool == nullptr) {
    return Status::InvalidArgument("teacher loop task is missing a component");
  }
  if (task.num_queries == 0) {
    return Status::InvalidArgument("teacher loop needs a non-empty workload");
  }
  if (config.learn_passes < 0) {
    return Status::InvalidArgument("learn_passes must be >= 0");
  }

  MlpWorkspace ws;
  // Mean greedy FinalCost of the frozen policy over the workload — the
  // metric the loop must never worsen.
  auto greedy_mean = [&task, &ws]() {
    double total = 0.0;
    for (size_t i = 0; i < task.num_queries; ++i) {
      task.select_query(i);
      task.env->Reset();
      while (!task.env->Done()) {
        const int action = task.policy->Greedy(task.env->StateVector(),
                                               task.env->ActionMask(), &ws);
        task.env->Step(action);
      }
      total += task.env->FinalCost();
    }
    return total / static_cast<double>(task.num_queries);
  };

  double best_mean = greedy_mean();
  // The best weights so far, copied matrix by matrix.
  std::vector<Matrix> best_weights;
  for (const Matrix* p : task.student->Params()) best_weights.push_back(*p);

  for (int iteration = 0; iteration < config.iterations; ++iteration) {
    TeacherIterationStats row;
    row.iteration = iteration;

    // 1. Freeze the policy and let the teacher search the whole workload;
    //    every discovered plan lands in the pool (deduplicated).
    double teacher_total = 0.0;
    for (size_t i = 0; i < task.num_queries; ++i) {
      const uint64_t fingerprint = task.select_query(i);
      HFQ_ASSIGN_OR_RETURN(TeacherSearchOutcome found, task.search(task.env));
      teacher_total += found.cost;
      PlanExperience experience;
      experience.fingerprint = fingerprint;
      experience.actions = std::move(found.actions);
      experience.cost = found.cost;
      if (task.pool->Add(std::move(experience))) ++row.new_plans;
    }
    row.teacher_mean_cost =
        teacher_total / static_cast<double>(task.num_queries);

    // 2. Replay the cheapest known plan of every query into demonstration
    //    episodes. Replayed env outputs are the ground truth: a structural
    //    fingerprint can collide across queries with different literals, so
    //    the pool's stored cost is advisory, never asserted against.
    std::vector<TeacherDemo> demos;
    demos.reserve(task.num_queries);
    for (size_t i = 0; i < task.num_queries; ++i) {
      const uint64_t fingerprint = task.select_query(i);
      const PlanExperience* best = task.pool->BestFor(fingerprint);
      if (best == nullptr) continue;
      task.env->Reset();
      TeacherDemo demo;
      demo.fingerprint = fingerprint;
      for (int action : best->actions) {
        HFQ_CHECK_MSG(!task.env->Done(), "teacher demo overran the episode");
        Transition t;
        t.state = task.env->StateVector();
        t.mask = task.env->ActionMask();
        t.action = action;
        task.env->Step(action);
        demo.episode.steps.push_back(std::move(t));
      }
      HFQ_CHECK_MSG(task.env->Done(), "teacher demo ended before the episode");
      if (task.demo_reward && !demo.episode.steps.empty()) {
        demo.episode.steps.back().reward = task.demo_reward(i);
      }
      demo.final_cost = task.env->FinalCost();
      demo.target = task.demo_target
                        ? task.demo_target(i, demo.episode, demo.final_cost)
                        : -demo.episode.TotalReward();
      demos.push_back(std::move(demo));
    }
    row.demos = static_cast<int>(demos.size());

    // 3. Train the student on the demonstration set.
    for (int pass = 0; pass < config.learn_passes; ++pass) {
      row.student_loss = task.student->Learn(demos);
    }

    // 4. Re-evaluate greedy; keep the new weights only if they are no
    //    worse (keep_best_weights), which makes greedy_mean_cost
    //    non-increasing across the returned rows by construction.
    const double mean = greedy_mean();
    const std::vector<Matrix*> params = task.student->Params();
    HFQ_CHECK(params.size() == best_weights.size());
    if (config.keep_best_weights && mean > best_mean) {
      for (size_t j = 0; j < params.size(); ++j) *params[j] = best_weights[j];
      row.rolled_back = true;
      row.greedy_mean_cost = best_mean;
    } else {
      best_mean = mean;
      for (size_t j = 0; j < params.size(); ++j) best_weights[j] = *params[j];
      row.greedy_mean_cost = mean;
    }
    stats.push_back(row);
  }
  return stats;
}

}  // namespace hfq
