// PlanServer: the optimizer as a long-lived service. Wraps a trained
// HandsFreeOptimizer and answers concurrent Plan(query, budget_ms)
// requests, with three serving-path mechanisms the batch facade lacks:
//
//   * A sharded plan cache keyed by Query::StructuralFingerprint(). Real
//     traffic repeats query shapes; a hit returns a clone of the cached
//     physical plan in ~0 planning time. Every entry carries an exact
//     identity string (the reconstructed, name-independent SQL) so two
//     structurally different queries colliding on the 64-bit fingerprint
//     can never alias — plus the policy generation that produced it, so a
//     policy swap lazily invalidates the whole cache.
//
//   * Budget-adaptive search effort. The per-request budget picks the
//     richest search tier (greedy → best-of-K → beam) whose calibrated
//     planning-time estimate fits (EffortModel); the remaining budget is
//     then also installed as the searcher's hard time_budget_ms stop, so
//     a mispredicted tier still degrades gracefully mid-search instead
//     of overshooting.
//
//   * Non-blocking policy swaps. Serving threads only ever read immutable
//     PolicySnapshot generations out of a VersionedSnapshot slot; updates
//     (e.g. incremental-trainer feedback) run on a background update
//     thread against the live model and publish a fresh snapshot when
//     done. In-flight requests keep the generation they started with
//     (shared_ptr pinned), new requests see the new one — training never
//     blocks serving and serving never reads half-updated weights.
//
// Threading contract: Plan() is safe from any number of threads;
// PlanAsync() puts the request on the serving pool. ApplyUpdate /
// PublishPolicy serialize on an internal update mutex. The wrapped
// optimizer must not be driven concurrently by anyone else while the
// server is live, and updates must not change the env's stage set or
// featurizer capacity (retraining weights is the supported update shape).
#ifndef HFQ_SERVE_PLAN_SERVER_H_
#define HFQ_SERVE_PLAN_SERVER_H_

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/hands_free.h"
#include "serve/effort_model.h"
#include "util/sharded_cache.h"
#include "util/snapshot.h"
#include "util/thread_pool.h"

namespace hfq {

struct PlanServerConfig {
  /// Serving pool width (PlanAsync concurrency). Direct Plan() calls may
  /// come from any number of caller threads on top.
  int num_workers = 4;
  bool enable_cache = true;
  int cache_shards = 16;
  int cache_capacity_per_shard = 256;
  EffortModelConfig effort;
};

/// One answered plan request.
struct PlanResponse {
  PlanNodePtr plan;
  double cost = 0.0;
  /// The search's planning-time charge (~0 for cache hits).
  double planning_ms = 0.0;
  /// Full request wall time inside the server (validation + cache +
  /// search + response assembly).
  double service_ms = 0.0;
  bool cache_hit = false;
  bool fell_back_to_greedy = false;
  /// Policy generation that produced (or cached) this plan.
  uint64_t policy_generation = 0;
  /// SearchConfigName of the tier that planned it (cache hits report the
  /// tier that originally produced the cached plan).
  std::string search_mode;
};

/// Monotonic serving counters (single snapshot read).
struct PlanServerStats {
  uint64_t requests = 0;
  uint64_t cache_hits = 0;
  uint64_t cold_plans = 0;
  uint64_t greedy_fallbacks = 0;  ///< Cold plans whose budget expired.
  uint64_t policy_publishes = 0;
};

class PlanServer {
 public:
  /// `optimizer` must be trained and must outlive the server.
  PlanServer(HandsFreeOptimizer* optimizer, PlanServerConfig config);

  PlanServer(const PlanServer&) = delete;
  PlanServer& operator=(const PlanServer&) = delete;

  ~PlanServer();

  /// Snapshots the optimizer's current model and installs it as the
  /// serving generation (returned). Must be called once before Plan();
  /// call again (or via ApplyUpdate) after any training to roll traffic
  /// onto the new weights. Cached plans of older generations become
  /// stale automatically.
  Result<uint64_t> PublishPolicy();

  /// Plans one query under a per-request budget (<= 0 = unlimited).
  /// Thread-safe; synchronous (runs on the calling thread).
  Result<PlanResponse> Plan(const Query& query, double budget_ms = 0.0);

  /// Plan() on the serving pool. The query is copied into the request so
  /// the caller's argument may die immediately.
  std::future<Result<PlanResponse>> PlanAsync(Query query,
                                              double budget_ms = 0.0);

  /// Runs `update` (arbitrary work against the wrapped optimizer — e.g.
  /// RefineWithTeacher, incremental feedback) serialized against other
  /// updates, then publishes the resulting model as a new generation.
  /// Serving continues on the previous generation throughout.
  Status ApplyUpdate(
      const std::function<Status(HandsFreeOptimizer*)>& update);

  /// ApplyUpdate on the background update thread (single-threaded, so
  /// queued updates run in submission order).
  std::future<Status> ApplyUpdateAsync(
      std::function<Status(HandsFreeOptimizer*)> update);

  /// Calibrates the effort model by cold-planning every sample query at
  /// every tier (`repeats` observations each), off the cache. Run once at
  /// startup so finite budgets can select non-greedy tiers immediately.
  Status CalibrateEffort(const std::vector<Query>& sample, int repeats = 1);

  /// Drains and joins the serving + update pools. Idempotent; called by
  /// the destructor. Late Plan()/PlanAsync() calls still answer (the
  /// pools degrade to inline execution) — they are just no longer
  /// concurrent.
  void Shutdown();

  PlanServerStats stats() const;
  ShardedCacheStats cache_stats() const { return cache_.stats(); }
  const EffortModel& effort() const { return effort_; }
  uint64_t policy_generation() const { return policy_slot_.generation(); }
  int num_workers() const { return config_.num_workers; }

 private:
  /// Per-request planning state: a worker env clone + inference scratch.
  /// Leased from a free list for the duration of one cold plan.
  struct ServeContext {
    std::unique_ptr<FullPipelineEnv> env;
    MlpWorkspace ws;
    SearchScratch scratch;
  };

  std::unique_ptr<ServeContext> AcquireContext();
  void ReleaseContext(std::unique_ptr<ServeContext> context);

  /// PublishPolicy body; caller holds update_mu_.
  Result<uint64_t> PublishLocked();

  HandsFreeOptimizer* optimizer_;
  PlanServerConfig config_;
  EffortModel effort_;

  /// What a cache entry stores: the plan is shared (hits clone it without
  /// holding any lock), cost/mode ride along for the response.
  struct CachedPlan {
    std::shared_ptr<const PlanNode> plan;
    double cost = 0.0;
    bool fell_back_to_greedy = false;
    std::string search_mode;
  };
  ShardedGenCache<CachedPlan> cache_;

  VersionedSnapshot<PolicySnapshot> policy_slot_;

  /// Serializes model mutation + snapshot publication (training and
  /// Save() both touch the live model).
  std::mutex update_mu_;

  std::mutex contexts_mu_;
  std::vector<std::unique_ptr<ServeContext>> free_contexts_;

  std::unique_ptr<ThreadPool> serve_pool_;
  std::unique_ptr<ThreadPool> update_pool_;  ///< Always 1 thread.

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cold_plans_{0};
  std::atomic<uint64_t> greedy_fallbacks_{0};
  std::atomic<uint64_t> policy_publishes_{0};
};

}  // namespace hfq

#endif  // HFQ_SERVE_PLAN_SERVER_H_
