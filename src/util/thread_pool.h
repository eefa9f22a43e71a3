// A fixed-size worker pool for CPU-bound fan-out (parallel rollout
// collection, eval cells, search and executor morsels). Tasks are
// submitted as callables and observed through std::future: exceptions
// thrown inside a task are captured by the promise and re-thrown from
// future::get() on the caller's thread, so worker failures never die
// silently.
#ifndef HFQ_UTIL_THREAD_POOL_H_
#define HFQ_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace hfq {

/// Fixed worker threads draining one FIFO task queue. Submit is thread-safe
/// (any thread, including pool workers, may enqueue). Shutdown (and the
/// destructor, which calls it) drains the queue: already-submitted tasks
/// run to completion before the workers join.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (minimum 1).
  explicit ThreadPool(int num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Finishes all queued tasks, then joins the workers (via Shutdown).
  ~ThreadPool();

  /// Stops accepting queued work, finishes everything already queued, and
  /// joins the workers. Idempotent, but shutdown/destruction must be
  /// driven from a single thread (like destruction itself). After — or
  /// concurrently with — Shutdown, Submit degrades to running the task
  /// inline on the submitting thread (see Submit), so no future handed
  /// out by this pool can ever be left permanently unready.
  void Shutdown();

  /// Enqueues `fn` and returns a future for its result. The future's get()
  /// re-throws any exception the task threw. Once shutdown has begun the
  /// task can no longer be handed to a worker (the drain may already have
  /// passed it by, which would strand the future forever), so it runs
  /// inline on the calling thread instead — the future is ready on
  /// return. That keeps late submitters (e.g. a request racing a server
  /// teardown) correct, just not concurrent.
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> result = task->get_future();
    bool run_inline = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shutting_down_) {
        run_inline = true;
      } else {
        queue_.emplace_back([task] { (*task)(); });
      }
    }
    if (run_inline) {
      (*task)();  // Exceptions still land in the future.
    } else {
      wake_.notify_one();
    }
    return result;
  }

  /// Runs fn(i) for i in [0, count) across the pool and blocks until
  /// every task has finished — even when one throws, so no task can
  /// outlive the caller's frame (fn and any captured state stay alive for
  /// all of them). The first exception (lowest i) is then re-thrown.
  void ParallelFor(int64_t count, const std::function<void(int64_t)>& fn);

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

/// Worker fan-out with strong exception safety: runs fn(w) for w in
/// [0, num_workers). With num_workers == 1 or pool == nullptr the single
/// worker runs inline on the calling thread; otherwise each worker is a
/// pool task. Blocks until EVERY worker has finished — even when one
/// throws — so a failing worker can never leave siblings writing into the
/// caller's (possibly unwinding) frame; the first failure (lowest w) is
/// then re-thrown. This is the one dispatch point behind every parallel
/// rollout / workload fan-out in the library.
void RunOnWorkers(ThreadPool* pool, int num_workers,
                  const std::function<void(int)>& fn);

}  // namespace hfq

#endif  // HFQ_UTIL_THREAD_POOL_H_
