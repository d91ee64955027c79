// Thread-pool executor for query requests: a fixed set of worker threads
// draining one FIFO of type-erased tasks. Deliberately independent
// of the OpenMP compute lanes — OpenMP parallelises *inside* one batch
// kernel, while this pool multiplexes *many small queries* across cores;
// mixing the two schedulers would let a single heavyweight query starve
// the latency-sensitive ones.
//
// Fault tolerance: the queue is bounded (ExecutorOptions::max_queue) and a
// full queue engages one of three load-shedding policies —
//
//   kRejectNew      refuse the incoming task (try_submit returns nullopt,
//                   submit resolves the future with OverloadError);
//   kDropOldest     evict the head of the FIFO to admit the newcomer;
//   kDeadlineAware  evict the queued task least likely to meet its
//                   deadline (expired first, then the soonest deadline);
//                   an incoming task with the soonest deadline of all is
//                   itself refused.
//
// A task whose deadline passes while queued is abandoned at dequeue time
// instead of run. Evicted/abandoned tasks resolve through their optional
// fallback (the service's closes the query span and supplies no value)
// or, failing that, with OverloadError. Queue depth is exported as a gauge
// (svc.queue_depth); shedding increments svc.shed / svc.rejected /
// svc.deadline_expired.
//
// Telemetry: a task admitted under an active obs::TraceContext gets one
// "svc.queue" span covering its time in the queue, on the enqueuing
// thread's track (closed on the thread that resolved it) and tagged with
// how it left — outcome=run (a worker picked it up), shed (evicted by a
// policy or at shutdown), or deadline (expired while queued). Sheds and
// expiries also land in the flight recorder.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/spans.hpp"
#include "svc/request.hpp"
#include "util/common.hpp"
#include "util/sync.hpp"

namespace bfc::svc {

enum class ShedPolicy : std::uint8_t {
  kRejectNew = 0,
  kDropOldest,
  kDeadlineAware,
};

[[nodiscard]] inline const char* shed_policy_name(ShedPolicy p) noexcept {
  switch (p) {
    case ShedPolicy::kRejectNew: return "reject-new";
    case ShedPolicy::kDropOldest: return "drop-oldest";
    case ShedPolicy::kDeadlineAware: return "deadline-aware";
  }
  return "unknown";
}

struct ExecutorOptions {
  int threads = 4;
  std::size_t max_queue = 0;  // 0 = unbounded (the pre-robustness behaviour)
  ShedPolicy policy = ShedPolicy::kRejectNew;
};

class Executor {
 public:
  /// Unbounded-queue pool with `threads` workers (>= 1).
  explicit Executor(int threads) : Executor(ExecutorOptions{threads}) {}

  explicit Executor(const ExecutorOptions& options);

  /// Drains nothing: pending tasks that never ran are abandoned (their
  /// futures get OverloadError or their degrade fallback); running tasks
  /// finish first.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  template <typename Fn>
  using ResultOf = std::invoke_result_t<Fn>;

  /// Cheap fallback invoked instead of Fn when the task is shed or its
  /// deadline expires while queued: return a (degraded) value to resolve
  /// the future with, or nullopt to fail it with OverloadError.
  template <typename Fn>
  using FallbackOf = std::function<std::optional<ResultOf<Fn>>()>;

  /// Enqueues fn and returns a future for its result, or nullopt when
  /// admission refused it outright (kRejectNew on a full queue, or a
  /// deadline-aware comparison that picked the newcomer as the victim) —
  /// the caller then handles the refusal itself. fn runs on one pool worker;
  /// exceptions propagate through the future.
  template <typename Fn>
  [[nodiscard]] auto try_submit(Fn&& fn, Deadline deadline = {},
                                FallbackOf<Fn> fallback = nullptr,
                                obs::TraceContext trace = {})
      -> std::optional<std::future<ResultOf<Fn>>> {
    using R = ResultOf<Fn>;
    auto prom = std::make_shared<std::promise<R>>();
    std::future<R> future = prom->get_future();
    Task task;
    task.deadline = deadline;
    if (obs::SpanLog::enabled() && trace.active()) {
      task.trace = trace;
      task.enqueue_ts_us = obs::now_us();
      task.enqueue_tid = obs::thread_track();
    }
    // std::function requires copyable callables, so the packaged state
    // lives behind the shared promise pointer.
    task.run = [prom, fn = std::forward<Fn>(fn)]() mutable {
      try {
        prom->set_value(fn());
      } catch (...) {
        prom->set_exception(std::current_exception());
      }
    };
    task.abandon = [prom, fallback = std::move(fallback)](
                       OverloadError::Reason reason) {
      if (fallback) {
        try {
          if (std::optional<R> degraded = fallback()) {
            prom->set_value(std::move(*degraded));
            return;
          }
        } catch (...) {
          prom->set_exception(std::current_exception());
          return;
        }
      }
      prom->set_exception(std::make_exception_ptr(OverloadError(reason)));
    };
    if (!admit(std::move(task))) return std::nullopt;
    return future;
  }

  /// submit() never returns nullopt: an admission refusal resolves the
  /// returned future with OverloadError instead.
  template <typename Fn>
  [[nodiscard]] auto submit(Fn&& fn, Deadline deadline = {})
      -> std::future<ResultOf<Fn>> {
    using R = ResultOf<Fn>;
    if (auto future = try_submit(std::forward<Fn>(fn), deadline))
      return std::move(*future);
    std::promise<R> rejected;
    rejected.set_exception(std::make_exception_ptr(
        OverloadError(OverloadError::Reason::kRejected)));
    return rejected.get_future();
  }

  [[nodiscard]] int thread_count() const noexcept {
    return static_cast<int>(workers_.size());
  }
  [[nodiscard]] std::size_t queue_limit() const noexcept { return max_queue_; }
  [[nodiscard]] ShedPolicy policy() const noexcept { return policy_; }

  /// Tasks queued but not yet picked up by a worker.
  [[nodiscard]] std::size_t queue_depth() const;

 private:
  struct Task {
    std::function<void()> run;
    std::function<void(OverloadError::Reason)> abandon;
    Deadline deadline;
    obs::TraceContext trace;         // active -> queue-wait span on resolve
    std::int64_t enqueue_ts_us = 0;  // obs::now_us() at admission
    int enqueue_tid = 0;             // obs::thread_track() of the submitter
  };

  /// Closes the task's queue-wait span (no-op for untraced tasks).
  static void close_queue_span(const Task& task, const char* outcome);

  /// Applies the admission policy; returns false when the incoming task is
  /// refused. May evict a queued task (abandoned outside the lock).
  bool admit(Task task);
  void worker_loop();

  std::size_t max_queue_;
  ShedPolicy policy_;
  mutable Mutex mu_{"svc.executor"};
  CondVar cv_;
  std::deque<Task> queue_ BFC_GUARDED_BY(mu_);
  // Set once by ~Executor; workers exit without draining, honouring the
  // documented abandon-pending contract.
  bool stopping_ BFC_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace bfc::svc
