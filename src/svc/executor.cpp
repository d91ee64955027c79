#include "svc/executor.hpp"

#include <algorithm>
#include <chrono>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "svc/fault.hpp"

namespace bfc::svc {

void Executor::close_queue_span(const Task& task, const char* outcome) {
  if (!obs::SpanLog::enabled() || !task.trace.active()) return;
  obs::SpanRecord rec;
  rec.trace_id = task.trace.trace_id;
  rec.parent_id = task.trace.span_id;
  rec.span_id = obs::SpanLog::next_id();
  rec.name = "svc.queue";
  rec.ts_us = task.enqueue_ts_us;
  rec.dur_us = obs::now_us() - task.enqueue_ts_us;
  rec.tid = task.enqueue_tid;
  rec.add_tag("outcome", outcome);
  obs::SpanLog::record(std::move(rec));
}

Executor::Executor(const ExecutorOptions& options)
    : max_queue_(options.max_queue), policy_(options.policy) {
  require(options.threads >= 1, "Executor: threads must be >= 1");
  workers_.reserve(static_cast<std::size_t>(options.threads));
  for (int t = 0; t < options.threads; ++t)
    workers_.emplace_back([this] { worker_loop(); });
}

Executor::~Executor() {
  // Flag the shutdown, wake every parked worker, and join. Workers exit
  // without draining — this is the documented contract (pending tasks are
  // abandoned, running tasks finish first); the pre-stopping_ implementation
  // let workers drain the whole queue after the stop request, which made
  // destruction latency proportional to the backlog and the abandon loop
  // below dead code.
  {
    const MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  std::deque<Task> leftovers;
  {
    // All workers have exited, but take the lock anyway: it is uncontended,
    // and the analysis then proves the access instead of trusting a comment.
    const MutexLock lock(mu_);
    leftovers.swap(queue_);
  }
  // Abandon callbacks may do real (if bounded) work — never under mu_.
  for (Task& task : leftovers) {
    close_queue_span(task, "shed");
    task.abandon(OverloadError::Reason::kShed);
  }
}

std::size_t Executor::queue_depth() const {
  const MutexLock lock(mu_);
  return queue_.size();
}

bool Executor::admit(Task task) {
  Task victim;
  bool have_victim = false;
  {
    const MutexLock lock(mu_);
    bool full = max_queue_ != 0 && queue_.size() >= max_queue_;
    if (fault::fires(fault::Point::kQueueSaturation)) full = true;
    if (full && !queue_.empty()) {
      switch (policy_) {
        case ShedPolicy::kRejectNew:
          BFC_COUNT_ADD("svc.rejected", 1);
          obs::FlightRecorder::record(
              "reject", shed_policy_name(policy_),
              static_cast<std::int64_t>(queue_.size()), 0,
              task.trace.trace_id);
          return false;
        case ShedPolicy::kDropOldest:
          victim = std::move(queue_.front());
          queue_.pop_front();
          have_victim = true;
          break;
        case ShedPolicy::kDeadlineAware: {
          // Shed the task least likely to make its deadline: an already
          // expired one if any, else the one closest to expiry (tasks
          // without a deadline never lose to one that still has time).
          // When the incoming task's own deadline is the soonest of all,
          // it is the doomed one — refuse it instead of evicting work
          // that could still finish.
          auto expired = std::find_if(
              queue_.begin(), queue_.end(),
              [](const Task& t) { return t.deadline.expired(); });
          auto it = expired != queue_.end()
                        ? expired
                        : std::min_element(
                              queue_.begin(), queue_.end(),
                              [](const Task& a, const Task& b) {
                                if (a.deadline.armed() != b.deadline.armed())
                                  return a.deadline.armed();
                                if (!a.deadline.armed()) return false;
                                return a.deadline.time() < b.deadline.time();
                              });
          const bool incoming_sooner =
              expired == queue_.end() && task.deadline.armed() &&
              (!it->deadline.armed() ||
               task.deadline.time() < it->deadline.time());
          if (incoming_sooner) {
            BFC_COUNT_ADD("svc.rejected", 1);
            obs::FlightRecorder::record(
                "reject", "deadline-aware-incoming",
                static_cast<std::int64_t>(queue_.size()), 0,
                task.trace.trace_id);
            return false;
          }
          victim = std::move(*it);
          queue_.erase(it);
          have_victim = true;
          break;
        }
      }
      BFC_COUNT_ADD("svc.shed", 1);
    } else if (full) {
      // Queue forced "full" while actually empty (fault injection with
      // max_queue 0 workers idle): there is nothing to evict, so every
      // policy degenerates to reject-new.
      BFC_COUNT_ADD("svc.rejected", 1);
      obs::FlightRecorder::record("reject", "queue-empty-full", 0, 0,
                                  task.trace.trace_id);
      return false;
    }
    queue_.push_back(std::move(task));
    BFC_GAUGE_SET("svc.queue_depth", queue_.size());
  }
  cv_.notify_one();
  // The victim's fallback may do real (if bounded) work — never under mu_.
  if (have_victim) {
    close_queue_span(victim, "shed");
    obs::FlightRecorder::record("shed", shed_policy_name(policy_), 0, 0,
                                victim.trace.trace_id);
    victim.abandon(OverloadError::Reason::kShed);
  }
  return true;
}

void Executor::worker_loop() {
  MutexLock lock(mu_);
  for (;;) {
    while (queue_.empty() && !stopping_) cv_.wait(lock);
    if (stopping_) return;  // ~Executor abandons whatever is still queued
    Task task = std::move(queue_.front());
    queue_.pop_front();
    BFC_GAUGE_SET("svc.queue_depth", queue_.size());
    lock.unlock();
    // Deadline-abandon checkpoint: work that expired while queued is not
    // worth starting — resolve it degraded (or with OverloadError) and
    // move straight to the next task.
    if (task.deadline.expired()) {
      BFC_COUNT_ADD("svc.deadline_expired", 1);
      close_queue_span(task, "deadline");
      obs::FlightRecorder::record("deadline", "expired-in-queue", 0, 0,
                                  task.trace.trace_id);
      task.abandon(OverloadError::Reason::kDeadline);
    } else {
      close_queue_span(task, "run");
      task.run();
    }
    lock.lock();
  }
}

}  // namespace bfc::svc
