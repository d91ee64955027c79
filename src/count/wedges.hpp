// The wedge-expansion primitive of the sparse counting kernels. A pivot row
// expands through the transpose into a dense accumulator: each entry i of
// the pivot row reaches every peer c in lines_t.row(i), so afterwards
// acc[c] = t_c, the number of common neighbours of the pivot and c. A
// touched list keeps the peers with t_c > 0, so reading and resetting the
// accumulator costs O(touched), not O(peers). A kernel chooses its peers (an
// id range, clipped by binary search on the sorted rows of the transpose,
// plus a predicate where it needs one), what it does with each (peer, t_c)
// (drain(), or reading acc[c] in place before clear()), and its driver:
// sequential with one cancellation checkpoint per pivot, or OpenMP with one
// accumulator per thread.
//
// The paper-faithful layers keep their own loops on purpose: the O(p·nnz)
// unblocked kernels, the blocked engine's panel masks, gb/ and
// sparse/spgemm. bfc-analyze's wedge-loop rule flags any other copy.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "chk/checked_math.hpp"
#include "chk/tsan_fence.hpp"
#include "obs/metrics.hpp"
#include "util/cancel.hpp"
#include "util/common.hpp"
#include "util/parallel.hpp"

namespace bfc::count {

/// Peers with ids in [lo, hi).
struct PeerRange {
  vidx_t lo = 0;
  vidx_t hi = std::numeric_limits<vidx_t>::max();

  /// The peers after `i`, (i, ∞): every unordered pair once.
  [[nodiscard]] static constexpr PeerRange after(vidx_t i) noexcept {
    return {i + 1, std::numeric_limits<vidx_t>::max()};
  }
};

/// The predicate that admits every peer of the range.
struct AnyPeer {
  constexpr bool operator()(vidx_t) const noexcept { return true; }
};

/// Lines and wedges (Σ t_c) drained; zero when metrics are compiled out.
struct WedgeWork {
  count_t lines = 0;
  count_t wedges = 0;
};

class WedgeAccumulator {
 public:
  explicit WedgeAccumulator(vidx_t peers)
      : acc_(static_cast<std::size_t>(peers), 0) {}

  /// One more wedge in t_c for every i in `pivot` and every peer c of
  /// lines_t.row(i) inside `range` that `keep` admits. `Rows` is anything
  /// whose row(i) is a sorted span of peer ids below the accumulator size.
  template <class Rows, class Keep = AnyPeer>
  void expand(std::span<const vidx_t> pivot, const Rows& lines_t,
              PeerRange range = {}, Keep keep = {}) {
    const bool clip_hi = static_cast<std::size_t>(range.hi) < acc_.size();
    count_t* const acc = acc_.data();  // fixed size: no push_back moves it
    for (const vidx_t i : pivot) {
      const std::span<const vidx_t> row = lines_t.row(i);
      const vidx_t* c = row.data();
      const vidx_t* end = c + row.size();
      if (range.lo > 0) c = std::lower_bound(c, end, range.lo);
      if (clip_hi) end = std::lower_bound(c, end, range.hi);
      for (; c != end; ++c) {
        if (!keep(*c)) continue;
        count_t& t = acc[*c];
        if (t == 0) touched_.push_back(*c);
        ++t;
      }
    }
  }

  /// t_c since the last drain() or clear().
  [[nodiscard]] count_t operator[](vidx_t c) const {
    return acc_[static_cast<std::size_t>(c)];
  }

  /// visit(c, t_c) for every touched peer, then resets the accumulator.
  template <class Visit>
  void drain(Visit&& visit) {
    count_t* const acc = acc_.data();
    count_t drained = 0;
    for (const vidx_t c : touched_) {
      const count_t t = acc[c];
      acc[c] = 0;
      if constexpr (obs::kMetricsEnabled) drained = chk::checked_add(drained, t);
      visit(c, t);
    }
    touched_.clear();
    if constexpr (obs::kMetricsEnabled) {
      work_.wedges = chk::checked_add(work_.wedges, drained);
      ++work_.lines;
    }
  }

  /// Drains and returns Σ C(t_c, 2): the pivot's butterflies with its peers.
  [[nodiscard]] count_t drain_butterflies() {
    count_t total = 0;
    drain([&total](vidx_t, count_t t) {
      total = chk::checked_add(total, chk::checked_choose2(t));
    });
    return total;
  }

  /// Resets the accumulator without visiting (and without tallying).
  void clear() {
    for (const vidx_t c : touched_) acc_[static_cast<std::size_t>(c)] = 0;
    touched_.clear();
  }

  [[nodiscard]] const WedgeWork& work() const { return work_; }

 private:
  std::vector<count_t> acc_;
  std::vector<vidx_t> touched_;
  WedgeWork work_;
};

/// Sequential driver: body(item, acc) for item = 0 … items − 1 with one
/// accumulator over `peers` peers and one cancellation checkpoint per item.
/// Each item leaves the accumulator reset, so abandoning at a checkpoint
/// leaks no partial state. Returns the accumulator's tally.
template <class Body>
WedgeWork expand_wedges(std::int64_t items, vidx_t peers, Body&& body,
                        const CancelToken& cancel = CancelToken{},
                        const char* where = "expand_wedges") {
  WedgeAccumulator acc(peers);
  for (std::int64_t s = 0; s < items; ++s) {
    cancel.checkpoint(where);
    body(s, acc);
  }
  return acc.work();
}

/// OpenMP driver: body(item, acc) for items [0, items) in dynamic chunks of
/// `chunk` over `threads` threads, one accumulator per thread. Returns the
/// sum of body's results, an exact integer reduction, so the total does not
/// depend on the schedule. thread_done(work) runs once per thread, inside
/// the region, with that thread's tally.
template <class Body, class ThreadDone = void (*)(const WedgeWork&)>
count_t expand_wedges_parallel(
    std::int64_t items, vidx_t peers, int threads, int chunk, Body&& body,
    ThreadDone thread_done = [](const WedgeWork&) {}) {
  count_t total = 0;
  ThreadCountGuard guard(threads);
  chk::TsanOmpFence fence;

#pragma omp parallel
  {
    WedgeAccumulator acc(peers);
#pragma omp for schedule(dynamic, chunk) reduction(+ : total)
    for (std::int64_t s = 0; s < items; ++s)
      total = chk::checked_add(total, body(s, acc));
    thread_done(acc.work());
    fence.thread_done();
  }
  fence.join();
  return total;
}

}  // namespace bfc::count
