// The serving phase. Two reader clients send reads on a fixed schedule of
// kReaderHz each, in bursts of kReadBurst (a read waits for its answer
// before the next is sent); one writer publishes 64-update batches on a fixed open-loop schedule and,
// after each publish, runs the freshness probe: one query of every kind
// pinned at the new epoch. Publish and freshness are timed from the batch's
// scheduled time, so a stall shows in every later batch. The work is fixed
// in advance: both schedules and both scripts come from the generator and
// the workload table, not from how fast the host runs.
//
// Readers do not run closed-loop: their read count would follow the host
// (22k to 180k reads/s on the same code), and on a shared 4-vCPU machine
// that saturating load sets how much CPU the host takes from the writer —
// publish_p50_ms on serve moved by a third between runs. At a fixed rate the
// interference is the same in every run.
//
// Readers pin the epoch (view) the writer last announced, and the writer
// announces one once its probe has answered. Pinning the store's latest
// view instead lets readers catch the intermediate views of a 4-shard
// publish, each a fresh 110-170 ms cross pass they wait on; how many they
// catch depends on timing. So reads measure the read path (cache, futures,
// executor) and passes show in fresh_p50_ms.
//
// After the window, a sequential replay applies the same write script to
// standalone DynamicButterflyCounter, SnapshotStore and (sharded workloads
// only) ShardedSnapshotStore instances. It splits a publish into its layers
// and rebuilds every snapshot and view the readers could have pinned, so the
// sampled answers are recomputed on exactly the state they were pinned to.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "chk/validate.hpp"
#include "count/baselines.hpp"
#include "count/dynamic.hpp"
#include "count/local_counts.hpp"
#include "obs/metrics.hpp"
#include "shard/scatter_gather.hpp"
#include "shard/sharded_store.hpp"
#include "svc/snapshot_store.hpp"

namespace perfbench {

using bfc::count_t;
using bfc::vidx_t;
namespace count = bfc::count;
namespace svc = bfc::svc;
namespace shard = bfc::shard;

namespace {

// Every read is kept for verification when it is pinned to a verified
// epoch (one shard: every P-th epoch); sharded runs verify every view, so
// they keep every 8th read. Either way about 4-5k answers per run are
// recomputed, and the kept answers stay a small share of peak RSS.
constexpr std::uint64_t kSampleStride = 1;
constexpr std::uint64_t kShardedSampleStride = 8;
constexpr std::uint64_t kTraceStride = 8;  // reads traced in traced mode
constexpr std::uint64_t kReadBurst = 10;   // reads a reader sends per wake-up
constexpr int kProbeEpochs = 24;              // single-shard epochs verified
constexpr int kSingleReplayBatches = 32;      // store replay, one shard
constexpr int kCrossPassBatches = 4;          // batches whose views get a timed cross pass
constexpr auto kDepthTick = std::chrono::milliseconds(5);

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

const char* read_span(QueryKind k) {
  switch (k) {
    case QueryKind::kGlobal: return "svc.read.global";
    case QueryKind::kTipV1: return "svc.read.tip_v1";
    case QueryKind::kTipV2: return "svc.read.tip_v2";
    case QueryKind::kEdge: return "svc.read.edge";
    case QueryKind::kTop: return "svc.read.top";
  }
  return "svc.read";
}

const char* probe_span(QueryKind k) {
  switch (k) {
    case QueryKind::kGlobal: return "svc.probe.global";
    case QueryKind::kTipV1: return "svc.probe.tip_v1";
    case QueryKind::kTipV2: return "svc.probe.tip_v2";
    case QueryKind::kEdge: return "svc.probe.edge";
    case QueryKind::kTop: return "svc.probe.top";
  }
  return "svc.probe";
}

// The obs counters read at the window's boundaries.
constexpr const char* kWindowCounters[] = {
    "svc.cache_hits",  "svc.cache_misses",     "svc.tip_passes",
    "svc.cross_passes", "svc.epochs_published", "svc.queries"};

std::map<std::string, double> read_counters() {
  std::map<std::string, double> out;
  for (const char* name : kWindowCounters)
    out[name] = static_cast<double>(
        bfc::obs::Registry::instance().counter(name).value());
  return out;
}

/// Butterflies containing edge (u, v), 0 when absent — the oracle for
/// edge-support answers, written here from the definition.
count_t edge_support(const bfc::graph::BipartiteGraph& g, vidx_t u, vidx_t v) {
  if (!g.has_edge(u, v)) return 0;
  const auto nu = g.neighbors_of_v1(u);
  count_t total = 0;
  for (const vidx_t w : g.neighbors_of_v2(v)) {
    if (w == u) continue;
    const auto nw = g.neighbors_of_v1(w);
    count_t common = 0;
    auto i = nu.begin();
    auto j = nw.begin();
    while (i != nu.end() && j != nw.end()) {
      if (*i < *j) ++i;
      else if (*j < *i) ++j;
      else ++common, ++i, ++j;
    }
    total += common - 1;
  }
  return total;
}

/// The union of a view's shard graphs (each shard holds only its own rows).
bfc::graph::BipartiteGraph union_graph(const shard::ShardView& view,
                                       vidx_t n1, vidx_t n2) {
  std::vector<bfc::offset_t> row_ptr{0};
  std::vector<vidx_t> col_idx;
  for (vidx_t u = 0; u < n1; ++u) {
    for (const svc::SnapshotPtr& s : view.shards) {
      const auto row = s->graph.neighbors_of_v1(u);
      col_idx.insert(col_idx.end(), row.begin(), row.end());
    }
    row_ptr.push_back(static_cast<bfc::offset_t>(col_idx.size()));
  }
  return bfc::graph::BipartiteGraph(
      bfc::sparse::CsrPattern(n1, n2, std::move(row_ptr), std::move(col_idx)));
}

Pin pin_latest(svc::ButterflyService& s) {
  Pin p;
  if (s.shard_count() == 1) {
    p.snap = s.store().current();
    p.key = p.snap->epoch;
  } else {
    p.view = s.view();
    p.key = p.view->signature;
  }
  return p;
}

svc::Request request(const Pin& p) {
  return p.view ? svc::Request(p.view) : svc::Request(p.snap);
}

// One query, answered and unwrapped; `exact` is false for any degraded
// fidelity.
struct Answer {
  count_t value = 0;
  svc::TopPairsPtr pairs;
  bool exact = true;
};

struct Pending {
  std::future<svc::QueryResult<count_t>> scalar;
  std::future<svc::QueryResult<svc::TopPairsPtr>> top;
};

Pending submit(svc::ButterflyService& s, const Query& q, const Pin& p) {
  Pending f;
  switch (q.kind) {
    case QueryKind::kGlobal: f.scalar = s.global_count(request(p)); break;
    case QueryKind::kTipV1:
      f.scalar = s.vertex_tip_v1(static_cast<vidx_t>(q.a), request(p));
      break;
    case QueryKind::kTipV2:
      f.scalar = s.vertex_tip_v2(static_cast<vidx_t>(q.a), request(p));
      break;
    case QueryKind::kEdge:
      f.scalar = s.edge_support(static_cast<vidx_t>(q.a),
                                static_cast<vidx_t>(q.b), request(p));
      break;
    case QueryKind::kTop: f.top = s.top_pairs(q.a, request(p)); break;
  }
  return f;
}

Answer collect(Pending& f) {
  Answer a;
  if (f.top.valid()) {
    auto r = f.top.get();
    a.pairs = std::move(r.value);
    a.exact = !r.degraded();
  } else {
    const auto r = f.scalar.get();
    a.value = r.value;
    a.exact = !r.degraded();
  }
  return a;
}

/// Spins until the answer is ready, then unwraps it (see ServingPhase::writer).
Answer poll(Pending& f) {
  const auto ready = [](const auto& fut) {
    return fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  };
  while (f.top.valid() ? !ready(f.top) : !ready(f.scalar)) cpu_relax();
  return collect(f);
}

Sample make_sample(const Query& q, const Answer& a, std::uint64_t pin) {
  Sample s;
  s.kind = q.kind;
  s.a = q.a;
  s.b = q.b;
  s.value = a.value;
  if (a.pairs) s.pairs = *a.pairs;
  s.pin = pin;
  return s;
}

}  // namespace

struct ServingPhase::ReaderOut {
  LatencyHistogram all, kinds[kKinds], lateness;
  std::vector<std::uint64_t> slot_reads;
  std::vector<LatencyHistogram> slot_hist;
  std::vector<Sample> samples;
  Tally tally;
  std::uint64_t reads = 0, scheduled = 0;
};

struct ServingPhase::WriterOut {
  std::vector<double> publish_ms, fresh_ms, lateness_ms, queue_depth;
  std::vector<Sample> samples;
  Tally tally;
  int in_window = 0;
};

ServingPhase::ServingPhase(const Inputs& in, const WorkloadSpec& w,
                           double window_s, Tracer& tracer,
                           SpanBuffer& main_buf, bool plant_wrong)
    : in_(in),
      w_(w),
      window_s_(window_s),
      tracer_(tracer),
      buf_(main_buf),
      plant_wrong_(plant_wrong) {
  const GraphInput& g = in.graphs[in.serve_graph];
  n1_ = static_cast<vidx_t>(g.n1);
  n2_ = static_cast<vidx_t>(g.n2);
  for (const auto& [u, v] : g.edges)
    initial_.push_back(svc::EdgeUpdate::add(static_cast<vidx_t>(u),
                                            static_cast<vidx_t>(v)));
  for (const auto& b : in.batches) {
    std::vector<svc::EdgeUpdate> batch;
    for (const Update& up : b)
      batch.push_back({static_cast<vidx_t>(up.u), static_cast<vidx_t>(up.v),
                       up.insert != 0});
    batches_.push_back(std::move(batch));
  }
  const int nb = static_cast<int>(batches_.size());
  probe_period_ = std::max(1, (nb + kProbeEpochs - 1) / kProbeEpochs);
}

ServingPhase::~ServingPhase() = default;

bool ServingPhase::keep_epoch(std::uint64_t epoch) const {
  // Epoch 1 is the bulk load, epoch b + 2 follows batch b.
  return w_.shards > 1 ||
         (epoch >= 1 && (epoch - 1) % static_cast<std::uint64_t>(probe_period_) == 0);
}

double ServingPhase::setup(std::uint64_t rep, Tally& tally) {
  svc_.reset();
  samples_.clear();
  Span all(buf_, "setup.service", rep);
  svc::ServiceOptions opt;
  opt.threads = 2;
  opt.shards = w_.shards;
  {
    Span s(buf_, "svc.ButterflyService", rep, all.id());
    svc_ = std::make_unique<svc::ButterflyService>(n1_, n2_, opt);
  }
  svc::PublishResult loaded;
  {
    Span s(buf_, "svc.apply_updates", rep, all.id());
    loaded = svc_->apply_updates(initial_);
  }
  const Pin pin = pin_latest(*svc_);
  const auto& e0 = in_.graphs[in_.serve_graph].edges.front();
  const Query warm[] = {{QueryKind::kGlobal, 0, 0},
                        {QueryKind::kTipV1, 0, 0},
                        {QueryKind::kTipV2, 0, 0},
                        {QueryKind::kEdge, e0.first, e0.second},
                        {QueryKind::kTop, static_cast<std::uint32_t>(kTopK), 0}};
  std::vector<Answer> answers;
  for (const Query& q : warm) {
    Span s(buf_, "svc.warm_query", rep, all.id());
    Pending f = submit(*svc_, q, pin);
    answers.push_back(collect(f));
  }
  const double ms = all.stop();
  announced_.store(std::make_shared<const Pin>(pin));
  tally.record(loaded.applied == static_cast<bfc::offset_t>(initial_.size()),
               "bulk load did not apply every edge");
  for (std::size_t i = 0; i < answers.size(); ++i) {
    tally.record(answers[i].exact, "warm query not exact");
    samples_.push_back(make_sample(warm[i], answers[i], pin.key));
  }
  return ms;
}

void ServingPhase::reader(int r, SpanBuffer& buf, ReaderOut& out,
                          Clock::time_point start, Clock::time_point end) {
  const std::size_t last_slot = out.slot_reads.size() - 1;
  const std::vector<Query>& script = in_.readers[static_cast<std::size_t>(r)];
  const std::uint64_t stride = w_.shards > 1 ? kShardedSampleStride : kSampleStride;
  svc::ButterflyService& s = *svc_;
  // Reads go out in bursts of kReadBurst, burst j due at
  // start + (j + r / kReaders) * kReadBurst / kReaderHz. A late reader
  // catches up without sleeping, so every scheduled read is made.
  for (std::uint64_t i = 0;; ++i) {
    const double burst = static_cast<double>(i / kReadBurst) + static_cast<double>(r) / kReaders;
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(burst * kReadBurst / kReaderHz));
    if (due >= end) {
      out.scheduled = i;
      break;
    }
    std::this_thread::sleep_until(due);
    const Query& q = script[i % script.size()];
    try {
      const std::shared_ptr<const Pin> pinned = announced_.load();
      const Pin& pin = *pinned;
      const Clock::time_point t0 = Clock::now();
      out.lateness.add_ns(std::chrono::duration_cast<std::chrono::nanoseconds>(t0 - due).count());
      Pending f = submit(s, q, pin);
      const Answer a = collect(f);
      const Clock::time_point t1 = Clock::now();
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
      out.all.add_ns(ns);
      out.kinds[static_cast<int>(q.kind)].add_ns(ns);
      ++out.reads;
      const auto slot = std::min(
          last_slot, static_cast<std::size_t>(
                         std::chrono::duration_cast<std::chrono::seconds>(t1 - start).count()));
      ++out.slot_reads[slot];
      out.slot_hist[slot].add_ns(ns);
      if (a.exact) out.tally.ok();
      else out.tally.fail(std::string("read not exact: ") + kind_label(q.kind));
      if (buf.on() && i % kTraceStride == 0)
        buf.push({read_span(q.kind), (static_cast<std::uint64_t>(r) << 40) | i,
                  buf.next_id(), 0, t0, t1});
      if (i % stride == 0 && keep_epoch(pin.key))
        out.samples.push_back(make_sample(q, a, pin.key));
    } catch (const std::exception& e) {
      out.tally.fail(std::string("read threw: ") + e.what());
    }
  }
}

void ServingPhase::writer(SpanBuffer& buf, WriterOut& out,
                          Clock::time_point start, Clock::time_point end) {
  svc::ButterflyService& s = *svc_;
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / w_.writer_hz));
  // The writer waits for its next batch and for its probe's answers by
  // polling, not by sleeping. On a shared virtual machine a vCPU that halts
  // waits for the host when it wakes; with a sleeping writer that wait landed
  // in the publish (publish_p50_ms on serve read 35-40 ms sleeping against
  // 29-31 ms polling, in interleaved runs while the host took 4-5.6 s of CPU
  // per window). Polling keeps one vCPU busy through the window.
  const auto wait_until = [&](Clock::time_point t) {
    Clock::time_point sample = Clock::now();
    for (Clock::time_point now = sample; now < t; now = Clock::now()) {
      if (now >= sample) {
        out.queue_depth.push_back(static_cast<double>(s.queue_depth()));
        sample = now + kDepthTick;
      }
      cpu_relax();
    }
  };
  for (std::size_t b = 0; b < batches_.size(); ++b) {
    const Clock::time_point due = start + static_cast<long>(b) * period;
    wait_until(due);
    Span batch(buf, "writer.batch", b);
    out.lateness_ms.push_back(ms_between(due, Clock::now()));
    try {
      svc::PublishResult res;
      {
        Span pub(buf, "svc.apply_updates", b, batch.id());
        res = s.apply_updates(batches_[b]);
      }
      const Clock::time_point published = Clock::now();
      out.publish_ms.push_back(ms_between(due, published));
      if (published <= end) ++out.in_window;
      out.tally.record(res.applied == kBatchSize && res.ignored == 0,
                       "batch " + std::to_string(b) + " did not apply every update");

      // Freshness probe: every kind, pinned at the new epoch, keyed by the
      // batch's first insert.
      const Pin pin = pin_latest(s);
      if (w_.shards == 1)
        out.tally.record(pin.key == b + 2, "probe pinned the wrong epoch");
      const svc::EdgeUpdate& first = batches_[b].front();
      const auto u = static_cast<std::uint32_t>(first.u);
      const auto v = static_cast<std::uint32_t>(first.v);
      const Query probe[] = {{QueryKind::kGlobal, 0, 0},
                             {QueryKind::kTipV1, u, 0},
                             {QueryKind::kTipV2, v, 0},
                             {QueryKind::kEdge, u, v},
                             {QueryKind::kTop, static_cast<std::uint32_t>(kTopK), 0}};
      Span probing(buf, "svc.probe", b, batch.id());
      Pending pending[kKinds];
      for (int k = 0; k < kKinds; ++k) pending[k] = submit(s, probe[k], pin);
      Answer answers[kKinds];
      for (int k = 0; k < kKinds; ++k) {
        Span one(buf, probe_span(probe[k].kind), b, probing.id());
        answers[k] = poll(pending[k]);
      }
      probing.stop();
      out.fresh_ms.push_back(ms_between(due, Clock::now()));
      announced_.store(std::make_shared<const Pin>(pin));
      for (int k = 0; k < kKinds; ++k) {
        out.tally.record(answers[k].exact, "probe answer not exact");
        if (keep_epoch(pin.key))
          out.samples.push_back(make_sample(probe[k], answers[k], pin.key));
      }
    } catch (const std::exception& e) {
      out.tally.fail("batch " + std::to_string(b) + " threw: " + e.what());
    }
  }
  wait_until(end);
}

void ServingPhase::run(Tally& tally) {
  ReaderOut readers[kReaders];
  WriterOut wout;
  SpanBuffer* reader_buf[kReaders];
  for (auto& b : reader_buf) b = &tracer_.buffer();
  SpanBuffer& writer_buf = tracer_.buffer();
  const auto slots = static_cast<std::size_t>(std::max(1.0, std::ceil(window_s_)));
  for (ReaderOut& r : readers) {
    r.slot_reads.assign(slots, 0);
    r.slot_hist.resize(slots);
  }
  slot_reads_.assign(slots, 0);
  slot_hist_.resize(slots);
  const auto before = read_counters();
  const double steal_before = steal_ms();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(window_s_));
  {
    std::vector<std::jthread> threads;
    for (int r = 0; r < kReaders; ++r)
      threads.emplace_back([this, r, &reader_buf, &readers, start, end] {
        reader(r, *reader_buf[r], readers[r], start, end);
      });
    threads.emplace_back([this, &writer_buf, &wout, start, end] {
      writer(writer_buf, wout, start, end);
    });
  }
  window_ms_ = ms_between(start, Clock::now());
  steal_ms_ = steal_ms() - steal_before;
  const auto after = read_counters();
  for (const auto& [name, v] : after) counters_[name] = v - before.at(name);

  for (ReaderOut& r : readers) {
    all_.merge(r.all);
    for (int k = 0; k < kKinds; ++k) per_kind_[k].merge(r.kinds[k]);
    reads_ += r.reads;
    reads_scheduled_ += r.scheduled;
    reader_lateness_.merge(r.lateness);
    for (std::size_t k = 0; k < slots; ++k) {
      slot_reads_[k] += r.slot_reads[k];
      slot_hist_[k].merge(r.slot_hist[k]);
    }
    tally.merge(r.tally);
    for (Sample& s : r.samples) samples_.push_back(std::move(s));
  }
  publish_ms_ = std::move(wout.publish_ms);
  fresh_ms_ = std::move(wout.fresh_ms);
  lateness_ms_ = std::move(wout.lateness_ms);
  queue_depth_ = std::move(wout.queue_depth);
  published_in_window_ = wout.in_window;
  tally.merge(wout.tally);
  for (Sample& s : wout.samples) samples_.push_back(std::move(s));
}

void ServingPhase::finish(Tally& tally) {
  try {
    const count_t maintained = svc_->global_count().get().value;
    const svc::SnapshotPtr snap =
        w_.shards == 1 ? svc_->store().current() : svc_->snapshot();
    const count_t recount = count::wedge_reference(snap->graph);
    tally.record(maintained == recount && snap->butterflies == recount,
                 "maintained Xi " + std::to_string(maintained) +
                     " != recount " + std::to_string(recount));
    final_xi_ = recount;
  } catch (const std::exception& e) {
    tally.fail(std::string("final recount threw: ") + e.what());
  }
  svc_.reset();
}

void ServingPhase::verify(const std::vector<const Sample*>& samples,
                          const bfc::graph::BipartiteGraph& g,
                          const std::vector<count_t>& tips1,
                          const std::vector<count_t>& tips2,
                          const std::vector<count::VertexPair>& top,
                          Tally& tally) {
  const count_t xi = count::wedge_reference(g);
  if (std::accumulate(tips1.begin(), tips1.end(), count_t{0}) != 2 * xi)
    tally.flag("replay tips disagree with wedge_reference");
  for (const Sample* s : samples) {
    bool ok = true;
    switch (s->kind) {
      case QueryKind::kGlobal: ok = s->value == xi; break;
      case QueryKind::kTipV1: ok = s->value == tips1[s->a]; break;
      case QueryKind::kTipV2: ok = s->value == tips2[s->a]; break;
      case QueryKind::kEdge:
        ok = s->value == edge_support(g, static_cast<vidx_t>(s->a),
                                      static_cast<vidx_t>(s->b));
        break;
      case QueryKind::kTop: ok = s->pairs == top; break;
    }
    ++samples_verified_;
    if (!ok)
      tally.flag(std::string("wrong ") + kind_label(s->kind) + " answer at pin " +
                 std::to_string(s->pin));
  }
}

void ServingPhase::replay(Tally& tally) {
  if (plant_wrong_) {
    for (Sample& s : samples_)
      if (s.kind != QueryKind::kTop) {
        ++s.value;  // the planted wrong answer the self-test expects to count
        break;
      }
  }
  std::unordered_map<std::uint64_t, std::vector<const Sample*>> by_pin;
  for (const Sample& s : samples_) by_pin[s.pin].push_back(&s);
  const std::vector<const Sample*> none;
  const auto samples_at = [&](std::uint64_t pin) -> const std::vector<const Sample*>& {
    const auto it = by_pin.find(pin);
    return it == by_pin.end() ? none : it->second;
  };
  const auto timed = [&](const char* key, const char* span, std::uint64_t op,
                         std::uint64_t parent, auto&& fn) {
    Span s(buf_, span, op, parent);
    fn();
    replay_ms_[key].push_back(s.stop());
  };
  const int nb = static_cast<int>(batches_.size());
  const bool sharded = w_.shards > 1;

  // 1. The counter alone: apply, then — on the verified epochs — the
  //    publish split (to_graph = concatenation + validation + transpose)
  //    and the per-epoch passes.
  count::DynamicButterflyCounter dc(n1_, n2_);
  for (const svc::EdgeUpdate& up : initial_) dc.insert(up.u, up.v);
  const auto epoch_passes = [&](std::uint64_t epoch, std::uint64_t parent) {
    bfc::graph::BipartiteGraph g;
    std::vector<count_t> tips1, tips2;
    std::vector<count::VertexPair> top;
    timed("count.to_graph_ms", "count.DynamicButterflyCounter.to_graph", epoch,
          parent, [&] { g = dc.to_graph(); });
    const bfc::sparse::CsrPattern& a = g.csr();
    timed("sparse.validate_ms", "chk.validate_csr_arrays", epoch, parent, [&] {
      bfc::chk::validate_csr_arrays(a.rows(), a.cols(), a.row_ptr(), a.col_idx());
    });
    timed("sparse.transpose_ms", "sparse.CsrPattern.transpose", epoch, parent,
          [&] { static_cast<void>(a.transpose()); });
    timed("count.tip_v1_ms", "count.butterflies_per_v1", epoch, parent,
          [&] { tips1 = count::butterflies_per_v1(g); });
    timed("count.tip_v2_ms", "count.butterflies_per_v2", epoch, parent,
          [&] { tips2 = count::butterflies_per_v2(g); });
    timed("count.top_pairs_ms", "count.top_wedge_pairs_v1", epoch, parent,
          [&] { top = count::top_wedge_pairs_v1(g, kTopK); });
    if (!sharded) verify(samples_at(epoch), g, tips1, tips2, top, tally);
  };
  epoch_passes(1, 0);
  for (int b = 0; b < nb; ++b) {
    Span batch(buf_, "replay.batch", static_cast<std::uint64_t>(b));
    timed("count.apply_ms", "count.DynamicButterflyCounter.apply",
          static_cast<std::uint64_t>(b), batch.id(), [&] {
            for (const svc::EdgeUpdate& up : batches_[static_cast<std::size_t>(b)])
              up.insert ? dc.insert(up.u, up.v) : dc.remove(up.u, up.v);
          });
    const auto epoch = static_cast<std::uint64_t>(b) + 2;
    if (keep_epoch(epoch) || sharded) epoch_passes(epoch, batch.id());
  }
  tally.record(dc.butterflies() == final_xi_,
               "counter replay Xi " + std::to_string(dc.butterflies()) +
                   " != service Xi " + std::to_string(final_xi_));

  // 2. One SnapshotStore: the single-shard publish, and for sharded
  //    workloads the single-shard replay the final Xi must match.
  const int store_batches = sharded ? nb : std::min(nb, kSingleReplayBatches);
  {
    svc::SnapshotStore store(n1_, n2_);
    store.apply_batch(initial_);
    for (int b = 0; b < store_batches; ++b)
      timed("svc.store_publish_ms", "svc.SnapshotStore.apply_batch",
            static_cast<std::uint64_t>(b), 0,
            [&] { store.apply_batch(batches_[static_cast<std::size_t>(b)]); });
    if (store_batches == nb)
      tally.record(store.current()->butterflies == final_xi_,
                   "single-shard replay Xi != service Xi");
  }

  // 3. Sharded workloads only (one shard has no shard layer): the sharded
  //    store's publish, and every intermediate view a reader could pin
  //    between shard publishes.
  if (!sharded) return;
  shard::ShardedSnapshotStore store(n1_, n2_, w_.shards);
  store.apply_batch(initial_);
  std::vector<svc::SnapshotPtr> cur;
  for (int k = 0; k < w_.shards; ++k) cur.push_back(store.shard_snapshot(k));
  const auto visit_view = [&](int b, std::uint64_t parent) {
    shard::ShardView view;
    view.shards = cur;
    view.signature = shard::ShardView::signature_of(cur);
    if (b >= 0 && b < kCrossPassBatches) {
      shard::CrossAggregate agg;
      timed("shard.cross_pass_ms", "shard.ScatterGather.compute",
            static_cast<std::uint64_t>(b), parent,
            [&] { agg = shard::ScatterGather::compute(view); });
      cross_pairs_.push_back(static_cast<double>(agg.pairs.size()));
    }
    const auto& at = samples_at(view.signature);
    if (at.empty()) return;
    const auto g = union_graph(view, n1_, n2_);
    verify(at, g, count::butterflies_per_v1(g), count::butterflies_per_v2(g),
           count::top_wedge_pairs_v1(g, kTopK), tally);
  };
  visit_view(-1, 0);
  for (int b = 0; b < nb; ++b) {
    Span batch(buf_, "replay.shard_batch", static_cast<std::uint64_t>(b));
    timed("shard.publish_ms", "shard.ShardedSnapshotStore.apply_batch",
          static_cast<std::uint64_t>(b), batch.id(),
          [&] { store.apply_batch(batches_[static_cast<std::size_t>(b)]); });
    for (int k = 0; k < w_.shards; ++k) {
      svc::SnapshotPtr post = store.shard_snapshot(k);
      if (post->epoch == cur[static_cast<std::size_t>(k)]->epoch) continue;
      cur[static_cast<std::size_t>(k)] = std::move(post);
      visit_view(b, batch.id());
    }
  }
}

void ServingPhase::report(Record& rec) const {
  auto& m = rec.metrics;
  auto& h = rec.health;
  // qps and the read percentiles are medians over the window's one-second
  // slots, so host contention covering fewer than half of them moves
  // nothing; the whole-window values are kept in the health record.
  std::vector<double> slot_qps, slot_p50, slot_p99;
  for (std::size_t k = 0; k < slot_reads_.size(); ++k) {
    slot_qps.push_back(static_cast<double>(slot_reads_[k]));
    for (auto [q, out] : {std::pair{0.50, &slot_p50}, std::pair{0.99, &slot_p99}})
      if (const double v = slot_hist_[k].quantile_us(q); std::isfinite(v)) out->push_back(v);
  }
  m["qps"] = median(slot_qps);
  m["query_p50_us"] = median(slot_p50);
  m["query_p99_us"] = median(slot_p99);
  h["qps_window"] = static_cast<double>(reads_) / (window_ms_ / 1e3);
  h["query_p50_window_us"] = all_.quantile_us(0.50);
  h["query_p99_window_us"] = all_.quantile_us(0.99);
  h["slots"] = static_cast<double>(slot_reads_.size());
  h["steal_ms.serving"] = steal_ms_;
  m["publish_p50_ms"] = percentile(publish_ms_, 0.50);
  m["fresh_p50_ms"] = percentile(fresh_ms_, 0.50);

  LatencyHistogram tip = per_kind_[static_cast<int>(QueryKind::kTipV1)];
  tip.merge(per_kind_[static_cast<int>(QueryKind::kTipV2)]);
  const std::pair<const char*, const LatencyHistogram*> kinds[] = {
      {"tip", &tip},
      {"global", &per_kind_[static_cast<int>(QueryKind::kGlobal)]},
      {"edge", &per_kind_[static_cast<int>(QueryKind::kEdge)]},
      {"top", &per_kind_[static_cast<int>(QueryKind::kTop)]}};
  for (const auto& [name, hist] : kinds) {
    m[std::string("svc.") + name + "_p50_us"] = hist->quantile_us(0.50);
    m[std::string("svc.") + name + "_p99_us"] = hist->quantile_us(0.99);
    h[std::string("samples.") + name] = static_cast<double>(hist->count());
  }
  const double hits = counters_.at("svc.cache_hits");
  const double misses = counters_.at("svc.cache_misses");
  m["svc.cache_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  m["svc.queue_depth_mean"] = mean(queue_depth_);
  const double epochs = counters_.at("svc.epochs_published");
  m["svc.tip_passes_per_epoch"] =
      epochs > 0 ? counters_.at("svc.tip_passes") / epochs : kUnsupported;
  for (const auto& [key, v] : replay_ms_) m["replay." + key] = median(v);
  // The shard layer's metrics exist only where it works (shards > 1).
  if (w_.shards > 1) {
    m["shard.cross_passes_per_batch"] =
        counters_.at("svc.cross_passes") / static_cast<double>(batches_.size());
    m["shard.cross_pairs"] = median(cross_pairs_);
  }

  h["window_s"] = window_ms_ / 1e3;
  h["reads"] = static_cast<double>(reads_);
  h["reads_scheduled"] = static_cast<double>(reads_scheduled_);
  h["reader_lateness_p50_ms"] = reader_lateness_.quantile_us(0.50) / 1e3;
  h["reader_lateness_p99_ms"] = reader_lateness_.quantile_us(0.99) / 1e3;
  h["samples.query"] = static_cast<double>(all_.count());
  h["samples.publish"] = static_cast<double>(publish_ms_.size());
  h["samples.fresh"] = static_cast<double>(fresh_ms_.size());
  h["samples.queue_depth"] = static_cast<double>(queue_depth_.size());
  h["publishes_scheduled"] = static_cast<double>(batches_.size());
  h["publishes_done_in_window"] = published_in_window_;
  h["writer_lateness_p50_ms"] = median(lateness_ms_);
  h["writer_lateness_max_ms"] =
      lateness_ms_.empty() ? kUnsupported
                           : *std::max_element(lateness_ms_.begin(), lateness_ms_.end());
  h["publish_p95_ms"] = percentile(publish_ms_, 0.95);
  h["fresh_p95_ms"] = percentile(fresh_ms_, 0.95);
  h["query_p999_us"] = all_.quantile_us(0.999);
  h["svc.tip_passes"] = counters_.at("svc.tip_passes");
  h["svc.epochs_published"] = epochs;
  h["svc.cross_passes"] = counters_.at("svc.cross_passes");
  h["samples_verified"] = static_cast<double>(samples_verified_);
  h["samples_kept"] = static_cast<double>(samples_.size());
  h["shards"] = w_.shards;
}

}  // namespace perfbench
