// lacbench: one benchmark for the LAC stack.
//
//   lacbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out-dir <dir>] [--digest-only]
//   lacbench --self-test
//
// Each run sets the stack up 41 to 201 times (setup_s is the median), checks a
// verification round against residuals the benchmark computes itself, then
// drives a closed loop -- a fixed window of jobs in flight -- over whole
// rounds of the workload for --seconds. With --trace 0 it prints the
// end-to-end metrics; with --trace 1 it splits the time into an untraced
// half (counters, allocations, the tracing-overhead baseline), a traced
// half (a timing decorator on the fabric::Executor interface plus an
// obs::TraceSession, giving waits, occupancy and per-job closure) and a
// single-threaded pass timing each layer's public entry point. The last
// stdout line is the result object {correct, attempted, failed, metrics}.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <latch>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "alloc_count.hpp"
#include "arch/presets.hpp"
#include "checks.hpp"
#include "common/mutex.hpp"
#include "common/thread_pool.hpp"
#include "fabric/kernel_registry.hpp"
#include "fabric/model_executor.hpp"
#include "fabric/serving.hpp"
#include "fabric/sim_executor.hpp"
#include "meta.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sched/graph_builders.hpp"
#include "sched/graph_scheduler.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace lacbench {
namespace {

using lac::fabric::KernelRequest;
using lac::fabric::KernelResult;

std::uint64_t now_ns() { return lac::obs::metrics_now_ns(); }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// CPU time of the calling thread. Time the thread spends off its CPU --
/// preempted, or stolen by the hypervisor under paravirtual steal
/// accounting -- does not count.
std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- per-job records --------------------------------------------------------

/// One job in flight, one per window slot. The submitter writes the submit
/// stamps before handing the job over; the completion hook (a worker thread)
/// writes end_ns; the timing decorator of the traced phase charges backend
/// service to it.
struct LiveJob {
  std::uint64_t submit_ns = 0;     ///< before the submit call
  std::uint64_t submitted_ns = 0;  ///< after the submit call returned
  std::atomic<std::uint64_t> end_ns{0};
  std::atomic<std::uint64_t> first_start_ns{std::numeric_limits<std::uint64_t>::max()};
  std::atomic<std::uint64_t> service_ns{0};
  /// Traced requests: CPU time the worker spent outside the backend call
  /// since its previous job's hook (-1: not measured, as for graphs).
  std::atomic<std::int64_t> program_cpu_ns{-1};
  std::uint64_t root_span = 0;  ///< traced: the bench submit span
  bool traced = false;          ///< the job runs in the traced phase
  std::uint32_t item = 0;       ///< distinct request / graph input index
  std::uint32_t slot = 0;       ///< window slot the job occupies
  std::size_t block = 0;        ///< block of rounds the job belongs to
};

/// A completed job of the traced phase, kept whole for the closure analysis.
struct DoneJob {
  std::uint64_t submit_ns, submitted_ns, end_ns, first_start_ns, service_ns, root_span;
  std::int64_t program_cpu_ns;
  std::uint32_t item;
};

/// Free window slots: completion hooks return a slot, the submitter takes
/// one before each submit (so exactly `window` jobs are ever in flight).
class Window {
 public:
  explicit Window(std::size_t n) {
    lac::MutexLock lock(mu_);
    free_.reserve(n);
    for (std::size_t i = n; i > 0; --i) free_.push_back(static_cast<std::uint32_t>(i - 1));
  }
  void release(std::uint32_t slot) {
    {
      lac::MutexLock lock(mu_);
      free_.push_back(slot);
    }
    cv_.notify_one();
  }
  std::uint32_t acquire() {
    lac::MutexLock lock(mu_);
    cv_.wait(mu_, [this]() LAC_REQUIRES(mu_) { return !free_.empty(); });
    const std::uint32_t s = free_.back();
    free_.pop_back();
    return s;
  }

 private:
  lac::Mutex mu_;
  lac::CondVar cv_;
  std::vector<std::uint32_t> free_ LAC_GUARDED_BY(mu_);
};

// ---- timing decorator ---------------------------------------------------------

/// Last backend call of this thread; the request-workload completion hook
/// runs on the same worker right after the call and reads it.
thread_local std::uint64_t t_call_start = 0;
thread_local std::uint64_t t_call_end = 0;
thread_local std::uint64_t t_call_cpu = 0;
/// Traced phase: this thread's CPU time when its last completion hook (or
/// the phase's warm-up task) ended.
thread_local std::uint64_t t_hook_cpu = 0;

/// fabric::Executor decorator used by the traced phase: stamps each backend
/// call, records a `bench.backend` span around it and, for graph nodes
/// (tag "#<window slot>"), charges the call to its graph job.
class TimingExecutor final : public lac::fabric::Executor {
 public:
  TimingExecutor(const lac::fabric::Executor& inner, std::vector<LiveJob>* graph_jobs)
      : inner_(inner), graph_jobs_(graph_jobs) {}
  const char* name() const override { return inner_.name(); }

  KernelResult execute(const KernelRequest& req) const override {
    LiveJob* job = nullptr;
    if (graph_jobs_ && req.tag.size() > 1 && req.tag[0] == '#')
      job = &(*graph_jobs_)[std::stoul(req.tag.substr(1))];
    const std::uint64_t parent = job ? job->root_span : lac::obs::Span::current_id();
    KernelResult res;
    std::uint64_t start = 0, end = 0, cpu = 0;
    {
      lac::obs::Span span("bench.backend", "bench", parent);
      cpu = thread_cpu_ns();
      start = now_ns();
      res = inner_.execute(req);
      end = now_ns();
      cpu = thread_cpu_ns() - cpu;
      span.set_cycles(res.cycles);
    }
    t_call_start = start;
    t_call_end = end;
    t_call_cpu = cpu;
    busy_ns_.fetch_add(end - start, std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
    if (job) {
      std::uint64_t cur = job->first_start_ns.load(std::memory_order_relaxed);
      while (start < cur &&
             !job->first_start_ns.compare_exchange_weak(cur, start, std::memory_order_relaxed)) {
      }
      job->service_ns.fetch_add(end - start, std::memory_order_relaxed);
    }
    return res;
  }

  std::uint64_t busy_ns() const { return busy_ns_.load(); }
  std::uint64_t calls() const { return calls_.load(); }

 private:
  const lac::fabric::Executor& inner_;
  std::vector<LiveJob>* graph_jobs_;
  mutable std::atomic<std::uint64_t> busy_ns_{0};
  mutable std::atomic<std::uint64_t> calls_{0};
};

/// Executor wrapper of the graph workload's verification re-run: hands every
/// node's request and result to `check` as the node completes (one at a
/// time), so the round's node results are never held at once.
class CheckingExecutor final : public lac::fabric::Executor {
 public:
  using Check = std::function<void(const KernelRequest&, const KernelResult&)>;
  CheckingExecutor(const lac::fabric::Executor& inner, Check check)
      : inner_(inner), check_(std::move(check)) {}
  const char* name() const override { return inner_.name(); }
  KernelResult execute(const KernelRequest& req) const override {
    KernelResult res = inner_.execute(req);
    lac::MutexLock lock(mu_);
    check_(req, res);
    return res;
  }

 private:
  const lac::fabric::Executor& inner_;
  Check check_;
  mutable lac::Mutex mu_;
};

/// Up to kPerKind requests of each kind, evenly strided over the stream of
/// checked requests: keeps every stride-th request of a kind and, when
/// 2 x kPerKind are kept, drops every other one and doubles the stride.
class ProbeSample {
 public:
  static constexpr std::size_t kPerKind = 24;
  void offer(const KernelRequest& req) {
    Lane& lane = lanes_[req.kind];
    if (lane.seen++ % lane.stride != 0) return;
    lane.kept.push_back(req);
    if (lane.kept.size() < 2 * kPerKind) return;
    for (std::size_t i = 0; i < kPerKind; ++i) lane.kept[i] = std::move(lane.kept[2 * i]);
    lane.kept.resize(kPerKind);
    lane.stride *= 2;
  }
  /// The sample, in registry kind order; a kind never offered is probed
  /// with its registry sample request.
  std::vector<KernelRequest> take() {
    std::vector<KernelRequest> out;
    for (lac::fabric::KernelKind kind : lac::fabric::registered_kernel_kinds()) {
      const auto it = lanes_.find(kind);
      if (it == lanes_.end()) {
        out.push_back(lac::fabric::kernel_traits(kind).sample_request(7));
        continue;
      }
      std::vector<KernelRequest>& kept = it->second.kept;
      const std::size_t n = kept.size();
      const std::size_t take = std::min(n, kPerKind);
      for (std::size_t k = 0; k < take; ++k) out.push_back(std::move(kept[k * n / take]));
    }
    return out;
  }

 private:
  struct Lane {
    std::size_t seen = 0;
    std::size_t stride = 1;
    std::vector<KernelRequest> kept;
  };
  std::map<lac::fabric::KernelKind, Lane> lanes_;
};

// ---- the stack a run sets up ------------------------------------------------

/// The verified outcome of one graph input (what every later run of the same
/// graph must reproduce byte for byte). The per-node results are summed and
/// dropped, so the reference holds no more than the figures it is compared by.
struct GraphRef {
  lac::MatrixD work;
  std::vector<lac::index_t> pivots;
  std::vector<double> taus;
  lac::sched::GraphResult result;  ///< with `nodes` emptied
  lac::sim::Stats stats;           ///< summed over the graph's nodes
  double mac_cycles = 0.0;         ///< sum of utilization x cycles over the nodes
};

struct Stack {
  Workload wl;
  std::unique_ptr<lac::ThreadPool> pool;
  lac::fabric::SimExecutor sim;
  lac::fabric::CostCache cache;
  std::unique_ptr<lac::fabric::ModelExecutor> model;
  const lac::fabric::Executor* backend = nullptr;
  std::unique_ptr<lac::fabric::AsyncExecutor> async;
  std::unique_ptr<lac::sched::GraphScheduler> sched;
  std::vector<KernelResult> ref;  ///< per distinct request (warm-up round)
  std::vector<GraphRef> gref;     ///< per graph input (warm-up round)
};

/// Half the CPUs (at least one): with the submitting thread the loop stays
/// within nproc, and on a virtualised host a spare CPU keeps a neighbour's
/// burst from stalling the whole loop (at nproc - 1 workers the run-to-run
/// spread of jobs_per_s was four times wider on a 4-vCPU VM).
unsigned pool_workers() { return std::max(1u, online_cpus() / 2); }

lac::sched::SchedulerOptions sched_options() {
  lac::sched::SchedulerOptions o;
  o.workers = kSchedWidth;
  o.queue_capacity = 64;
  return o;
}

lac::sched::FactorGraph build_graph(const GraphInput& g) {
  const lac::arch::CoreConfig cfg = lac::arch::lac_4x4_dp();
  constexpr double bw = 2.0;
  if (g.kind == "chol") return lac::sched::build_cholesky_graph(cfg, bw, g.a->view(), g.block);
  if (g.kind == "lu") return lac::sched::build_lu_graph(cfg, bw, g.a->view(), g.block);
  return lac::sched::build_qr_graph(cfg, bw, g.a->view(), g.block);
}

GraphRef graph_ref(const lac::sched::FactorGraph& fg, lac::sched::GraphResult gr) {
  GraphRef r;
  r.work = *fg.work;
  if (fg.pivots) r.pivots = *fg.pivots;
  if (fg.taus) r.taus = *fg.taus;
  for (const KernelResult& n : gr.nodes) {
    r.stats += n.stats;
    r.mac_cycles += n.utilization * n.cycles.value();
  }
  gr.nodes.clear();
  gr.nodes.shrink_to_fit();
  r.result = std::move(gr);
  return r;
}

/// Operand generation, pool/executor/scheduler construction and one warm-up
/// round (which fills Rank1Plan, SimArena and -- for repeat traffic -- the
/// CostCache, and yields the reference results).
std::unique_ptr<Stack> set_up(const std::string& name, std::uint64_t seed) {
  auto st = std::make_unique<Stack>();
  st->wl = make_workload(name, seed);
  const Workload& wl = st->wl;
  st->pool = std::make_unique<lac::ThreadPool>(pool_workers());
  if (!wl.sim) st->model = std::make_unique<lac::fabric::ModelExecutor>(&st->cache);
  st->backend = wl.sim ? static_cast<const lac::fabric::Executor*>(&st->sim) : st->model.get();
  if (wl.graphs) {
    st->sched = std::make_unique<lac::sched::GraphScheduler>(*st->backend, sched_options(),
                                                             st->pool.get());
    std::vector<lac::sched::FactorGraph> fgs;
    std::vector<std::future<lac::sched::GraphResult>> futs;
    for (const GraphInput& g : wl.graph_inputs) {
      fgs.push_back(build_graph(g));
      futs.push_back(st->sched->submit(0, std::move(fgs.back().graph)));
    }
    for (std::size_t i = 0; i < futs.size(); ++i)
      st->gref.push_back(graph_ref(fgs[i], futs[i].get()));
  } else {
    st->async = std::make_unique<lac::fabric::AsyncExecutor>(
        *st->backend, st->pool.get(), wl.cost_hints ? &st->cache : nullptr);
    // One whole round; each distinct request's first result is its reference.
    std::vector<std::future<KernelResult>> futs;
    for (std::size_t i : wl.round) futs.push_back(st->async->submit(wl.distinct[i]));
    st->ref.resize(wl.distinct.size());
    std::vector<bool> seen(wl.distinct.size(), false);
    for (std::size_t k = 0; k < futs.size(); ++k) {
      KernelResult res = futs[k].get();
      if (!seen[wl.round[k]]) st->ref[wl.round[k]] = std::move(res);
      seen[wl.round[k]] = true;
    }
  }
  return st;
}

// ---- verification ------------------------------------------------------------

struct Verification {
  std::vector<std::string> errors;
  std::size_t checked = 0;      ///< results checked
  std::size_t band_misses = 0;  ///< graph nodes outside the model band
  double band_worst = 0.0;      ///< largest such distance, share of the model
  std::vector<KernelRequest> probe;  ///< requests the per-call pass times
};

Verification verify(Stack& st) {
  Verification v;
  const Workload& wl = st.wl;
  auto note = [&v](const std::string& where, const std::string& err) {
    if (!err.empty() && v.errors.size() < 20) v.errors.push_back(where + ": " + err);
  };
  ProbeSample sample;
  auto check = [&](const KernelRequest& req, const KernelResult& res) {
    const std::string where = req.tag.empty() ? lac::fabric::to_string(req.kind) : req.tag;
    note(where, check_result(req, res));
    if (wl.sim && !wl.graphs) note(where, check_model_band(req, res));
    if (wl.sim && wl.graphs) {
      // Graph nodes include shapes the unit tests do not pin (QR's w = u^T A2
      // is a 4 x k by k x 4 GEMM); their distance from the model is reported,
      // not failed.
      const double excess = model_band_excess(req, res);
      if (excess > 0.0) ++v.band_misses;
      v.band_worst = std::max(v.band_worst, excess);
    }
    lac::fabric::CostCache fresh;
    note(where, check_cache_estimate(req, fresh.estimate(req)));
    note(where, check_tech_order(energies_by_node(req, wl.sim ? &res : nullptr)));
    sample.offer(req);
    ++v.checked;
  };
  if (wl.graphs) {
    for (std::size_t i = 0; i < wl.graph_inputs.size(); ++i) {
      const GraphInput& g = wl.graph_inputs[i];
      const std::string where = g.kind + "/" + std::to_string(g.block);
      const GraphRef& ref = st.gref[i];
      note(where, check_factor(g.kind, *g.a, ref.work, ref.pivots, ref.taus));
      note(where, check_graph_times(ref.result));
    }
    // Node-level checks on a re-run of the round (same W; one pool worker,
    // so the nodes complete one at a time and the checks cost no contention).
    const CheckingExecutor checking(*st.backend, check);
    lac::ThreadPool pool(1);
    lac::sched::GraphScheduler sched(checking, sched_options(), &pool);
    for (std::size_t i = 0; i < wl.graph_inputs.size(); ++i) {
      lac::sched::FactorGraph fg = build_graph(wl.graph_inputs[i]);
      const lac::sched::GraphResult gr = sched.submit(0, std::move(fg.graph)).get();
      if (*fg.work != st.gref[i].work || gr.makespan_cycles.value() !=
                                             st.gref[i].result.makespan_cycles.value())
        note(wl.graph_inputs[i].kind, "graph result differs between two runs");
    }
  } else {
    for (std::size_t i = 0; i < wl.distinct.size(); ++i) check(wl.distinct[i], st.ref[i]);
  }
  v.probe = sample.take();
  return v;
}

// ---- modelled figures and the digest ---------------------------------------

struct Modelled {
  double utilization = 0.0;
  double gflops_per_w = 0.0;
  double makespan_kcycles = 0.0;
  std::vector<double> job_cycles;  ///< per round job (graph: makespan)
};

Modelled modelled(const Stack& st) {
  Modelled m;
  const Workload& wl = st.wl;
  double useful = 0.0, capacity = 0.0, energy = 0.0, span = 0.0;
  if (wl.graphs) {
    const lac::arch::CoreConfig cfg = lac::arch::lac_4x4_dp();
    for (std::size_t g : wl.graph_round) {
      const lac::sched::GraphResult& gr = st.gref[g].result;
      useful += st.gref[g].mac_cycles * cfg.nr * cfg.nr;
      capacity += gr.makespan_cycles.value() * gr.workers * cfg.nr * cfg.nr;
      energy += gr.energy_nj.value();
      span += gr.makespan_cycles.value();
      m.job_cycles.push_back(gr.makespan_cycles.value());
    }
  } else {
    for (std::size_t i : wl.round) {
      const KernelRequest& req = wl.distinct[i];
      const KernelResult& res = st.ref[i];
      const double macs = lac::fabric::useful_macs(req).value();
      useful += macs;
      capacity += res.cycles.value() * mac_slots(req);
      energy += res.energy_nj.value();
      span += res.cycles.value();
      m.job_cycles.push_back(res.cycles.value());
    }
  }
  const double jobs = static_cast<double>(wl.round_jobs());
  m.utilization = capacity > 0 ? useful / capacity : 0.0;
  m.gflops_per_w = energy > 0 ? 2.0 * useful / energy : 0.0;  // flops per nJ
  m.makespan_kcycles = jobs > 0 ? span / jobs / 1e3 : 0.0;
  return m;
}

void digest_stats(std::ostringstream& os, const lac::sim::Stats& s) {
  os << ' ' << s.mac_ops << ' ' << s.mul_ops << ' ' << s.cmp_ops << ' ' << s.mem_a_reads
     << ' ' << s.mem_a_writes << ' ' << s.mem_b_reads << ' ' << s.mem_b_writes << ' '
     << s.rf_reads << ' ' << s.rf_writes << ' ' << s.row_bus_xfers << ' '
     << s.col_bus_xfers << ' ' << s.sfu_ops << ' ' << s.dma_words;
}

/// FNV-1a over one line per round job, in job order: cycles, every
/// sim::Stats counter and energy (hex floats, so equal digests mean
/// byte-identical figures).
std::string digest(const Stack& st) {
  std::ostringstream os;
  os << std::hexfloat;
  const Workload& wl = st.wl;
  if (wl.graphs) {
    for (std::size_t g : wl.graph_round) {
      const GraphRef& r = st.gref[g];
      os << wl.graph_inputs[g].kind << '/' << wl.graph_inputs[g].block << ' '
         << r.result.makespan_cycles.value() << ' ' << r.result.total_cycles.value();
      digest_stats(os, r.stats);
      os << ' ' << r.result.energy_nj.value() << '\n';
    }
  } else {
    for (std::size_t i : wl.round) {
      const KernelResult& res = st.ref[i];
      os << wl.distinct[i].tag << ' ' << res.cycles.value();
      digest_stats(os, res.stats);
      os << ' ' << res.energy_nj.value() << '\n';
    }
  }
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : os.str()) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// ---- the closed loop ------------------------------------------------------------

bool same_result(const KernelResult& a, const KernelResult& b) {
  return a.ok == b.ok && a.cycles.value() == b.cycles.value() &&
         a.energy_nj.value() == b.energy_nj.value() && a.out == b.out &&
         a.pivots == b.pivots && a.taus == b.taus && a.scalar == b.scalar &&
         a.spectrum == b.spectrum;
}

/// Figures of one block of whole rounds. A block closes at the first round
/// boundary once it holds at least 100 jobs, so its tail is p90. Every block
/// has the same job mix, so per-block figures compare, and their median
/// keeps host interference -- a neighbouring VM stealing a CPU for
/// milliseconds, which halved whole-run throughput of the microsecond-job
/// workloads in some runs on a 4-vCPU VM -- confined to the blocks it hit.
struct Block {
  std::size_t expected = std::numeric_limits<std::size_t>::max();  ///< known at close
  std::size_t harvested = 0;
  std::uint64_t end_ns = 0;  ///< last completion
  std::vector<std::pair<std::uint32_t, double>> latency_ms;  ///< (item, latency)
};

struct Phase {
  std::size_t jobs = 0;
  std::size_t rounds = 0;
  std::size_t failed = 0;
  std::size_t mismatched = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t allocs = 0;
  std::vector<double> block_rate;  ///< jobs/s
  /// ms: each job type's (distinct request / graph input) median latency,
  /// geometric mean over the types. The mix spans ~300x in job cost, and a
  /// pooled median lands in the gap between two types and jumps between runs.
  std::vector<double> block_p50;
  std::vector<double> block_tail;  ///< ms, at tail_p
  double tail_p = 0.0;
  std::vector<DoneJob> done;       ///< traced phase only
  std::uint64_t busy_ns = 0;       ///< traced: backend service summed
  std::uint64_t calls = 0;         ///< traced: backend calls
};

void close_block(Phase& ph, Block& b, std::uint64_t prev_end, std::size_t min_jobs) {
  if (b.latency_ms.size() < min_jobs && !ph.block_rate.empty()) return;  // short last block
  ph.block_rate.push_back(static_cast<double>(b.latency_ms.size()) /
                          (static_cast<double>(b.end_ns - prev_end) / 1e9));
  std::vector<double> lat;
  for (const auto& [item, l] : b.latency_ms) lat.push_back(l);
  ph.tail_p = tail_percentile(lat.size());
  ph.block_tail.push_back(quantile(lat, ph.tail_p / 100.0));
  std::sort(b.latency_ms.begin(), b.latency_ms.end());
  double log_sum = 0.0;
  std::size_t items = 0;
  for (std::size_t i = 0; i < b.latency_ms.size();) {
    std::size_t k = i;
    std::vector<double> v;
    while (k < b.latency_ms.size() && b.latency_ms[k].first == b.latency_ms[i].first)
      v.push_back(b.latency_ms[k++].second);
    log_sum += std::log(median(std::move(v)));
    ++items;
    i = k;
  }
  ph.block_p50.push_back(std::exp(log_sum / static_cast<double>(items)));
}

/// Runs whole rounds until `seconds` have passed (and at least one round),
/// or until a round would start past `max_jobs`. The traced phase puts the
/// timing decorator in front of the backend and keeps every job.
void run_phase(Stack& st, Phase& ph, double seconds, std::size_t max_jobs, bool traced) {
  const Workload& wl = st.wl;
  Window window(wl.window);
  std::vector<LiveJob> live(wl.window);
  // Two pointers: the completion lambda stays within std::function's
  // small buffer, so handing it over allocates nothing.
  struct Hook {
    LiveJob* job;
    Window* win;
  };
  // The traced phase gets its own front end over the same pool and cache.
  std::optional<TimingExecutor> timing;
  std::unique_ptr<lac::fabric::AsyncExecutor> async;
  std::unique_ptr<lac::sched::GraphScheduler> sched;
  lac::fabric::AsyncExecutor* use_async = st.async.get();
  lac::sched::GraphScheduler* use_sched = st.sched.get();
  if (traced) {
    ph.done.reserve(max_jobs);
    timing.emplace(*st.backend, wl.graphs ? &live : nullptr);
    if (wl.graphs) {
      sched = std::make_unique<lac::sched::GraphScheduler>(*timing, sched_options(),
                                                           st.pool.get());
      use_sched = sched.get();
    } else {
      async = std::make_unique<lac::fabric::AsyncExecutor>(*timing, st.pool.get(),
                                                           wl.cost_hints ? &st.cache : nullptr);
      use_async = async.get();
    }
  }
  std::vector<std::future<KernelResult>> req_slots(wl.window);
  std::vector<std::future<lac::sched::GraphResult>> graph_slots(wl.window);
  std::vector<lac::sched::FactorGraph> slot_graph(wl.window);

  constexpr std::size_t block_min_jobs = 100;
  std::deque<Block> open(1);
  std::size_t first_open = 0;  // block id of open.front()
  std::uint64_t prev_end = 0;  // last completion of the previous block
  auto harvest = [&](std::uint32_t s) {
    LiveJob& job = live[s];
    if (wl.graphs) {
      if (!graph_slots[s].valid()) return;
      const lac::sched::GraphResult gr = graph_slots[s].get();
      const GraphRef& ref = st.gref[job.item];
      const lac::sched::FactorGraph& fg = slot_graph[s];
      if (!gr.ok) {
        ++ph.failed;
      } else if (gr.makespan_cycles.value() != ref.result.makespan_cycles.value() ||
                 gr.total_cycles.value() != ref.result.total_cycles.value() ||
                 gr.energy_nj.value() != ref.result.energy_nj.value() || *fg.work != ref.work ||
                 (fg.pivots && *fg.pivots != ref.pivots) || (fg.taus && *fg.taus != ref.taus)) {
        ++ph.mismatched;
      }
    } else {
      if (!req_slots[s].valid()) return;
      const KernelResult res = req_slots[s].get();
      if (!res.ok) {
        ++ph.failed;
      } else if (!same_result(res, st.ref[job.item])) {
        ++ph.mismatched;
      }
    }
    const std::uint64_t end = job.end_ns.load();
    const Uncounted bookkeeping;  // the benchmark's own records
    if (traced)
      ph.done.push_back(DoneJob{job.submit_ns, job.submitted_ns, end, job.first_start_ns.load(),
                                job.service_ns.load(), job.root_span,
                                job.program_cpu_ns.load(), job.item});
    Block& b = open[job.block - first_open];
    b.latency_ms.emplace_back(job.item, static_cast<double>(end - job.submit_ns) / 1e6);
    b.end_ns = std::max(b.end_ns, end);
    ++b.harvested;
    while (!open.empty() && open.front().harvested == open.front().expected) {
      close_block(ph, open.front(), prev_end, block_min_jobs);
      prev_end = std::max(prev_end, open.front().end_ns);
      open.pop_front();
      ++first_open;
    }
  };
  const std::vector<std::size_t>& round = wl.graphs ? wl.graph_round : wl.round;
  const std::uint64_t allocs0 = allocations();
  const double cpu0 = cpu_seconds();
  const std::uint64_t t0 = now_ns();
  const std::uint64_t deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  prev_end = t0;
  std::size_t block_jobs = 0;
  std::size_t pos = 0;
  for (;;) {
    if (pos == 0) {
      const std::uint64_t t = now_ns();
      if (ph.rounds > 0 && (t >= deadline || ph.jobs + round.size() > max_jobs)) break;
      if (block_jobs >= block_min_jobs) {
        const Uncounted bookkeeping;
        open.back().expected = block_jobs;
        open.emplace_back();
        block_jobs = 0;
      }
    }
    const std::uint32_t s = window.acquire();
    harvest(s);
    LiveJob& job = live[s];
    job.item = static_cast<std::uint32_t>(round[pos]);
    job.traced = traced;
    job.slot = s;
    job.block = first_open + open.size() - 1;
    job.first_start_ns.store(std::numeric_limits<std::uint64_t>::max());
    job.service_ns.store(0);
    ++ph.jobs;
    ++block_jobs;
    const Hook hook{&job, &window};
    if (wl.graphs) {
      slot_graph[s] = build_graph(wl.graph_inputs[job.item]);
      lac::sched::KernelGraph& graph = slot_graph[s].graph;
      if (traced) {
        const std::string tag = "#" + std::to_string(s);
        for (lac::sched::NodeId id = 0; id < graph.size(); ++id) {
          lac::sched::GraphNode& node = graph.node(id);
          node.make = [inner = std::move(node.make), tag] {
            KernelRequest r = inner();
            r.tag = tag;
            return r;
          };
        }
      }
      auto on_done = [hook](const lac::sched::GraphResult&) {
        hook.job->end_ns.store(now_ns(), std::memory_order_relaxed);
        hook.win->release(hook.job->slot);
      };
      {
        lac::obs::Span span("bench.submit", "bench");
        job.submit_ns = now_ns();  // inside the root span: no gap before it
        job.root_span = span.id();
        graph_slots[s] = use_sched->submit(0, std::move(graph), on_done);
      }
      job.submitted_ns = now_ns();
    } else {
      auto on_done = [hook](const KernelResult&) {
        LiveJob& j = *hook.job;
        j.first_start_ns.store(t_call_start, std::memory_order_relaxed);
        j.service_ns.store(t_call_end - t_call_start, std::memory_order_relaxed);
        j.end_ns.store(now_ns(), std::memory_order_relaxed);
        if (j.traced)
          j.program_cpu_ns.store(static_cast<std::int64_t>(thread_cpu_ns() - t_hook_cpu) -
                                     static_cast<std::int64_t>(t_call_cpu),
                                 std::memory_order_relaxed);
        hook.win->release(j.slot);
        if (j.traced) t_hook_cpu = thread_cpu_ns();
      };
      {
        lac::obs::Span span("bench.submit", "bench");
        job.submit_ns = now_ns();  // inside the root span: no gap before it
        job.root_span = span.id();
        req_slots[s] = use_async->submit(wl.distinct[job.item], on_done);
      }
      job.submitted_ns = now_ns();
    }
    if (++pos == round.size()) {
      pos = 0;
      ++ph.rounds;
    }
  }
  open.back().expected = block_jobs;
  for (std::size_t k = 0; k < wl.window; ++k) harvest(window.acquire());  // every slot returns
  ph.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  ph.cpu_s = cpu_seconds() - cpu0;
  ph.allocs = allocations() - allocs0;
  if (timing) {
    ph.busy_ns = timing->busy_ns();
    ph.calls = timing->calls();
  }
}

// ---- counters read as deltas ---------------------------------------------------

struct Counters {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, lac::obs::MetricsSnapshot::HistogramData> hists;
  static Counters sample() {
    const lac::obs::MetricsSnapshot snap = lac::obs::MetricsRegistry::global().snapshot();
    return Counters{snap.counters, snap.histograms};
  }
  std::uint64_t delta(const Counters& before, const std::string& name) const {
    const auto a = counters.find(name);
    const auto b = before.counters.find(name);
    const std::uint64_t va = a == counters.end() ? 0 : a->second;
    const std::uint64_t vb = b == before.counters.end() ? 0 : b->second;
    return va - vb;
  }
  /// Median of a histogram's delta, interpolated inside its bucket.
  double hist_median(const Counters& before, const std::string& name) const {
    const auto a = hists.find(name);
    if (a == hists.end()) return 0.0;
    std::vector<std::uint64_t> d = a->second.buckets;
    const auto b = before.hists.find(name);
    if (b != before.hists.end())
      for (std::size_t i = 0; i < d.size() && i < b->second.buckets.size(); ++i)
        d[i] -= b->second.buckets[i];
    std::uint64_t total = 0;
    for (std::uint64_t c : d) total += c;
    if (total == 0) return 0.0;
    const double target = 0.5 * static_cast<double>(total);
    double seen = 0.0;
    const std::vector<double>& bounds = a->second.bounds;
    for (std::size_t i = 0; i < d.size(); ++i) {
      if (seen + static_cast<double>(d[i]) >= target && d[i] > 0) {
        const double lo = i == 0 ? 0.0 : bounds[i - 1];
        const double hi = i < bounds.size() ? bounds[i] : lo * 2.0;
        return lo + (hi - lo) * (target - seen) / static_cast<double>(d[i]);
      }
      seen += static_cast<double>(d[i]);
    }
    return bounds.empty() ? 0.0 : bounds.back();
  }
};

double ratio(std::uint64_t num, std::uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// Runs once on the submitting thread and on every pool worker (the latch
/// keeps each task on its own worker) before the traced phase. A thread's
/// first span allocates its trace ring, so each records one span, and no job
/// pays for it; each worker also sets the CPU mark its first traced job's
/// program_cpu_ns counts from.
void prepare_traced_threads(lac::ThreadPool& pool) {
  { lac::obs::Span span("bench.ring_warmup", "bench"); }
  std::latch all(static_cast<std::ptrdiff_t>(pool.size()));
  std::vector<std::future<void>> done;
  for (unsigned i = 0; i < pool.size(); ++i)
    done.push_back(pool.submit([&all] {
      { lac::obs::Span span("bench.ring_warmup", "bench"); }
      all.arrive_and_wait();
      t_hook_cpu = thread_cpu_ns();
    }));
  for (auto& f : done) f.get();
}

// ---- closure from the trace -------------------------------------------------------

struct Closure {
  std::size_t jobs = 0;
  std::size_t closed = 0;
  std::string verdict;  ///< closure_verdict(): "" when the phase closes
  double worst_gap_frac = 0.0;
  double miss_cpu_ns = 0.0;  ///< most worker CPU outside the spans of a missed job
  double gap_ns = 0.0;  ///< summed |latency - layer times|
  std::map<std::string, double> layer_ns;  ///< summed self time per layer
  double latency_ns = 0.0;
};

// Closure tolerances (README): a request job's layers must account for its
// latency within 2% + 20 us; a graph job within 10% + 50 us, since commit and
// dependency release inside GraphScheduler run between its node spans and
// have no span of their own yet. closure_verdict() adds the budget for jobs
// the host paused between two spans.
const ClosureRule kReqClosure{0.02, 20e3};
const ClosureRule kGraphClosure{0.10, 50e3};

Closure closure(const Workload& wl, const Phase& ph,
                const std::vector<lac::obs::TraceEvent>& events) {
  Closure c;
  std::unordered_map<std::uint64_t, std::size_t> job_of_root;
  for (std::size_t j = 0; j < ph.done.size(); ++j)
    if (ph.done[j].root_span) job_of_root[ph.done[j].root_span] = j;
  std::unordered_map<std::uint64_t, const lac::obs::TraceEvent*> by_id;
  for (const lac::obs::TraceEvent& e : events) by_id[e.id] = &e;
  std::vector<std::vector<LayerInterval>> per_job(ph.done.size());
  // Root and depth of each event by walking its parent chain.
  auto root_of = [&](const lac::obs::TraceEvent& e, int& depth) -> std::uint64_t {
    const lac::obs::TraceEvent* cur = &e;
    depth = 0;
    for (int hops = 0; hops < 64; ++hops) {
      if (job_of_root.count(cur->id)) return cur->id;
      const auto it = by_id.find(cur->parent);
      if (it == by_id.end()) return 0;
      cur = it->second;
      ++depth;
    }
    return 0;
  };
  // Graph nodes: the scheduler's own sched.run / sched.ready_wait events
  // have no parent; charge them to the job whose bench.backend span runs
  // inside them on the same thread.
  std::map<std::uint32_t, std::vector<const lac::obs::TraceEvent*>> runs, readies;
  if (wl.graphs) {
    for (const lac::obs::TraceEvent& e : events) {
      if (std::strcmp(e.name, "sched.run") == 0) runs[e.tid].push_back(&e);
      if (std::strcmp(e.name, "sched.ready_wait") == 0) readies[e.tid].push_back(&e);
    }
    for (auto& [tid, v] : readies)
      std::sort(v.begin(), v.end(), [](const lac::obs::TraceEvent* a, const lac::obs::TraceEvent* b) {
        return a->start_ns + a->dur_ns < b->start_ns + b->dur_ns;
      });
  }
  for (const lac::obs::TraceEvent& e : events) {
    int depth = 0;
    const std::uint64_t root = root_of(e, depth);
    if (!root) continue;
    const std::size_t j = job_of_root[root];
    const int shift = wl.graphs && depth > 0 ? 1 : 0;
    per_job[j].push_back(LayerInterval{e.name, e.start_ns, e.start_ns + e.dur_ns, depth + shift});
    if (!(wl.graphs && depth == 1)) continue;
    // e is a node's bench.backend span: find the enclosing sched.run and the
    // ready wait recorded just before it on the same thread.
    const auto& rv = runs[e.tid];
    auto it = std::upper_bound(rv.begin(), rv.end(), e.start_ns,
                               [](std::uint64_t t, const lac::obs::TraceEvent* r) {
                                 return t < r->start_ns;
                               });
    if (it == rv.begin()) continue;
    const lac::obs::TraceEvent* run = *(it - 1);
    if (run->start_ns + run->dur_ns < e.start_ns + e.dur_ns) continue;
    per_job[j].push_back(LayerInterval{"sched.run", run->start_ns, run->start_ns + run->dur_ns, 1});
    // The wait is recorded with end = the run's start stamp, just before the
    // sched.run span opens: take the latest-ending wait not after it.
    const auto& wv = readies[e.tid];
    auto wt = std::upper_bound(wv.begin(), wv.end(), run->start_ns,
                               [](std::uint64_t t, const lac::obs::TraceEvent* r) {
                                 return t < r->start_ns + r->dur_ns;
                               });
    if (wt == wv.begin()) continue;
    const lac::obs::TraceEvent* ready = *(wt - 1);
    if (run->start_ns - (ready->start_ns + ready->dur_ns) < 10000)
      per_job[j].push_back(
          LayerInterval{"sched.ready_wait", ready->start_ns, ready->start_ns + ready->dur_ns, 1});
  }
  const ClosureRule& rule = wl.graphs ? kGraphClosure : kReqClosure;
  std::vector<JobClosure> jobs;
  for (std::size_t j = 0; j < ph.done.size(); ++j) {
    const DoneJob& r = ph.done[j];
    const std::uint64_t end = r.end_ns;
    const std::vector<LayerTime> layers = attribute(per_job[j], r.submit_ns, end);
    const double lat = static_cast<double>(end - r.submit_ns);
    ++c.jobs;
    double sum = 0.0;
    for (const LayerTime& t : layers) {
      c.layer_ns[t.layer] += t.ns;
      sum += t.ns;
    }
    c.latency_ns += lat;
    if (closes(lat, layers, rule.rel_tol, rule.abs_tol_ns))
      ++c.closed;
    else
      c.miss_cpu_ns = std::max(c.miss_cpu_ns, static_cast<double>(r.program_cpu_ns));
    c.gap_ns += std::fabs(lat - sum);
    if (lat > 0) c.worst_gap_frac = std::max(c.worst_gap_frac, std::fabs(lat - sum) / lat);
    jobs.push_back(JobClosure{lat, sum, static_cast<double>(r.program_cpu_ns)});
  }
  c.verdict = closure_verdict(jobs, rule);
  return c;
}

// ---- the single-threaded per-call pass ---------------------------------------

template <typename F>
double time_us(F&& f) {
  double best[3];
  for (double& b : best) {
    const std::uint64_t t = now_ns();
    f();
    b = static_cast<double>(now_ns() - t) / 1e3;
  }
  std::sort(best, best + 3);
  return best[1];  // median of three
}

struct Mean {
  double sum = 0.0;
  std::size_t n = 0;
  void add(double v) {
    sum += v;
    ++n;
  }
  double get() const { return n ? sum / static_cast<double>(n) : 0.0; }
};

std::map<std::string, double> probe_pass(const std::vector<KernelRequest>& probe) {
  std::map<std::string, Mean> m;
  double sim_us_total = 0.0, sim_cycles = 0.0, sim_macs = 0.0;
  const lac::fabric::SimExecutor sim;
  for (const KernelRequest& req : probe) {
    const lac::fabric::KernelTraits& t = lac::fabric::kernel_traits(req.kind);
    const std::string key = kind_key(req.kind);
    m["cost_cache.signature_us"].add(
        time_us([&] { (void)lac::fabric::CostCache::signature(req); }));
    double miss = 0.0;
    for (int k = 0; k < 3; ++k) {
      lac::fabric::CostCache fresh;
      const std::uint64_t t0 = now_ns();
      (void)fresh.estimate(req);
      miss += static_cast<double>(now_ns() - t0) / 3e3;
    }
    m["cost_cache.miss_us"].add(miss);
    lac::fabric::CostCache warm;
    (void)warm.estimate(req);
    const double hit = time_us([&] { (void)warm.estimate(req); });
    m["cost_cache.hit_us"].add(hit);
    m["model.cost_us"].add(time_us([&] { (void)lac::fabric::model_cost(req); }));
    const double ref_us = time_us([&] {
      KernelResult r;
      (void)t.reference_run(req, r);
    });
    m["blas.reference_us." + key].add(ref_us);
    KernelResult simres;
    const double run_us = time_us([&] {
      simres = KernelResult{};
      (void)t.sim_run(req, simres);
    });
    m["sim.run_us." + key].add(run_us);
    sim_us_total += run_us;
    sim_cycles += simres.cycles.value();
    sim_macs += lac::fabric::useful_macs(req).value();
    const double energy_us =
        time_us([&] { (void)t.sim_energy(req, simres.stats, simres.cycles); });
    m["power.sim_energy_us"].add(energy_us);
    const double exec_us = time_us([&] { (void)sim.execute(req); });
    m["executor.sim_overhead_us"].add(exec_us - run_us - energy_us);
    const lac::fabric::ModelExecutor model(&warm);
    const double mexec_us = time_us([&] { (void)model.execute(req); });
    m["executor.model_overhead_us"].add(mexec_us - ref_us - hit);
  }
  std::map<std::string, double> out;
  for (const auto& [k, v] : m) out[k] = v.get();
  out["sim.mmacs_per_s"] = sim_us_total > 0 ? sim_macs / sim_us_total : 0.0;
  out["sim.host_ns_per_kcycle"] = sim_cycles > 0 ? sim_us_total * 1e3 / (sim_cycles / 1e3) : 0.0;
  return out;
}

// ---- output -----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << (std::isfinite(v) ? v : 0.0);
  return os.str();
}

std::string result_line(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) os << ", ";
    os << '"' << metrics[i].name << "\": {\"value\": " << fmt(metrics[i].value)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool digest_only = false;
  bool self_test = false;
  std::string out_dir = ".bench_out";
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](std::string& out) {
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--self-test") {
      o.self_test = true;
    } else if (a == "--digest-only") {
      o.digest_only = true;
    } else if (a == "--workload") {
      if (!value(o.workload)) return false;
    } else if (a == "--seed") {
      if (!value(v)) return false;
      o.seed = std::stoull(v);
    } else if (a == "--seconds") {
      if (!value(v)) return false;
      o.seconds = std::stod(v);
    } else if (a == "--trace") {
      if (!value(v)) return false;
      o.trace = v == "1";
    } else if (a == "--out-dir") {
      if (!value(o.out_dir)) return false;
    } else {
      return false;
    }
  }
  return o.self_test || !o.workload.empty();
}

int self_test() {
  std::vector<std::string> fails = stats_self_test();
  for (const std::string& f : checks_self_test()) fails.push_back(f);
  for (const std::string& f : fails) std::printf("FAIL %s\n", f.c_str());
  std::printf("lacbench self-test: %s\n", fails.empty() ? "OK" : "FAILED");
  return fails.empty() ? 0 : 1;
}

int run(const Options& opt) {
  // ---- set-up, repeated; the median is setup_s ---------------------------------
  // One set-up varies twofold on a shared host (where the warm-up round
  // lands on the pool, page faults of fresh pool threads), and the median of
  // 15 flipped between a 9 ms and a 16 ms mode on sim_serving. So a run sets
  // up at least kMinSetups times and goes on until kSetupBudgetS have passed
  // or kMaxSetups set-ups are done.
  constexpr std::size_t kMinSetups = 41, kMaxSetups = 201;
  constexpr double kSetupBudgetS = 2.0;
  std::vector<double> setups;
  std::unique_ptr<Stack> st;
  const std::uint64_t setup_t0 = now_ns();
  for (;;) {
    st.reset();
    const std::uint64_t t0 = now_ns();
    st = set_up(opt.workload, opt.seed);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (opt.digest_only || setups.size() >= kMaxSetups) break;
    if (setups.size() >= kMinSetups &&
        static_cast<double>(now_ns() - setup_t0) / 1e9 >= kSetupBudgetS)
      break;
  }
  const Workload& wl = st->wl;
  RunSettings settings{opt.workload, opt.seed, opt.seconds, opt.trace, pool_workers(),
                       wl.window, wl.graphs ? kSchedWidth : 0u};
  const std::string dg = digest(*st);
  std::printf("workload %s: %zu jobs per round, window %zu, %u pool workers\n",
              wl.name.c_str(), wl.round_jobs(), wl.window, pool_workers());
  std::printf("digest %s seed %llu: %s\n", wl.name.c_str(),
              static_cast<unsigned long long>(opt.seed), dg.c_str());
  if (opt.digest_only) return 0;

  const double rss_setup = peak_rss_mib();
  const Verification ver = verify(*st);
  std::printf("peak RSS: %.1f MiB after set-up, %.1f MiB after verification\n", rss_setup,
              peak_rss_mib());
  for (const std::string& e : ver.errors) std::printf("CHECK FAILED %s\n", e.c_str());
  std::printf("verified %zu results against independent residuals%s\n", ver.checked,
              ver.errors.empty() ? "" : " -- FAILED");
  if (wl.graphs)
    std::printf("model band: %zu of %zu graph nodes outside the unit tests' sim-vs-model band "
                "(worst %.1f%% off the model)\n",
                ver.band_misses, ver.checked, ver.band_worst * 100);
  bool correct = ver.errors.empty();
  const Modelled mod = modelled(*st);

  std::vector<Metric> metrics;
  std::size_t attempted = 0, failed = 0;
  std::ostringstream report;  // human-readable lines, also kept in the result file
  auto mismatch_note = [&](const Phase& ph, const char* what) {
    if (ph.mismatched) {
      correct = false;
      std::printf("CHECK FAILED %s: %zu jobs differ from the verified round\n", what,
                  ph.mismatched);
    }
    if (ph.failed) {  // the verified round ran every job, so a failure is a fault
      correct = false;
      std::printf("CHECK FAILED %s: %zu jobs failed\n", what, ph.failed);
    }
  };

  if (!opt.trace) {
    Phase ph;
    run_phase(*st, ph, opt.seconds, std::numeric_limits<std::size_t>::max(), false);
    mismatch_note(ph, "timed phase");
    attempted = ph.jobs;
    failed = ph.failed;
    const double jobs = static_cast<double>(ph.jobs);
    metrics = {
        {"jobs_per_s", median(ph.block_rate), "jobs/s"},
        {"cpu_ms_per_job", ph.cpu_s * 1e3 / jobs, "ms"},
        {"job_p50_ms", median(ph.block_p50), "ms"},
        {"job_tail_ms", median(ph.block_tail), "ms"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
        {"modelled_utilization", mod.utilization, "ratio"},
        {"modelled_gflops_per_w", mod.gflops_per_w, "GFLOPS/W"},
        {"modelled_makespan_kcycles", mod.makespan_kcycles, "kcycles"},
    };
    report << "timed phase: " << ph.jobs << " jobs in " << ph.rounds << " rounds, " << ph.wall_s
           << " s, " << ph.block_rate.size() << " blocks; tail percentile p" << ph.tail_p
           << " per block\n";
  } else {
    // Untraced half: counters, allocations, the overhead baseline.
    Phase plain;
    const Counters c0 = Counters::sample();
    run_phase(*st, plain, opt.seconds / 2, std::numeric_limits<std::size_t>::max(), false);
    const Counters c1 = Counters::sample();
    mismatch_note(plain, "untraced phase");
    // Traced half: decorator + trace session, capped so the rings never wrap.
    constexpr std::size_t kRing = 1u << 18;
    const std::size_t max_calls_per_job =
        wl.graphs ? 1200 : 1;  // the largest graph (QR, tile 16) has 1120 nodes
    const std::size_t max_jobs = std::max<std::size_t>(wl.round_jobs(), kRing / 8 / max_calls_per_job);
    Phase traced;
    std::uint64_t dropped = 0;
    std::vector<lac::obs::TraceEvent> events;
    const std::string trace_path = opt.out_dir + "/trace_" + wl.name + "_s" +
                                   std::to_string(opt.seed) + ".json";
    {
      lac::obs::TraceSession session(lac::obs::TraceSessionOptions{kRing});
      prepare_traced_threads(*st->pool);
      run_phase(*st, traced, opt.seconds / 2, max_jobs, true);
      session.stop();
      dropped = session.dropped();
      events = session.events();
      std::filesystem::create_directories(opt.out_dir);
      if (!session.write_chrome_trace(trace_path)) {
        std::printf("CHECK FAILED cannot write %s\n", trace_path.c_str());
        correct = false;
      }
    }
    const Counters c2 = Counters::sample();
    mismatch_note(traced, "traced phase");
    attempted = plain.jobs + traced.jobs;
    failed = plain.failed + traced.failed;
    if (dropped) {
      correct = false;
      std::printf("CHECK FAILED trace dropped %llu events\n",
                  static_cast<unsigned long long>(dropped));
    }
    const Closure cl = closure(wl, traced, events);
    if (!cl.verdict.empty()) {
      correct = false;
      std::printf("CHECK FAILED closure: %s\n", cl.verdict.c_str());
    }

    // Waits and occupancy from the traced loaded run.
    std::vector<double> qwait, submit_us, lat_short;
    double service = 0.0;
    std::vector<double> costs = mod.job_cycles;  // per round slot
    std::vector<double> by_item_cost(wl.graphs ? wl.graph_inputs.size() : wl.distinct.size(), 0.0);
    const std::vector<std::size_t>& round = wl.graphs ? wl.graph_round : wl.round;
    for (std::size_t k = 0; k < round.size(); ++k) by_item_cost[round[k]] = costs[k];
    std::sort(costs.begin(), costs.end());
    const double short_cut = costs[(costs.size() - 1) / 3];
    for (const DoneJob& r : traced.done) {
      qwait.push_back(static_cast<double>(r.first_start_ns - r.submit_ns) / 1e3);
      submit_us.push_back(static_cast<double>(r.submitted_ns - r.submit_ns) / 1e3);
      service += static_cast<double>(r.service_ns);
      if (by_item_cost[r.item] <= short_cut)
        lat_short.push_back(static_cast<double>(r.end_ns - r.submit_ns) / 1e6);
    }
    const double tail_q = tail_percentile(qwait.size()) / 100.0;
    const double calls = static_cast<double>(traced.calls);
    Mean submit_mean;
    for (double v : submit_us) submit_mean.add(v);
    const double traced_rate = static_cast<double>(traced.jobs) / traced.wall_s;
    const double plain_rate = static_cast<double>(plain.jobs) / plain.wall_s;
    const double pjobs = static_cast<double>(plain.jobs);
    const std::map<std::string, double> probe = probe_pass(ver.probe);

    metrics = {
        {"pool.queue_wait_p50_us", median(qwait), "us"},
        {"pool.queue_wait_tail_us", quantile(qwait, tail_q), "us"},
        {"pool.busy_frac", static_cast<double>(traced.busy_ns) /
                               (traced.wall_s * 1e9 * pool_workers()), "ratio"},
        {"pool.short_job_tail_ms",
         quantile(lat_short, tail_percentile(lat_short.size()) / 100.0), "ms"},
        {"pool.steals_per_kjob", 1e3 * static_cast<double>(c1.delta(c0, "lac.pool.steals")) / pjobs,
         "count"},
        {"serving.submit_us", submit_mean.get(), "us"},
        {"cost_cache.signature_us", probe.at("cost_cache.signature_us"), "us"},
        {"cost_cache.hit_us", probe.at("cost_cache.hit_us"), "us"},
        {"cost_cache.miss_us", probe.at("cost_cache.miss_us"), "us"},
        {"cost_cache.hit_ratio",
         ratio(c1.delta(c0, "lac.serving.cache.hits"),
               c1.delta(c0, "lac.serving.cache.hits") + c1.delta(c0, "lac.serving.cache.misses")),
         "ratio"},
        {"executor.sim_overhead_us", probe.at("executor.sim_overhead_us"), "us"},
        {"executor.model_overhead_us", probe.at("executor.model_overhead_us"), "us"},
    };
    for (lac::fabric::KernelKind kind : lac::fabric::registered_kernel_kinds())
      metrics.push_back({"sim.run_us." + kind_key(kind), probe.at("sim.run_us." + kind_key(kind)), "us"});
    metrics.push_back({"sim.mmacs_per_s", probe.at("sim.mmacs_per_s"), "Mmac/s"});
    metrics.push_back({"sim.host_ns_per_kcycle", probe.at("sim.host_ns_per_kcycle"), "ns"});
    metrics.push_back(
        {"sim.plan_hit_ratio",
         ratio(c1.delta(c0, "lac.fabric.schedule.plan_hits"),
               c1.delta(c0, "lac.fabric.schedule.plan_hits") +
                   c1.delta(c0, "lac.fabric.schedule.plan_misses")),
         "ratio"});
    metrics.push_back({"sim.arena_hit_ratio",
                       ratio(c1.delta(c0, "lac.sim.arena.core_hits"),
                             c1.delta(c0, "lac.sim.arena.core_hits") +
                                 c1.delta(c0, "lac.sim.arena.core_misses")),
                       "ratio"});
    metrics.push_back({"power.sim_energy_us", probe.at("power.sim_energy_us"), "us"});
    metrics.push_back({"model.cost_us", probe.at("model.cost_us"), "us"});
    for (lac::fabric::KernelKind kind : lac::fabric::registered_kernel_kinds())
      metrics.push_back({"blas.reference_us." + kind_key(kind),
                         probe.at("blas.reference_us." + kind_key(kind)), "us"});
    metrics.push_back({"sched.node_service_us", calls > 0 ? service / calls / 1e3 : 0.0, "us"});
    metrics.push_back({"process.allocs_per_job", static_cast<double>(plain.allocs) / pjobs, "count"});
    metrics.push_back({"obs.trace_overhead_frac", 1.0 - traced_rate / plain_rate, "ratio"});

    report << "untraced phase: " << plain.jobs << " jobs, " << plain_rate
           << " jobs/s; traced phase: " << traced.jobs << " jobs, " << traced_rate
           << " jobs/s, " << events.size() << " trace events, " << dropped << " dropped\n"
           << "closure: " << cl.closed << "/" << cl.jobs << " jobs within tolerance, worst gap "
           << cl.worst_gap_frac << " of latency, " << 100.0 * cl.gap_ns / cl.latency_ns
           << "% of the summed latency unaccounted, at most " << cl.miss_cpu_ns / 1e3
           << " us of worker CPU outside the spans of a missed job\n"
           << "sched.ready_wait_p50_us " << c2.hist_median(c1, "lac.sched.ready_wait_us")
           << ", sched.admit_wait_p50_us " << c2.hist_median(c1, "lac.sched.admit_wait_us")
           << "\nlayer self time per traced job (us):";
    const double nj = static_cast<double>(std::max<std::size_t>(1, cl.jobs));
    for (const auto& [layer, ns] : cl.layer_ns) report << "\n  " << layer << " " << ns / nj / 1e3;
    report << "\n  (latency " << cl.latency_ns / nj / 1e3 << ")\n"
           << "chrome trace: " << trace_path << "\n";
  }

  std::printf("%s", report.str().c_str());
  const std::string meta = meta_json(settings);
  std::printf("meta %s\n", meta.c_str());
  // The full result, with provenance, next to the trace.
  std::filesystem::create_directories(opt.out_dir);
  const std::string result_path = opt.out_dir + "/result_" + wl.name + "_s" +
                                  std::to_string(opt.seed) + "_t" + (opt.trace ? "1" : "0") +
                                  ".json";
  std::ofstream out(result_path);
  out << "{\n  \"meta\": " << meta << ",\n  \"digest\": \"" << dg << "\",\n  \"result\": "
      << result_line(correct, attempted, failed, metrics) << "\n}\n";
  std::printf("%s\n", result_line(correct, attempted, failed, metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace lacbench

int main(int argc, char** argv) {
  lacbench::Options opt;
  try {
    if (!lacbench::parse(argc, argv, opt)) {
      std::fprintf(stderr,
                   "usage: lacbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
                   "                [--out-dir <dir>] [--digest-only]\n"
                   "       lacbench --self-test\n");
      return 2;
    }
    if (opt.self_test) return lacbench::self_test();
    return lacbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lacbench: %s\n", e.what());
    return 2;
  }
}
