#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

namespace lacbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double tail_percentile(std::size_t n) {
  for (double p : {99.0, 90.0}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) return p;
  }
  return 50.0;
}

std::vector<LayerTime> attribute(const std::vector<LayerInterval>& spans,
                                 std::uint64_t job_start, std::uint64_t job_end) {
  std::vector<LayerTime> out;
  auto slot = [&out](const std::string& layer) -> LayerTime& {
    for (LayerTime& t : out)
      if (t.layer == layer) return t;
    out.push_back(LayerTime{layer, 0.0});
    return out.back();
  };
  // Sweep over the clipped interval boundaries with the active set ordered
  // by (depth, -index): its maximum is the deepest, earliest-listed span.
  std::vector<std::tuple<std::uint64_t, int, int>> edges;  // time, +1/-1, idx
  for (std::size_t i = 0; i < spans.size(); ++i) {
    slot(spans[i].layer);
    const std::uint64_t s = std::max(spans[i].start_ns, job_start);
    const std::uint64_t e = std::min(spans[i].end_ns, job_end);
    if (e <= s) continue;
    edges.emplace_back(s, 1, static_cast<int>(i));
    edges.emplace_back(e, -1, static_cast<int>(i));
  }
  std::sort(edges.begin(), edges.end());
  std::set<std::pair<int, int>> active;
  std::uint64_t prev = job_start;
  for (const auto& [t, kind, idx] : edges) {
    if (!active.empty() && t > prev) {
      const int owner = -active.rbegin()->second;
      slot(spans[static_cast<std::size_t>(owner)].layer).ns +=
          static_cast<double>(t - prev);
    }
    prev = t;
    const std::pair<int, int> key{spans[static_cast<std::size_t>(idx)].depth, -idx};
    if (kind > 0) {
      active.insert(key);
    } else {
      active.erase(key);
    }
  }
  return out;
}

bool closes(double latency_ns, const std::vector<LayerTime>& layers,
            double rel_tol, double abs_tol_ns) {
  double sum = 0.0;
  for (const LayerTime& t : layers) sum += t.ns;
  return std::fabs(latency_ns - sum) <= rel_tol * latency_ns + abs_tol_ns;
}

std::string closure_verdict(const std::vector<JobClosure>& jobs, const ClosureRule& rule) {
  std::size_t misses = 0;
  const JobClosure* stalled = nullptr;
  for (const JobClosure& j : jobs) {
    const double gap = std::fabs(j.latency_ns - j.layers_ns);
    if (gap <= rule.rel_tol * j.latency_ns + rule.abs_tol_ns) continue;
    ++misses;
    if (!stalled && j.program_cpu_ns >= kMinStallCpuNs && j.program_cpu_ns >= 0.5 * gap)
      stalled = &j;
  }
  const std::size_t allowed = std::max<std::size_t>(1, jobs.size() / kJobsPerMiss);
  std::ostringstream os;
  if (stalled) {
    os << "a job's worker spent " << stalled->program_cpu_ns / 1e6
       << " ms of CPU outside its spans, leaving "
       << std::fabs(stalled->latency_ns - stalled->layers_ns) / 1e6 << " ms of its "
       << stalled->latency_ns / 1e6 << " ms latency unaccounted";
  } else if (misses > allowed) {
    os << misses << " of " << jobs.size() << " jobs miss closure (at most " << allowed
       << " may)";
  }
  return os.str();
}

std::vector<std::string> stats_self_test() {
  std::vector<std::string> fails;
  auto expect = [&fails](bool ok, const std::string& what) {
    if (!ok) fails.push_back("stats: " + what);
  };
  auto near = [](double a, double b) { return std::fabs(a - b) < 1e-9; };

  expect(near(quantile({1, 2, 3, 4}, 0.5), 2.5), "median of 1..4 is 2.5");
  expect(near(quantile({5, 1, 3}, 0.5), 3.0), "median ignores input order");
  expect(near(quantile({0, 10}, 0.9), 9.0), "p90 interpolates linearly");
  expect(near(quantile({}, 0.5), 0.0), "empty quantile is 0");
  expect(near(quantile({7}, 0.99), 7.0), "single-sample quantile");

  // Tail ladder: n * (1 - p) >= 10.
  expect(tail_percentile(100000) == 99.0, "the ladder tops out at p99");
  expect(tail_percentile(1000) == 99.0, "1000 samples support p99");
  expect(tail_percentile(999) == 90.0, "999 samples stop at p90");
  expect(tail_percentile(100) == 90.0, "100 samples support p90");
  expect(tail_percentile(99) == 50.0, "99 samples fall back to the median");

  // Attribution: a submit span [0,10] with a queue interval [8,30] that
  // starts inside it, an execute span [31,90] holding a kernel [40,80],
  // and a hook [90,95]; the gap [30,31] belongs to nobody.
  const std::vector<LayerInterval> job = {
      {"submit", 0, 10, 0}, {"queue", 8, 30, 1}, {"execute", 31, 90, 0},
      {"kernel", 40, 80, 1}, {"hook", 90, 95, 0}};
  const std::vector<LayerTime> t = attribute(job, 0, 95);
  auto of = [&t](const char* layer) {
    for (const LayerTime& x : t)
      if (x.layer == layer) return x.ns;
    return -1.0;
  };
  expect(near(of("submit"), 8) && near(of("queue"), 22) &&
             near(of("execute"), 19) && near(of("kernel"), 40) &&
             near(of("hook"), 5),
         "self time is the span minus what deeper spans cover");
  expect(closes(95, t, 0.0, 1.0), "a one-ns gap closes within 1 ns");
  expect(!closes(95, t, 0.0, 0.5), "a one-ns gap fails a 0.5 ns tolerance");
  expect(!closes(200, t, 0.05, 0.0), "a job half covered by spans fails");
  // Parallel intervals at one depth are charged once (graph nodes).
  const std::vector<LayerTime> par =
      attribute({{"node", 0, 50, 1}, {"node", 20, 100, 1}}, 0, 100);
  expect(par.size() == 1 && near(par[0].ns, 100), "overlapping nodes count once");
  // Phase closure: a paused job may miss, a stalled one may not.
  const ClosureRule req{0.02, 20e3};
  std::vector<JobClosure> phase(5000, JobClosure{1e6, 1e6, 3e3});
  for (std::size_t i = 0; i < 5; ++i) phase[17 + 1000 * i] = JobClosure{1e6, 0.84e6, 3e3};
  expect(closure_verdict(phase, req).empty(), "one job in 1000 may miss by 16%");
  phase[18] = JobClosure{1e6, 0.9e6, 3e3};
  expect(!closure_verdict(phase, req).empty(), "six misses in 5000 jobs fail");
  std::vector<JobClosure> paused(31050, JobClosure{2.4e6, 2.39e6, 3e3});
  paused[0] = JobClosure{10e6, 0.38e6, 5e3};  // a 9.6 ms host pause
  expect(closure_verdict(paused, req).empty(), "a 9.6 ms pause that cost no CPU passes");
  std::vector<JobClosure> stalled(31050, JobClosure{2.4e6, 2.39e6, 3e3});
  stalled[0] = stalled[1] = JobClosure{28e6, 0.084e6, 27.8e6};  // 99.7% unaccounted
  expect(!closure_verdict(stalled, req).empty(),
         "two of 31050 jobs stalled in the program fail");
  expect(!closure_verdict({JobClosure{2e6, 0.1e6, 1.8e6}}, req).empty(),
         "a lone 1.9 ms gap with 1.8 ms of CPU fails");
  const ClosureRule graph{0.10, 50e3};
  std::vector<JobClosure> graphs(24, JobClosure{60e6, 55e6});
  expect(closure_verdict(graphs, graph).empty(), "graph jobs close within 10%");
  graphs[9] = JobClosure{60e6, 50e6};
  expect(closure_verdict(graphs, graph).empty(), "one graph job of 24 may miss");
  graphs[3] = JobClosure{60e6, 50e6};
  expect(!closure_verdict(graphs, graph).empty(), "two graph jobs of 24 missing fail");
  // Clipping: spans reaching outside the job count only inside it.
  const std::vector<LayerTime> clip = attribute({{"x", 0, 100, 0}}, 40, 60);
  expect(near(clip[0].ns, 20), "spans are clipped to the job");
  return fails;
}

}  // namespace lacbench
