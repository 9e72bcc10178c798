#pragma once
// Order statistics and span bookkeeping for the LAC stack benchmark.
//
// Every latency figure the benchmark prints is a median or a "tail": the
// highest percentile on the ladder {99, 90, 50} that still has at least ten
// samples beyond it at the run's job count, so a tail is never one unlucky
// sample. (p99.9 would qualify on the busiest workloads, but on a shared
// host it measures hypervisor pauses more than the stack.) The span helpers turn a traced job's intervals into
// per-layer self times and the closure figure (how much of the job's
// measured latency the layers account for).
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lacbench {

/// Linear-interpolation quantile (q in [0, 1]) of unsorted samples; 0 for
/// an empty set.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// The tail percentile (99, 90 or 50) for `n` samples: the highest one with
/// at least ten samples beyond it.
double tail_percentile(std::size_t n);

/// One interval of a traced job, in steady-clock ns. `depth` orders
/// nesting: where intervals overlap, time is charged to the deepest one
/// (a layer's self time is its span minus the part its children cover).
struct LayerInterval {
  std::string layer;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int depth = 0;
};

struct LayerTime {
  std::string layer;
  double ns = 0.0;
};

/// Partition [job_start, job_end] among the intervals: every instant goes
/// to the deepest interval covering it (first listed wins a tie), instants
/// no interval covers go to nobody. Returns self time per layer in order
/// of first appearance.
std::vector<LayerTime> attribute(const std::vector<LayerInterval>& spans,
                                 std::uint64_t job_start, std::uint64_t job_end);

/// Closure of one job: |latency - sum of layer self times| must stay
/// within rel_tol * latency + abs_tol_ns.
bool closes(double latency_ns, const std::vector<LayerTime>& layers,
            double rel_tol, double abs_tol_ns);

/// Closure of a whole traced phase. Each job must close (above), but the OS
/// or the hypervisor can take a thread's CPU between two spans and open a
/// gap no layer owns: on a 4-vCPU VM about 1 request job in 5000 missed,
/// mostly by 27 to 173 us, once by 9.6 ms of a 10 ms latency. Such a pause
/// costs the thread no CPU time, while a stall inside the program does (the
/// first span of a thread whose trace ring is not yet allocated burned 12 to
/// 28 ms). So a phase fails closure when more than max(1, jobs /
/// kJobsPerMiss) jobs miss, or when a job misses while its worker spent at
/// least kMinStallCpuNs, and at least half the gap, of CPU time outside its
/// spans.
struct ClosureRule {
  double rel_tol = 0.0;
  double abs_tol_ns = 0.0;
};
constexpr std::size_t kJobsPerMiss = 1000;
constexpr double kMinStallCpuNs = 1e6;

struct JobClosure {
  double latency_ns = 0.0;
  double layers_ns = 0.0;        ///< sum of the job's layer self times
  double program_cpu_ns = -1.0;  ///< worker CPU outside its spans; < 0: not measured
};

/// "" when the phase closes under `rule`, else the reason it does not.
std::string closure_verdict(const std::vector<JobClosure>& jobs, const ClosureRule& rule);

/// Self-test of the functions above against hand-computed values; returns
/// the failures (empty = pass).
std::vector<std::string> stats_self_test();

}  // namespace lacbench
