#pragma once
// Provenance of one benchmark result: bench_support.hpp's `meta` object
// (git sha, build type, timestamp, worker width) extended with what a
// result needs to be compared across machines and runs -- nproc, CPU
// model, compiler, and the workload's loop settings.
#include <cpuid.h>
#include <sched.h>

#include <cstring>
#include <sstream>
#include <string>

#include "bench_support.hpp"

#ifndef LAC_COMPILER_ID
#define LAC_COMPILER_ID "unknown"
#endif

namespace lacbench {

/// CPUs this process may run on (what `nproc` prints).
inline unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

/// CPU brand string from cpuid (x86), "unknown" elsewhere.
inline std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                &regs[4 * i + 3]);
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
#else
  return "unknown";
#endif
}

struct RunSettings {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  unsigned pool_workers = 1;
  std::size_t window = 1;
  unsigned sched_width = 0;  ///< 0 = no GraphScheduler in the workload
};

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// bench_support's meta object with the run's settings and host appended.
inline std::string meta_json(const RunSettings& run, const std::string& indent = "  ") {
  std::string base = lac::bench::meta_json(run.pool_workers, indent);
  const std::size_t close = base.rfind('\n');
  std::ostringstream extra;
  extra << ",\n"
        << indent << "  \"nproc\": " << online_cpus() << ",\n"
        << indent << "  \"cpu_model\": \"" << json_escape(cpu_model()) << "\",\n"
        << indent << "  \"compiler\": \"" << json_escape(LAC_COMPILER_ID) << "\",\n"
        << indent << "  \"workload\": \"" << run.workload << "\",\n"
        << indent << "  \"seed\": " << run.seed << ",\n"
        << indent << "  \"run_seconds\": " << run.seconds << ",\n"
        << indent << "  \"trace\": " << (run.trace ? 1 : 0) << ",\n"
        << indent << "  \"window_jobs\": " << run.window << ",\n"
        << indent << "  \"sched_width\": " << run.sched_width;
  return base.substr(0, close) + extra.str() + base.substr(close);
}

}  // namespace lacbench
