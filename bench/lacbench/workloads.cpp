#include "workloads.hpp"

#include <cctype>
#include <stdexcept>
#include <utility>

#include "arch/presets.hpp"
#include "common/random.hpp"
#include "fabric/kernel_registry.hpp"

namespace lacbench {
namespace {

using lac::fabric::KernelKind;
using lac::fabric::KernelRequest;

/// splitmix64: decorrelates the per-request seeds derived from one run seed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
                     std::uint64_t c = 0) {
  return mix(mix(mix(seed ^ 0x6c61636265ull) + a) + b * 0x100000001b3ull + c);
}

/// Fisher-Yates order of the round. The order is the same for every run
/// seed (the seed varies the operand values only): which jobs share the
/// window changes their latencies, and a seed-dependent order made the
/// pooled latency figures differ between seeds by more than the host noise.
constexpr std::uint64_t kOrderSeed = 0x6c6163;
std::vector<std::size_t> shuffled(std::vector<std::size_t> v, std::uint64_t seed) {
  lac::Rng rng(seed);
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.next_index(i)]);
  return v;
}

constexpr double kServingBw = 2.0;  // words/cycle, as bench_serving runs it

/// Every registered kind at every size in `sizes`, on the paper's 4x4 DP
/// core; the round repeats each request `repeats` times in a seeded order.
void serving_requests(Workload& w, std::uint64_t seed,
                      const std::vector<lac::index_t>& sizes, int repeats) {
  const lac::arch::CoreConfig cfg = lac::arch::lac_4x4_dp();
  for (KernelKind kind : lac::fabric::registered_kernel_kinds()) {
    for (lac::index_t n : sizes) {
      KernelRequest req = lac::fabric::kernel_traits(kind).sized_request(
          cfg, kServingBw, n,
          derive(seed, static_cast<std::uint64_t>(kind), static_cast<std::uint64_t>(n)));
      req.tag = kind_key(kind) + "/" + std::to_string(n);
      w.distinct.push_back(std::move(req));
    }
  }
  std::vector<std::size_t> order;
  for (int r = 0; r < repeats; ++r)
    for (std::size_t i = 0; i < w.distinct.size(); ++i) order.push_back(i);
  w.round = shuffled(std::move(order), kOrderSeed);
}

void graph_inputs(Workload& w, std::uint64_t seed) {
  constexpr lac::index_t n = 128;
  for (const char* kind : {"chol", "lu", "qr"}) {
    const std::uint64_t s = derive(seed, kind[0], kind[1]);
    auto a = std::make_shared<const lac::MatrixD>(
        std::string(kind) == "chol" ? lac::random_spd(n, s) : lac::random_matrix(n, n, s));
    for (lac::index_t block : {16, 32}) w.graph_inputs.push_back(GraphInput{kind, block, a});
  }
  std::vector<std::size_t> order(w.graph_inputs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  w.graph_round = shuffled(std::move(order), kOrderSeed);
}

}  // namespace

std::string kind_key(KernelKind kind) {
  std::string s = lac::fabric::to_string(kind);
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "sim_serving") {
    w.sim = true;
    w.cost_hints = true;
    w.window = 8;
    serving_requests(w, seed, {16, 32, 64}, 1);
  } else if (name == "sim_factor_graphs") {
    w.sim = true;
    w.graphs = true;
    w.window = 2;
    graph_inputs(w, seed);
  } else if (name == "model_serving") {
    w.sim = false;
    w.window = 32;
    serving_requests(w, seed, {16, 32}, 4);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

}  // namespace lacbench
