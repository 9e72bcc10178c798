#pragma once
// The benchmark's three workloads, built from one seed.
//
// A workload is a fixed *round* of jobs that the closed loop replays until
// the run's time is up; every run therefore attempts whole rounds of the
// same operations, and the modelled figures of a round are a function of
// the seed alone. Operands come from the kernel registry's sized_request
// hook (or the repository's random-matrix generators for the graph inputs)
// with per-request seeds derived from the run seed.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "fabric/kernel_request.hpp"

namespace lacbench {

/// One factorization-graph job template: `kind` ("chol", "lu", "qr") of the
/// 128 x 128 input `a` at tile width `block`.
struct GraphInput {
  std::string kind;
  lac::index_t block = 0;
  std::shared_ptr<const lac::MatrixD> a;
};

/// W of the graph workload's GraphScheduler: fixed, so the modelled
/// figures do not depend on the host's core count.
constexpr unsigned kSchedWidth = 4;

struct Workload {
  std::string name;
  bool sim = true;     ///< backend: SimExecutor (else a CostCache-backed ModelExecutor)
  bool graphs = false;  ///< jobs are factorization graphs (GraphScheduler)
  /// Request workloads: the distinct requests and the round, as indices into
  /// `distinct` in submission order (repeats allowed).
  std::vector<lac::fabric::KernelRequest> distinct;
  std::vector<std::size_t> round;
  /// Graph workload: the graph inputs and the round over them.
  std::vector<GraphInput> graph_inputs;
  std::vector<std::size_t> graph_round;
  std::size_t window = 1;       ///< jobs in flight (closed loop)
  bool cost_hints = false;      ///< AsyncExecutor gets the CostCache as size hints

  std::size_t round_jobs() const { return graphs ? graph_round.size() : round.size(); }
};

/// Builds the named workload for `seed`; throws std::invalid_argument for an
/// unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Lower-case registry name of a kind ("gemm", "chip_gemm", ...).
std::string kind_key(lac::fabric::KernelKind kind);

}  // namespace lacbench
