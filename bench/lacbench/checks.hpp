#pragma once
// Correctness checks the benchmark computes apart from the program.
//
// Numerics are judged by backward-error residuals computed here, never by
// re-running the program's own reference path: a naive GEMM summed in the
// opposite order, ||L L^T - A||, ||P A - L U||, ||R^T R - A^T A||, the TRSM
// residual ||L X - B||, a reversed-order 2-norm, and fft::dft for the FFT.
// Beside the numerics sit the invariants every fabric result must meet
// (cycles >= useful MACs / MAC slots, 0 < utilization <= 1, energy > 0),
// the sim-vs-model cycle band the unit tests pin, the CostCache-equals-
// model_cost identity, and the technology-node energy ordering. Each check
// returns "" on success or a one-line reason.
#include <string>
#include <vector>

#include "fabric/kernel_request.hpp"
#include "fabric/serving.hpp"
#include "sched/graph_builders.hpp"
#include "sched/graph_scheduler.hpp"

namespace lacbench {

/// MAC units the request runs on: nr^2 per core, times the core count for
/// the chip-level GEMM.
double mac_slots(const lac::fabric::KernelRequest& req);

/// Numerics of one successful result against independent residuals.
std::string check_numerics(const lac::fabric::KernelRequest& req,
                           const lac::fabric::KernelResult& res);

/// Cycle/utilization/energy invariants.
std::string check_invariants(const lac::fabric::KernelRequest& req,
                             const lac::fabric::KernelResult& res);

/// Sim cycles against the closed-form model within the band the unit tests
/// pin (GEMM and chip GEMM 10%, the rest 35%, plus 50 cycles).
std::string check_model_band(const lac::fabric::KernelRequest& req,
                             const lac::fabric::KernelResult& res);
/// How far outside that band the result lies, as a share of the model's
/// cycles (0 inside the band).
double model_band_excess(const lac::fabric::KernelRequest& req,
                         const lac::fabric::KernelResult& res);

/// numerics + invariants.
std::string check_result(const lac::fabric::KernelRequest& req,
                         const lac::fabric::KernelResult& res);

/// A CostCache estimate must equal a direct model_cost of the request.
std::string check_cache_estimate(const lac::fabric::KernelRequest& req,
                                 const lac::fabric::CostCache::Estimate& est);

/// Energies of one request at 32, 45 and 65 nm (in that order) must
/// strictly increase.
std::string check_tech_order(const std::vector<double>& energy_nj_32_45_65);

/// Energy of the request at each of 32, 45 and 65 nm: the closed-form model,
/// or (with `stats`) the simulator's activity priced at each node.
std::vector<double> energies_by_node(const lac::fabric::KernelRequest& req,
                                     const lac::fabric::KernelResult* sim_result);

/// A factorization graph's factor against its input (Cholesky, LU or QR,
/// chosen by `kind`), and serial / W <= makespan <= serial.
std::string check_factor(const std::string& kind, const lac::MatrixD& input,
                         const lac::MatrixD& factor, const std::vector<lac::index_t>& pivots,
                         const std::vector<double>& taus);
std::string check_graph_times(const lac::sched::GraphResult& gr);

/// Runs every check on a correct result (must pass) and on a deliberately
/// corrupted copy (must fail); returns the failures (empty = pass).
std::vector<std::string> checks_self_test();

}  // namespace lacbench
