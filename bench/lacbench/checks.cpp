#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <sstream>
#include <utility>

#include "arch/presets.hpp"
#include "common/random.hpp"
#include "fabric/kernel_registry.hpp"
#include "fabric/model_executor.hpp"
#include "fabric/sim_executor.hpp"
#include "fft/reference_fft.hpp"

namespace lacbench {
namespace {

using lac::index_t;
using lac::MatrixD;
using lac::fabric::KernelKind;
using lac::fabric::KernelRequest;
using lac::fabric::KernelResult;

// Backward errors of a correct double-precision kernel sit near 1e-16 at
// these sizes; 1e-10 leaves six orders of margin and still catches any
// wrong entry.
constexpr double kTol = 1e-10;

std::string fail(const char* what, double err) {
  std::ostringstream os;
  os << what << " residual " << err << " > " << kTol;
  return os.str();
}

double frob(const MatrixD& m) {
  double s = 0.0;
  for (index_t j = 0; j < m.cols(); ++j)
    for (index_t i = 0; i < m.rows(); ++i) s += m(i, j) * m(i, j);
  return std::sqrt(s);
}

bool finite(const MatrixD& m) {
  for (index_t j = 0; j < m.cols(); ++j)
    for (index_t i = 0; i < m.rows(); ++i)
      if (!std::isfinite(m(i, j))) return false;
  return true;
}

/// C + A * B with the inner sum run from the last term to the first (the
/// program sums forward), normalised per entry by sum |A||B| + |C|.
std::string check_gemm(const MatrixD& a, const MatrixD& b, const MatrixD& c,
                       const MatrixD& out) {
  if (out.rows() != c.rows() || out.cols() != c.cols() || !finite(out))
    return "GEMM output shape or non-finite entry";
  double worst = 0.0;
  for (index_t j = 0; j < c.cols(); ++j)
    for (index_t i = 0; i < c.rows(); ++i) {
      double s = c(i, j);
      double scale = std::fabs(c(i, j));
      for (index_t p = a.cols() - 1; p >= 0; --p) {
        s += a(i, p) * b(p, j);
        scale += std::fabs(a(i, p) * b(p, j));
      }
      worst = std::max(worst, std::fabs(out(i, j) - s) / std::max(scale, 1e-300));
    }
  return worst <= kTol ? "" : fail("GEMM", worst);
}

/// Lower triangle of C + A * B^T + B * A^T (SYRK: B = A, counted once).
std::string check_rank_k(const MatrixD& a, const MatrixD& b, const MatrixD& c,
                         const MatrixD& out, bool two_sided, const char* name) {
  if (out.rows() != c.rows() || out.cols() != c.cols())
    return std::string(name) + " output shape";
  double worst = 0.0;
  for (index_t j = 0; j < c.cols(); ++j)
    for (index_t i = j; i < c.rows(); ++i) {
      double s = c(i, j);
      double scale = std::fabs(c(i, j));
      for (index_t p = a.cols() - 1; p >= 0; --p) {
        const double t = two_sided ? a(i, p) * b(j, p) + b(i, p) * a(j, p)
                                   : a(i, p) * a(j, p);
        s += t;
        scale += std::fabs(a(i, p) * b(j, p)) +
                 (two_sided ? std::fabs(b(i, p) * a(j, p)) : 0.0);
      }
      if (!std::isfinite(out(i, j))) return std::string(name) + " non-finite entry";
      worst = std::max(worst, std::fabs(out(i, j) - s) / std::max(scale, 1e-300));
    }
  return worst <= kTol ? "" : fail(name, worst);
}

/// ||L X - B|| / (||L|| ||X|| + ||B||), L the lower triangle of `l`.
std::string check_trsm(const MatrixD& l, const MatrixD& b, const MatrixD& x) {
  if (x.rows() != b.rows() || x.cols() != b.cols() || !finite(x))
    return "TRSM output shape or non-finite entry";
  MatrixD lower(l.rows(), l.cols(), 0.0);
  for (index_t j = 0; j < l.cols(); ++j)
    for (index_t i = j; i < l.rows(); ++i) lower(i, j) = l(i, j);
  double r = 0.0;
  for (index_t j = 0; j < b.cols(); ++j)
    for (index_t i = 0; i < b.rows(); ++i) {
      double s = -b(i, j);
      for (index_t p = 0; p <= i; ++p) s += lower(i, p) * x(p, j);
      r += s * s;
    }
  const double err = std::sqrt(r) / (frob(lower) * frob(x) + frob(b));
  return err <= kTol ? "" : fail("TRSM", err);
}

/// ||L L^T - A|| / ||A||, L the lower triangle of `out`.
std::string check_cholesky(const MatrixD& a, const MatrixD& out) {
  const index_t n = a.rows();
  if (out.rows() != n || out.cols() != n) return "CHOL output shape";
  double r = 0.0;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i) {
      double s = -a(i, j);
      for (index_t p = 0; p <= j; ++p) s += out(i, p) * out(j, p);
      if (!std::isfinite(s)) return "CHOL non-finite factor";
      r += (i == j ? 1.0 : 2.0) * s * s;
    }
  const double err = std::sqrt(r) / frob(a);
  return err <= kTol ? "" : fail("CHOL", err);
}

/// ||P A - L U|| / ||A|| for an m x n (m >= n) factorization with the
/// row swaps piv[k] <-> k applied in order.
std::string check_lu(const MatrixD& a, const MatrixD& out,
                     const std::vector<index_t>& piv) {
  const index_t m = a.rows(), n = a.cols();
  if (out.rows() != m || out.cols() != n || static_cast<index_t>(piv.size()) != n)
    return "LU output or pivot shape";
  MatrixD pa = a;
  for (index_t k = 0; k < n; ++k) {
    const index_t p = piv[static_cast<std::size_t>(k)];
    if (p < k || p >= m) return "LU pivot out of range";
    if (p != k)
      for (index_t c = 0; c < n; ++c) std::swap(pa(k, c), pa(p, c));
  }
  double r = 0.0;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      double s = -pa(i, j);
      const index_t top = std::min(i, j);
      for (index_t p = 0; p <= top; ++p) {
        const double l = p == i ? 1.0 : out(i, p);
        s += l * out(p, j);
      }
      if (!std::isfinite(s)) return "LU non-finite factor";
      r += s * s;
    }
  const double err = std::sqrt(r) / frob(a);
  return err <= kTol ? "" : fail("LU", err);
}

/// ||R^T R - A^T A|| / ||A||^2 with R the upper n x n triangle of `out`.
std::string check_qr(const MatrixD& a, const MatrixD& out,
                     const std::vector<double>& taus) {
  const index_t m = a.rows(), n = a.cols();
  if (out.rows() != m || out.cols() != n || static_cast<index_t>(taus.size()) != n)
    return "QR output or tau shape";
  for (double t : taus)
    if (!std::isfinite(t)) return "QR non-finite tau";
  double r = 0.0;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      double rtr = 0.0, ata = 0.0;
      for (index_t p = 0; p <= std::min(i, j); ++p) rtr += out(p, i) * out(p, j);
      for (index_t p = 0; p < m; ++p) ata += a(p, i) * a(p, j);
      if (!std::isfinite(rtr)) return "QR non-finite R";
      r += (rtr - ata) * (rtr - ata);
    }
  const double an = frob(a);
  const double err = std::sqrt(r) / (an * an);
  return err <= kTol ? "" : fail("QR", err);
}

std::string check_vnorm(const std::vector<double>& x, double got) {
  double s = 0.0;
  for (auto it = x.rbegin(); it != x.rend(); ++it) s += *it * *it;
  const double want = std::sqrt(s);
  const double err = std::fabs(got - want) / std::max(want, 1e-300);
  return err <= kTol ? "" : fail("VNORM", err);
}

std::string check_fft(const KernelRequest& req, const KernelResult& res) {
  const std::vector<lac::fft::cplx>& x = req.xc.vec();
  if (res.spectrum.size() != x.size()) return "FFT spectrum length";
  const std::size_t n = req.fft_variant == lac::fabric::FftVariant::FourStep
                            ? x.size()
                            : static_cast<std::size_t>(req.fft_n);
  double worst = 0.0;
  for (std::size_t f = 0; f * n < x.size(); ++f) {
    const std::vector<lac::fft::cplx> frame(x.begin() + static_cast<std::ptrdiff_t>(f * n),
                                            x.begin() + static_cast<std::ptrdiff_t>((f + 1) * n));
    const std::vector<lac::fft::cplx> want = lac::fft::dft(frame);
    double norm = 0.0;
    for (const lac::fft::cplx& v : frame) norm += std::norm(v);
    norm = std::sqrt(norm * static_cast<double>(n));
    for (std::size_t k = 0; k < n; ++k)
      worst = std::max(worst, std::abs(res.spectrum[f * n + k] - want[k]) /
                                  std::max(norm, 1e-300));
  }
  return worst <= kTol ? "" : fail("FFT", worst);
}

}  // namespace

double mac_slots(const KernelRequest& req) {
  if (req.kind == KernelKind::ChipGemm) {
    const lac::arch::ChipConfig chip = lac::fabric::effective_chip(req);
    return static_cast<double>(chip.cores) * chip.core.nr * chip.core.nr;
  }
  return static_cast<double>(req.core.nr) * req.core.nr;
}

std::string check_numerics(const KernelRequest& req, const KernelResult& res) {
  if (!res.ok) return "result not ok: " + res.error;
  if (req.kind == KernelKind::Gemm || req.kind == KernelKind::ChipGemm)
    return check_gemm(req.a.matrix(), req.b.matrix(), req.c.matrix(), res.out);
  if (req.kind == KernelKind::Syrk)
    return check_rank_k(req.a.matrix(), req.a.matrix(), req.c.matrix(), res.out,
                        false, "SYRK");
  if (req.kind == KernelKind::Syr2k)
    return check_rank_k(req.a.matrix(), req.b.matrix(), req.c.matrix(), res.out,
                        true, "SYR2K");
  if (req.kind == KernelKind::Trsm)
    return check_trsm(req.a.matrix(), req.b.matrix(), res.out);
  if (req.kind == KernelKind::Cholesky) return check_cholesky(req.a.matrix(), res.out);
  if (req.kind == KernelKind::Lu) return check_lu(req.a.matrix(), res.out, res.pivots);
  if (req.kind == KernelKind::Qr) return check_qr(req.a.matrix(), res.out, res.taus);
  if (req.kind == KernelKind::Vnorm) return check_vnorm(req.x.vec(), res.scalar);
  if (req.kind == KernelKind::Fft) return check_fft(req, res);
  return std::string("no independent check for kind ") + lac::fabric::to_string(req.kind);
}

std::string check_invariants(const KernelRequest& req, const KernelResult& res) {
  if (!res.ok) return "result not ok: " + res.error;
  const double cycles = res.cycles.value();
  const double useful = lac::fabric::useful_macs(req).value();
  const double slots = mac_slots(req);
  std::ostringstream os;
  if (!(cycles > 0.0) || cycles + 1e-9 < useful / slots)
    os << "cycles " << cycles << " below useful MACs / slots " << useful / slots;
  else if (!(res.utilization > 0.0) || res.utilization > 1.0 + 1e-12)
    os << "utilization " << res.utilization << " outside (0, 1]";
  else if (!(res.energy_nj.value() > 0.0) || !std::isfinite(res.energy_nj.value()))
    os << "energy " << res.energy_nj.value() << " nJ not positive";
  return os.str();
}

double model_band_excess(const KernelRequest& req, const KernelResult& res) {
  const double model = lac::fabric::model_cycles(req).value();
  const bool gemm = req.kind == KernelKind::Gemm || req.kind == KernelKind::ChipGemm;
  const double band = (gemm ? 0.10 : 0.35) * model + 50.0;
  const double dev = std::fabs(res.cycles.value() - model);
  return dev > band ? dev / std::max(model, 1.0) : 0.0;
}

std::string check_model_band(const KernelRequest& req, const KernelResult& res) {
  if (const double excess = model_band_excess(req, res); excess > 0.0) {
    std::ostringstream os;
    os << "sim cycles " << res.cycles.value() << " are " << excess * 100
       << "% off the model's " << lac::fabric::model_cycles(req).value()
       << " (A " << req.a.rows() << "x" << req.a.cols() << ", B " << req.b.rows() << "x"
       << req.b.cols() << "), outside the band the unit tests pin";
    return os.str();
  }
  return "";
}

std::string check_result(const KernelRequest& req, const KernelResult& res) {
  std::string err = check_numerics(req, res);
  if (err.empty()) err = check_invariants(req, res);
  return err;
}

std::string check_cache_estimate(const KernelRequest& req,
                                 const lac::fabric::CostCache::Estimate& est) {
  const lac::fabric::ModelCost cost = lac::fabric::model_cost(req);
  if (est.cycles.value() != cost.cycles.value() ||
      est.utilization != cost.utilization ||
      est.energy_nj.value() != cost.energy.energy_nj().value() ||
      est.avg_power_w.value() != cost.energy.avg_power_w.value() ||
      est.area_mm2.value() != cost.energy.area_mm2.value())
    return "CostCache estimate differs from model_cost";
  return "";
}

std::string check_tech_order(const std::vector<double>& e) {
  if (e.size() != 3 || !(e[0] > 0.0) || !(e[0] < e[1]) || !(e[1] < e[2])) {
    std::ostringstream os;
    os << "energy not increasing over 32/45/65 nm:";
    for (double v : e) os << ' ' << v;
    return os.str();
  }
  return "";
}

std::vector<double> energies_by_node(const KernelRequest& req,
                                     const KernelResult* sim_result) {
  std::vector<double> out;
  for (lac::arch::TechNode node :
       {lac::arch::TechNode::nm32, lac::arch::TechNode::nm45, lac::arch::TechNode::nm65}) {
    KernelRequest r = req;
    r.tech.node = node;
    if (sim_result) {
      const lac::fabric::KernelTraits& t = lac::fabric::kernel_traits(r.kind);
      out.push_back(t.sim_energy(r, sim_result->stats, sim_result->cycles)
                        .energy_nj()
                        .value());
    } else {
      out.push_back(lac::fabric::model_cost(r).energy.energy_nj().value());
    }
  }
  return out;
}

std::string check_factor(const std::string& kind, const MatrixD& input, const MatrixD& factor,
                         const std::vector<index_t>& pivots, const std::vector<double>& taus) {
  if (kind == "chol") return check_cholesky(input, factor);  // reads the lower triangle only
  if (kind == "lu") return check_lu(input, factor, pivots);
  if (kind == "qr") return check_qr(input, factor, taus);
  return "unknown factorization " + kind;
}

std::string check_graph_times(const lac::sched::GraphResult& gr) {
  if (!gr.ok) return "graph failed: " + gr.error;
  const double serial = gr.total_cycles.value();
  const double span = gr.makespan_cycles.value();
  const double w = static_cast<double>(std::max(1u, gr.workers));
  if (!(span > 0.0) || span + 1e-9 < serial / w || span > serial + 1e-9) {
    std::ostringstream os;
    os << "makespan " << span << " outside [serial / W, serial] = [" << serial / w
       << ", " << serial << "]";
    return os.str();
  }
  if (!(gr.energy_nj.value() > 0.0)) return "graph energy not positive";
  return "";
}

std::vector<std::string> checks_self_test() {
  std::vector<std::string> fails;
  const lac::arch::CoreConfig cfg = lac::arch::lac_4x4_dp();
  const lac::fabric::SimExecutor sim;
  auto must_fail = [&fails](const std::string& err, const std::string& what) {
    if (err.empty()) fails.push_back("check did not catch: " + what);
  };
  for (KernelKind kind : lac::fabric::registered_kernel_kinds()) {
    const std::string name = lac::fabric::to_string(kind);
    const KernelRequest req =
        lac::fabric::kernel_traits(kind).sized_request(cfg, 2.0, 16, 7);
    const KernelResult good = sim.execute(req);
    if (std::string err = check_result(req, good) + check_model_band(req, good); !err.empty()) {
      fails.push_back(name + ": check fails on a correct result: " + err);
      continue;
    }
    // Corrupt the numerics in the kernel's own output field.
    KernelResult bad = good;
    if (kind == KernelKind::Vnorm) {
      bad.scalar *= 1.0 + 1e-6;
    } else if (kind == KernelKind::Fft) {
      bad.spectrum[3] += lac::fft::cplx(1e-6, 0.0);
    } else if (kind == KernelKind::Lu) {
      std::swap(bad.pivots[0], bad.pivots[1]);
      if (bad.pivots[0] == good.pivots[0]) bad.out(bad.out.rows() - 1, 0) += 1e-6;
    } else if (kind == KernelKind::Qr) {
      bad.out(0, 1) += 1e-6;
    } else {
      bad.out(bad.out.rows() - 1, 0) += 1e-6;  // lower triangle: every kind reads it
    }
    must_fail(check_numerics(req, bad), name + " corrupted numerics");
    bad = good;
    bad.cycles = lac::units::Cycles(lac::fabric::useful_macs(req).value() / mac_slots(req) / 2);
    must_fail(check_invariants(req, bad), name + " cycles below useful MACs / slots");
    bad = good;
    bad.utilization = 1.5;
    must_fail(check_invariants(req, bad), name + " utilization above 1");
    bad = good;
    bad.energy_nj = lac::units::Nanojoules(0.0);
    must_fail(check_invariants(req, bad), name + " zero energy");
    bad = good;
    bad.cycles = lac::units::Cycles(good.cycles.value() * 2 + 100);
    must_fail(check_model_band(req, bad), name + " sim cycles outside the model band");

    lac::fabric::CostCache cache;
    lac::fabric::CostCache::Estimate est = cache.estimate(req);
    if (std::string err = check_cache_estimate(req, est); !err.empty())
      fails.push_back(name + ": " + err);
    est.energy_nj = lac::units::Nanojoules(est.energy_nj.value() * (1 + 1e-12));
    must_fail(check_cache_estimate(req, est), name + " cache estimate off by 1e-12");

    std::vector<double> e = energies_by_node(req, &good);
    if (std::string err = check_tech_order(e); !err.empty())
      fails.push_back(name + ": " + err);
    std::swap(e[0], e[1]);
    must_fail(check_tech_order(e), name + " swapped 32/45 nm energies");
  }

  // Graph checks: a tiled Cholesky through the scheduler, then corrupted.
  const MatrixD a = lac::random_spd(32, 11);
  lac::sched::FactorGraph fg = lac::sched::build_cholesky_graph(cfg, 2.0, a.view(), 16);
  lac::ThreadPool pool(2);
  lac::sched::SchedulerOptions opts;
  opts.workers = 2;
  lac::sched::GraphScheduler sched(sim, opts, &pool);
  lac::sched::GraphResult gr = sched.submit(0, std::move(fg.graph)).get();
  if (std::string err = check_factor("chol", a, *fg.work, {}, {}); !err.empty())
    fails.push_back("graph chol: " + err);
  if (std::string err = check_graph_times(gr); !err.empty())
    fails.push_back("graph chol: " + err);
  (*fg.work)(20, 3) += 1e-6;
  must_fail(check_factor("chol", a, *fg.work, {}, {}), "corrupted graph factor");
  lac::sched::GraphResult bad = gr;
  bad.makespan_cycles = lac::units::Cycles(gr.total_cycles.value() * 1.01);
  must_fail(check_graph_times(bad), "graph makespan above the serial sum");
  bad.makespan_cycles = lac::units::Cycles(gr.total_cycles.value() / 2 * 0.99);
  must_fail(check_graph_times(bad), "graph makespan below serial / W");
  return fails;
}

}  // namespace lacbench
