// The traced run. It calls each layer's public functions from the
// benchmark's own files, in the order Solver::prepare_structure,
// run_numeric_phase and build_solve_plans call them, with a span around each
// call; replays the canonical task list through the kernel selector and the
// four kernels on a freshly assembled block matrix, timing each call; and
// replays Solver::solve's direct pass and refinement loop. Every replay is
// checked bitwise against the library's own result from the same process,
// and the untraced public calls are timed alongside so the tracing overhead
// and the time no span accounts for are reported.
#include <algorithm>
#include <iostream>
#include <limits>
#include <memory>

#include "analysis/verify.hpp"
#include "bench.hpp"
#include "block/layout.hpp"
#include "block/mapping.hpp"
#include "block/tasks.hpp"
#include "kernels/gessm.hpp"
#include "kernels/getrf.hpp"
#include "kernels/selector.hpp"
#include "kernels/ssssm.hpp"
#include "kernels/tstrf.hpp"
#include "ordering/reorder.hpp"
#include "runtime/sim.hpp"
#include "runtime/trsv_sim.hpp"
#include "solver/session.hpp"
#include "sparse/ops.hpp"
#include "symbolic/fill.hpp"

namespace perfbench {
namespace {

using namespace pangulu;
using block::Task;
using block::TaskKind;

/// Everything the factorize path derives from one matrix.
struct Pipeline {
  ordering::ReorderResult reorder;
  symbolic::SymbolicResult symbolic;
  index_t block_size = 0;
  block::BlockMatrix factors;
  block::BlockMatrixT<float> factors32;
  std::vector<Task> tasks;
  block::Mapping mapping;
  runtime::SimResult sim;
  solver::SolvePlan plan;
  runtime::TrsvPlan trsv_fwd;
  runtime::TrsvPlan trsv_bwd;
};

const char* kFamily[4] = {"getrf", "gessm", "tstrf", "ssssm"};
const char* kKernelSpan[4] = {"kernels.getrf", "kernels.gessm",
                              "kernels.tstrf", "kernels.ssssm"};
const std::vector<std::string> kGetrfVariants = {"C_V1", "G_V1", "G_V2"};
const std::vector<std::string> kPanelVariants = {"C_V1", "C_V2", "G_V1",
                                                 "G_V2", "G_V3", "G_V4"};
// In SsssmVariant enum order.
const std::vector<std::string> kSsssmVariants = {"C_V1", "C_V2", "G_V1",
                                                 "G_V2", "C_V3", "G_V3"};

const std::vector<std::string>& variants_of(int family) {
  return family == 0 ? kGetrfVariants
                     : family == 3 ? kSsssmVariants : kPanelVariants;
}

std::string variant_metric(int family, int variant) {
  return std::string("kernels.variant.") + kFamily[family] + "." +
         variants_of(family)[static_cast<std::size_t>(variant)] + "_calls";
}

class TracedRun {
 public:
  TracedRun(const Workload& w, const std::vector<Input>& inputs,
            std::uint64_t seed)
      : w_(w),
        inputs_(inputs),
        seed_(seed),
        opts_(bench_options(w)),
        fp32_(kernels::stores_fp32(w.precision)),
        samples_(inputs.size()) {}

  int run(double seconds, const std::string& out_dir) {
    for (std::size_t m = 0; m < inputs_.size(); ++m) {
      const Input& in = inputs_[m];
      sessions_.push_back(std::make_unique<solver::Session>());
      if (!ops_.record(kFactorize, sessions_.back()->setup(in.a, opts_),
                       label(m)) ||
          !ops_.record(kRefactorize,
                       sessions_.back()->refactorize(in.a.values()), label(m)))
        return finish(0, out_dir);
    }
    const double start = now_seconds();
    int rounds = 0;
    double last_round = 0;
    while (another_round(rounds, now_seconds() - start, last_round, seconds)) {
      const double round_start = now_seconds();
      for (std::size_t m = 0; m < inputs_.size(); ++m) round(m, rounds);
      last_round = now_seconds() - round_start;
      ++rounds;
    }
    return finish(rounds, out_dir);
  }

 private:
  std::string label(std::size_t m) const {
    return inputs_[m].spec.name + "@" + std::to_string(inputs_[m].spec.scale);
  }

  /// Run `f` (returning Status) inside a span; record the span's duration
  /// as a sample of `metric` for matrix m.
  template <class F>
  Status layer(const char* span, const char* metric, std::size_t m, F&& f) {
    const int id = tracer_.begin(span);
    const Status s = f();
    tracer_.end(id);
    samples_.add(metric, m, tracer_.duration(id));
    return s;
  }

  void round(std::size_t m, int r) {
    const Input& in = inputs_[m];
    tracer_.next_op();
    Pipeline p;
    const bool traced_ok =
        ops_.record(kFactorize, factorize(in.a, m, &p), label(m) + " traced");

    tracer_.next_op();
    solver::Solver solver;
    const double t0 = now_seconds();
    const Status fs = solver.factorize(in.a, opts_);
    const double untraced = now_seconds() - t0;
    if (!ops_.record(kFactorize, fs, label(m)) || !traced_ok) return;
    samples_.add("trace.factorize_untraced_s", m, untraced);

    // The traced pipeline and the kernel replay must both reproduce the
    // library's factors bit for bit.
    const bool pipeline_equal =
        fp32_ ? bitwise_equal(p.factors32, solver.factors32())
              : bitwise_equal(p.factors, solver.factors());
    if (!pipeline_equal)
      ops_.fail_check(kFactorize, label(m) + " (traced pipeline factors)");
    tracer_.next_op();
    const block::BlockMatrix fresh =
        block::BlockMatrix::from_filled(p.symbolic.filled, p.block_size);
    const bool replay_equal =
        fp32_ ? replay_kernels(block::BlockMatrixT<float>::converted_from(fresh),
                               p.tasks, m, solver.factors32())
              : replay_kernels(fresh, p.tasks, m, solver.factors());
    if (!replay_equal)
      ops_.fail_check(kFactorize, label(m) + " (kernel replay factors)");

    // Solve: the traced replica against Solver::solve on the same b.
    tracer_.next_op();
    const std::vector<value_t> b =
        make_rhs(in.a, input_key(seed_, int(m), r, 0, kRhs));
    std::vector<value_t> x_replica(b.size());
    std::vector<value_t> x_library(b.size());
    const Status rs = fp32_ ? solve(p, p.factors32, in.a, b, x_replica, m)
                            : solve(p, p.factors, in.a, b, x_replica, m);
    ops_.record(kSolve, rs, label(m) + " traced");
    const double t1 = now_seconds();
    const Status ls = solver.solve(b, x_library);
    const double untraced_solve = now_seconds() - t1;
    if (ops_.record(kSolve, ls, label(m))) {
      samples_.add("trace.solve_untraced_s", m, untraced_solve);
      if (!rs.is_ok() || !bitwise_equal(x_replica, x_library))
        ops_.fail_check(kSolve, label(m) + " (solve replica)");
      if (!BackwardErrorCheck(in.a, opts_.ir_tolerance).passes(x_library, b))
        ops_.fail_check(kSolve, label(m));
    }
    newton_steps(m, r);
  }

  /// Steps 1-5 of the pipeline as Solver::factorize runs them.
  Status factorize(const Csc& a, std::size_t m, Pipeline* p) {
    const int root = tracer_.begin("factorize");
    const Status s = factorize_layers(a, m, p);
    tracer_.end(root);
    if (!s.is_ok()) return s;
    samples_.add("trace.factorize_traced_s", m, tracer_.duration(root));
    samples_.add("trace.factorize_attributed_s", m,
                 tracer_.duration(root) - tracer_.self_time(root));
    samples_.add("trace.factorize_unattributed_s", m, tracer_.self_time(root));
    return s;
  }

  Status factorize_layers(const Csc& a, std::size_t m, Pipeline* p) {
    Status s = layer("ordering.reorder", "ordering.reorder_s", m, [&] {
      return ordering::reorder(a, opts_.reorder, &p->reorder);
    });
    if (!s.is_ok()) return s;
    double flops = 0;
    s = layer("symbolic.symbolic", "symbolic.symbolic_s", m, [&] {
      Status st = symbolic::symbolic_symmetric(p->reorder.permuted,
                                               &p->symbolic);
      if (st.is_ok()) flops = symbolic::factorization_flops(p->symbolic.filled);
      return st;
    });
    if (!s.is_ok()) return s;
    samples_.add("symbolic.nnz_lu", m,
                 static_cast<double>(p->symbolic.nnz_lu));
    samples_.add("symbolic.flops", m, flops);

    s = layer("block.blocking", "block.blocking_s", m, [&] {
      const index_t n = a.n_cols();
      p->block_size = opts_.block_size > 0
                          ? opts_.block_size
                          : block::choose_block_size(n, p->symbolic.nnz_lu);
      Status st = block::check_blocking_bounds(n, p->block_size,
                                               p->symbolic.nnz_lu);
      if (!st.is_ok()) return st;
      p->factors =
          block::BlockMatrix::from_filled(p->symbolic.filled, p->block_size);
      p->tasks = block::enumerate_tasks(p->factors);
      return Status::ok();
    });
    if (!s.is_ok()) return s;
    samples_.add("block.tasks", m, static_cast<double>(p->tasks.size()));

    s = layer("block.mapping", "block.mapping_s", m, [&] {
      const auto grid = block::ProcessGrid::make(opts_.n_ranks);
      p->mapping = block::cyclic_mapping(p->factors, grid);
      if (opts_.balance)
        p->mapping =
            block::balanced_mapping(p->factors, p->tasks, grid, p->mapping);
      return Status::ok();
    });
    const std::vector<double> weights =
        block::rank_weights(p->tasks, p->mapping);
    double total = 0;
    double heaviest = 0;
    for (double wgt : weights) {
      total += wgt;
      heaviest = std::max(heaviest, wgt);
    }
    samples_.add("block.rank_imbalance", m,
                 total > 0 ? heaviest * static_cast<double>(weights.size()) /
                                 total
                           : 1.0);

    if (opts_.verify_level != analysis::VerifyLevel::kOff) {
      s = layer("analysis.verify", "analysis.verify_s", m, [&] {
        return analysis::verify_task_graph(
            p->factors, p->tasks, p->mapping,
            block::sync_free_array(p->factors, p->tasks), opts_.verify_level);
      });
      if (!s.is_ok()) return s;
    }

    s = layer("runtime.numeric", "runtime.numeric_s", m,
              [&] { return numeric(p); });
    if (!s.is_ok()) return s;
    samples_.add("runtime.virtual_makespan_s", m, p->sim.makespan);
    samples_.add("runtime.messages", m, static_cast<double>(p->sim.messages));

    return layer("solver.plan", "solver.plan_s", m, [&] {
      p->plan = solver::SolvePlan::build(p->factors);
      runtime::TrsvOptions topts;
      topts.device = opts_.device;
      topts.n_ranks = opts_.n_ranks;
      topts.execute_numerics = false;
      auto build = [&](const auto& f) {
        Status st = runtime::build_trsv_plan(f, p->mapping, /*lower=*/true,
                                             topts, &p->trsv_fwd);
        if (!st.is_ok()) return st;
        return runtime::build_trsv_plan(f, p->mapping, /*lower=*/false, topts,
                                        &p->trsv_bwd);
      };
      return fp32_ ? build(p->factors32) : build(p->factors);
    });
  }

  /// The numeric phase with Solver::run_numeric_phase's simulator options;
  /// the FP32 path narrows, factors and widens back as the solver does.
  Status numeric(Pipeline* p) {
    runtime::SimOptions so;
    so.device = opts_.device;
    so.n_ranks = opts_.n_ranks;
    so.policy = opts_.policy;
    so.schedule = opts_.schedule;
    so.execute_numerics = true;
    so.thresholds = opts_.thresholds;
    so.pivot_tol = opts_.pivot_tol;
    so.verify_level = opts_.verify_level;
    so.abft = opts_.abft_level;
    if (!fp32_)
      return runtime::simulate_factorization(p->factors, p->tasks, p->mapping,
                                             so, &p->sim);
    p->factors32 = block::BlockMatrixT<float>::converted_from(p->factors);
    Status s = runtime::simulate_factorization(p->factors32, p->tasks,
                                               p->mapping, so, &p->sim);
    if (!s.is_ok()) return s;
    for (nnz_t pos = 0; pos < static_cast<nnz_t>(p->factors.n_blocks());
         ++pos) {
      auto dst = p->factors.block(pos).values_mut();
      const auto src = p->factors32.block(pos).values();
      for (std::size_t i = 0; i < dst.size(); ++i)
        dst[i] = static_cast<value_t>(src[i]);
    }
    return s;
  }

  /// Replay the canonical task list through the selector and the kernels,
  /// as the simulator's numerics run it under the default adaptive policy
  /// (no pool, one workspace), timing each call. True when the replayed factors equal
  /// `expected` bitwise.
  template <class V>
  bool replay_kernels(block::BlockMatrixT<V> bm, const std::vector<Task>& tasks,
                      std::size_t m, const block::BlockMatrixT<V>& expected) {
    kernels::Workspace ws;
    kernels::PivotStats pivots;
    kernels::GetrfOptions go;
    go.pivot_tol = opts_.pivot_tol;
    const auto& th = opts_.thresholds;
    double seconds[4] = {0, 0, 0, 0};
    double flops[4] = {0, 0, 0, 0};
    double calls[4] = {0, 0, 0, 0};
    std::vector<std::vector<double>> variant_calls(4);
    for (int f = 0; f < 4; ++f) variant_calls[f].assign(variants_of(f).size(), 0);

    const int root = tracer_.begin("kernels.replay");
    for (const Task& t : tasks) {
      const int family = static_cast<int>(t.kind);
      int variant = 0;
      const int id = tracer_.begin(kKernelSpan[family]);
      Status s;
      switch (t.kind) {
        case TaskKind::kGetrf: {
          const auto v = kernels::select_getrf(bm.block(t.target).nnz(), th);
          variant = static_cast<int>(v);
          s = kernels::getrf(v, bm.block(t.target), ws, &pivots, go, nullptr);
          break;
        }
        case TaskKind::kGessm: {
          const auto v = kernels::select_gessm(bm.block(t.target).nnz(),
                                               bm.block(t.src_a).nnz(), th);
          variant = static_cast<int>(v);
          s = kernels::gessm(v, bm.block(t.src_a), bm.block(t.target), ws,
                             nullptr);
          break;
        }
        case TaskKind::kTstrf: {
          const auto v = kernels::select_tstrf(bm.block(t.target).nnz(),
                                               bm.block(t.src_a).nnz(), th);
          variant = static_cast<int>(v);
          s = kernels::tstrf(v, bm.block(t.src_a), bm.block(t.target), ws,
                             nullptr);
          break;
        }
        case TaskKind::kSsssm: {
          const auto v = kernels::select_ssssm(t.weight, th);
          variant = static_cast<int>(v);
          s = kernels::ssssm(v, bm.block(t.src_a), bm.block(t.src_b),
                             bm.block(t.target), ws, nullptr);
          break;
        }
      }
      tracer_.end(id);
      if (!s.is_ok()) {
        tracer_.end(root);
        std::cerr << "perfbench: kernel replay failed on " << label(m) << ": "
                  << s.message() << "\n";
        return false;
      }
      seconds[family] += tracer_.duration(id);
      flops[family] += t.weight;
      calls[family] += 1;
      variant_calls[static_cast<std::size_t>(family)]
                   [static_cast<std::size_t>(variant)] += 1;
    }
    tracer_.end(root);
    samples_.add("kernels.total_s", m,
                 tracer_.duration(root) - tracer_.self_time(root));
    for (int f = 0; f < 4; ++f) {
      samples_.add(std::string("kernels.") + kFamily[f] + "_s", m, seconds[f]);
      samples_.add(std::string("kernels.") + kFamily[f] + "_calls", m,
                   calls[f]);
      samples_.add(std::string("kernels.") + kFamily[f] + "_flops", m,
                   flops[f]);
      for (std::size_t v = 0; v < variant_calls[f].size(); ++v)
        samples_.add(variant_metric(f, static_cast<int>(v)), m,
                     variant_calls[f][v]);
    }
    return bitwise_equal(bm, expected);
  }

  /// Solver::solve (FP64) or Solver::solve_fp32 (V = float), replayed with a
  /// span around each step: permutation and scaling, the two triangular
  /// sweeps, the FP64 residual, the update.
  template <class V>
  Status solve(const Pipeline& p, const block::BlockMatrixT<V>& f,
               const Csc& a, std::span<const value_t> b, std::span<value_t> x,
               std::size_t m) {
    const int root = tracer_.begin("solve");
    const Status s = solve_steps(p, f, a, b, x, m);
    tracer_.end(root);
    samples_.add("trace.solve_traced_s", m, tracer_.duration(root));
    samples_.add("trace.solve_attributed_s", m,
                 tracer_.duration(root) - tracer_.self_time(root));
    samples_.add("trace.solve_unattributed_s", m, tracer_.self_time(root));
    return s;
  }

  template <class V>
  Status solve_steps(const Pipeline& p, const block::BlockMatrixT<V>& f,
                     const Csc& a, std::span<const value_t> b,
                     std::span<value_t> x, std::size_t m) {
    const auto& ro = p.reorder;
    const std::size_t n = b.size();
    const bool mixed = opts_.precision == kernels::Precision::kMixedIR;
    std::vector<V> z(n);
    auto direct_pass = [&](std::span<const value_t> rhs,
                           std::span<value_t> sol) -> Status {
      {
        Tracer::Scope span(tracer_, "solver.permute");
        for (std::size_t r = 0; r < n; ++r)
          z[static_cast<std::size_t>(ro.row_perm[r])] =
              static_cast<V>(ro.row_scale[r] * rhs[r]);
      }
      const Status ss = layer("solver.sweep", "solver.sweep_s", m, [&] {
        Status st = solver::block_lower_solve(f, p.plan, std::span<V>(z));
        if (!st.is_ok()) return st;
        return solver::block_upper_solve(f, p.plan, std::span<V>(z));
      });
      if (!ss.is_ok()) return ss;
      Tracer::Scope span(tracer_, "solver.permute");
      for (std::size_t c = 0; c < n; ++c)
        sol[c] = ro.col_scale[c] *
                 static_cast<value_t>(z[static_cast<std::size_t>(ro.col_perm[c])]);
      return Status::ok();
    };

    std::vector<value_t> xi(n);
    Status s = direct_pass(b, xi);
    if (!s.is_ok()) return s;
    std::vector<value_t> r(n);
    std::vector<value_t> ax(n);
    std::vector<value_t> dx(n);
    const int max_iters = mixed ? opts_.ir_max_iters : opts_.refine_iters;
    int iterations = 0;
    value_t prev = std::numeric_limits<value_t>::infinity();
    for (int it = 0;; ++it) {
      value_t residual = 0;
      const Status rs = layer("sparse.residual", "sparse.residual_s", m, [&] {
        a.spmv(xi, ax);
        for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ax[i];
        const value_t scale =
            std::max<value_t>(norm1(a) * norm_inf(xi) + norm_inf(b), 1);
        residual = norm_inf(r) / scale;
        return Status::ok();
      });
      if (!rs.is_ok()) return rs;
      if (mixed) {
        if (residual <= opts_.ir_tolerance) break;
        if (residual >= prev * value_t(0.9) || it >= max_iters) {
          s = Status::numeric_breakdown("replayed refinement did not converge");
          break;
        }
      } else if (it == max_iters || residual <= 1e-16) {
        break;
      }
      const Status ds = direct_pass(r, dx);
      if (!ds.is_ok()) return ds;
      {
        Tracer::Scope span(tracer_, "solver.update");
        for (std::size_t i = 0; i < n; ++i) xi[i] += dx[i];
      }
      prev = residual;
      ++iterations;
    }
    std::copy(xi.begin(), xi.end(), x.begin());
    samples_.add("solver.refine_iterations", m, iterations);
    return s;
  }

  /// The Newton steps of the timed run on the session, each public call in
  /// a span; refactorize gets a child span for its numeric phase, measured
  /// by the library's own timer, so its self time is the value path.
  void newton_steps(std::size_t m, int r) {
    const Input& in = inputs_[m];
    solver::Session& session = *sessions_[m];
    for (int step = 0; step < w_.newton_steps; ++step) {
      const int k = step + 1;
      tracer_.next_op();
      Csc a = in.a;
      const std::vector<value_t> values =
          perturbed_values(in.a, input_key(seed_, int(m), r, k, kValues));
      std::copy(values.begin(), values.end(), a.values_mut().begin());
      const int id = tracer_.begin("refactorize");
      const Status s = session.refactorize(values);
      tracer_.end(id);
      if (!ops_.record(kRefactorize, s, label(m))) continue;
      tracer_.add_measured_child(id, "runtime.numeric.refactorize",
                                 session.stats().numeric_wall_seconds);
      samples_.add("solver.refactorize_self_s", m, tracer_.self_time(id));
      samples_.add("solver.footprint_mb", m,
                   static_cast<double>(session.footprint_bytes()) / 1048576.0);

      const std::vector<value_t> b =
          make_rhs(a, input_key(seed_, int(m), r, k, kRhs));
      std::vector<value_t> x(b.size());
      const int sid = tracer_.begin("session.solve");
      const Status ss = session.solve(b, x);
      tracer_.end(sid);
      if (ops_.record(kSolve, ss, label(m)) &&
          !BackwardErrorCheck(a, opts_.ir_tolerance).passes(x, b))
        ops_.fail_check(kSolve, label(m));

      const Dense panel =
          make_panel(a, kMultiRhs, input_key(seed_, int(m), r, k, kPanel));
      Dense xp;
      const int mid = tracer_.begin("session.solve_multi");
      const Status sm = session.solve_multi(panel, &xp);
      tracer_.end(mid);
      if (!ops_.record(kSolveMulti, sm, label(m))) continue;
      const BackwardErrorCheck check(a, opts_.ir_tolerance);
      for (index_t c = 0; c < kMultiRhs; ++c) {
        const std::span<const value_t> xc(xp.col(c), b.size());
        const std::span<const value_t> bc(panel.col(c), b.size());
        if (!check.passes(xc, bc)) {
          ops_.fail_check(kSolveMulti, label(m));
          break;
        }
      }
    }
  }

  double sum(const std::string& metric) const {
    return samples_.sum_of_centers(metric);
  }

  int finish(int rounds, const std::string& out_dir) {
    std::vector<Metric> out;
    auto add = [&](const std::string& name, double value, const char* unit) {
      out.push_back({name, value, unit});
    };
    const double numeric = sum("runtime.numeric_s");
    add("ordering.reorder_s", sum("ordering.reorder_s"), "s");
    add("symbolic.symbolic_s", sum("symbolic.symbolic_s"), "s");
    add("symbolic.nnz_lu", sum("symbolic.nnz_lu"), "count");
    add("symbolic.flops", sum("symbolic.flops"), "count");
    add("block.blocking_s", sum("block.blocking_s"), "s");
    add("block.mapping_s", sum("block.mapping_s"), "s");
    add("block.tasks", sum("block.tasks"), "count");
    add("block.rank_imbalance", samples_.max_of_centers("block.rank_imbalance"),
        "ratio");
    add("analysis.verify_s", sum("analysis.verify_s"), "s");
    add("runtime.numeric_s", numeric, "s");
    add("runtime.scheduler_self_s", numeric - sum("kernels.total_s"), "s");
    add("runtime.virtual_makespan_s", sum("runtime.virtual_makespan_s"), "s");
    add("runtime.messages", sum("runtime.messages"), "count");
    for (int f = 0; f < 4; ++f) {
      const std::string k = std::string("kernels.") + kFamily[f];
      const double t = sum(k + "_s");
      add(k + "_s", t, "s");
      add(k + "_calls", sum(k + "_calls"), "count");
      add(k + "_gflops", t > 0 ? sum(k + "_flops") / t / 1e9 : 0, "GFLOP/s");
    }
    for (int f = 0; f < 4; ++f)
      for (std::size_t v = 0; v < variants_of(f).size(); ++v) {
        const std::string name = variant_metric(f, static_cast<int>(v));
        add(name, sum(name), "count");
      }
    add("solver.plan_s", sum("solver.plan_s"), "s");
    add("solver.sweep_s", sum("solver.sweep_s"), "s");
    add("solver.refine_iterations",
        sum("solver.refine_iterations") / static_cast<double>(inputs_.size()),
        "count");
    add("solver.refactorize_self_s", sum("solver.refactorize_self_s"), "s");
    add("solver.footprint_mb", sum("solver.footprint_mb"), "MB");
    add("sparse.residual_s", sum("sparse.residual_s"), "s");
    for (const char* op : {"factorize", "solve"}) {
      const std::string k = std::string("trace.") + op;
      const double traced = sum(k + "_traced_s");
      const double untraced = sum(k + "_untraced_s");
      add(k + "_traced_s", traced, "s");
      add(k + "_untraced_s", untraced, "s");
      add(k + "_overhead_s", traced - untraced, "s");
      add(k + "_unattributed_s", sum(k + "_unattributed_s"), "s");
      add(k + "_coverage",
          untraced > 0 ? sum(k + "_attributed_s") / untraced : 0, "ratio");
    }

    const std::string path = out_dir + "/trace-" + w_.name + "-seed" +
                             std::to_string(seed_) + ".json";
    if (!tracer_.write(path))
      std::cerr << "perfbench: could not write " << path << "\n";
    std::cout << "workload " << w_.name << " seed " << seed_ << " traced rounds "
              << rounds << " spans written to " << path << "\n";
    std::cout << "ops " << ops_.json() << "\n";
    print_result(ops_.checks_passed, ops_, out);
    return ops_.checks_passed && rounds > 0 ? 0 : 1;
  }

  const Workload& w_;
  const std::vector<Input>& inputs_;
  std::uint64_t seed_;
  solver::Options opts_;
  bool fp32_;
  SampleTable samples_;
  OpCounts ops_;
  Tracer tracer_;
  std::vector<std::unique_ptr<solver::Session>> sessions_;
};

}  // namespace

int run_traced(const Workload& w, const std::vector<Input>& inputs,
               std::uint64_t seed, double seconds, const std::string& out_dir) {
  TracedRun run(w, inputs, seed);
  return run.run(seconds, out_dir);
}

}  // namespace perfbench
