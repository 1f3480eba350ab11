// Host-time benchmark of the PanguLU reproduction.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// One client thread drives the library through its public API in a closed
// loop (each operation starts after the previous one returns). Operations on
// the workload's matrices are interleaved round-robin across the run; each
// timing metric is the sum over matrices of that operation's per-matrix
// trimmed mean (bench.hpp). --trace 1 runs the traced replay instead (traced.cpp) and reports
// the per-layer metrics. The last line of standard output is the JSON result.
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "bench.hpp"
#include "matgen/generators.hpp"
#include "solver/session.hpp"

namespace perfbench {
namespace {

using pangulu::Status;
using pangulu::solver::Session;
using pangulu::solver::Solver;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = 0;
  std::string out_dir = ".";
};

bool parse_args(int argc, char** argv, Args* args) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have[0] = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have[1] = end && *end == '\0' && !value.empty();
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have[2] = end && *end == '\0' && args->seconds > 0;
    } else if (key == "--trace") {
      have[3] = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have[0] && have[1] && have[2] && have[3];
}

/// The untraced timed run.
class TimedRun {
 public:
  TimedRun(const Workload& w, const std::vector<Input>& inputs,
           std::uint64_t seed)
      : w_(w),
        inputs_(inputs),
        seed_(seed),
        opts_(bench_options(w)),
        samples_(inputs.size()) {}

  int run(double seconds) {
    const double setup_start = now_seconds();
    if (!setup()) return finish(0, 0);
    const double setup_s = now_seconds() - setup_start;

    const double start = now_seconds();
    int rounds = 0;
    double last_round = 0;
    while (another_round(rounds, now_seconds() - start, last_round, seconds)) {
      const double round_start = now_seconds();
      for (std::size_t m = 0; m < inputs_.size(); ++m) round(m, rounds);
      last_round = now_seconds() - round_start;
      ++rounds;
    }
    check_refactorize_contract();
    return finish(rounds, setup_s);
  }

 private:
  std::string label(std::size_t m) const {
    return inputs_[m].spec.name + "@" + std::to_string(inputs_[m].spec.scale);
  }

  /// Solve with `solve_fn`, time it, and check the backward error against
  /// `a`.
  template <class SolveFn>
  void timed_solve(std::size_t m, const Csc& a, std::uint64_t key,
                   SolveFn&& solve_fn) {
    const std::vector<value_t> b = make_rhs(a, key);
    std::vector<value_t> x(b.size());
    const double t0 = now_seconds();
    const Status s = solve_fn(b, x);
    const double t = now_seconds() - t0;
    if (!ops_.record(kSolve, s, label(m))) return;
    samples_.add("solve_s", m, t);
    if (!BackwardErrorCheck(a, opts_.ir_tolerance).passes(x, b))
      ops_.fail_check(kSolve, label(m));
  }

  /// Set-up: Session::setup, the first refactorize (which builds the reuse
  /// maps lazily) and the first solve of every matrix.
  bool setup() {
    for (std::size_t m = 0; m < inputs_.size(); ++m) {
      const Input& in = inputs_[m];
      sessions_.push_back(std::make_unique<Session>());
      Session& s = *sessions_.back();
      if (!ops_.record(kFactorize, s.setup(in.a, opts_), label(m)) ||
          !ops_.record(kRefactorize, s.refactorize(in.a.values()), label(m)))
        return false;
      std::vector<value_t> x(in.fixed_b.size());
      if (!ops_.record(kSolve, s.solve(in.fixed_b, x), label(m))) return false;
      if (!BackwardErrorCheck(in.a, opts_.ir_tolerance).passes(x, in.fixed_b))
        ops_.fail_check(kSolve, label(m));
    }
    return true;
  }

  /// One round on matrix m: a one-shot factorize + solve on the set-up
  /// values, then the Newton steps on the session.
  void round(std::size_t m, int r) {
    const Input& in = inputs_[m];
    {
      Solver solver;
      const double t0 = now_seconds();
      const Status s = solver.factorize(in.a, opts_);
      const double t = now_seconds() - t0;
      if (ops_.record(kFactorize, s, label(m))) {
        samples_.add("factorize_s", m, t);
        timed_solve(m, in.a, input_key(seed_, int(m), r, 0, kRhs),
                    [&](const auto& b, auto& x) { return solver.solve(b, x); });
      } else {
        ops_.record(kSolve, Status::failed_precondition("factorize failed"),
                    label(m));
      }
    }
    Session& session = *sessions_[m];
    for (int step = 0; step < w_.newton_steps; ++step) {
      const int k = step + 1;
      Csc a = in.a;
      const std::vector<value_t> values =
          perturbed_values(in.a, input_key(seed_, int(m), r, k, kValues));
      std::copy(values.begin(), values.end(), a.values_mut().begin());
      const double t0 = now_seconds();
      const Status s = session.refactorize(values);
      const double t = now_seconds() - t0;
      if (ops_.record(kRefactorize, s, label(m)))
        samples_.add("refactorize_s", m, t);
      timed_solve(m, a, input_key(seed_, int(m), r, k, kRhs),
                  [&](const auto& b, auto& x) { return session.solve(b, x); });

      const Dense panel =
          make_panel(a, kMultiRhs, input_key(seed_, int(m), r, k, kPanel));
      Dense x;
      const double t1 = now_seconds();
      const Status sm = session.solve_multi(panel, &x);
      const double tm = now_seconds() - t1;
      if (!ops_.record(kSolveMulti, sm, label(m))) continue;
      samples_.add("solve_multi_s", m, tm);
      const BackwardErrorCheck check(a, opts_.ir_tolerance);
      for (index_t c = 0; c < kMultiRhs; ++c) {
        const std::span<const value_t> xc(x.col(c),
                                          static_cast<std::size_t>(a.n_rows()));
        const std::span<const value_t> bc(panel.col(c),
                                          static_cast<std::size_t>(a.n_rows()));
        if (!check.passes(xc, bc)) {
          ops_.fail_check(kSolveMulti, label(m));
          break;
        }
      }
    }
  }

  /// The refactorize contract: after the loop, refactorizing back to the
  /// set-up values must solve a fixed right-hand side bitwise equal to a
  /// fresh Session::setup on those values (MC64 scaling is frozen at set-up,
  /// so only the set-up values give a comparable from-scratch run).
  void check_refactorize_contract() {
    for (std::size_t m = 0; m < inputs_.size(); ++m) {
      const Input& in = inputs_[m];
      Session& session = *sessions_[m];
      std::vector<value_t> x_reused(in.fixed_b.size());
      std::vector<value_t> x_fresh(in.fixed_b.size());
      if (!ops_.record(kRefactorize, session.refactorize(in.a.values()),
                       label(m)) ||
          !ops_.record(kSolve, session.solve(in.fixed_b, x_reused), label(m)))
        continue;
      Session fresh;
      if (!ops_.record(kFactorize, fresh.setup(in.a, opts_), label(m)) ||
          !ops_.record(kSolve, fresh.solve(in.fixed_b, x_fresh), label(m)))
        continue;
      if (!bitwise_equal(x_reused, x_fresh))
        ops_.fail_check(kRefactorize, label(m) + " (refactorize contract)");
    }
  }

  int finish(int rounds, double setup_s) {
    std::vector<Metric> metrics = {
        {"factorize_s", samples_.sum_of_centers("factorize_s"), "s"},
        {"solve_s", samples_.sum_of_centers("solve_s"), "s"},
        {"refactorize_s", samples_.sum_of_centers("refactorize_s"), "s"},
        {"solve_multi_s", samples_.sum_of_centers("solve_multi_s"), "s"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    std::cout << "workload " << w_.name << " seed " << seed_ << " rounds "
              << rounds << " samples factorize "
              << samples_.samples("factorize_s") << " solve "
              << samples_.samples("solve_s") << " refactorize "
              << samples_.samples("refactorize_s") << " solve_multi "
              << samples_.samples("solve_multi_s") << "\n";
    std::vector<std::string> labels;
    for (std::size_t m = 0; m < inputs_.size(); ++m) {
      labels.push_back(label(m));
      if (m >= sessions_.size() || !sessions_[m]->ready()) continue;
      const pangulu::solver::FactorStats st = sessions_[m]->stats();
      std::cout << "input " << label(m) << " n " << st.n << " nnz_a "
                << st.nnz_a << " nnz_lu " << st.nnz_lu << " block_size "
                << st.block_size << " tasks " << st.n_tasks << "\n";
    }
    for (const char* metric :
         {"factorize_s", "solve_s", "refactorize_s", "solve_multi_s"})
      std::cout << samples_.describe(metric, labels);
    std::cout << "ops " << ops_.json() << "\n";
    print_result(ops_.checks_passed, ops_, metrics);
    return ops_.checks_passed && rounds > 0 ? 0 : 1;
  }

  const Workload& w_;
  const std::vector<Input>& inputs_;
  std::uint64_t seed_;
  pangulu::solver::Options opts_;
  SampleTable samples_;
  OpCounts ops_;
  std::vector<std::unique_ptr<Session>> sessions_;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload <" << workload_names()
              << "> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n";
    return 2;
  }
  const Workload* w = find_workload(args.workload);
  if (!w) {
    std::cerr << "perfbench: unknown workload '" << args.workload
              << "' (known: " << workload_names() << ")\n";
    return 2;
  }
  std::vector<Input> inputs;
  for (std::size_t m = 0; m < w->matrices.size(); ++m) {
    Input in;
    in.spec = w->matrices[m];
    in.a = pangulu::matgen::paper_matrix(in.spec.name, in.spec.scale);
    if (in.a.n_cols() == 0) {
      std::cerr << "perfbench: no stand-in named " << in.spec.name << "\n";
      return 2;
    }
    in.fixed_b =
        make_rhs(in.a, input_key(args.seed, static_cast<int>(m), 0, 0,
                                 kFixedRhs));
    inputs.push_back(std::move(in));
  }
  if (args.trace)
    return run_traced(*w, inputs, args.seed, args.seconds, args.out_dir);
  TimedRun run(*w, inputs, args.seed);
  return run.run(args.seconds);
}
