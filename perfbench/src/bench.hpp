// Shared declarations of the host-time benchmark: workloads, seeded inputs,
// output checks computed apart from the library, operation counters, and the
// span recorder of the traced run.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "kernels/precision.hpp"
#include "solver/solver.hpp"
#include "sparse/csc.hpp"
#include "sparse/dense.hpp"

namespace perfbench {

using pangulu::Csc;
using pangulu::Dense;
using pangulu::index_t;
using pangulu::nnz_t;
using pangulu::value_t;

// ---------------------------------------------------------------- workloads

struct MatrixSpec {
  std::string name;  // matgen::paper_matrix name
  double scale = 1;
};

struct Workload {
  std::string name;
  std::vector<MatrixSpec> matrices;
  pangulu::kernels::Precision precision = pangulu::kernels::Precision::kDouble;
  /// Session::refactorize steps per matrix per round, each followed by one
  /// single-RHS solve and one k-column solve_multi.
  int newton_steps = 1;
};

/// nullptr for an unknown name.
const Workload* find_workload(const std::string& name);
std::string workload_names();

constexpr index_t kMultiRhs = 8;

/// Solver options of every run: the defaults, 4 ranks, the workload's
/// precision.
pangulu::solver::Options bench_options(const Workload& w);

// ------------------------------------------------------------- seeded inputs

/// Key of one seeded input stream: (seed, matrix, round, step, purpose).
std::uint64_t input_key(std::uint64_t seed, int matrix, int round, int step,
                        int purpose);

enum Purpose { kRhs = 1, kValues = 2, kPanel = 3, kFixedRhs = 4 };

/// Relative amplitude of the Newton value perturbation: every entry of A is
/// multiplied by (1 + kPerturbation * u), u uniform in [-1, 1).
constexpr double kPerturbation = 0.05;

/// b = A * x_true with x_true uniform in [-1, 1).
std::vector<value_t> make_rhs(const Csc& a, std::uint64_t key);
/// An n x k panel of such right-hand sides.
Dense make_panel(const Csc& a, index_t k, std::uint64_t key);
/// A's values, each scaled by (1 + kPerturbation * u).
std::vector<value_t> perturbed_values(const Csc& a, std::uint64_t key);

// ------------------------------------------------------------ output checks

/// y = A x with the benchmark's own loop (not the library's spmv).
void csc_multiply(const Csc& a, std::span<const value_t> x,
                  std::span<value_t> y);

/// Backward-error check computed with the benchmark's own CSC mat-vec and
/// norms: ||b - A x||_inf / (||A||_1 ||x||_inf + ||b||_inf).
class BackwardErrorCheck {
 public:
  /// `tolerance` is what the run asked the solver for.
  BackwardErrorCheck(const Csc& a, double tolerance);
  double backward_error(std::span<const value_t> x,
                        std::span<const value_t> b) const;
  bool passes(std::span<const value_t> x, std::span<const value_t> b) const;
  /// The tolerance plus the rounding allowance of the check itself.
  double limit() const { return tolerance_ + margin_; }

 private:
  const Csc& a_;
  double norm1_ = 0;
  double tolerance_ = 0;
  double margin_ = 0;
};

bool bitwise_equal(std::span<const value_t> x, std::span<const value_t> y);
template <class V>
bool bitwise_equal(const pangulu::block::BlockMatrixT<V>& x,
                   const pangulu::block::BlockMatrixT<V>& y);

// ------------------------------------------------------- operation counters

enum OpKind { kFactorize = 0, kSolve, kRefactorize, kSolveMulti, kOpKinds };

struct OpCounts {
  std::array<long long, kOpKinds> attempted{};
  std::array<long long, kOpKinds> failed{};
  bool checks_passed = true;

  /// Count one operation; a non-ok status counts as failed and is reported.
  bool record(OpKind kind, const pangulu::Status& s, const std::string& what);
  /// Count a failed output check against an operation already recorded.
  void fail_check(OpKind kind, const std::string& what);
  long long total_attempted() const;
  long long total_failed() const;
  /// One-line JSON of the per-kind counts.
  std::string json() const;
};

// ------------------------------------------------------------------ metrics

/// Per-matrix samples of one metric; reported as the sum over matrices of
/// each matrix's trimmed mean.
class SampleTable {
 public:
  explicit SampleTable(std::size_t n_matrices) : n_(n_matrices) {}
  void add(const std::string& metric, std::size_t matrix, double value);
  double center(const std::string& metric, std::size_t matrix) const;
  double sum_of_centers(const std::string& metric) const;
  double max_of_centers(const std::string& metric) const;
  std::size_t samples(const std::string& metric) const;
  /// One line per matrix: its samples of `metric`, in run order.
  std::string describe(const std::string& metric,
                       const std::vector<std::string>& labels) const;

 private:
  std::size_t n_;
  std::map<std::string, std::vector<std::vector<double>>> data_;
};

/// Mean of the samples left after dropping the lowest and the highest tenth
/// (at least one each way from three samples on). Operation times here are
/// often a mix of discrete modes (refinement sweep counts that depend on the
/// right-hand side, slow host phases), where a median of a few samples
/// jumps between modes from run to run; the trimmed mean moves with the mix
/// and still drops the outliers.
double trimmed_mean(std::vector<double> v);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Print the last line of the run: the JSON result object.
void print_result(bool correct, const OpCounts& ops,
                  const std::vector<Metric>& metrics);

double peak_rss_mb();
double now_seconds();

/// Whole rounds fill the run: another round starts while the run would end
/// closer to `seconds` with it than without it (always at least one round).
inline bool another_round(int rounds, double elapsed, double last_round,
                          double seconds) {
  return rounds == 0 || elapsed + 0.5 * last_round < seconds;
}

// ------------------------------------------------------------------ tracing

/// In-memory span recorder. Each span has a name, a start, an end, a parent
/// and an operation id; spans are written out as JSON when the run ends.
/// Self time is a span's duration minus its children's.
class Tracer {
 public:
  int begin(const char* name);
  void end(int id);
  /// A child span of `parent` whose duration was measured elsewhere (by the
  /// library's own timer); it is placed at the end of the parent's interval.
  void add_measured_child(int parent, const char* name, double seconds);
  /// Start a new operation: spans opened from here on share its id.
  void next_op() { ++op_; }
  double duration(int id) const;
  double self_time(int id) const;
  /// Write every span, with its self time, to `path`.
  bool write(const std::string& path) const;

  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Tracer& t_;
    int id_;
  };

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
    int op;
    double child_total;
  };
  std::vector<Span> spans_;
  std::vector<int> open_;
  int op_ = 0;
};

// ---------------------------------------------------------------- the runs

struct Input {
  MatrixSpec spec;
  Csc a;                          // set-up values
  std::vector<value_t> fixed_b;   // right-hand side of the contract check
};

/// The traced run: per-layer metrics from the benchmark's own calls into each
/// layer, plus the kernel-replay and solve-replica bitwise checks.
int run_traced(const Workload& w, const std::vector<Input>& inputs,
               std::uint64_t seed, double seconds, const std::string& out_dir);

}  // namespace perfbench
