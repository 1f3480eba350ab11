// Workload table and seeded inputs. The matrices are the library's
// deterministic paper stand-ins; the seed drives every right-hand side and
// every Newton value perturbation.
#include <cstdint>

#include "bench.hpp"

namespace perfbench {

namespace {

using pangulu::kernels::Precision;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      // Fill-heavy stand-ins: the numeric phase, dominated by SSSSM, is most
      // of factorize.
      {"fill_heavy",
       {{"ASIC_680k", 0.5}, {"cage12", 0.6}, {"Si87H76", 0.5}, {"Serena", 0.6}},
       Precision::kDouble,
       1},
      // 2D-grid stand-ins: ordering, symbolic and blocking are about half of
      // factorize; blocks are tiny and FP64 solves refine three times.
      {"grid_analysis",
       {{"ecology1", 2.0}, {"G3_circuit", 2.0}},
       Precision::kDouble,
       1},
      // Newton loop at mixed precision: FP32 factors, FP64 refinement, two
      // refactorize + solve + solve_multi steps per analysis.
      {"newton_mixed",
       {{"ASIC_680k", 0.8}, {"Serena", 0.8}},
       Precision::kMixedIR,
       2},
  };
  return table;
}

/// splitmix64: a small, portable, seedable generator.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t state) : state_(state) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [-1, 1).
  double symmetric() {
    return static_cast<double>(next() >> 11) * 0x1.0p-52 - 1.0;
  }

 private:
  std::uint64_t state_;
};

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::string workload_names() {
  std::string names;
  for (const Workload& w : workloads())
    names += (names.empty() ? "" : ", ") + w.name;
  return names;
}

pangulu::solver::Options bench_options(const Workload& w) {
  pangulu::solver::Options o;
  o.n_ranks = 4;
  o.precision = w.precision;
  return o;
}

std::uint64_t input_key(std::uint64_t seed, int matrix, int round, int step,
                        int purpose) {
  SplitMix mix(seed);
  std::uint64_t key = mix.next();
  for (std::uint64_t part :
       {static_cast<std::uint64_t>(matrix), static_cast<std::uint64_t>(round),
        static_cast<std::uint64_t>(step), static_cast<std::uint64_t>(purpose)}) {
    SplitMix m(key ^ (part * 0x2545f4914f6cdd1dULL));
    key = m.next();
  }
  return key;
}

std::vector<value_t> make_rhs(const Csc& a, std::uint64_t key) {
  SplitMix rng(key);
  std::vector<value_t> x(static_cast<std::size_t>(a.n_cols()));
  for (value_t& v : x) v = rng.symmetric();
  std::vector<value_t> b(static_cast<std::size_t>(a.n_rows()));
  csc_multiply(a, x, b);
  return b;
}

Dense make_panel(const Csc& a, index_t k, std::uint64_t key) {
  Dense panel(a.n_rows(), k);
  SplitMix keys(key);
  for (index_t c = 0; c < k; ++c) {
    const std::vector<value_t> b = make_rhs(a, keys.next());
    std::copy(b.begin(), b.end(), panel.col(c));
  }
  return panel;
}

std::vector<value_t> perturbed_values(const Csc& a, std::uint64_t key) {
  SplitMix rng(key);
  const auto v = a.values();
  std::vector<value_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    out[i] = v[i] * (1.0 + kPerturbation * rng.symmetric());
  return out;
}

}  // namespace perfbench
