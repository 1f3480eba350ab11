// Output checks computed apart from the library, operation counters, sample
// tables and the result line.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>

#include "bench.hpp"

namespace perfbench {

void csc_multiply(const Csc& a, std::span<const value_t> x,
                  std::span<value_t> y) {
  std::fill(y.begin(), y.end(), 0.0);
  const auto rows = a.row_idx();
  const auto vals = a.values();
  for (index_t j = 0; j < a.n_cols(); ++j) {
    const value_t xj = x[static_cast<std::size_t>(j)];
    for (nnz_t p = a.col_begin(j); p < a.col_end(j); ++p)
      y[static_cast<std::size_t>(rows[static_cast<std::size_t>(p)])] +=
          vals[static_cast<std::size_t>(p)] * xj;
  }
}

namespace {

double max_abs(std::span<const value_t> v) {
  double m = 0;
  for (value_t x : v) m = std::max(m, std::abs(x));
  return m;
}

}  // namespace

BackwardErrorCheck::BackwardErrorCheck(const Csc& a, double tolerance)
    : a_(a), tolerance_(tolerance) {
  // ||A||_1 (max column sum), ||A||_inf (max row sum) and the longest row.
  std::vector<double> row_sum(static_cast<std::size_t>(a.n_rows()), 0.0);
  std::vector<nnz_t> row_len(static_cast<std::size_t>(a.n_rows()), 0);
  const auto rows = a.row_idx();
  const auto vals = a.values();
  for (index_t j = 0; j < a.n_cols(); ++j) {
    double col_sum = 0;
    for (nnz_t p = a.col_begin(j); p < a.col_end(j); ++p) {
      const auto r = static_cast<std::size_t>(rows[static_cast<std::size_t>(p)]);
      const double v = std::abs(vals[static_cast<std::size_t>(p)]);
      col_sum += v;
      row_sum[r] += v;
      ++row_len[r];
    }
    norm1_ = std::max(norm1_, col_sum);
  }
  const double norm_inf = max_abs(row_sum);
  const nnz_t longest = row_len.empty()
                            ? 0
                            : *std::max_element(row_len.begin(), row_len.end());
  // Each residual entry is a sum of (row length + 1) rounded terms, so its
  // rounding error is at most gamma_k (|A||x| + |b|), k = row length + 1,
  // u = 2^-53. Relative to the backward-error denominator that is at most
  // gamma_k * max(1, ||A||_inf / ||A||_1). The solver's own residual and
  // this check each carry such an error, hence the factor 2.
  const double u = std::ldexp(1.0, -53);
  const double k = static_cast<double>(longest + 1);
  const double gamma = k * u / (1 - k * u);
  margin_ = 2 * gamma * std::max(1.0, norm1_ > 0 ? norm_inf / norm1_ : 1.0);
}

double BackwardErrorCheck::backward_error(std::span<const value_t> x,
                                          std::span<const value_t> b) const {
  std::vector<value_t> r(b.size());
  csc_multiply(a_, x, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  const double denom = norm1_ * max_abs(x) + max_abs(b);
  return denom > 0 ? max_abs(r) / denom : max_abs(r);
}

bool BackwardErrorCheck::passes(std::span<const value_t> x,
                                std::span<const value_t> b) const {
  const double e = backward_error(x, b);
  return std::isfinite(e) && e <= limit();
}

bool bitwise_equal(std::span<const value_t> x, std::span<const value_t> y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(value_t)) == 0;
}

template <class V>
bool bitwise_equal(const pangulu::block::BlockMatrixT<V>& x,
                   const pangulu::block::BlockMatrixT<V>& y) {
  if (x.n_blocks() != y.n_blocks()) return false;
  for (nnz_t pos = 0; pos < static_cast<nnz_t>(x.n_blocks()); ++pos) {
    const auto& bx = x.block(pos);
    const auto& by = y.block(pos);
    if (bx.nnz() != by.nnz() ||
        !std::equal(bx.col_ptr().begin(), bx.col_ptr().end(),
                    by.col_ptr().begin()) ||
        !std::equal(bx.row_idx().begin(), bx.row_idx().end(),
                    by.row_idx().begin()) ||
        std::memcmp(bx.values().data(), by.values().data(),
                    bx.values().size() * sizeof(V)) != 0)
      return false;
  }
  return true;
}

template bool bitwise_equal(const pangulu::block::BlockMatrixT<double>&,
                            const pangulu::block::BlockMatrixT<double>&);
template bool bitwise_equal(const pangulu::block::BlockMatrixT<float>&,
                            const pangulu::block::BlockMatrixT<float>&);

namespace {

const char* op_name(int kind) {
  static const char* names[kOpKinds] = {"factorize", "solve", "refactorize",
                                        "solve_multi"};
  return names[kind];
}

}  // namespace

bool OpCounts::record(OpKind kind, const pangulu::Status& s,
                      const std::string& what) {
  ++attempted[kind];
  if (s.is_ok()) return true;
  ++failed[kind];
  std::cerr << "perfbench: " << op_name(kind) << " failed on " << what << ": "
            << pangulu::to_string(s.code()) << ": " << s.message() << "\n";
  return false;
}

void OpCounts::fail_check(OpKind kind, const std::string& what) {
  ++failed[kind];
  checks_passed = false;
  std::cerr << "perfbench: output check failed after " << op_name(kind)
            << " on " << what << "\n";
}

long long OpCounts::total_attempted() const {
  long long t = 0;
  for (long long v : attempted) t += v;
  return t;
}

long long OpCounts::total_failed() const {
  long long t = 0;
  for (long long v : failed) t += v;
  return t;
}

std::string OpCounts::json() const {
  std::string s = "{";
  for (int k = 0; k < kOpKinds; ++k) {
    if (k) s += ", ";
    s += "\"" + std::string(op_name(k)) + "\": {\"attempted\": " +
         std::to_string(attempted[k]) +
         ", \"failed\": " + std::to_string(failed[k]) + "}";
  }
  return s + "}";
}

void SampleTable::add(const std::string& metric, std::size_t matrix,
                      double value) {
  auto& per_matrix = data_[metric];
  if (per_matrix.empty()) per_matrix.resize(n_);
  per_matrix[matrix].push_back(value);
}

double SampleTable::center(const std::string& metric,
                           std::size_t matrix) const {
  auto it = data_.find(metric);
  if (it == data_.end()) return 0;
  return trimmed_mean(it->second[matrix]);
}

double SampleTable::sum_of_centers(const std::string& metric) const {
  double s = 0;
  for (std::size_t m = 0; m < n_; ++m) s += center(metric, m);
  return s;
}

double SampleTable::max_of_centers(const std::string& metric) const {
  double s = 0;
  for (std::size_t m = 0; m < n_; ++m) s = std::max(s, center(metric, m));
  return s;
}

std::size_t SampleTable::samples(const std::string& metric) const {
  auto it = data_.find(metric);
  if (it == data_.end()) return 0;
  std::size_t n = 0;
  for (const auto& v : it->second) n += v.size();
  return n;
}

std::string SampleTable::describe(const std::string& metric,
                                  const std::vector<std::string>& labels) const {
  auto it = data_.find(metric);
  if (it == data_.end()) return {};
  std::string out;
  char buf[32];
  for (std::size_t m = 0; m < n_; ++m) {
    std::snprintf(buf, sizeof buf, "%.4f", center(metric, m));
    out += metric + " " + labels[m] + " trimmed_mean " + buf + " samples";
    for (double v : it->second[m]) {
      std::snprintf(buf, sizeof buf, " %.4f", v);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

double trimmed_mean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t cut =
      v.size() < 3 ? 0 : std::max<std::size_t>(1, v.size() / 10);
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

void print_result(bool correct, const OpCounts& ops,
                  const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(ops.total_attempted());
  s += ", \"failed\": " + std::to_string(ops.total_failed());
  s += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  std::cout << s << std::endl;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
