#include "runtime/device_model.hpp"

#include <cmath>

namespace pangulu::runtime {

DeviceModel DeviceModel::a100_like() {
  DeviceModel d;
  d.name = "A100-like";
  // CPU kernels: no launch cost, one fast host core. Rates chosen so the
  // CPU/GPU crossover sits near the Figure 8 thresholds (nnz ~ 1e3.8-1e4.3,
  // FLOPs ~ 1e4.8), matching the calibration the paper's trees encode.
  d.cpu_merge = {2e-7, 2.5e10, 1.1e-9, 0};
  d.cpu_binsearch = {2e-7, 2.2e10, 1.6e-9, 0};
  d.cpu_direct = {2e-7, 3.0e10, 1.0e-9, 5e-9};
  // GPU kernels: launch overhead, high throughput once saturated. Bin-search
  // pays more per nonzero (divergent lookups); merge streams both lists
  // (cheap per entry, lower peak rate); direct pays per-row scratch.
  d.gpu_merge = {1.0e-5, 3.5e10, 3.5e-10, 0};
  d.gpu_binsearch = {1.0e-5, 3.0e10, 4e-10, 0};
  d.gpu_direct = {1.2e-5, 6.0e10, 1.5e-10, 2e-8};
  // Dense pipeline of the supernodal baseline. Table 4 of the paper implies
  // very low effective rates (0.8-15 GFLOPS on an A100) because its Schur
  // updates are small GEMMs wrapped in irregular gather/scatter; the scatter
  // bandwidth below (random-access pattern) reproduces that regime.
  d.dense_gemm_rate = 1.5e11;
  d.gather_scatter_bw = 4.0e9;
  d.dense_launch_s = 1.0e-5;
  d.net_latency_s = 8e-6;
  d.net_bandwidth = 1.2e10;
  return d;
}

DeviceModel DeviceModel::mi50_like() {
  DeviceModel d;
  d.name = "MI50-like";
  d.cpu_merge = {2e-7, 1.5e10, 1.3e-9, 0};
  d.cpu_binsearch = {2e-7, 1.3e10, 1.9e-9, 0};
  d.cpu_direct = {2e-7, 1.8e10, 1.2e-9, 6e-9};
  d.gpu_merge = {1.6e-5, 1.9e10, 6e-10, 0};
  d.gpu_binsearch = {1.6e-5, 1.6e10, 7e-10, 0};
  d.gpu_direct = {2.0e-5, 3.2e10, 2.5e-10, 3e-8};
  d.dense_gemm_rate = 0.8e11;
  d.gather_scatter_bw = 2.2e9;
  d.dense_launch_s = 1.6e-5;
  d.net_latency_s = 8e-6;
  d.net_bandwidth = 1.2e10;
  return d;
}

double DeviceModel::sparse_kernel_time(bool gpu, kernels::Addressing addr,
                                       double flops, double nnz,
                                       double dim) const {
  const KernelCost* c = nullptr;
  switch (addr) {
    case kernels::Addressing::kDirect:
      c = gpu ? &gpu_direct : &cpu_direct;
      break;
    case kernels::Addressing::kBinSearch:
      c = gpu ? &gpu_binsearch : &cpu_binsearch;
      break;
    case kernels::Addressing::kMerge:
      c = gpu ? &gpu_merge : &cpu_merge;
      break;
  }
  return c->time(flops, nnz, dim);
}

double DeviceModel::dense_update_time(double flops, double moved_bytes) const {
  if (flops < dense_cpu_threshold) {
    return 1e-6 + flops / dense_cpu_rate + moved_bytes / host_copy_bw;
  }
  return dense_launch_s + flops / dense_gemm_rate +
         moved_bytes / gather_scatter_bw;
}

double DeviceModel::barrier_time(rank_t ranks) const {
  if (ranks <= 1) return 0.0;
  return barrier_base_s + barrier_per_rank_s * std::log2(static_cast<double>(ranks)) * 8.0;
}

std::size_t block_message_bytes(nnz_t nnz, index_t cols,
                                std::size_t value_bytes) {
  return static_cast<std::size_t>(nnz) * (value_bytes + sizeof(index_t)) +
         static_cast<std::size_t>(cols + 1) * sizeof(nnz_t);
}

}  // namespace pangulu::runtime
