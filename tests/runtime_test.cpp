#include <gtest/gtest.h>

#include "block/layout.hpp"
#include "block/mapping.hpp"
#include "block/tasks.hpp"
#include "kernels/getrf.hpp"
#include "matgen/generators.hpp"
#include "runtime/device_model.hpp"
#include "runtime/sim.hpp"
#include "runtime/threaded.hpp"
#include "symbolic/fill.hpp"

namespace pangulu::runtime {
namespace {

struct Prepared {
  block::BlockMatrix bm;
  std::vector<block::Task> tasks;
  block::Mapping mapping;
};

Prepared prepare(const Csc& a, index_t block_size, rank_t ranks) {
  symbolic::SymbolicResult sym;
  symbolic::symbolic_symmetric(a, &sym).check();
  Prepared p;
  p.bm = block::BlockMatrix::from_filled(sym.filled, block_size);
  p.tasks = block::enumerate_tasks(p.bm);
  p.mapping = block::cyclic_mapping(p.bm, block::ProcessGrid::make(ranks));
  return p;
}

/// Serial single-block reference factorisation of the same filled pattern.
Csc reference_factor(const Csc& a) {
  symbolic::SymbolicResult sym;
  symbolic::symbolic_symmetric(a, &sym).check();
  Csc f = sym.filled;
  kernels::Workspace ws;
  kernels::getrf(kernels::GetrfVariant::kCV1, f, ws, nullptr).check();
  return f;
}

TEST(DeviceModel, CostOrderingMatchesDecisionTreeRegimes) {
  using kernels::Addressing;
  DeviceModel d = DeviceModel::a100_like();
  // Tiny kernels: CPU beats GPU (launch overhead dominates).
  EXPECT_LT(d.sparse_kernel_time(false, Addressing::kMerge, 1e3, 100, 32),
            d.sparse_kernel_time(true, Addressing::kBinSearch, 1e3, 100, 32));
  // Huge kernels: GPU wins on throughput.
  EXPECT_GT(d.sparse_kernel_time(false, Addressing::kMerge, 1e9, 1e6, 256),
            d.sparse_kernel_time(true, Addressing::kBinSearch, 1e9, 1e6, 256));
  // Very large work: dense-mapping GPU beats bin-search GPU.
  EXPECT_GT(
      d.sparse_kernel_time(true, Addressing::kBinSearch, 1e10, 3e7, 256),
      d.sparse_kernel_time(true, Addressing::kDirect, 1e10, 3e7, 256));
}

TEST(DeviceModel, Mi50SlowerThanA100) {
  using kernels::Addressing;
  DeviceModel a = DeviceModel::a100_like();
  DeviceModel m = DeviceModel::mi50_like();
  EXPECT_GT(m.sparse_kernel_time(true, Addressing::kDirect, 1e9, 1e6, 256),
            a.sparse_kernel_time(true, Addressing::kDirect, 1e9, 1e6, 256));
  EXPECT_GT(m.dense_update_time(1e9, 1e8), a.dense_update_time(1e9, 1e8));
}

TEST(DeviceModel, MessageTimeGrowsWithBytes) {
  DeviceModel d = DeviceModel::a100_like();
  EXPECT_LT(d.message_time(1024), d.message_time(1 << 24));
  EXPECT_GT(d.message_time(0), 0.0);  // latency floor
  EXPECT_GT(block_message_bytes(100, 32), 100 * sizeof(value_t));
}

class SimCorrectnessP
    : public ::testing::TestWithParam<std::tuple<rank_t, ScheduleMode>> {};

TEST_P(SimCorrectnessP, FactorsMatchSingleBlockReference) {
  auto [ranks, mode] = GetParam();
  Csc a = matgen::grid2d_laplacian(9, 9);
  Csc ref = reference_factor(a);

  Prepared p = prepare(a, 16, ranks);
  SimOptions opts;
  opts.n_ranks = ranks;
  opts.schedule = mode;
  SimResult res;
  ASSERT_TRUE(simulate_factorization(p.bm, p.tasks, p.mapping, opts, &res).is_ok());
  Csc assembled = p.bm.to_csc();
  EXPECT_TRUE(assembled.approx_equal(ref, 1e-9))
      << "distributed factors differ from the serial reference";
  EXPECT_GT(res.makespan, 0);
  EXPECT_GT(res.total_flops, 0);
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndModes, SimCorrectnessP,
    ::testing::Combine(::testing::Values<rank_t>(1, 2, 4, 8),
                       ::testing::Values(ScheduleMode::kSyncFree,
                                         ScheduleMode::kLevelSet)));

TEST(Sim, PoliciesProduceSameNumbers) {
  Csc a = matgen::circuit(250, 2.0, 2.2, 5);
  Csc first;
  for (auto policy : {KernelPolicy::kFixedCpu, KernelPolicy::kFixedGpu,
                      KernelPolicy::kAdaptive}) {
    Prepared p = prepare(a, 32, 4);
    SimOptions opts;
    opts.n_ranks = 4;
    opts.policy = policy;
    SimResult res;
    ASSERT_TRUE(
        simulate_factorization(p.bm, p.tasks, p.mapping, opts, &res).is_ok());
    Csc f = p.bm.to_csc();
    if (first.n_rows() == 0)
      first = f;
    else
      EXPECT_TRUE(first.approx_equal(f, 1e-9));
  }
}

TEST(Sim, DeterministicAcrossRuns) {
  Csc a = matgen::grid2d_laplacian(10, 10);
  SimResult r1, r2;
  for (auto* res : {&r1, &r2}) {
    Prepared p = prepare(a, 16, 4);
    SimOptions opts;
    opts.n_ranks = 4;
    ASSERT_TRUE(
        simulate_factorization(p.bm, p.tasks, p.mapping, opts, res).is_ok());
  }
  EXPECT_DOUBLE_EQ(r1.makespan, r2.makespan);
  EXPECT_EQ(r1.messages, r2.messages);
  EXPECT_EQ(r1.bytes, r2.bytes);
}

TEST(Sim, MoreRanksSpeedUpAComputeHeavyMatrix) {
  // Needs enough work per task that communication does not dominate at 8
  // ranks: a dense-band matrix gives compute-heavy blocks.
  Csc a = matgen::banded_random(900, 70, 0.5, 4, 5);
  double t1 = 0, t8 = 0;
  {
    Prepared p = prepare(a, 128, 1);
    SimOptions opts;
    opts.n_ranks = 1;
    opts.execute_numerics = false;  // timing-only run
    SimResult res;
    ASSERT_TRUE(
        simulate_factorization(p.bm, p.tasks, p.mapping, opts, &res).is_ok());
    t1 = res.makespan;
  }
  {
    Prepared p = prepare(a, 128, 8);
    SimOptions opts;
    opts.n_ranks = 8;
    opts.execute_numerics = false;
    SimResult res;
    ASSERT_TRUE(
        simulate_factorization(p.bm, p.tasks, p.mapping, opts, &res).is_ok());
    t8 = res.makespan;
  }
  EXPECT_LT(t8, t1) << "8 simulated ranks should beat 1";
}

TEST(Sim, SyncFreeBeatsLevelSetOnSyncTime) {
  Csc a = matgen::grid3d_laplacian(6, 6, 6);
  SimResult sync_free, level_set;
  {
    Prepared p = prepare(a, 24, 8);
    SimOptions opts;
    opts.n_ranks = 8;
    opts.execute_numerics = false;
    opts.schedule = ScheduleMode::kSyncFree;
    ASSERT_TRUE(simulate_factorization(p.bm, p.tasks, p.mapping, opts,
                                       &sync_free).is_ok());
  }
  {
    Prepared p = prepare(a, 24, 8);
    SimOptions opts;
    opts.n_ranks = 8;
    opts.execute_numerics = false;
    opts.schedule = ScheduleMode::kLevelSet;
    ASSERT_TRUE(simulate_factorization(p.bm, p.tasks, p.mapping, opts,
                                       &level_set).is_ok());
  }
  EXPECT_LT(sync_free.makespan, level_set.makespan);
}

TEST(Sim, KindBreakdownSumsToBusyTotals) {
  Csc a = matgen::circuit(200, 2.0, 2.2, 9);
  Prepared p = prepare(a, 32, 2);
  SimOptions opts;
  opts.n_ranks = 2;
  opts.execute_numerics = false;
  SimResult res;
  ASSERT_TRUE(
      simulate_factorization(p.bm, p.tasks, p.mapping, opts, &res).is_ok());
  using block::TaskKind;
  const double panel = res.kind_busy[static_cast<int>(TaskKind::kGetrf)] +
                       res.kind_busy[static_cast<int>(TaskKind::kGessm)] +
                       res.kind_busy[static_cast<int>(TaskKind::kTstrf)];
  EXPECT_NEAR(panel, res.panel_busy, 1e-12);
  EXPECT_NEAR(res.kind_busy[static_cast<int>(TaskKind::kSsssm)],
              res.schur_busy, 1e-12);
  std::int64_t total_tasks = 0;
  for (int k = 0; k < 4; ++k) total_tasks += res.kind_count[k];
  EXPECT_EQ(total_tasks, static_cast<std::int64_t>(p.tasks.size()));
  EXPECT_EQ(res.kind_count[static_cast<int>(TaskKind::kGetrf)],
            static_cast<std::int64_t>(p.bm.nb()));
}

TEST(Sim, RejectsBadRankCounts) {
  Csc a = matgen::grid2d_laplacian(4, 4);
  Prepared p = prepare(a, 8, 2);
  SimOptions opts;
  opts.n_ranks = 0;
  SimResult res;
  EXPECT_FALSE(
      simulate_factorization(p.bm, p.tasks, p.mapping, opts, &res).is_ok());
  opts.n_ranks = 3;  // mapping was built for 2
  EXPECT_FALSE(
      simulate_factorization(p.bm, p.tasks, p.mapping, opts, &res).is_ok());
}

class ThreadedP : public ::testing::TestWithParam<rank_t> {};

TEST_P(ThreadedP, ConcurrentRanksMatchReference) {
  Csc a = matgen::grid2d_laplacian(8, 8);
  Csc ref = reference_factor(a);
  Prepared p = prepare(a, 12, GetParam());
  ThreadedOptions opts;
  opts.n_ranks = GetParam();
  ASSERT_TRUE(threaded_factorize(p.bm, p.tasks, p.mapping, opts).is_ok());
  EXPECT_TRUE(p.bm.to_csc().approx_equal(ref, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ThreadedP,
                         ::testing::Values<rank_t>(1, 2, 4, 7));

TEST(Threaded, RepeatedRunsAreConsistent) {
  // Stress interleavings: several concurrent runs must agree bit-for-bit in
  // pattern and to rounding in values (updates into a block serialise
  // through its per-block busy flag; stealing may reorder commuting
  // updates, which only moves rounding).
  Csc a = matgen::circuit(150, 2.0, 2.2, 21);
  Csc first;
  for (int trial = 0; trial < 3; ++trial) {
    Prepared p = prepare(a, 24, 4);
    ThreadedOptions opts;
    opts.n_ranks = 4;
    ASSERT_TRUE(threaded_factorize(p.bm, p.tasks, p.mapping, opts).is_ok());
    Csc f = p.bm.to_csc();
    if (first.n_rows() == 0)
      first = f;
    else
      EXPECT_TRUE(first.approx_equal(f, 1e-9));
  }
}

TEST(Threaded, WorkStealingTogglesAndMatchesReference) {
  Csc a = matgen::grid2d_laplacian(8, 8);
  Csc ref = reference_factor(a);
  for (bool steal : {false, true}) {
    Prepared p = prepare(a, 12, 4);
    ThreadedOptions opts;
    opts.n_ranks = 4;
    opts.work_stealing = steal;
    std::uint64_t steals = 0;
    opts.steal_count = &steals;
    ASSERT_TRUE(threaded_factorize(p.bm, p.tasks, p.mapping, opts).is_ok());
    EXPECT_TRUE(p.bm.to_csc().approx_equal(ref, 1e-9)) << "stealing=" << steal;
    if (!steal) EXPECT_EQ(steals, 0u);
  }
}

}  // namespace
}  // namespace pangulu::runtime
