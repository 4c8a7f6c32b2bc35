// Kernel microbenchmarks (google-benchmark): the building blocks whose
// rates calibrate the roofline model — DGEMM-analog, blocked Householder
// QR at the paper's panel widths, the TSQR combine, and the threaded
// runtime's allreduce — plus the kernels one real TSQR job of the msg
// backend runs on its leaf (m in {2^11, 2^13}, n in {16, 32}): the
// unblocked QR, the explicit-Q build, and the residual and orthogonality
// checks.
#include <benchmark/benchmark.h>

#include "core/tsqr.hpp"
#include "linalg/blas.hpp"
#include "linalg/flops.hpp"
#include "linalg/generators.hpp"
#include "linalg/qr.hpp"
#include "linalg/tpqrt.hpp"
#include "msg/comm.hpp"

namespace {

using namespace qrgrid;

void BM_Gemm(benchmark::State& state) {
  const Index n = state.range(0);
  Matrix a = random_gaussian(n, n, 1);
  Matrix b = random_gaussian(n, n, 2);
  Matrix c(n, n);
  for (auto _ : state) {
    gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      2.0 * n * n * n * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_Geqrf(benchmark::State& state) {
  const Index m = 4096;
  const Index n = state.range(0);
  Matrix a = random_gaussian(m, n, 3);
  std::vector<double> tau;
  for (auto _ : state) {
    state.PauseTiming();
    Matrix work = Matrix::copy_of(a.view());
    state.ResumeTiming();
    geqrf(work.view(), tau);
    benchmark::DoNotOptimize(work.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      (2.0 * m * n * n - 2.0 / 3.0 * n * n * n) *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Geqrf)->Arg(16)->Arg(64)->Arg(128);

void BM_TpqrtCombine(benchmark::State& state) {
  const Index n = state.range(0);
  Matrix r1 = random_gaussian(n, n, 4);
  Matrix r2 = random_gaussian(n, n, 5);
  zero_below_diagonal(r1.view());
  zero_below_diagonal(r2.view());
  std::vector<double> tau;
  for (auto _ : state) {
    state.PauseTiming();
    Matrix t1 = Matrix::copy_of(r1.view());
    Matrix t2 = Matrix::copy_of(r2.view());
    state.ResumeTiming();
    tpqrt_tt(t1.view(), t2.view(), tau);
    benchmark::DoNotOptimize(t1.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      2.0 / 3.0 * n * n * n * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TpqrtCombine)->Arg(64)->Arg(128)->Arg(512);

/// Leaf-shaped (m x n) kernels, args {m, n}.
const std::vector<std::vector<std::int64_t>> kLeafShapes = {{1 << 11, 1 << 13},
                                                            {16, 32}};

void BM_Geqr2Leaf(benchmark::State& state) {
  const Index m = state.range(0), n = state.range(1);
  Matrix a = random_gaussian(m, n, 7);
  std::vector<double> tau;
  for (auto _ : state) {
    state.PauseTiming();
    Matrix work = Matrix::copy_of(a.view());
    state.ResumeTiming();
    geqr2(work.view(), tau);
    benchmark::DoNotOptimize(work.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      flops::geqrf(m, n) * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Geqr2Leaf)->ArgsProduct(kLeafShapes);

void BM_OrmqrLeftLeaf(benchmark::State& state) {
  const Index m = state.range(0), n = state.range(1);
  Matrix a = random_gaussian(m, n, 8);
  std::vector<double> tau;
  geqr2(a.view(), tau);
  Matrix c(m, n);
  for (auto _ : state) {
    state.PauseTiming();
    set_zero(c.view());
    for (Index j = 0; j < n; ++j) c(j, j) = 1.0;
    state.ResumeTiming();
    ormqr_left(Trans::No, a.view(), tau, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      flops::ormqr(m, n, n) * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OrmqrLeftLeaf)->ArgsProduct(kLeafShapes);

void BM_SyrkLeaf(benchmark::State& state) {
  const Index m = state.range(0), n = state.range(1);
  Matrix a = random_gaussian(m, n, 9);
  Matrix g(n, n);
  for (auto _ : state) {
    syrk_upper_at_a(1.0, a.view(), 0.0, g.view());
    benchmark::DoNotOptimize(g.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      flops::syrk(m, n) * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SyrkLeaf)->ArgsProduct(kLeafShapes);

/// The residual's A - Q R: tall-skinny Q times an upper triangular R.
void BM_GemmTallTimesR(benchmark::State& state) {
  const Index m = state.range(0), n = state.range(1);
  Matrix q = random_gaussian(m, n, 10);
  Matrix r = random_gaussian(n, n, 11);
  zero_below_diagonal(r.view());
  Matrix c(m, n);
  for (auto _ : state) {
    gemm(Trans::No, Trans::No, -1.0, q.view(), r.view(), 1.0, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  // R's zero lower triangle is skipped: m n (n + 1) flops, not 2 m n^2.
  state.counters["Gflop/s"] = benchmark::Counter(
      static_cast<double>(m) * n * (n + 1) *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmTallTimesR)->ArgsProduct(kLeafShapes);

/// The blocked QR's trailing update pair: W = C^T V, then C -= V W^T
/// (scaled small so C stays near its start over the iterations).
void BM_GemmTallTransposed(benchmark::State& state) {
  const Index m = state.range(0), n = state.range(1);
  Matrix v = random_gaussian(m, n, 12);
  Matrix c = random_gaussian(m, n, 13);
  Matrix w(n, n);
  for (auto _ : state) {
    gemm(Trans::Yes, Trans::No, 1.0, c.view(), v.view(), 0.0, w.view());
    gemm(Trans::No, Trans::Yes, -1e-9, v.view(), w.view(), 1.0, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      (flops::gemm(n, n, m) + flops::gemm(m, n, n)) *
          static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmTallTransposed)->ArgsProduct(kLeafShapes);

void BM_RuntimeAllreduce(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  msg::Runtime rt(p);
  for (auto _ : state) {
    rt.run([](msg::Comm& comm) {
      std::vector<double> data(64, 1.0);
      comm.allreduce_sum(data);
      benchmark::DoNotOptimize(data.data());
    });
  }
}
BENCHMARK(BM_RuntimeAllreduce)->Arg(4)->Arg(16);

void BM_ThreadedTsqr(benchmark::State& state) {
  const int p = 8;
  const Index m_loc = 2048, n = static_cast<Index>(state.range(0));
  msg::Runtime rt(p);
  for (auto _ : state) {
    rt.run([&](msg::Comm& comm) {
      Matrix local(m_loc, n);
      fill_gaussian_rows(local.view(), comm.rank() * m_loc, 6363);
      core::TsqrFactors f =
          core::tsqr_factor(comm, local.view(), core::TsqrOptions{});
      benchmark::DoNotOptimize(f.r.data());
    });
  }
  state.counters["Gflop/s"] = benchmark::Counter(
      (2.0 * m_loc * p * n * n) * static_cast<double>(state.iterations()) /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ThreadedTsqr)->Arg(16)->Arg(64);

}  // namespace
