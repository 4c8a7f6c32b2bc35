#include <algorithm>
#include <vector>

#include "linalg/blas.hpp"

namespace qrgrid {

namespace {

// Cache-blocking tile sizes for the reference gemm: one panel of A
// (MC x KC doubles) should fit comfortably in L2.
constexpr Index kMC = 128;
constexpr Index kKC = 128;

/// y += w[0] x[0] + ... + w[K-1] x[K-1], added term by term per element:
/// exactly the bits of K successive axpys, in one pass over y.
template <int K>
void axpy_fused(Index n, const double* w, const double* const* x, double* y) {
  for (Index i = 0; i < n; ++i) {
    double yi = y[i];
    for (int t = 0; t < K; ++t) yi += w[t] * x[t][i];
    y[i] = yi;
  }
}

void axpy_fused(Index n, int count, const double* w, const double* const* x,
                double* y) {
  switch (count) {
    case 4: return axpy_fused<4>(n, w, x, y);
    case 3: return axpy_fused<3>(n, w, x, y);
    case 2: return axpy_fused<2>(n, w, x, y);
    case 1: return axpy(n, w[0], x[0], y);
  }
}

}  // namespace

void gemm(Trans ta, Trans tb, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c) {
  const Index m = c.rows();
  const Index n = c.cols();
  const Index k = (ta == Trans::No) ? a.cols() : a.rows();
  QRGRID_CHECK_MSG(((ta == Trans::No) ? a.rows() : a.cols()) == m &&
                       ((tb == Trans::No) ? b.rows() : b.cols()) == k &&
                       ((tb == Trans::No) ? b.cols() : b.rows()) == n,
                   "gemm shape mismatch: C " << m << "x" << n << ", k=" << k);

  if (beta != 1.0) {
    for (Index j = 0; j < n; ++j) {
      double* cj = &c(0, j);
      if (beta == 0.0) {
        for (Index i = 0; i < m; ++i) cj[i] = 0.0;
      } else {
        scal(m, beta, cj);
      }
    }
  }
  if (alpha == 0.0 || k == 0) return;

  if (ta == Trans::No && tb == Trans::No) {
    // Blocked axpy formulation: C(:,j) += (alpha*B(k,j)) * A(:,k), with A
    // traversed panel by panel so its columns stay cache-resident. Up to
    // four consecutive nonzero terms share one pass over C(:,j); zero
    // terms are skipped, as axpy would skip them.
    for (Index k0 = 0; k0 < k; k0 += kKC) {
      const Index kb = std::min(kKC, k - k0);
      for (Index i0 = 0; i0 < m; i0 += kMC) {
        const Index ib = std::min(kMC, m - i0);
        for (Index j = 0; j < n; ++j) {
          double w[4];
          const double* x[4];
          int count = 0;
          for (Index kk = 0; kk < kb; ++kk) {
            w[count] = alpha * b(k0 + kk, j);
            if (w[count] == 0.0) continue;
            x[count] = &a(i0, k0 + kk);
            if (++count == 4) {
              axpy_fused(ib, count, w, x, &c(i0, j));
              count = 0;
            }
          }
          axpy_fused(ib, count, w, x, &c(i0, j));
        }
      }
    }
    return;
  }
  if (ta == Trans::No) {
    // C(i,j) += alpha * sum_kk A(i,kk) B(j,kk): row-blocked accumulators,
    // one per C entry, each summed over kk in order while the A block
    // stays in cache across j.
    double acc[kMC];
    for (Index i0 = 0; i0 < m; i0 += kMC) {
      const Index ib = std::min(kMC, m - i0);
      for (Index j = 0; j < n; ++j) {
        std::fill(acc, acc + ib, 0.0);
        for (Index kk = 0; kk < k; ++kk) {
          const double* ak = &a(i0, kk);
          const double bjk = b(j, kk);
          for (Index i = 0; i < ib; ++i) acc[i] += ak[i] * bjk;
        }
        for (Index i = 0; i < ib; ++i) c(i0 + i, j) += alpha * acc[i];
      }
    }
    return;
  }
  // C(i,j) += alpha * dot(A(:,i), op(B)(:,j)): the columns of A stream
  // through dot_columns against op(B)(:,j), gathered when B is transposed.
  std::vector<double> dots(static_cast<std::size_t>(m));
  std::vector<double> row(static_cast<std::size_t>(tb == Trans::Yes ? k : 0));
  for (Index j = 0; j < n; ++j) {
    const double* bj = row.data();
    if (tb == Trans::No) {
      bj = &b(0, j);
    } else {
      for (Index kk = 0; kk < k; ++kk) row.data()[kk] = b(j, kk);
    }
    dot_columns(bj, a, dots.data());
    for (Index i = 0; i < m; ++i) {
      c(i, j) += alpha * dots[static_cast<std::size_t>(i)];
    }
  }
}

void trmm(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView t, MatrixView b) {
  const Index n = t.rows();
  QRGRID_CHECK(t.cols() == n);
  const bool unit = diag == Diag::Unit;
  auto tij = [&](Index i, Index j) {
    return trans == Trans::No ? t(i, j) : t(j, i);
  };
  const bool effective_upper = (uplo == UpLo::Upper) == (trans == Trans::No);

  if (side == Side::Left) {
    QRGRID_CHECK(b.rows() == n);
    for (Index col = 0; col < b.cols(); ++col) {
      double* x = &b(0, col);
      if (effective_upper) {
        for (Index i = 0; i < n; ++i) {
          double acc = unit ? x[i] : tij(i, i) * x[i];
          for (Index j = i + 1; j < n; ++j) acc += tij(i, j) * x[j];
          x[i] = alpha * acc;
        }
      } else {
        for (Index i = n - 1; i >= 0; --i) {
          double acc = unit ? x[i] : tij(i, i) * x[i];
          for (Index j = 0; j < i; ++j) acc += tij(i, j) * x[j];
          x[i] = alpha * acc;
        }
      }
    }
  } else {
    QRGRID_CHECK(b.cols() == n);
    // Row-side triangular multiply: process result columns in the order
    // that lets us update in place.
    const Index m = b.rows();
    if (effective_upper) {
      for (Index j = n - 1; j >= 0; --j) {
        double* bj = &b(0, j);
        if (!unit) scal(m, tij(j, j), bj);
        for (Index i = 0; i < j; ++i) axpy(m, tij(i, j), &b(0, i), bj);
        if (alpha != 1.0) scal(m, alpha, bj);
      }
    } else {
      for (Index j = 0; j < n; ++j) {
        double* bj = &b(0, j);
        if (!unit) scal(m, tij(j, j), bj);
        for (Index i = j + 1; i < n; ++i) axpy(m, tij(i, j), &b(0, i), bj);
        if (alpha != 1.0) scal(m, alpha, bj);
      }
    }
  }
}

void trsm(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView t, MatrixView b) {
  const Index n = t.rows();
  QRGRID_CHECK(t.cols() == n);
  if (side == Side::Left) {
    QRGRID_CHECK(b.rows() == n);
    for (Index col = 0; col < b.cols(); ++col) {
      double* x = &b(0, col);
      if (alpha != 1.0) scal(n, alpha, x);
      trsv(uplo, trans, diag, t, x);
    }
    return;
  }
  // Right side: solve X * op(T) = alpha * B column-block-wise. Writing
  // X = B * op(T)^{-1}, column j of X depends on previously solved columns.
  QRGRID_CHECK(b.cols() == n);
  const bool unit = diag == Diag::Unit;
  auto tij = [&](Index i, Index j) {
    return trans == Trans::No ? t(i, j) : t(j, i);
  };
  const bool effective_upper = (uplo == UpLo::Upper) == (trans == Trans::No);
  const Index m = b.rows();
  if (effective_upper) {
    for (Index j = 0; j < n; ++j) {
      double* bj = &b(0, j);
      if (alpha != 1.0) scal(m, alpha, bj);
      for (Index i = 0; i < j; ++i) axpy(m, -tij(i, j), &b(0, i), bj);
      if (!unit) scal(m, 1.0 / tij(j, j), bj);
    }
  } else {
    for (Index j = n - 1; j >= 0; --j) {
      double* bj = &b(0, j);
      if (alpha != 1.0) scal(m, alpha, bj);
      for (Index i = j + 1; i < n; ++i) axpy(m, -tij(i, j), &b(0, i), bj);
      if (!unit) scal(m, 1.0 / tij(j, j), bj);
    }
  }
}

void syrk_upper_at_a(double alpha, ConstMatrixView a, double beta,
                     MatrixView c) {
  const Index n = a.cols();
  const Index m = a.rows();
  QRGRID_CHECK(c.rows() == n && c.cols() == n);
  // Row i of the upper triangle is one dot_columns sweep of A(:, i:n)
  // against A(:, i).
  std::vector<double> dots(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    dot_columns(&a(0, i), a.block(0, i, m, n - i), dots.data());
    for (Index j = i; j < n; ++j) {
      c(i, j) = beta * c(i, j) + alpha * dots[static_cast<std::size_t>(j - i)];
    }
  }
}

}  // namespace qrgrid
