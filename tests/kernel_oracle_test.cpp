// Bit-for-bit oracle for the multi-chain kernels (see blas.hpp's
// bit-identity contract). The plain column-at-a-time loops the kernels
// replaced live here as the reference, and every output buffer, padding
// rows included, is compared with memcmp: a faster kernel must not move a
// single bit, on finite data or on 0.0, -0.0, Inf and NaN. Only a NaN's own
// sign and payload are exempt: IEEE 754 lets an operation return either
// NaN operand, so the compiler's operand order, not the source, picks them
// (the reference, inlined here with constant arguments, folds `-1.0 * x`
// into a sign flip, for one).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/generators.hpp"
#include "linalg/householder.hpp"
#include "linalg/tpqrt.hpp"

namespace qrgrid {
namespace {

// ---- Reference loops ------------------------------------------------------

double ref_dot(Index n, const double* x, const double* y) {
  double acc = 0.0;
  for (Index i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

void ref_axpy(Index n, double alpha, const double* x, double* y) {
  if (alpha == 0.0) return;
  for (Index i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ref_larf_left(double tau, const double* v_tail, MatrixView c) {
  if (tau == 0.0 || c.empty()) return;
  const Index m = c.rows();
  const Index n = c.cols();
  std::vector<double> work(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) {
    work[j] = c(0, j) + ref_dot(m - 1, v_tail, &c(1, j));
  }
  for (Index j = 0; j < n; ++j) {
    const double w = tau * work[j];
    c(0, j) -= w;
    ref_axpy(m - 1, -w, v_tail, &c(1, j));
  }
}

/// One reflector of a TPQRT node applied column by column: row `j` of `c1`
/// and rows 0..len of `c2`, columns k0..cols.
void ref_apply_pair(double tau, const double* v, Index len, MatrixView c1,
                    Index j, MatrixView c2, Index k0) {
  if (tau == 0.0) return;
  for (Index k = k0; k < c2.cols(); ++k) {
    double w = c1(j, k) + ref_dot(len, v, &c2(0, k));
    w *= tau;
    c1(j, k) -= w;
    ref_axpy(len, -w, v, &c2(0, k));
  }
}

void ref_tpqrt(bool triangular, MatrixView r1, MatrixView r2,
               std::vector<double>& tau) {
  const Index n = r1.rows();
  tau.assign(static_cast<std::size_t>(n), 0.0);
  for (Index j = 0; j < n; ++j) {
    const Index len = triangular ? j + 1 : r2.rows();
    Reflector refl = larfg(r1(j, j), len, &r2(0, j));
    tau[static_cast<std::size_t>(j)] = refl.tau;
    r1(j, j) = refl.beta;
    ref_apply_pair(refl.tau, &r2(0, j), len, r1, j, r2, j + 1);
  }
}

void ref_tpmqrt(bool triangular, Trans trans, ConstMatrixView v2,
                const std::vector<double>& tau, MatrixView c1,
                MatrixView c2) {
  const Index n = v2.cols();
  auto apply_one = [&](Index j) {
    ref_apply_pair(tau[static_cast<std::size_t>(j)], &v2(0, j),
                   triangular ? j + 1 : v2.rows(), c1, j, c2, 0);
  };
  if (trans == Trans::Yes) {
    for (Index j = 0; j < n; ++j) apply_one(j);
  } else {
    for (Index j = n - 1; j >= 0; --j) apply_one(j);
  }
}

void ref_syrk(double alpha, ConstMatrixView a, double beta, MatrixView c) {
  const Index n = a.cols();
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i <= j; ++i) {
      c(i, j) = beta * c(i, j) + alpha * ref_dot(a.rows(), &a(0, i), &a(0, j));
    }
  }
}

void ref_gemm(Trans ta, Trans tb, double alpha, ConstMatrixView a,
              ConstMatrixView b, double beta, MatrixView c) {
  const Index m = c.rows();
  const Index n = c.cols();
  const Index k = (ta == Trans::No) ? a.cols() : a.rows();
  if (beta != 1.0) {
    for (Index j = 0; j < n; ++j) {
      for (Index i = 0; i < m; ++i) {
        c(i, j) = beta == 0.0 ? 0.0 : c(i, j) * beta;
      }
    }
  }
  if (alpha == 0.0 || k == 0) return;
  if (ta == Trans::No && tb == Trans::No) {
    constexpr Index kMC = 128, kKC = 128;
    for (Index k0 = 0; k0 < k; k0 += kKC) {
      const Index kb = std::min(kKC, k - k0);
      for (Index i0 = 0; i0 < m; i0 += kMC) {
        const Index ib = std::min(kMC, m - i0);
        for (Index j = 0; j < n; ++j) {
          for (Index kk = 0; kk < kb; ++kk) {
            const double w = alpha * b(k0 + kk, j);
            if (w != 0.0) ref_axpy(ib, w, &a(i0, k0 + kk), &c(i0, j));
          }
        }
      }
    }
    return;
  }
  auto elem = [](ConstMatrixView v, Trans t, Index i, Index j) {
    return t == Trans::No ? v(i, j) : v(j, i);
  };
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < m; ++i) {
      double acc = 0.0;
      for (Index kk = 0; kk < k; ++kk) {
        acc += elem(a, ta, i, kk) * elem(b, tb, kk, j);
      }
      c(i, j) += alpha * acc;
    }
  }
}

// ---- Inputs ---------------------------------------------------------------

/// Gaussian storage of (rows + 3) x (cols + 1); the view is rows 1..rows+1
/// of the first cols columns, so its leading dimension exceeds its row
/// count, and the padding around it must come through untouched.
struct Strided {
  Matrix storage;
  MatrixView view;
  Strided(Index rows, Index cols, std::uint64_t seed)
      : storage(random_gaussian(rows + 3, cols + 1, seed)),
        view(storage.block(1, 0, rows, cols)) {}
  Strided(const Strided& other)
      : storage(other.storage),
        view(storage.block(1, 0, other.view.rows(), other.view.cols())) {}
};

/// Overwrites a spread of entries with 0.0, -0.0, Inf and NaN.
void sprinkle(MatrixView v) {
  const double specials[] = {0.0, -0.0, std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()};
  Index t = 0;
  for (Index j = 0; j < v.cols(); ++j) {
    for (Index i = j % 3; i < v.rows(); i += 5) v(i, j) = specials[t++ % 4];
  }
}

/// memcmp of two buffers with every NaN first mapped to one pattern.
bool same_bits(std::vector<double> a, std::vector<double> b) {
  for (std::vector<double>* v : {&a, &b}) {
    for (double& x : *v) {
      if (std::isnan(x)) x = std::numeric_limits<double>::quiet_NaN();
    }
  }
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0);
}

bool same_bits(const Matrix& a, const Matrix& b) {
  auto flat = [](const Matrix& m) {
    return std::vector<double>(m.data(), m.data() + m.rows() * m.cols());
  };
  return a.rows() == b.rows() && same_bits(flat(a), flat(b));
}

const Index kRows[] = {0, 1, 2, 129};
const Index kCols[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};

// ---- Level 1 --------------------------------------------------------------

TEST(KernelOracle, Dot4AndDotColumnsMatchDot) {
  for (Index m : kRows) {
    for (Index cols : kCols) {
      for (bool special : {false, true}) {
        Strided a(m, cols, 11 + m + cols);
        Strided x(m, 1, 12 + m);
        if (special) {
          sprinkle(a.view);
          sprinkle(x.view);
        }
        std::vector<double> got(static_cast<std::size_t>(cols));
        std::vector<double> want(static_cast<std::size_t>(cols));
        dot_columns(&x.view(0, 0), a.view, got.data());
        for (Index j = 0; j < cols; ++j) {
          want[j] = ref_dot(m, &x.view(0, 0), &a.view(0, j));
        }
        EXPECT_TRUE(same_bits(got, want)) << "m=" << m << " cols=" << cols;
        if (cols >= 4) {
          double out[4];
          dot4(m, &x.view(0, 0), &a.view(0, 0), &a.view(0, 1), &a.view(0, 2),
               &a.view(0, 3), out);
          EXPECT_TRUE(
              same_bits({out, out + 4}, {want.begin(), want.begin() + 4}));
        }
      }
    }
  }
}

// ---- Householder ----------------------------------------------------------

TEST(KernelOracle, LarfLeftMatchesColumnLoop) {
  for (Index m : kRows) {
    for (Index cols : kCols) {
      for (double tau : {0.0, 1.25, -0.5}) {
        for (bool special : {false, true}) {
          Strided c(m + 1, cols, 21 + m + cols);
          Strided v(m, 1, 22 + m);
          if (special) sprinkle(c.view);
          Strided want(c);
          larf_left(tau, &v.view(0, 0), c.view);
          ref_larf_left(tau, &v.view(0, 0), want.view);
          EXPECT_TRUE(same_bits(c.storage, want.storage))
              << "m=" << m << " cols=" << cols << " tau=" << tau;
        }
      }
    }
  }
}

// ---- TPQRT combine kernels ------------------------------------------------

TEST(KernelOracle, TpqrtTtAndTpmqrtTtMatchColumnLoop) {
  for (Index n : kCols) {
    for (Index p : kCols) {
      for (bool special : {false, true}) {
        Strided r1(n, n, 31 + n), r2(n, n, 32 + n);
        zero_below_diagonal(r1.view);
        zero_below_diagonal(r2.view);
        Strided r1_ref(r1), r2_ref(r2);
        std::vector<double> tau, tau_ref;
        tpqrt_tt(r1.view, r2.view, tau);
        ref_tpqrt(true, r1_ref.view, r2_ref.view, tau_ref);
        ASSERT_TRUE(same_bits(r1.storage, r1_ref.storage)) << "n=" << n;
        ASSERT_TRUE(same_bits(r2.storage, r2_ref.storage)) << "n=" << n;
        ASSERT_TRUE(same_bits(tau, tau_ref)) << "n=" << n;
        if (n > 1) tau[1] = 0.0;  // an identity reflector is skipped
        for (Trans trans : {Trans::No, Trans::Yes}) {
          Strided c1(n, p, 33 + p), c2(n, p, 34 + p);
          if (special) sprinkle(c2.view);
          Strided c1_ref(c1), c2_ref(c2);
          tpmqrt_tt(trans, r2.view, tau, c1.view, c2.view);
          ref_tpmqrt(true, trans, r2.view, tau, c1_ref.view, c2_ref.view);
          EXPECT_TRUE(same_bits(c1.storage, c1_ref.storage) &&
                      same_bits(c2.storage, c2_ref.storage))
              << "n=" << n << " p=" << p;
        }
      }
    }
  }
}

TEST(KernelOracle, TpqrtTdAndTpmqrtTdMatchColumnLoop) {
  for (Index m : kRows) {
    for (Index n : kCols) {
      for (bool special : {false, true}) {
        Strided r1(n, n, 41 + n), b(m, n, 42 + m + n);
        zero_below_diagonal(r1.view);
        if (special) sprinkle(b.view);
        Strided r1_ref(r1), b_ref(b);
        std::vector<double> tau, tau_ref;
        tpqrt_td(r1.view, b.view, tau);
        ref_tpqrt(false, r1_ref.view, b_ref.view, tau_ref);
        ASSERT_TRUE(same_bits(r1.storage, r1_ref.storage) &&
                    same_bits(b.storage, b_ref.storage) &&
                    same_bits(tau, tau_ref))
            << "m=" << m << " n=" << n;
        if (n > 2) tau[2] = 0.0;
        for (Index p : {Index{0}, Index{3}, Index{4}, Index{6}}) {
          for (Trans trans : {Trans::No, Trans::Yes}) {
            Strided c1(n, p, 43 + p), c2(m, p, 44 + m + p);
            if (special) sprinkle(c2.view);
            Strided c1_ref(c1), c2_ref(c2);
            tpmqrt_td(trans, b.view, tau, c1.view, c2.view);
            ref_tpmqrt(false, trans, b.view, tau, c1_ref.view, c2_ref.view);
            EXPECT_TRUE(same_bits(c1.storage, c1_ref.storage) &&
                        same_bits(c2.storage, c2_ref.storage))
                << "m=" << m << " n=" << n << " p=" << p;
          }
        }
      }
    }
  }
}

// ---- Level 3 --------------------------------------------------------------

TEST(KernelOracle, SyrkMatchesColumnLoop) {
  for (Index m : kRows) {
    for (Index n : kCols) {
      for (double beta : {0.0, 0.5}) {
        for (bool special : {false, true}) {
          Strided a(m, n, 51 + m + n);
          if (special) sprinkle(a.view);
          Strided c(n, n, 52 + n);
          Strided want(c);
          syrk_upper_at_a(-1.5, a.view, beta, c.view);
          ref_syrk(-1.5, a.view, beta, want.view);
          EXPECT_TRUE(same_bits(c.storage, want.storage))
              << "m=" << m << " n=" << n << " beta=" << beta;
        }
      }
    }
  }
}

/// Operand variants: Gaussian; B upper triangular (the zero-skip path on
/// an R factor) against an A sprinkled with 0.0, -0.0, Inf and NaN, so a
/// zero term that is not skipped turns into NaN; B sprinkled.
enum class BKind { kDense, kTriangular, kSpecial };

TEST(KernelOracle, GemmMatchesReferenceForEveryTransposePair) {
  const Index depths[] = {0, 1, 2, 3, 5, 130};
  for (Trans ta : {Trans::No, Trans::Yes}) {
    for (Trans tb : {Trans::No, Trans::Yes}) {
      for (Index m : kRows) {
        for (Index n : {Index{1}, Index{4}, Index{5}, Index{6}, Index{7}}) {
          for (Index k : depths) {
            for (BKind kind :
                 {BKind::kDense, BKind::kTriangular, BKind::kSpecial}) {
              for (double beta : {0.0, 1.0, 0.5}) {
                const bool ta_no = ta == Trans::No, tb_no = tb == Trans::No;
                Strided a(ta_no ? m : k, ta_no ? k : m, 61 + m + k);
                Strided b(tb_no ? k : n, tb_no ? n : k, 62 + n + k);
                if (kind == BKind::kTriangular) {
                  zero_below_diagonal(b.view);
                  sprinkle(a.view);
                }
                if (kind == BKind::kSpecial) sprinkle(b.view);
                Strided c(m, n, 63 + m + n);
                Strided want(c);
                gemm(ta, tb, -1.0, a.view, b.view, beta, c.view);
                ref_gemm(ta, tb, -1.0, a.view, b.view, beta, want.view);
                EXPECT_TRUE(same_bits(c.storage, want.storage))
                    << "ta=" << ta_no << " tb=" << tb_no << " m=" << m
                    << " n=" << n << " k=" << k
                    << " kind=" << static_cast<int>(kind)
                    << " beta=" << beta;
              }
            }
          }
        }
      }
    }
  }
}

/// Every sum starts from +0.0, as dot's does: with products that are all
/// -0.0 and a C of -0.0, a -0.0 start would leave -0.0 where the
/// reference gets +0.0. Random data never shows a zero's sign.
TEST(KernelOracle, SumsOfNegativeZeroStartFromPositiveZero) {
  for (Trans ta : {Trans::No, Trans::Yes}) {
    for (Trans tb : {Trans::No, Trans::Yes}) {
      for (Index m : {Index{1}, Index{6}}) {
        for (Index n : {Index{1}, Index{6}}) {
          const Index k = 3;
          const bool ta_no = ta == Trans::No, tb_no = tb == Trans::No;
          Matrix a(ta_no ? m : k, ta_no ? k : m);
          Matrix b(tb_no ? k : n, tb_no ? n : k);
          Matrix c(m, n);
          a.fill(-0.0);
          b.fill(1.0);
          c.fill(-0.0);
          Matrix want = c;
          gemm(ta, tb, 1.0, a.view(), b.view(), 1.0, c.view());
          ref_gemm(ta, tb, 1.0, a.view(), b.view(), 1.0, want.view());
          EXPECT_TRUE(same_bits(c, want))
              << "ta=" << ta_no << " tb=" << tb_no << " m=" << m
              << " n=" << n;
        }
      }
    }
  }
}

}  // namespace
}  // namespace qrgrid
