#include "linalg/tpqrt.hpp"

#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/householder.hpp"

namespace qrgrid {

void tpqrt_tt(MatrixView r1, MatrixView r2, std::vector<double>& tau) {
  const Index n = r1.rows();
  QRGRID_CHECK(r1.cols() == n && r2.rows() == n && r2.cols() == n);
  tau.assign(static_cast<std::size_t>(n), 0.0);
  for (Index j = 0; j < n; ++j) {
    // Build the reflector annihilating R2(0:j+1, j) against pivot R1(j, j).
    // The reflector vector is [1 (at R1 row j); 0...0; v2(0:j+1)].
    const Index len = j + 1;  // nonzero rows of column j of R2
    // Gather x = R2(0:len, j) is already contiguous (column storage).
    double* x = &r2(0, j);
    Reflector refl = larfg(r1(j, j), len, x);
    tau[static_cast<std::size_t>(j)] = refl.tau;
    r1(j, j) = refl.beta;
    // Update trailing columns k > j: only row j of R1 and rows 0..j of R2.
    if (j + 1 < n) {
      larf_left_split(refl.tau, x, &r1(j, j + 1), r1.ld(),
                      r2.block(0, j + 1, len, n - j - 1));
    }
  }
}

void tpmqrt_tt(Trans trans, ConstMatrixView v2, const std::vector<double>& tau,
               MatrixView c1, MatrixView c2) {
  const Index n = v2.rows();
  const Index p = c1.cols();
  QRGRID_CHECK(v2.cols() == n && c1.rows() == n && c2.rows() == n &&
               c2.cols() == p);
  if (p == 0) return;
  // Q = H_0 H_1 ... H_{n-1}. Q^T C applies H_0 first; Q C applies H_{n-1}
  // first. Reflector j: rows {top j} U {bottom 0..j}.
  auto apply_one = [&](Index j) {
    larf_left_split(tau[static_cast<std::size_t>(j)], &v2(0, j), &c1(j, 0),
                    c1.ld(), c2.block(0, 0, j + 1, p));
  };
  if (trans == Trans::Yes) {
    for (Index j = 0; j < n; ++j) apply_one(j);
  } else {
    for (Index j = n - 1; j >= 0; --j) apply_one(j);
  }
}

void tpqrt_td(MatrixView r1, MatrixView b, std::vector<double>& tau) {
  const Index n = r1.rows();
  const Index m = b.rows();
  QRGRID_CHECK(r1.cols() == n && b.cols() == n);
  tau.assign(static_cast<std::size_t>(n), 0.0);
  for (Index j = 0; j < n; ++j) {
    // Reflector annihilates the whole column j of B against R1(j, j).
    double* x = &b(0, j);
    Reflector refl = larfg(r1(j, j), m, x);
    tau[static_cast<std::size_t>(j)] = refl.tau;
    r1(j, j) = refl.beta;
    if (j + 1 < n) {
      larf_left_split(refl.tau, x, &r1(j, j + 1), r1.ld(),
                      b.block(0, j + 1, m, n - j - 1));
    }
  }
}

void tpmqrt_td(Trans trans, ConstMatrixView v2, const std::vector<double>& tau,
               MatrixView c1, MatrixView c2) {
  const Index n = v2.cols();
  const Index m = v2.rows();
  const Index p = c1.cols();
  QRGRID_CHECK(c1.rows() == n && c2.rows() == m && c2.cols() == p);
  if (p == 0) return;
  auto apply_one = [&](Index j) {
    larf_left_split(tau[static_cast<std::size_t>(j)], &v2(0, j), &c1(j, 0),
                    c1.ld(), c2);
  };
  if (trans == Trans::Yes) {
    for (Index j = 0; j < n; ++j) apply_one(j);
  } else {
    for (Index j = n - 1; j >= 0; --j) apply_one(j);
  }
}

}  // namespace qrgrid
