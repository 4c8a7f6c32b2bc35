#include "linalg/qr.hpp"

#include <algorithm>

#include "linalg/blas.hpp"
#include "linalg/householder.hpp"

namespace qrgrid {

void geqr2(MatrixView a, std::vector<double>& tau) {
  const Index m = a.rows();
  const Index n = a.cols();
  const Index k = std::min(m, n);
  tau.assign(static_cast<std::size_t>(k), 0.0);
  for (Index j = 0; j < k; ++j) {
    // Generate the reflector for column j from A(j:m, j).
    Reflector r = larfg(a(j, j), m - j - 1, &a(j + 1, j));
    tau[static_cast<std::size_t>(j)] = r.tau;
    a(j, j) = r.beta;
    if (j + 1 < n) {
      // Apply H_j to the trailing columns A(j:m, j+1:n).
      larf_left(r.tau, &a(j + 1, j), a.block(j, j + 1, m - j, n - j - 1));
    }
  }
}

void larft(ConstMatrixView v, const std::vector<double>& tau, MatrixView t) {
  const Index m = v.rows();
  const Index k = v.cols();
  QRGRID_CHECK(t.rows() == k && t.cols() == k);
  QRGRID_CHECK(static_cast<Index>(tau.size()) == k);
  set_zero(t);
  for (Index i = 0; i < k; ++i) {
    const double taui = tau[static_cast<std::size_t>(i)];
    t(i, i) = taui;
    if (i == 0 || taui == 0.0) continue;
    // t(0:i, i) := -tau_i * V(:, 0:i)^T * V(:, i), exploiting the implicit
    // unit diagonal of V: V(j, j) = 1, V(above j, j) = 0.
    for (Index j = 0; j < i; ++j) {
      // Column j of V overlaps column i of V on rows i..m (v(i,i)=1 at row i).
      double acc = v(i, j);  // j-th column times the implicit 1 at row i
      acc += dot(m - i - 1, &v(i + 1, j), &v(i + 1, i));
      t(j, i) = -taui * acc;
    }
    // t(0:i, i) := T(0:i, 0:i) * t(0:i, i)
    trmm(Side::Left, UpLo::Upper, Trans::No, Diag::NonUnit, 1.0,
         t.block(0, 0, i, i), t.block(0, i, i, 1));
  }
}

void larfb_left(Trans trans, ConstMatrixView v, ConstMatrixView t,
                MatrixView c) {
  const Index m = v.rows();
  const Index k = v.cols();
  const Index n = c.cols();
  QRGRID_CHECK(c.rows() == m);
  if (n == 0 || k == 0) return;

  // W := C^T V  (n x k), exploiting V's unit lower-trapezoidal structure:
  // V = [V1 (k x k, unit lower tri); V2 ((m-k) x k dense)].
  Matrix w(n, k);
  // W := C1^T (top k rows of C), then W := W * V1 (unit lower tri).
  for (Index j = 0; j < k; ++j)
    for (Index i = 0; i < n; ++i) w(i, j) = c(j, i);
  trmm(Side::Right, UpLo::Lower, Trans::No, Diag::Unit, 1.0,
       v.block(0, 0, k, k), w.view());
  if (m > k) {
    gemm(Trans::Yes, Trans::No, 1.0, c.block(k, 0, m - k, n),
         v.block(k, 0, m - k, k), 1.0, w.view());
  }
  // Update is C -= V * (W * T^op)^T. Applying Q (= I - V T V^T) needs
  // V T W^T = V (W T^T)^T, i.e. W := W * T^T; applying Q^T needs W := W*T.
  trmm(Side::Right, UpLo::Upper, trans == Trans::No ? Trans::Yes : Trans::No,
       Diag::NonUnit, 1.0, t, w.view());
  // C := C - V W^T: first the dense part, then the triangular top.
  if (m > k) {
    gemm(Trans::No, Trans::Yes, -1.0, v.block(k, 0, m - k, k), w.view(), 1.0,
         c.block(k, 0, m - k, n));
  }
  // C1 -= V1 * W^T with V1 unit lower triangular: compute U := W * V1^T
  // (n x k), then C1 -= U^T.
  trmm(Side::Right, UpLo::Lower, Trans::Yes, Diag::Unit, 1.0,
       v.block(0, 0, k, k), w.view());
  for (Index j = 0; j < k; ++j)
    for (Index i = 0; i < n; ++i) c(j, i) -= w(i, j);
}

void geqrf(MatrixView a, std::vector<double>& tau, Index nb) {
  const Index m = a.rows();
  const Index n = a.cols();
  const Index k = std::min(m, n);
  tau.assign(static_cast<std::size_t>(k), 0.0);
  QRGRID_CHECK(nb >= 1);
  std::vector<double> panel_tau;
  for (Index j = 0; j < k; j += nb) {
    const Index jb = std::min(nb, k - j);
    // Factor the current panel with the unblocked kernel.
    geqr2(a.block(j, j, m - j, jb), panel_tau);
    std::copy(panel_tau.begin(), panel_tau.end(),
              tau.begin() + static_cast<std::ptrdiff_t>(j));
    if (j + jb < n) {
      // Accumulate T and apply the block reflector to the trailing matrix.
      Matrix t(jb, jb);
      larft(a.block(j, j, m - j, jb), panel_tau, t.view());
      larfb_left(Trans::Yes, a.block(j, j, m - j, jb), t.view(),
                 a.block(j, j + jb, m - j, n - j - jb));
    }
  }
}

Matrix orgqr(ConstMatrixView a, const std::vector<double>& tau, Index n_cols) {
  const Index m = a.rows();
  const Index k = static_cast<Index>(tau.size());
  QRGRID_CHECK(n_cols >= k && n_cols <= m);
  Matrix q(m, n_cols);
  for (Index j = 0; j < n_cols; ++j) q(j, j) = 1.0;
  // Apply H_0 ... H_{k-1} to I from the left in reverse (dorg2r).
  for (Index i = k - 1; i >= 0; --i) {
    const double taui = tau[static_cast<std::size_t>(i)];
    if (taui == 0.0) continue;
    // Reflector i tail lives in a(i+1:m, i).
    MatrixView c = q.block(i, i, m - i, n_cols - i);
    // larf_left expects the tail contiguous; column of a is contiguous.
    larf_left(taui, &a(i + 1, i), c);
  }
  return q;
}

void ormqr_left(Trans trans, ConstMatrixView a, const std::vector<double>& tau,
                MatrixView c) {
  const Index m = a.rows();
  const Index k = static_cast<Index>(tau.size());
  QRGRID_CHECK(c.rows() == m);
  // Q = H_0 H_1 ... H_{k-1}; Q^T C applies H_0 first, Q C applies H_{k-1}
  // first.
  if (trans == Trans::Yes) {
    for (Index i = 0; i < k; ++i) {
      larf_left(tau[static_cast<std::size_t>(i)], &a(i + 1, i),
                c.block(i, 0, m - i, c.cols()));
    }
  } else {
    for (Index i = k - 1; i >= 0; --i) {
      larf_left(tau[static_cast<std::size_t>(i)], &a(i + 1, i),
                c.block(i, 0, m - i, c.cols()));
    }
  }
}

Matrix extract_r(ConstMatrixView a) {
  const Index k = std::min(a.rows(), a.cols());
  Matrix r(k, a.cols());
  for (Index j = 0; j < a.cols(); ++j)
    for (Index i = 0; i <= std::min(j, k - 1); ++i) r(i, j) = a(i, j);
  return r;
}

}  // namespace qrgrid
