#include "linalg/householder.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"

namespace qrgrid {

Reflector larfg(double alpha, Index n, double* x) {
  Reflector r;
  const double xnorm = nrm2(n, x);
  if (xnorm == 0.0) {
    // Already in the target form; H = I.
    r.beta = alpha;
    r.tau = 0.0;
    return r;
  }
  // Overflow-safe hypot of alpha against the tail norm.
  double beta = -std::copysign(std::hypot(alpha, xnorm), alpha);
  r.tau = (beta - alpha) / beta;
  const double inv = 1.0 / (alpha - beta);
  scal(n, inv, x);
  r.beta = beta;
  return r;
}

void larf_left(double tau, const double* v_tail, MatrixView c) {
  if (tau == 0.0 || c.empty()) return;
  larf_left_split(tau, v_tail, &c(0, 0), c.ld(),
                  c.block(1, 0, c.rows() - 1, c.cols()));
}

void larf_left_split(double tau, const double* v, double* top,
                     Index top_stride, MatrixView bottom) {
  if (tau == 0.0) return;
  const Index len = bottom.rows();
  const Index n = bottom.cols();
  double dots[4];
  for (Index j0 = 0; j0 < n; j0 += 4) {
    const Index jb = std::min<Index>(4, n - j0);
    // work := C^T [1; v], then C -= tau * [1; v] * work^T.
    dot_columns(v, bottom.block(0, j0, len, jb), dots);
    for (Index j = 0; j < jb; ++j) {
      double& head = top[(j0 + j) * top_stride];
      const double w = tau * (head + dots[j]);
      head -= w;
      axpy(len, -w, v, &bottom(0, j0 + j));
    }
  }
}

}  // namespace qrgrid
