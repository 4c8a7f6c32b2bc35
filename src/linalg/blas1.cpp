#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"

namespace qrgrid {

double nrm2(Index n, const double* x) {
  // Scaled sum of squares as in LAPACK dlassq: avoids overflow/underflow
  // for entries near the extremes of the double range.
  double scale = 0.0;
  double ssq = 1.0;
  for (Index i = 0; i < n; ++i) {
    const double absxi = std::fabs(x[i]);
    if (absxi == 0.0) continue;
    if (scale < absxi) {
      const double r = scale / absxi;
      ssq = 1.0 + ssq * r * r;
      scale = absxi;
    } else {
      const double r = absxi / scale;
      ssq += r * r;
    }
  }
  return scale * std::sqrt(ssq);
}

double dot(Index n, const double* x, const double* y) {
  double acc = 0.0;
  for (Index i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

void dot4(Index n, const double* x, const double* y0, const double* y1,
          const double* y2, const double* y3, double* out) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  for (Index i = 0; i < n; ++i) {
    const double xi = x[i];
    acc0 += xi * y0[i];
    acc1 += xi * y1[i];
    acc2 += xi * y2[i];
    acc3 += xi * y3[i];
  }
  out[0] = acc0;
  out[1] = acc1;
  out[2] = acc2;
  out[3] = acc3;
}

void dot_columns(const double* x, ConstMatrixView a, double* out) {
  const Index n = a.rows();
  const Index cols = a.cols();
  Index j = 0;
  for (; j + 4 <= cols; j += 4) {
    dot4(n, x, &a(0, j), &a(0, j + 1), &a(0, j + 2), &a(0, j + 3), out + j);
  }
  if (j < cols) {
    // One to three columns left: repeat the last one to fill a dot4 pass,
    // so they too run as parallel chains.
    const Index last = cols - 1;
    double tail[4];
    dot4(n, x, &a(0, j), &a(0, std::min(j + 1, last)),
         &a(0, std::min(j + 2, last)), &a(0, last), tail);
    std::copy(tail, tail + (cols - j), out + j);
  }
}

void axpy(Index n, double alpha, const double* x, double* y) {
  if (alpha == 0.0) return;
  for (Index i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scal(Index n, double alpha, double* x) {
  for (Index i = 0; i < n; ++i) x[i] *= alpha;
}

}  // namespace qrgrid
