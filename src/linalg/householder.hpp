// Elementary Householder reflector generation and application, following
// LAPACK dlarfg/dlarf semantics. A reflector H = I - tau * v v^T with
// v(0) == 1 (stored implicitly) maps a vector onto a multiple of e_1.
#pragma once

#include "linalg/matrix.hpp"

namespace qrgrid {

/// Result of reflector generation: `beta` is the value the annihilated
/// vector's head takes (the R diagonal entry) and `tau` the scaling factor.
struct Reflector {
  double beta = 0.0;
  double tau = 0.0;
};

/// Generates a Householder reflector for the (n+1)-vector [alpha; x]:
/// on return x holds v(1..n) (v(0) = 1 implicit) and H * [alpha; x] =
/// [beta; 0]. With tau == 0 the reflector is the identity (x already zero).
/// The sign convention matches LAPACK: beta = -sign(alpha) * ||[alpha;x]||.
Reflector larfg(double alpha, Index n, double* x);

/// Applies H = I - tau * v v^T from the left to C (rows(C) == len(v)),
/// where v has an implicit leading 1 followed by `v_tail` of length
/// rows(C) - 1.
void larf_left(double tau, const double* v_tail, MatrixView c);

/// larf_left with C's head row stored apart from the rest, as in the TPQRT
/// combine kernels: applies H = I - tau * [1; v][1; v]^T to [top; bottom],
/// where `top` holds cols(bottom) entries `top_stride` apart and `v` holds
/// rows(bottom). Columns go four at a time: one dot4 pass gives their
/// C^T v entries, then each column takes its axpy while still in cache.
/// Every entry gets exactly the bits of the column-at-a-time dot + axpy
/// loop (see blas.hpp's bit-identity contract).
void larf_left_split(double tau, const double* v, double* top,
                     Index top_stride, MatrixView bottom);

}  // namespace qrgrid
