// Reference BLAS subset used by the QR kernels.
//
// Only the operations the factorization algorithms need are provided; all
// operate on column-major views. Loop orders are chosen for column-major
// locality (axpy-style inner loops over contiguous columns). These are the
// "GotoBLAS substitute" of the reproduction: correctness-first, with enough
// blocking that benchmark shapes run at a consistent (measurable) rate.
//
// Bit-identity contract: every kernel returns exactly the bits of the plain
// loops it replaced (each sum accumulated from 0.0 in index order, no
// reassociation, no FMA contraction). Speed comes from running several
// independent sums at once: dot4 advances four dot products sharing x in
// one pass, so each chain's add latency hides behind the others and x is
// loaded once instead of four times. tests/kernel_oracle_test.cpp holds the
// plain loops and compares every kernel against them with memcmp.
#pragma once

#include "linalg/matrix.hpp"

namespace qrgrid {

enum class Trans { No, Yes };

// ---- Level 1 -------------------------------------------------------------

/// Euclidean norm of the n-vector x (stride 1) with overflow-safe scaling,
/// following the LAPACK dnrm2 algorithm.
double nrm2(Index n, const double* x);

/// Dot product of stride-1 n-vectors, accumulated from 0.0 in index order.
double dot(Index n, const double* x, const double* y);

/// out[c] = dot(n, x, y_c) for c = 0..3, as four interleaved chains with
/// dot's exact order: the results are bit-for-bit dot's.
void dot4(Index n, const double* x, const double* y0, const double* y1,
          const double* y2, const double* y3, double* out);

/// out[j] = dot(rows(a), x, a(:, j)) for every column j of `a`, four
/// columns per dot4 pass. IEEE products commute, so a caller may pass the
/// shared vector as x whichever operand it was.
void dot_columns(const double* x, ConstMatrixView a, double* out);

/// y += alpha * x for stride-1 n-vectors.
void axpy(Index n, double alpha, const double* x, double* y);

/// x *= alpha for a stride-1 n-vector.
void scal(Index n, double alpha, double* x);

// ---- Level 2 -------------------------------------------------------------

/// y := alpha * op(A) * x + beta * y.
void gemv(Trans trans, double alpha, ConstMatrixView a, const double* x,
          double beta, double* y);

/// A += alpha * x * y^T (rank-1 update).
void ger(double alpha, const double* x, const double* y, MatrixView a);

/// Solves op(T) * x = b in place for upper or lower triangular T.
enum class UpLo { Upper, Lower };
enum class Diag { NonUnit, Unit };
void trsv(UpLo uplo, Trans trans, Diag diag, ConstMatrixView t, double* x);

// ---- Level 3 -------------------------------------------------------------

/// C := alpha * op(A) * op(B) + beta * C.
void gemm(Trans ta, Trans tb, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c);

/// B := alpha * op(T) * B (Side::Left) or alpha * B * op(T) (Side::Right)
/// for triangular T.
enum class Side { Left, Right };
void trmm(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView t, MatrixView b);

/// Solves op(T) * X = alpha * B (Left) or X * op(T) = alpha * B (Right),
/// overwriting B with X.
void trsm(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView t, MatrixView b);

/// C := alpha * A^T * A + beta * C (upper triangle only), the Gram-matrix
/// kernel used by CholeskyQR. C must be n x n where A is m x n.
void syrk_upper_at_a(double alpha, ConstMatrixView a, double beta,
                     MatrixView c);

}  // namespace qrgrid
