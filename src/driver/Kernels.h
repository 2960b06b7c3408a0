//===- driver/Kernels.h - The paper's benchmark kernels ---------*- C++-*-===//
//
// Part of plutopp, a reproduction of the PLDI'08 Pluto system.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The input kernels evaluated in the paper (Section 7), as restricted-C
/// sources accepted by the frontend. Shared by tests, examples and the
/// benchmark harness so every component exercises identical inputs.
///
//===----------------------------------------------------------------------===//

#ifndef PLUTOPP_DRIVER_KERNELS_H
#define PLUTOPP_DRIVER_KERNELS_H

#include <utility>

namespace pluto {
namespace kernels {

/// Imperfectly nested 1-d Jacobi (paper Figure 3(a); experiments Fig. 6).
inline const char *Jacobi1D = R"(
for (t = 0; t < T; t++) {
  for (i = 2; i < N - 1; i++) {
    b[i] = 0.333 * (a[i - 1] + a[i] + a[i + 1]);
  }
  for (j = 2; j < N - 1; j++) {
    a[j] = b[j];
  }
}
)";

/// 2-d finite-difference time-domain kernel (paper Figure 7; Fig. 8).
/// The paper's `exp(-coeff0*t1)` source statement is modeled polybench-style
/// with a read from a 1-d array `fict`, which preserves the dependence
/// structure (S1 writes row 0 of ey each time step).
inline const char *Fdtd2D = R"(
for (t = 0; t < tmax; t++) {
  for (j = 0; j < ny; j++) {
    ey[0][j] = fict[t];
  }
  for (i = 1; i < nx; i++) {
    for (j = 0; j < ny; j++) {
      ey[i][j] = ey[i][j] - coeff1 * (hz[i][j] - hz[i - 1][j]);
    }
  }
  for (i = 0; i < nx; i++) {
    for (j = 1; j < ny; j++) {
      ex[i][j] = ex[i][j] - coeff1 * (hz[i][j] - hz[i][j - 1]);
    }
  }
  for (i = 0; i < nx - 1; i++) {
    for (j = 0; j < ny - 1; j++) {
      hz[i][j] = hz[i][j] - coeff2 * (ex[i][j + 1] - ex[i][j] + ey[i + 1][j] - ey[i][j]);
    }
  }
}
)";

/// LU decomposition (paper Figure 9(a); Fig. 10).
inline const char *LU = R"(
for (k = 0; k < N; k++) {
  for (j = k + 1; j < N; j++) {
    a[k][j] = a[k][j] / a[k][k];
  }
  for (i = k + 1; i < N; i++) {
    for (j = k + 1; j < N; j++) {
      a[i][j] = a[i][j] - a[i][k] * a[k][j];
    }
  }
}
)";

/// Matrix-vector transpose sequence (paper Figure 11; Fig. 12):
/// x1 = x1 + A b1; x2 = x2 + A^T b2. The only inter-statement dependence is
/// the RAR (input) dependence on A.
inline const char *MVT = R"(
for (i = 0; i < N; i++) {
  for (j = 0; j < N; j++) {
    x1[i] = x1[i] + a[i][j] * y1[j];
  }
}
for (i = 0; i < N; i++) {
  for (j = 0; j < N; j++) {
    x2[i] = x2[i] + a[j][i] * y2[j];
  }
}
)";

/// 3-d Gauss-Seidel successive over-relaxation (paper Fig. 13): time loop
/// over a 2-d in-place stencil.
inline const char *Seidel2D = R"(
for (t = 0; t < T; t++) {
  for (i = 1; i < N - 1; i++) {
    for (j = 1; j < N - 1; j++) {
      a[i][j] = (a[i - 1][j - 1] + a[i - 1][j] + a[i - 1][j + 1] + a[i][j - 1] + a[i][j] + a[i][j + 1] + a[i + 1][j - 1] + a[i + 1][j] + a[i + 1][j + 1]) / 9.0;
    }
  }
}
)";

/// Matrix-matrix multiplication: the canonical sanity kernel (permutable
/// 3-d band, outer parallelism).
inline const char *MatMul = R"(
for (i = 0; i < N; i++) {
  for (j = 0; j < N; j++) {
    for (k = 0; k < N; k++) {
      c[i][j] = c[i][j] + a[i][k] * b[k][j];
    }
  }
}
)";

/// Perfectly nested 2-d seq dependence example from paper Figure 4(a).
inline const char *Sweep2D = R"(
for (i = 1; i < N; i++) {
  for (j = 1; j < N; j++) {
    a[i][j] = a[i - 1][j] + a[i][j - 1];
  }
}
)";

//===----------------------------------------------------------------------===//
// Additional affine kernels (polybench-style) used by the generality test
// suite and the kernel-sweep benchmark. The paper positions the framework
// as applying to arbitrary affine programs; these exercise shapes the
// Section 7 kernels do not: anti-dependence-driven fusion chains (gemver),
// triangular non-unit-step-free domains (trmm, syrk), higher-dimensional
// perfect nests (doitgen), and out-of-place 2-d stencils (jacobi2d).
//===----------------------------------------------------------------------===//

/// Out-of-place 2-d Jacobi stencil with copy-back (imperfect, 2 statements).
inline const char *Jacobi2D = R"(
for (t = 0; t < T; t++) {
  for (i = 1; i < N - 1; i++) {
    for (j = 1; j < N - 1; j++) {
      b[i][j] = 0.2 * (a[i][j] + a[i][j - 1] + a[i][j + 1] + a[i - 1][j] + a[i + 1][j]);
    }
  }
  for (i = 1; i < N - 1; i++) {
    for (j = 1; j < N - 1; j++) {
      a[i][j] = b[i][j];
    }
  }
}
)";

/// Vector-multiply-and-matrix-update chain (4 fusable statement groups).
inline const char *Gemver = R"(
for (i = 0; i < N; i++) {
  for (j = 0; j < N; j++) {
    aa[i][j] = a[i][j] + u1[i] * v1[j] + u2[i] * v2[j];
  }
}
for (i = 0; i < N; i++) {
  for (j = 0; j < N; j++) {
    x[i] = x[i] + beta[0] * aa[j][i] * y[j];
  }
}
for (i = 0; i < N; i++) {
  x[i] = x[i] + z[i];
}
for (i = 0; i < N; i++) {
  for (j = 0; j < N; j++) {
    w[i] = w[i] + alpha[0] * aa[i][j] * x[j];
  }
}
)";

/// Triangular matrix multiply (non-rectangular domain).
inline const char *Trmm = R"(
for (i = 0; i < N; i++) {
  for (j = 0; j < N; j++) {
    for (k = i + 1; k < N; k++) {
      b[i][j] = b[i][j] + a[i][k] * b[k][j];
    }
  }
}
)";

/// Symmetric rank-k update (triangular output domain).
inline const char *Syrk = R"(
for (i = 0; i < N; i++) {
  for (j = 0; j <= i; j++) {
    for (k = 0; k < N; k++) {
      c[i][j] = c[i][j] + a[i][k] * a[j][k];
    }
  }
}
)";

/// Multi-resolution analysis kernel (3-d domain, producer-consumer pair).
inline const char *Doitgen = R"(
for (r = 0; r < N; r++) {
  for (q = 0; q < N; q++) {
    for (p = 0; p < M; p++) {
      sum[r][q][p] = 0.0;
      for (s = 0; s < M; s++) {
        sum[r][q][p] = sum[r][q][p] + a[r][q][s] * c4[s][p];
      }
    }
    for (p = 0; p < M; p++) {
      a[r][q][p] = sum[r][q][p];
    }
  }
}
)";

/// Two-statement reduction sequence sharing the matrix (atax-like).
inline const char *Atax = R"(
for (i = 0; i < N; i++) {
  for (j = 0; j < N; j++) {
    tmp[i] = tmp[i] + a[i][j] * x[j];
  }
}
for (i = 0; i < N; i++) {
  for (j = 0; j < N; j++) {
    y[j] = y[j] + a[i][j] * tmp[i];
  }
}
)";

/// Scalar reduction: the loop carries only the associative accumulation
/// into s, so it parallelizes under `reduction(+:s)` and not otherwise.
inline const char *DotProduct = R"(
for (i = 0; i < N; i++) {
  s += a[i] * b[i];
}
)";

/// Transposed matrix-vector accumulation (atax-like): the outer loop
/// carries only the reduction into y, whose element is chosen by the inner
/// iterator - parallelizing the carrier needs an OpenMP 4.5 array-section
/// clause `reduction(+:y[0:N])`.
inline const char *MatVecT = R"(
for (i = 0; i < N; i++) {
  for (j = 0; j < N; j++) {
    y[j] += a[i][j] * x[i];
  }
}
)";

/// Every kernel above as (name, source), in declaration order.
inline const std::pair<const char *, const char *> All[] = {
    {"Jacobi1D", Jacobi1D}, {"Fdtd2D", Fdtd2D},
    {"LU", LU},             {"MVT", MVT},
    {"Seidel2D", Seidel2D}, {"MatMul", MatMul},
    {"Sweep2D", Sweep2D},   {"Jacobi2D", Jacobi2D},
    {"Gemver", Gemver},     {"Trmm", Trmm},
    {"Syrk", Syrk},         {"Doitgen", Doitgen},
    {"Atax", Atax},         {"DotProduct", DotProduct},
    {"MatVecT", MatVecT}};

} // namespace kernels
} // namespace pluto

#endif // PLUTOPP_DRIVER_KERNELS_H
