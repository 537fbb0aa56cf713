## --model=baseline
/* generated by polyfuse */
#include <math.h>

static long long pf_ceild(long long n, long long d) {
  return n >= 0 ? (n + d - 1) / d : -((-n) / d);
}
static long long pf_floord(long long n, long long d) {
  return n >= 0 ? n / d : -((-n + d - 1) / d);
}
static long long pf_min(long long a, long long b) { return a < b ? a : b; }
static long long pf_mod(long long a, long long d) {
  long long m = a % d; return m < 0 ? m + d : m;
}
static long long pf_max(long long a, long long b) { return a > b ? a : b; }

void pf_kernel(double** arrays, const long long* params) {
  const long long N = params[0];
  double* const a0 = arrays[0];
  double* const a1 = arrays[1];
  double* const a2 = arrays[2];
  double* const a3 = arrays[3];
  double* const a4 = arrays[4];
  double* const a5 = arrays[5];
  double* const a6 = arrays[6];
  double* const a7 = arrays[7];
  double* const a8 = arrays[8];
  double* const a9 = arrays[9];
  double* const a10 = arrays[10];
  double* const a11 = arrays[11];
  double* const a12 = arrays[12];
  double* const a13 = arrays[13];

  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      { /* S1 */
        const long long i = t0;
        const long long j = t1;
        a3[((i)) * (N + 2) + (j)] = ((a6[((i)) * (N + 2) + (j)] + ((0.69999999999999996 * (a11[((i)) * (N + 2) + (j + 1)] + a11[((i)) * (N + 2) + (j)])) * (a10[((i)) * (N + 2) + (j + 1)] + a10[((i)) * (N + 2) + (j)]))) - (0.59999999999999998 * (a12[((i + 1)) * (N + 2) + (j)] - a12[((i)) * (N + 2) + (j)])));
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      { /* S2 */
        const long long i = t0;
        const long long j = t1;
        a4[((i)) * (N + 2) + (j)] = ((a7[((i)) * (N + 2) + (j)] - ((0.69999999999999996 * (a11[((i + 1)) * (N + 2) + (j)] + a11[((i)) * (N + 2) + (j)])) * (a9[((i + 1)) * (N + 2) + (j)] + a9[((i)) * (N + 2) + (j)]))) - (0.59999999999999998 * (a12[((i)) * (N + 2) + (j + 1)] - a12[((i)) * (N + 2) + (j)])));
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      { /* S3 */
        const long long i = t0;
        const long long j = t1;
        a5[((i)) * (N + 2) + (j)] = ((a8[((i)) * (N + 2) + (j)] - (0.5 * (a9[((i + 1)) * (N + 2) + (j)] - a9[((i)) * (N + 2) + (j)]))) - (0.5 * (a10[((i)) * (N + 2) + (j + 1)] - a10[((i)) * (N + 2) + (j)])));
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S4 */
        const long long j = t0;
        a3[((0)) * (N + 2) + (j)] = a3[((N)) * (N + 2) + (j)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S5 */
        const long long j = t0;
        a4[((0)) * (N + 2) + (j)] = a4[((N)) * (N + 2) + (j)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S6 */
        const long long i = t0;
        a3[((i)) * (N + 2) + (0)] = a3[((i)) * (N + 2) + (N)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S7 */
        const long long i = t0;
        a4[((i)) * (N + 2) + (0)] = a4[((i)) * (N + 2) + (N)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S8 */
        const long long j = t0;
        a3[((N + 1)) * (N + 2) + (j)] = a3[((1)) * (N + 2) + (j)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S9 */
        const long long j = t0;
        a4[((N + 1)) * (N + 2) + (j)] = a4[((1)) * (N + 2) + (j)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S10 */
        const long long i = t0;
        a3[((i)) * (N + 2) + (N + 1)] = a3[((i)) * (N + 2) + (1)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S11 */
        const long long i = t0;
        a4[((i)) * (N + 2) + (N + 1)] = a4[((i)) * (N + 2) + (1)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S12 */
        const long long j = t0;
        a11[((0)) * (N + 2) + (j)] = a11[((N)) * (N + 2) + (j)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N + 1); t0++) {
    for (long long t1 = (0); t1 <= (N + 1); t1++) {
      { /* S13 */
        const long long i = t0;
        const long long j = t1;
        a6[((i)) * (N + 2) + (j)] = (a0[((i)) * (N + 2) + (j)] + (0.20000000000000001 * ((a3[((i)) * (N + 2) + (j)] - (2.0 * a0[((i)) * (N + 2) + (j)])) + a6[((i)) * (N + 2) + (j)])));
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N + 1); t0++) {
    for (long long t1 = (0); t1 <= (N + 1); t1++) {
      { /* S14 */
        const long long i = t0;
        const long long j = t1;
        a7[((i)) * (N + 2) + (j)] = (a1[((i)) * (N + 2) + (j)] + (0.20000000000000001 * ((a4[((i)) * (N + 2) + (j)] - (2.0 * a1[((i)) * (N + 2) + (j)])) + a7[((i)) * (N + 2) + (j)])));
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      { /* S15 */
        const long long i = t0;
        const long long j = t1;
        a8[((i)) * (N + 2) + (j)] = (a2[((i)) * (N + 2) + (j)] + (0.20000000000000001 * ((a5[((i)) * (N + 2) + (j)] - (2.0 * a2[((i)) * (N + 2) + (j)])) + a8[((i)) * (N + 2) + (j)])));
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N + 1); t0++) {
    for (long long t1 = (0); t1 <= (N + 1); t1++) {
      { /* S16 */
        const long long i = t0;
        const long long j = t1;
        a0[((i)) * (N + 2) + (j)] = a3[((i)) * (N + 2) + (j)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N + 1); t0++) {
    for (long long t1 = (0); t1 <= (N + 1); t1++) {
      { /* S17 */
        const long long i = t0;
        const long long j = t1;
        a1[((i)) * (N + 2) + (j)] = a4[((i)) * (N + 2) + (j)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      { /* S18 */
        const long long i = t0;
        const long long j = t1;
        a2[((i)) * (N + 2) + (j)] = a5[((i)) * (N + 2) + (j)];
      }
    }
  }
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      { /* S19 */
        const long long i = t0;
        const long long j = t1;
        a13[(0)] = (((a13[(0)] + a6[((i)) * (N + 2) + (j)]) + a7[((i)) * (N + 2) + (j)]) + a8[((i)) * (N + 2) + (j)]);
      }
    }
  }
}
## --model=wisefuse
/* generated by polyfuse */
#include <math.h>

static long long pf_ceild(long long n, long long d) {
  return n >= 0 ? (n + d - 1) / d : -((-n) / d);
}
static long long pf_floord(long long n, long long d) {
  return n >= 0 ? n / d : -((-n + d - 1) / d);
}
static long long pf_min(long long a, long long b) { return a < b ? a : b; }
static long long pf_mod(long long a, long long d) {
  long long m = a % d; return m < 0 ? m + d : m;
}
static long long pf_max(long long a, long long b) { return a > b ? a : b; }

void pf_kernel(double** arrays, const long long* params) {
  const long long N = params[0];
  double* const a0 = arrays[0];
  double* const a1 = arrays[1];
  double* const a2 = arrays[2];
  double* const a3 = arrays[3];
  double* const a4 = arrays[4];
  double* const a5 = arrays[5];
  double* const a6 = arrays[6];
  double* const a7 = arrays[7];
  double* const a8 = arrays[8];
  double* const a9 = arrays[9];
  double* const a10 = arrays[10];
  double* const a11 = arrays[11];
  double* const a12 = arrays[12];
  double* const a13 = arrays[13];

  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      { /* S1 */
        const long long i = t0;
        const long long j = t1;
        a3[((i)) * (N + 2) + (j)] = ((a6[((i)) * (N + 2) + (j)] + ((0.69999999999999996 * (a11[((i)) * (N + 2) + (j + 1)] + a11[((i)) * (N + 2) + (j)])) * (a10[((i)) * (N + 2) + (j + 1)] + a10[((i)) * (N + 2) + (j)]))) - (0.59999999999999998 * (a12[((i + 1)) * (N + 2) + (j)] - a12[((i)) * (N + 2) + (j)])));
      }
      { /* S2 */
        const long long i = t0;
        const long long j = t1;
        a4[((i)) * (N + 2) + (j)] = ((a7[((i)) * (N + 2) + (j)] - ((0.69999999999999996 * (a11[((i + 1)) * (N + 2) + (j)] + a11[((i)) * (N + 2) + (j)])) * (a9[((i + 1)) * (N + 2) + (j)] + a9[((i)) * (N + 2) + (j)]))) - (0.59999999999999998 * (a12[((i)) * (N + 2) + (j + 1)] - a12[((i)) * (N + 2) + (j)])));
      }
      { /* S3 */
        const long long i = t0;
        const long long j = t1;
        a5[((i)) * (N + 2) + (j)] = ((a8[((i)) * (N + 2) + (j)] - (0.5 * (a9[((i + 1)) * (N + 2) + (j)] - a9[((i)) * (N + 2) + (j)]))) - (0.5 * (a10[((i)) * (N + 2) + (j + 1)] - a10[((i)) * (N + 2) + (j)])));
      }
      { /* S15 */
        const long long i = t0;
        const long long j = t1;
        a8[((i)) * (N + 2) + (j)] = (a2[((i)) * (N + 2) + (j)] + (0.20000000000000001 * ((a5[((i)) * (N + 2) + (j)] - (2.0 * a2[((i)) * (N + 2) + (j)])) + a8[((i)) * (N + 2) + (j)])));
      }
      { /* S18 */
        const long long i = t0;
        const long long j = t1;
        a2[((i)) * (N + 2) + (j)] = a5[((i)) * (N + 2) + (j)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S4 */
        const long long j = t0;
        a3[((0)) * (N + 2) + (j)] = a3[((N)) * (N + 2) + (j)];
      }
      { /* S6 */
        const long long i = t0;
        a3[((i)) * (N + 2) + (0)] = a3[((i)) * (N + 2) + (N)];
      }
      { /* S8 */
        const long long j = t0;
        a3[((N + 1)) * (N + 2) + (j)] = a3[((1)) * (N + 2) + (j)];
      }
      { /* S10 */
        const long long i = t0;
        a3[((i)) * (N + 2) + (N + 1)] = a3[((i)) * (N + 2) + (1)];
      }
      { /* S5 */
        const long long j = t0;
        a4[((0)) * (N + 2) + (j)] = a4[((N)) * (N + 2) + (j)];
      }
      { /* S7 */
        const long long i = t0;
        a4[((i)) * (N + 2) + (0)] = a4[((i)) * (N + 2) + (N)];
      }
      { /* S9 */
        const long long j = t0;
        a4[((N + 1)) * (N + 2) + (j)] = a4[((1)) * (N + 2) + (j)];
      }
      { /* S11 */
        const long long i = t0;
        a4[((i)) * (N + 2) + (N + 1)] = a4[((i)) * (N + 2) + (1)];
      }
      { /* S12 */
        const long long j = t0;
        a11[((0)) * (N + 2) + (j)] = a11[((N)) * (N + 2) + (j)];
      }
    }
  }
  #pragma omp parallel for reduction(+:a13[0:(1)])
  for (long long t0 = pf_min((0), (1)); t0 <= pf_max((N + 1), (N)); t0++) {
    for (long long t1 = pf_min((0), (1)); t1 <= pf_max((N + 1), (N)); t1++) {
      { /* S13 */
        if ((t0) >= 0 && (-t0 + N + 1) >= 0 && (t1) >= 0 && (-t1 + N + 1) >= 0) {
          const long long i = t0;
          const long long j = t1;
          a6[((i)) * (N + 2) + (j)] = (a0[((i)) * (N + 2) + (j)] + (0.20000000000000001 * ((a3[((i)) * (N + 2) + (j)] - (2.0 * a0[((i)) * (N + 2) + (j)])) + a6[((i)) * (N + 2) + (j)])));
        }
      }
      { /* S16 */
        if ((t0) >= 0 && (-t0 + N + 1) >= 0 && (t1) >= 0 && (-t1 + N + 1) >= 0) {
          const long long i = t0;
          const long long j = t1;
          a0[((i)) * (N + 2) + (j)] = a3[((i)) * (N + 2) + (j)];
        }
      }
      { /* S14 */
        if ((t0) >= 0 && (-t0 + N + 1) >= 0 && (t1) >= 0 && (-t1 + N + 1) >= 0) {
          const long long i = t0;
          const long long j = t1;
          a7[((i)) * (N + 2) + (j)] = (a1[((i)) * (N + 2) + (j)] + (0.20000000000000001 * ((a4[((i)) * (N + 2) + (j)] - (2.0 * a1[((i)) * (N + 2) + (j)])) + a7[((i)) * (N + 2) + (j)])));
        }
      }
      { /* S17 */
        if ((t0) >= 0 && (-t0 + N + 1) >= 0 && (t1) >= 0 && (-t1 + N + 1) >= 0) {
          const long long i = t0;
          const long long j = t1;
          a1[((i)) * (N + 2) + (j)] = a4[((i)) * (N + 2) + (j)];
        }
      }
      { /* S19 */
        if ((t0 - 1) >= 0 && (-t0 + N) >= 0 && (t1 - 1) >= 0 && (-t1 + N) >= 0) {
          const long long i = t0;
          const long long j = t1;
          a13[(0)] = (((a13[(0)] + a6[((i)) * (N + 2) + (j)]) + a7[((i)) * (N + 2) + (j)]) + a8[((i)) * (N + 2) + (j)]);
        }
      }
    }
  }
}
## --model=smartfuse
/* generated by polyfuse */
#include <math.h>

static long long pf_ceild(long long n, long long d) {
  return n >= 0 ? (n + d - 1) / d : -((-n) / d);
}
static long long pf_floord(long long n, long long d) {
  return n >= 0 ? n / d : -((-n + d - 1) / d);
}
static long long pf_min(long long a, long long b) { return a < b ? a : b; }
static long long pf_mod(long long a, long long d) {
  long long m = a % d; return m < 0 ? m + d : m;
}
static long long pf_max(long long a, long long b) { return a > b ? a : b; }

void pf_kernel(double** arrays, const long long* params) {
  const long long N = params[0];
  double* const a0 = arrays[0];
  double* const a1 = arrays[1];
  double* const a2 = arrays[2];
  double* const a3 = arrays[3];
  double* const a4 = arrays[4];
  double* const a5 = arrays[5];
  double* const a6 = arrays[6];
  double* const a7 = arrays[7];
  double* const a8 = arrays[8];
  double* const a9 = arrays[9];
  double* const a10 = arrays[10];
  double* const a11 = arrays[11];
  double* const a12 = arrays[12];
  double* const a13 = arrays[13];

  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S12 */
        const long long j = t0;
        a11[((0)) * (N + 2) + (j)] = a11[((N)) * (N + 2) + (j)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      { /* S3 */
        const long long i = t0;
        const long long j = t1;
        a5[((i)) * (N + 2) + (j)] = ((a8[((i)) * (N + 2) + (j)] - (0.5 * (a9[((i + 1)) * (N + 2) + (j)] - a9[((i)) * (N + 2) + (j)]))) - (0.5 * (a10[((i)) * (N + 2) + (j + 1)] - a10[((i)) * (N + 2) + (j)])));
      }
      { /* S15 */
        const long long i = t0;
        const long long j = t1;
        a8[((i)) * (N + 2) + (j)] = (a2[((i)) * (N + 2) + (j)] + (0.20000000000000001 * ((a5[((i)) * (N + 2) + (j)] - (2.0 * a2[((i)) * (N + 2) + (j)])) + a8[((i)) * (N + 2) + (j)])));
      }
      { /* S18 */
        const long long i = t0;
        const long long j = t1;
        a2[((i)) * (N + 2) + (j)] = a5[((i)) * (N + 2) + (j)];
      }
      { /* S2 */
        const long long i = t0;
        const long long j = t1;
        a4[((i)) * (N + 2) + (j)] = ((a7[((i)) * (N + 2) + (j)] - ((0.69999999999999996 * (a11[((i + 1)) * (N + 2) + (j)] + a11[((i)) * (N + 2) + (j)])) * (a9[((i + 1)) * (N + 2) + (j)] + a9[((i)) * (N + 2) + (j)]))) - (0.59999999999999998 * (a12[((i)) * (N + 2) + (j + 1)] - a12[((i)) * (N + 2) + (j)])));
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S11 */
        const long long i = t0;
        a4[((i)) * (N + 2) + (N + 1)] = a4[((i)) * (N + 2) + (1)];
      }
      { /* S9 */
        const long long j = t0;
        a4[((N + 1)) * (N + 2) + (j)] = a4[((1)) * (N + 2) + (j)];
      }
      { /* S7 */
        const long long i = t0;
        a4[((i)) * (N + 2) + (0)] = a4[((i)) * (N + 2) + (N)];
      }
      { /* S5 */
        const long long j = t0;
        a4[((0)) * (N + 2) + (j)] = a4[((N)) * (N + 2) + (j)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = pf_min((1), (0)); t0 <= pf_max((N), (N + 1)); t0++) {
    for (long long t1 = pf_min((1), (0)); t1 <= pf_max((N), (N + 1)); t1++) {
      { /* S14 */
        if ((t0) >= 0 && (-t0 + N + 1) >= 0 && (t1) >= 0 && (-t1 + N + 1) >= 0) {
          const long long i = t0;
          const long long j = t1;
          a7[((i)) * (N + 2) + (j)] = (a1[((i)) * (N + 2) + (j)] + (0.20000000000000001 * ((a4[((i)) * (N + 2) + (j)] - (2.0 * a1[((i)) * (N + 2) + (j)])) + a7[((i)) * (N + 2) + (j)])));
        }
      }
      { /* S17 */
        if ((t0) >= 0 && (-t0 + N + 1) >= 0 && (t1) >= 0 && (-t1 + N + 1) >= 0) {
          const long long i = t0;
          const long long j = t1;
          a1[((i)) * (N + 2) + (j)] = a4[((i)) * (N + 2) + (j)];
        }
      }
      { /* S1 */
        if ((t0 - 1) >= 0 && (-t0 + N) >= 0 && (t1 - 1) >= 0 && (-t1 + N) >= 0) {
          const long long i = t0;
          const long long j = t1;
          a3[((i)) * (N + 2) + (j)] = ((a6[((i)) * (N + 2) + (j)] + ((0.69999999999999996 * (a11[((i)) * (N + 2) + (j + 1)] + a11[((i)) * (N + 2) + (j)])) * (a10[((i)) * (N + 2) + (j + 1)] + a10[((i)) * (N + 2) + (j)]))) - (0.59999999999999998 * (a12[((i + 1)) * (N + 2) + (j)] - a12[((i)) * (N + 2) + (j)])));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S10 */
        const long long i = t0;
        a3[((i)) * (N + 2) + (N + 1)] = a3[((i)) * (N + 2) + (1)];
      }
      { /* S8 */
        const long long j = t0;
        a3[((N + 1)) * (N + 2) + (j)] = a3[((1)) * (N + 2) + (j)];
      }
      { /* S6 */
        const long long i = t0;
        a3[((i)) * (N + 2) + (0)] = a3[((i)) * (N + 2) + (N)];
      }
      { /* S4 */
        const long long j = t0;
        a3[((0)) * (N + 2) + (j)] = a3[((N)) * (N + 2) + (j)];
      }
    }
  }
  #pragma omp parallel for reduction(+:a13[0:(1)])
  for (long long t0 = pf_min((0), (1)); t0 <= pf_max((N + 1), (N)); t0++) {
    for (long long t1 = pf_min((0), (1)); t1 <= pf_max((N + 1), (N)); t1++) {
      { /* S13 */
        if ((t0) >= 0 && (-t0 + N + 1) >= 0 && (t1) >= 0 && (-t1 + N + 1) >= 0) {
          const long long i = t0;
          const long long j = t1;
          a6[((i)) * (N + 2) + (j)] = (a0[((i)) * (N + 2) + (j)] + (0.20000000000000001 * ((a3[((i)) * (N + 2) + (j)] - (2.0 * a0[((i)) * (N + 2) + (j)])) + a6[((i)) * (N + 2) + (j)])));
        }
      }
      { /* S19 */
        if ((t0 - 1) >= 0 && (-t0 + N) >= 0 && (t1 - 1) >= 0 && (-t1 + N) >= 0) {
          const long long i = t0;
          const long long j = t1;
          a13[(0)] = (((a13[(0)] + a6[((i)) * (N + 2) + (j)]) + a7[((i)) * (N + 2) + (j)]) + a8[((i)) * (N + 2) + (j)]);
        }
      }
      { /* S16 */
        if ((t0) >= 0 && (-t0 + N + 1) >= 0 && (t1) >= 0 && (-t1 + N + 1) >= 0) {
          const long long i = t0;
          const long long j = t1;
          a0[((i)) * (N + 2) + (j)] = a3[((i)) * (N + 2) + (j)];
        }
      }
    }
  }
}
## --model=nofuse
/* generated by polyfuse */
#include <math.h>

static long long pf_ceild(long long n, long long d) {
  return n >= 0 ? (n + d - 1) / d : -((-n) / d);
}
static long long pf_floord(long long n, long long d) {
  return n >= 0 ? n / d : -((-n + d - 1) / d);
}
static long long pf_min(long long a, long long b) { return a < b ? a : b; }
static long long pf_mod(long long a, long long d) {
  long long m = a % d; return m < 0 ? m + d : m;
}
static long long pf_max(long long a, long long b) { return a > b ? a : b; }

void pf_kernel(double** arrays, const long long* params) {
  const long long N = params[0];
  double* const a0 = arrays[0];
  double* const a1 = arrays[1];
  double* const a2 = arrays[2];
  double* const a3 = arrays[3];
  double* const a4 = arrays[4];
  double* const a5 = arrays[5];
  double* const a6 = arrays[6];
  double* const a7 = arrays[7];
  double* const a8 = arrays[8];
  double* const a9 = arrays[9];
  double* const a10 = arrays[10];
  double* const a11 = arrays[11];
  double* const a12 = arrays[12];
  double* const a13 = arrays[13];

  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      { /* S1 */
        const long long i = t0;
        const long long j = t1;
        a3[((i)) * (N + 2) + (j)] = ((a6[((i)) * (N + 2) + (j)] + ((0.69999999999999996 * (a11[((i)) * (N + 2) + (j + 1)] + a11[((i)) * (N + 2) + (j)])) * (a10[((i)) * (N + 2) + (j + 1)] + a10[((i)) * (N + 2) + (j)]))) - (0.59999999999999998 * (a12[((i + 1)) * (N + 2) + (j)] - a12[((i)) * (N + 2) + (j)])));
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      { /* S2 */
        const long long i = t0;
        const long long j = t1;
        a4[((i)) * (N + 2) + (j)] = ((a7[((i)) * (N + 2) + (j)] - ((0.69999999999999996 * (a11[((i + 1)) * (N + 2) + (j)] + a11[((i)) * (N + 2) + (j)])) * (a9[((i + 1)) * (N + 2) + (j)] + a9[((i)) * (N + 2) + (j)]))) - (0.59999999999999998 * (a12[((i)) * (N + 2) + (j + 1)] - a12[((i)) * (N + 2) + (j)])));
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      { /* S3 */
        const long long i = t0;
        const long long j = t1;
        a5[((i)) * (N + 2) + (j)] = ((a8[((i)) * (N + 2) + (j)] - (0.5 * (a9[((i + 1)) * (N + 2) + (j)] - a9[((i)) * (N + 2) + (j)]))) - (0.5 * (a10[((i)) * (N + 2) + (j + 1)] - a10[((i)) * (N + 2) + (j)])));
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S4 */
        const long long j = t0;
        a3[((0)) * (N + 2) + (j)] = a3[((N)) * (N + 2) + (j)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S5 */
        const long long j = t0;
        a4[((0)) * (N + 2) + (j)] = a4[((N)) * (N + 2) + (j)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S6 */
        const long long i = t0;
        a3[((i)) * (N + 2) + (0)] = a3[((i)) * (N + 2) + (N)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S7 */
        const long long i = t0;
        a4[((i)) * (N + 2) + (0)] = a4[((i)) * (N + 2) + (N)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S8 */
        const long long j = t0;
        a3[((N + 1)) * (N + 2) + (j)] = a3[((1)) * (N + 2) + (j)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S9 */
        const long long j = t0;
        a4[((N + 1)) * (N + 2) + (j)] = a4[((1)) * (N + 2) + (j)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S10 */
        const long long i = t0;
        a3[((i)) * (N + 2) + (N + 1)] = a3[((i)) * (N + 2) + (1)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S11 */
        const long long i = t0;
        a4[((i)) * (N + 2) + (N + 1)] = a4[((i)) * (N + 2) + (1)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S12 */
        const long long j = t0;
        a11[((0)) * (N + 2) + (j)] = a11[((N)) * (N + 2) + (j)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N + 1); t0++) {
    for (long long t1 = (0); t1 <= (N + 1); t1++) {
      { /* S13 */
        const long long i = t0;
        const long long j = t1;
        a6[((i)) * (N + 2) + (j)] = (a0[((i)) * (N + 2) + (j)] + (0.20000000000000001 * ((a3[((i)) * (N + 2) + (j)] - (2.0 * a0[((i)) * (N + 2) + (j)])) + a6[((i)) * (N + 2) + (j)])));
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N + 1); t0++) {
    for (long long t1 = (0); t1 <= (N + 1); t1++) {
      { /* S14 */
        const long long i = t0;
        const long long j = t1;
        a7[((i)) * (N + 2) + (j)] = (a1[((i)) * (N + 2) + (j)] + (0.20000000000000001 * ((a4[((i)) * (N + 2) + (j)] - (2.0 * a1[((i)) * (N + 2) + (j)])) + a7[((i)) * (N + 2) + (j)])));
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      { /* S15 */
        const long long i = t0;
        const long long j = t1;
        a8[((i)) * (N + 2) + (j)] = (a2[((i)) * (N + 2) + (j)] + (0.20000000000000001 * ((a5[((i)) * (N + 2) + (j)] - (2.0 * a2[((i)) * (N + 2) + (j)])) + a8[((i)) * (N + 2) + (j)])));
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N + 1); t0++) {
    for (long long t1 = (0); t1 <= (N + 1); t1++) {
      { /* S16 */
        const long long i = t0;
        const long long j = t1;
        a0[((i)) * (N + 2) + (j)] = a3[((i)) * (N + 2) + (j)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N + 1); t0++) {
    for (long long t1 = (0); t1 <= (N + 1); t1++) {
      { /* S17 */
        const long long i = t0;
        const long long j = t1;
        a1[((i)) * (N + 2) + (j)] = a4[((i)) * (N + 2) + (j)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      { /* S18 */
        const long long i = t0;
        const long long j = t1;
        a2[((i)) * (N + 2) + (j)] = a5[((i)) * (N + 2) + (j)];
      }
    }
  }
  #pragma omp parallel for reduction(+:a13[0:(1)])
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      { /* S19 */
        const long long i = t0;
        const long long j = t1;
        a13[(0)] = (((a13[(0)] + a6[((i)) * (N + 2) + (j)]) + a7[((i)) * (N + 2) + (j)]) + a8[((i)) * (N + 2) + (j)]);
      }
    }
  }
}
## --model=maxfuse
/* generated by polyfuse */
#include <math.h>

static long long pf_ceild(long long n, long long d) {
  return n >= 0 ? (n + d - 1) / d : -((-n) / d);
}
static long long pf_floord(long long n, long long d) {
  return n >= 0 ? n / d : -((-n + d - 1) / d);
}
static long long pf_min(long long a, long long b) { return a < b ? a : b; }
static long long pf_mod(long long a, long long d) {
  long long m = a % d; return m < 0 ? m + d : m;
}
static long long pf_max(long long a, long long b) { return a > b ? a : b; }

void pf_kernel(double** arrays, const long long* params) {
  const long long N = params[0];
  double* const a0 = arrays[0];
  double* const a1 = arrays[1];
  double* const a2 = arrays[2];
  double* const a3 = arrays[3];
  double* const a4 = arrays[4];
  double* const a5 = arrays[5];
  double* const a6 = arrays[6];
  double* const a7 = arrays[7];
  double* const a8 = arrays[8];
  double* const a9 = arrays[9];
  double* const a10 = arrays[10];
  double* const a11 = arrays[11];
  double* const a12 = arrays[12];
  double* const a13 = arrays[13];

  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = pf_min((1), (0)); t1 <= pf_max((N), (0)); t1++) {
      { /* S3 */
        if ((t1 - 1) >= 0 && (-t1 + N) >= 0) {
          const long long i = t0;
          const long long j = t1;
          a5[((i)) * (N + 2) + (j)] = ((a8[((i)) * (N + 2) + (j)] - (0.5 * (a9[((i + 1)) * (N + 2) + (j)] - a9[((i)) * (N + 2) + (j)]))) - (0.5 * (a10[((i)) * (N + 2) + (j + 1)] - a10[((i)) * (N + 2) + (j)])));
        }
      }
      { /* S12 */
        if ((t1) >= 0 && (-t1) >= 0) {
          const long long j = t0;
          a11[((0)) * (N + 2) + (j)] = a11[((N)) * (N + 2) + (j)];
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      { /* S15 */
        const long long i = t0;
        const long long j = t1;
        a8[((i)) * (N + 2) + (j)] = (a2[((i)) * (N + 2) + (j)] + (0.20000000000000001 * ((a5[((i)) * (N + 2) + (j)] - (2.0 * a2[((i)) * (N + 2) + (j)])) + a8[((i)) * (N + 2) + (j)])));
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      { /* S2 */
        const long long i = t0;
        const long long j = t1;
        a4[((i)) * (N + 2) + (j)] = ((a7[((i)) * (N + 2) + (j)] - ((0.69999999999999996 * (a11[((i + 1)) * (N + 2) + (j)] + a11[((i)) * (N + 2) + (j)])) * (a9[((i + 1)) * (N + 2) + (j)] + a9[((i)) * (N + 2) + (j)]))) - (0.59999999999999998 * (a12[((i)) * (N + 2) + (j + 1)] - a12[((i)) * (N + 2) + (j)])));
      }
      { /* S18 */
        const long long i = t0;
        const long long j = t1;
        a2[((i)) * (N + 2) + (j)] = a5[((i)) * (N + 2) + (j)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S11 */
        const long long i = t0;
        a4[((i)) * (N + 2) + (N + 1)] = a4[((i)) * (N + 2) + (1)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S9 */
        const long long j = t0;
        a4[((N + 1)) * (N + 2) + (j)] = a4[((1)) * (N + 2) + (j)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S7 */
        const long long i = t0;
        a4[((i)) * (N + 2) + (0)] = a4[((i)) * (N + 2) + (N)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S5 */
        const long long j = t0;
        a4[((0)) * (N + 2) + (j)] = a4[((N)) * (N + 2) + (j)];
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N + 1); t0++) {
    for (long long t1 = (0); t1 <= (N + 1); t1++) {
      { /* S14 */
        const long long i = t0;
        const long long j = t1;
        a7[((i)) * (N + 2) + (j)] = (a1[((i)) * (N + 2) + (j)] + (0.20000000000000001 * ((a4[((i)) * (N + 2) + (j)] - (2.0 * a1[((i)) * (N + 2) + (j)])) + a7[((i)) * (N + 2) + (j)])));
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = pf_min((1), (0)); t0 <= pf_max((N), (N + 1)); t0++) {
    for (long long t1 = pf_min((1), (0)); t1 <= pf_max((N), (N + 1)); t1++) {
      { /* S1 */
        if ((t0 - 1) >= 0 && (-t0 + N) >= 0 && (t1 - 1) >= 0 && (-t1 + N) >= 0) {
          const long long i = t0;
          const long long j = t1;
          a3[((i)) * (N + 2) + (j)] = ((a6[((i)) * (N + 2) + (j)] + ((0.69999999999999996 * (a11[((i)) * (N + 2) + (j + 1)] + a11[((i)) * (N + 2) + (j)])) * (a10[((i)) * (N + 2) + (j + 1)] + a10[((i)) * (N + 2) + (j)]))) - (0.59999999999999998 * (a12[((i + 1)) * (N + 2) + (j)] - a12[((i)) * (N + 2) + (j)])));
        }
      }
      { /* S17 */
        if ((t0) >= 0 && (-t0 + N + 1) >= 0 && (t1) >= 0 && (-t1 + N + 1) >= 0) {
          const long long i = t0;
          const long long j = t1;
          a1[((i)) * (N + 2) + (j)] = a4[((i)) * (N + 2) + (j)];
        }
      }
    }
  }
  for (long long t0 = pf_min(pf_min((1), (2)), (0)); t0 <= pf_max(pf_max(pf_max((N), (N + 1)), (2*N + 2)), (2*N)); t0++) {
    #pragma omp parallel for reduction(+:a13[0:(1)])
    for (long long t1 = pf_min(pf_min(pf_min((t0), (0)), pf_max((t0 - N - 1), (0))), pf_max((t0 - N), (1))); t1 <= pf_max(pf_max(pf_max((t0), (0)), pf_min((t0), (N + 1))), pf_min((t0 - 1), (N))); t1++) {
      { /* S6 */
        if ((t0 - 1) >= 0 && (-t0 + N) >= 0 && (t1) >= 0 && (-t1) >= 0) {
          const long long i = t0;
          a3[((i)) * (N + 2) + (0)] = a3[((i)) * (N + 2) + (N)];
        }
      }
      { /* S8 */
        if ((t0 - 2) >= 0 && (-t0 + N + 1) >= 0 && (t1) >= 0 && (-t1) >= 0) {
          const long long j = t0 - 1;
          a3[((N + 1)) * (N + 2) + (j)] = a3[((1)) * (N + 2) + (j)];
        }
      }
      { /* S10 */
        if ((t0 - 2) >= 0 && (-t0 + N + 1) >= 0 && (t1) >= 0 && (-t1) >= 0) {
          const long long i = t0 - 1;
          a3[((i)) * (N + 2) + (N + 1)] = a3[((i)) * (N + 2) + (1)];
        }
      }
      { /* S4 */
        if ((t0 - 1) >= 0 && (-t0 + N) >= 0 && (-t0 + t1) >= 0 && (t0 - t1) >= 0) {
          const long long j = t0;
          a3[((0)) * (N + 2) + (j)] = a3[((N)) * (N + 2) + (j)];
        }
      }
      { /* S13 */
        if ((-t0 + 2*N + 2) >= 0 && (t0) >= 0 && (t0 - t1) >= 0 && (-t0 + t1 + N + 1) >= 0 && (t1) >= 0 && (-t1 + N + 1) >= 0) {
          const long long i = t0 - t1;
          const long long j = t1;
          a6[((i)) * (N + 2) + (j)] = (a0[((i)) * (N + 2) + (j)] + (0.20000000000000001 * ((a3[((i)) * (N + 2) + (j)] - (2.0 * a0[((i)) * (N + 2) + (j)])) + a6[((i)) * (N + 2) + (j)])));
        }
      }
      { /* S16 */
        if ((-t0 + 2*N + 2) >= 0 && (t0) >= 0 && (t0 - t1) >= 0 && (-t0 + t1 + N + 1) >= 0 && (t1) >= 0 && (-t1 + N + 1) >= 0) {
          const long long i = t0 - t1;
          const long long j = t1;
          a0[((i)) * (N + 2) + (j)] = a3[((i)) * (N + 2) + (j)];
        }
      }
      { /* S19 */
        if ((-t0 + 2*N) >= 0 && (t0 - 2) >= 0 && (t0 - t1 - 1) >= 0 && (-t0 + t1 + N) >= 0 && (t1 - 1) >= 0 && (-t1 + N) >= 0) {
          const long long i = t0 - t1;
          const long long j = t1;
          a13[(0)] = (((a13[(0)] + a6[((i)) * (N + 2) + (j)]) + a7[((i)) * (N + 2) + (j)]) + a8[((i)) * (N + 2) + (j)]);
        }
      }
    }
  }
}
