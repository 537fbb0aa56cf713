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

  #pragma omp parallel for
  for (long long t0 = (2); t0 <= (N + 1); t0++) {
    for (long long t1 = (2); t1 <= (N + 1); t1++) {
      for (long long t2 = (2); t2 <= (N + 1); t2++) {
        { /* S1 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a2[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = ((((a0[(((i - 2)) * (N + 4) + (j)) * (N + 4) + (k)] - (4.0 * a0[(((i - 1)) * (N + 4) + (j)) * (N + 4) + (k)])) + (6.0 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) - (4.0 * a0[(((i + 1)) * (N + 4) + (j)) * (N + 4) + (k)])) + a0[(((i + 2)) * (N + 4) + (j)) * (N + 4) + (k)]);
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (2); t0 <= (N + 1); t0++) {
    for (long long t1 = (2); t1 <= (N + 1); t1++) {
      for (long long t2 = (2); t2 <= (N + 1); t2++) {
        { /* S2 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = ((a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] - (0.10000000000000001 * a2[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) + (0.050000000000000003 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (2); t0 <= (N + 1); t0++) {
    for (long long t1 = (2); t1 <= (N + 1); t1++) {
      for (long long t2 = (2); t2 <= (N + 1); t2++) {
        { /* S3 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a3[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = (((((a0[(((i)) * (N + 4) + (j - 2)) * (N + 4) + (k)] - (4.0 * a0[(((i)) * (N + 4) + (j - 1)) * (N + 4) + (k)])) + (6.0 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) - (4.0 * a0[(((i)) * (N + 4) + (j + 1)) * (N + 4) + (k)])) + a0[(((i)) * (N + 4) + (j + 2)) * (N + 4) + (k)]) + (0.10000000000000001 * (((a2[(((i + 1)) * (N + 4) + (j)) * (N + 4) + (k)] + a2[(((i)) * (N + 4) + (j + 1)) * (N + 4) + (k)]) + a2[(((i)) * (N + 4) + (j)) * (N + 4) + (k + 1)]) - (3.0 * a2[(((i)) * (N + 4) + (j)) * (N + 4) + (k)]))));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (2); t0 <= (N + 1); t0++) {
    for (long long t1 = (2); t1 <= (N + 1); t1++) {
      for (long long t2 = (2); t2 <= (N + 1); t2++) {
        { /* S4 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = ((a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] - (0.10000000000000001 * a3[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) + (0.050000000000000003 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (2); t0 <= (N + 1); t0++) {
    for (long long t1 = (2); t1 <= (N + 1); t1++) {
      for (long long t2 = (2); t2 <= (N + 1); t2++) {
        { /* S5 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a4[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = (((((a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k - 2)] - (4.0 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k - 1)])) + (6.0 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) - (4.0 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k + 1)])) + a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k + 2)]) + (0.10000000000000001 * (((a3[(((i + 1)) * (N + 4) + (j)) * (N + 4) + (k)] + a3[(((i)) * (N + 4) + (j + 1)) * (N + 4) + (k)]) + a3[(((i)) * (N + 4) + (j)) * (N + 4) + (k + 1)]) - (3.0 * a3[(((i)) * (N + 4) + (j)) * (N + 4) + (k)]))));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (2); t0 <= (N + 1); t0++) {
    for (long long t1 = (2); t1 <= (N + 1); t1++) {
      for (long long t2 = (2); t2 <= (N + 1); t2++) {
        { /* S6 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = ((a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] - (0.10000000000000001 * a4[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) + (0.050000000000000003 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)]));
        }
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

  #pragma omp parallel for
  for (long long t0 = (2); t0 <= (N + 1); t0++) {
    for (long long t1 = (2); t1 <= (N + 1); t1++) {
      for (long long t2 = (2); t2 <= (N + 1); t2++) {
        { /* S1 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a2[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = ((((a0[(((i - 2)) * (N + 4) + (j)) * (N + 4) + (k)] - (4.0 * a0[(((i - 1)) * (N + 4) + (j)) * (N + 4) + (k)])) + (6.0 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) - (4.0 * a0[(((i + 1)) * (N + 4) + (j)) * (N + 4) + (k)])) + a0[(((i + 2)) * (N + 4) + (j)) * (N + 4) + (k)]);
        }
        { /* S2 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = ((a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] - (0.10000000000000001 * a2[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) + (0.050000000000000003 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (2); t0 <= (N + 1); t0++) {
    for (long long t1 = (2); t1 <= (N + 1); t1++) {
      for (long long t2 = (2); t2 <= (N + 1); t2++) {
        { /* S3 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a3[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = (((((a0[(((i)) * (N + 4) + (j - 2)) * (N + 4) + (k)] - (4.0 * a0[(((i)) * (N + 4) + (j - 1)) * (N + 4) + (k)])) + (6.0 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) - (4.0 * a0[(((i)) * (N + 4) + (j + 1)) * (N + 4) + (k)])) + a0[(((i)) * (N + 4) + (j + 2)) * (N + 4) + (k)]) + (0.10000000000000001 * (((a2[(((i + 1)) * (N + 4) + (j)) * (N + 4) + (k)] + a2[(((i)) * (N + 4) + (j + 1)) * (N + 4) + (k)]) + a2[(((i)) * (N + 4) + (j)) * (N + 4) + (k + 1)]) - (3.0 * a2[(((i)) * (N + 4) + (j)) * (N + 4) + (k)]))));
        }
        { /* S4 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = ((a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] - (0.10000000000000001 * a3[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) + (0.050000000000000003 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (2); t0 <= (N + 1); t0++) {
    for (long long t1 = (2); t1 <= (N + 1); t1++) {
      for (long long t2 = (2); t2 <= (N + 1); t2++) {
        { /* S5 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a4[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = (((((a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k - 2)] - (4.0 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k - 1)])) + (6.0 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) - (4.0 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k + 1)])) + a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k + 2)]) + (0.10000000000000001 * (((a3[(((i + 1)) * (N + 4) + (j)) * (N + 4) + (k)] + a3[(((i)) * (N + 4) + (j + 1)) * (N + 4) + (k)]) + a3[(((i)) * (N + 4) + (j)) * (N + 4) + (k + 1)]) - (3.0 * a3[(((i)) * (N + 4) + (j)) * (N + 4) + (k)]))));
        }
        { /* S6 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = ((a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] - (0.10000000000000001 * a4[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) + (0.050000000000000003 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)]));
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

  for (long long t0 = pf_min(pf_min((2), (3)), (4)); t0 <= pf_max(pf_max((N + 1), (N + 2)), (N + 3)); t0++) {
    #pragma omp parallel for
    for (long long t1 = (2); t1 <= (N + 1); t1++) {
      for (long long t2 = (2); t2 <= (N + 1); t2++) {
        { /* S1 */
          if ((t0 - 2) >= 0 && (-t0 + N + 1) >= 0) {
            const long long i = t0;
            const long long j = t1;
            const long long k = t2;
            a2[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = ((((a0[(((i - 2)) * (N + 4) + (j)) * (N + 4) + (k)] - (4.0 * a0[(((i - 1)) * (N + 4) + (j)) * (N + 4) + (k)])) + (6.0 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) - (4.0 * a0[(((i + 1)) * (N + 4) + (j)) * (N + 4) + (k)])) + a0[(((i + 2)) * (N + 4) + (j)) * (N + 4) + (k)]);
          }
        }
        { /* S3 */
          if ((t0 - 3) >= 0 && (-t0 + N + 2) >= 0) {
            const long long i = t0 - 1;
            const long long j = t1;
            const long long k = t2;
            a3[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = (((((a0[(((i)) * (N + 4) + (j - 2)) * (N + 4) + (k)] - (4.0 * a0[(((i)) * (N + 4) + (j - 1)) * (N + 4) + (k)])) + (6.0 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) - (4.0 * a0[(((i)) * (N + 4) + (j + 1)) * (N + 4) + (k)])) + a0[(((i)) * (N + 4) + (j + 2)) * (N + 4) + (k)]) + (0.10000000000000001 * (((a2[(((i + 1)) * (N + 4) + (j)) * (N + 4) + (k)] + a2[(((i)) * (N + 4) + (j + 1)) * (N + 4) + (k)]) + a2[(((i)) * (N + 4) + (j)) * (N + 4) + (k + 1)]) - (3.0 * a2[(((i)) * (N + 4) + (j)) * (N + 4) + (k)]))));
          }
        }
        { /* S5 */
          if ((t0 - 4) >= 0 && (-t0 + N + 3) >= 0) {
            const long long i = t0 - 2;
            const long long j = t1;
            const long long k = t2;
            a4[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = (((((a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k - 2)] - (4.0 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k - 1)])) + (6.0 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) - (4.0 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k + 1)])) + a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k + 2)]) + (0.10000000000000001 * (((a3[(((i + 1)) * (N + 4) + (j)) * (N + 4) + (k)] + a3[(((i)) * (N + 4) + (j + 1)) * (N + 4) + (k)]) + a3[(((i)) * (N + 4) + (j)) * (N + 4) + (k + 1)]) - (3.0 * a3[(((i)) * (N + 4) + (j)) * (N + 4) + (k)]))));
          }
        }
        { /* S2 */
          if ((t0 - 3) >= 0 && (-t0 + N + 2) >= 0) {
            const long long i = t0 - 1;
            const long long j = t1;
            const long long k = t2;
            a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = ((a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] - (0.10000000000000001 * a2[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) + (0.050000000000000003 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)]));
          }
        }
        { /* S4 */
          if ((t0 - 3) >= 0 && (-t0 + N + 2) >= 0) {
            const long long i = t0 - 1;
            const long long j = t1;
            const long long k = t2;
            a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = ((a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] - (0.10000000000000001 * a3[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) + (0.050000000000000003 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)]));
          }
        }
        { /* S6 */
          if ((t0 - 4) >= 0 && (-t0 + N + 3) >= 0) {
            const long long i = t0 - 2;
            const long long j = t1;
            const long long k = t2;
            a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = ((a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] - (0.10000000000000001 * a4[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) + (0.050000000000000003 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)]));
          }
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

  #pragma omp parallel for
  for (long long t0 = (2); t0 <= (N + 1); t0++) {
    for (long long t1 = (2); t1 <= (N + 1); t1++) {
      for (long long t2 = (2); t2 <= (N + 1); t2++) {
        { /* S1 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a2[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = ((((a0[(((i - 2)) * (N + 4) + (j)) * (N + 4) + (k)] - (4.0 * a0[(((i - 1)) * (N + 4) + (j)) * (N + 4) + (k)])) + (6.0 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) - (4.0 * a0[(((i + 1)) * (N + 4) + (j)) * (N + 4) + (k)])) + a0[(((i + 2)) * (N + 4) + (j)) * (N + 4) + (k)]);
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (2); t0 <= (N + 1); t0++) {
    for (long long t1 = (2); t1 <= (N + 1); t1++) {
      for (long long t2 = (2); t2 <= (N + 1); t2++) {
        { /* S2 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = ((a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] - (0.10000000000000001 * a2[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) + (0.050000000000000003 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (2); t0 <= (N + 1); t0++) {
    for (long long t1 = (2); t1 <= (N + 1); t1++) {
      for (long long t2 = (2); t2 <= (N + 1); t2++) {
        { /* S3 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a3[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = (((((a0[(((i)) * (N + 4) + (j - 2)) * (N + 4) + (k)] - (4.0 * a0[(((i)) * (N + 4) + (j - 1)) * (N + 4) + (k)])) + (6.0 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) - (4.0 * a0[(((i)) * (N + 4) + (j + 1)) * (N + 4) + (k)])) + a0[(((i)) * (N + 4) + (j + 2)) * (N + 4) + (k)]) + (0.10000000000000001 * (((a2[(((i + 1)) * (N + 4) + (j)) * (N + 4) + (k)] + a2[(((i)) * (N + 4) + (j + 1)) * (N + 4) + (k)]) + a2[(((i)) * (N + 4) + (j)) * (N + 4) + (k + 1)]) - (3.0 * a2[(((i)) * (N + 4) + (j)) * (N + 4) + (k)]))));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (2); t0 <= (N + 1); t0++) {
    for (long long t1 = (2); t1 <= (N + 1); t1++) {
      for (long long t2 = (2); t2 <= (N + 1); t2++) {
        { /* S4 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = ((a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] - (0.10000000000000001 * a3[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) + (0.050000000000000003 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (2); t0 <= (N + 1); t0++) {
    for (long long t1 = (2); t1 <= (N + 1); t1++) {
      for (long long t2 = (2); t2 <= (N + 1); t2++) {
        { /* S5 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a4[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = (((((a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k - 2)] - (4.0 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k - 1)])) + (6.0 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) - (4.0 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k + 1)])) + a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k + 2)]) + (0.10000000000000001 * (((a3[(((i + 1)) * (N + 4) + (j)) * (N + 4) + (k)] + a3[(((i)) * (N + 4) + (j + 1)) * (N + 4) + (k)]) + a3[(((i)) * (N + 4) + (j)) * (N + 4) + (k + 1)]) - (3.0 * a3[(((i)) * (N + 4) + (j)) * (N + 4) + (k)]))));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (2); t0 <= (N + 1); t0++) {
    for (long long t1 = (2); t1 <= (N + 1); t1++) {
      for (long long t2 = (2); t2 <= (N + 1); t2++) {
        { /* S6 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = ((a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] - (0.10000000000000001 * a4[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) + (0.050000000000000003 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)]));
        }
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

  for (long long t0 = pf_min(pf_min((2), (3)), (4)); t0 <= pf_max(pf_max((N + 1), (N + 2)), (N + 3)); t0++) {
    #pragma omp parallel for
    for (long long t1 = (2); t1 <= (N + 1); t1++) {
      for (long long t2 = (2); t2 <= (N + 1); t2++) {
        { /* S1 */
          if ((t0 - 2) >= 0 && (-t0 + N + 1) >= 0) {
            const long long i = t0;
            const long long j = t1;
            const long long k = t2;
            a2[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = ((((a0[(((i - 2)) * (N + 4) + (j)) * (N + 4) + (k)] - (4.0 * a0[(((i - 1)) * (N + 4) + (j)) * (N + 4) + (k)])) + (6.0 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) - (4.0 * a0[(((i + 1)) * (N + 4) + (j)) * (N + 4) + (k)])) + a0[(((i + 2)) * (N + 4) + (j)) * (N + 4) + (k)]);
          }
        }
        { /* S3 */
          if ((t0 - 3) >= 0 && (-t0 + N + 2) >= 0) {
            const long long i = t0 - 1;
            const long long j = t1;
            const long long k = t2;
            a3[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = (((((a0[(((i)) * (N + 4) + (j - 2)) * (N + 4) + (k)] - (4.0 * a0[(((i)) * (N + 4) + (j - 1)) * (N + 4) + (k)])) + (6.0 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) - (4.0 * a0[(((i)) * (N + 4) + (j + 1)) * (N + 4) + (k)])) + a0[(((i)) * (N + 4) + (j + 2)) * (N + 4) + (k)]) + (0.10000000000000001 * (((a2[(((i + 1)) * (N + 4) + (j)) * (N + 4) + (k)] + a2[(((i)) * (N + 4) + (j + 1)) * (N + 4) + (k)]) + a2[(((i)) * (N + 4) + (j)) * (N + 4) + (k + 1)]) - (3.0 * a2[(((i)) * (N + 4) + (j)) * (N + 4) + (k)]))));
          }
        }
        { /* S5 */
          if ((t0 - 4) >= 0 && (-t0 + N + 3) >= 0) {
            const long long i = t0 - 2;
            const long long j = t1;
            const long long k = t2;
            a4[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = (((((a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k - 2)] - (4.0 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k - 1)])) + (6.0 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) - (4.0 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k + 1)])) + a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k + 2)]) + (0.10000000000000001 * (((a3[(((i + 1)) * (N + 4) + (j)) * (N + 4) + (k)] + a3[(((i)) * (N + 4) + (j + 1)) * (N + 4) + (k)]) + a3[(((i)) * (N + 4) + (j)) * (N + 4) + (k + 1)]) - (3.0 * a3[(((i)) * (N + 4) + (j)) * (N + 4) + (k)]))));
          }
        }
        { /* S2 */
          if ((t0 - 3) >= 0 && (-t0 + N + 2) >= 0) {
            const long long i = t0 - 1;
            const long long j = t1;
            const long long k = t2;
            a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = ((a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] - (0.10000000000000001 * a2[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) + (0.050000000000000003 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)]));
          }
        }
        { /* S4 */
          if ((t0 - 3) >= 0 && (-t0 + N + 2) >= 0) {
            const long long i = t0 - 1;
            const long long j = t1;
            const long long k = t2;
            a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = ((a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] - (0.10000000000000001 * a3[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) + (0.050000000000000003 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)]));
          }
        }
        { /* S6 */
          if ((t0 - 4) >= 0 && (-t0 + N + 3) >= 0) {
            const long long i = t0 - 2;
            const long long j = t1;
            const long long k = t2;
            a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] = ((a1[(((i)) * (N + 4) + (j)) * (N + 4) + (k)] - (0.10000000000000001 * a4[(((i)) * (N + 4) + (j)) * (N + 4) + (k)])) + (0.050000000000000003 * a0[(((i)) * (N + 4) + (j)) * (N + 4) + (k)]));
          }
        }
      }
    }
  }
}
