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

  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S1 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = (0.5 * (a0[(((i + 1)) * (N + 2) + (j)) * (N + 2) + (k)] - a0[(((i - 1)) * (N + 2) + (j)) * (N + 2) + (k)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S2 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.29999999999999999 * a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])) + (0.10000000000000001 * a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S3 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] * a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]) + (0.20000000000000001 * a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S4 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((0.5 * (a0[(((i)) * (N + 2) + (j + 1)) * (N + 2) + (k)] - a0[(((i)) * (N + 2) + (j - 1)) * (N + 2) + (k)])) + (0.10000000000000001 * (((a5[(((i + 1)) * (N + 2) + (j)) * (N + 2) + (k)] + a5[(((i)) * (N + 2) + (j + 1)) * (N + 2) + (k)]) + a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k + 1)]) - (3.0 * a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]))));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S5 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.29999999999999999 * a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])) + (0.10000000000000001 * a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S6 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] * a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]) + (0.20000000000000001 * a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S7 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a4[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((0.5 * (a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k + 1)] - a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k - 1)])) + (0.10000000000000001 * (((a6[(((i + 1)) * (N + 2) + (j)) * (N + 2) + (k)] + a6[(((i)) * (N + 2) + (j + 1)) * (N + 2) + (k)]) + a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k + 1)]) - (3.0 * a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]))));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S8 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.29999999999999999 * a4[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])) + (0.10000000000000001 * a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S9 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a7[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = (a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.050000000000000003 * a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
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
  double* const a5 = arrays[5];
  double* const a6 = arrays[6];
  double* const a7 = arrays[7];

  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S1 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = (0.5 * (a0[(((i + 1)) * (N + 2) + (j)) * (N + 2) + (k)] - a0[(((i - 1)) * (N + 2) + (j)) * (N + 2) + (k)]));
        }
        { /* S2 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.29999999999999999 * a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])) + (0.10000000000000001 * a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
        }
        { /* S3 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] * a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]) + (0.20000000000000001 * a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S4 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((0.5 * (a0[(((i)) * (N + 2) + (j + 1)) * (N + 2) + (k)] - a0[(((i)) * (N + 2) + (j - 1)) * (N + 2) + (k)])) + (0.10000000000000001 * (((a5[(((i + 1)) * (N + 2) + (j)) * (N + 2) + (k)] + a5[(((i)) * (N + 2) + (j + 1)) * (N + 2) + (k)]) + a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k + 1)]) - (3.0 * a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]))));
        }
        { /* S5 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.29999999999999999 * a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])) + (0.10000000000000001 * a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
        }
        { /* S6 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] * a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]) + (0.20000000000000001 * a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S7 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a4[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((0.5 * (a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k + 1)] - a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k - 1)])) + (0.10000000000000001 * (((a6[(((i + 1)) * (N + 2) + (j)) * (N + 2) + (k)] + a6[(((i)) * (N + 2) + (j + 1)) * (N + 2) + (k)]) + a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k + 1)]) - (3.0 * a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]))));
        }
        { /* S8 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.29999999999999999 * a4[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])) + (0.10000000000000001 * a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
        }
        { /* S9 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a7[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = (a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.050000000000000003 * a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
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

  for (long long t0 = pf_min(pf_min((1), (2)), (3)); t0 <= pf_max(pf_max((N), (N + 1)), (N + 2)); t0++) {
    #pragma omp parallel for
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S1 */
          if ((t0 - 1) >= 0 && (-t0 + N) >= 0) {
            const long long i = t0;
            const long long j = t1;
            const long long k = t2;
            a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = (0.5 * (a0[(((i + 1)) * (N + 2) + (j)) * (N + 2) + (k)] - a0[(((i - 1)) * (N + 2) + (j)) * (N + 2) + (k)]));
          }
        }
        { /* S3 */
          if ((t0 - 1) >= 0 && (-t0 + N) >= 0) {
            const long long i = t0;
            const long long j = t1;
            const long long k = t2;
            a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] * a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]) + (0.20000000000000001 * a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
          }
        }
        { /* S4 */
          if ((t0 - 2) >= 0 && (-t0 + N + 1) >= 0) {
            const long long i = t0 - 1;
            const long long j = t1;
            const long long k = t2;
            a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((0.5 * (a0[(((i)) * (N + 2) + (j + 1)) * (N + 2) + (k)] - a0[(((i)) * (N + 2) + (j - 1)) * (N + 2) + (k)])) + (0.10000000000000001 * (((a5[(((i + 1)) * (N + 2) + (j)) * (N + 2) + (k)] + a5[(((i)) * (N + 2) + (j + 1)) * (N + 2) + (k)]) + a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k + 1)]) - (3.0 * a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]))));
          }
        }
        { /* S6 */
          if ((t0 - 2) >= 0 && (-t0 + N + 1) >= 0) {
            const long long i = t0 - 1;
            const long long j = t1;
            const long long k = t2;
            a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] * a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]) + (0.20000000000000001 * a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
          }
        }
        { /* S7 */
          if ((t0 - 3) >= 0 && (-t0 + N + 2) >= 0) {
            const long long i = t0 - 2;
            const long long j = t1;
            const long long k = t2;
            a4[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((0.5 * (a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k + 1)] - a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k - 1)])) + (0.10000000000000001 * (((a6[(((i + 1)) * (N + 2) + (j)) * (N + 2) + (k)] + a6[(((i)) * (N + 2) + (j + 1)) * (N + 2) + (k)]) + a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k + 1)]) - (3.0 * a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]))));
          }
        }
        { /* S2 */
          if ((t0 - 2) >= 0 && (-t0 + N + 1) >= 0) {
            const long long i = t0 - 1;
            const long long j = t1;
            const long long k = t2;
            a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.29999999999999999 * a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])) + (0.10000000000000001 * a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
          }
        }
        { /* S5 */
          if ((t0 - 2) >= 0 && (-t0 + N + 1) >= 0) {
            const long long i = t0 - 1;
            const long long j = t1;
            const long long k = t2;
            a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.29999999999999999 * a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])) + (0.10000000000000001 * a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
          }
        }
        { /* S8 */
          if ((t0 - 3) >= 0 && (-t0 + N + 2) >= 0) {
            const long long i = t0 - 2;
            const long long j = t1;
            const long long k = t2;
            a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.29999999999999999 * a4[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])) + (0.10000000000000001 * a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
          }
        }
        { /* S9 */
          if ((t0 - 3) >= 0 && (-t0 + N + 2) >= 0) {
            const long long i = t0 - 2;
            const long long j = t1;
            const long long k = t2;
            a7[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = (a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.050000000000000003 * a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
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
  double* const a5 = arrays[5];
  double* const a6 = arrays[6];
  double* const a7 = arrays[7];

  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S1 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = (0.5 * (a0[(((i + 1)) * (N + 2) + (j)) * (N + 2) + (k)] - a0[(((i - 1)) * (N + 2) + (j)) * (N + 2) + (k)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S2 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.29999999999999999 * a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])) + (0.10000000000000001 * a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S3 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] * a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]) + (0.20000000000000001 * a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S4 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((0.5 * (a0[(((i)) * (N + 2) + (j + 1)) * (N + 2) + (k)] - a0[(((i)) * (N + 2) + (j - 1)) * (N + 2) + (k)])) + (0.10000000000000001 * (((a5[(((i + 1)) * (N + 2) + (j)) * (N + 2) + (k)] + a5[(((i)) * (N + 2) + (j + 1)) * (N + 2) + (k)]) + a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k + 1)]) - (3.0 * a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]))));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S5 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.29999999999999999 * a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])) + (0.10000000000000001 * a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S6 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] * a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]) + (0.20000000000000001 * a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S7 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a4[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((0.5 * (a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k + 1)] - a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k - 1)])) + (0.10000000000000001 * (((a6[(((i + 1)) * (N + 2) + (j)) * (N + 2) + (k)] + a6[(((i)) * (N + 2) + (j + 1)) * (N + 2) + (k)]) + a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k + 1)]) - (3.0 * a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]))));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S8 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.29999999999999999 * a4[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])) + (0.10000000000000001 * a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S9 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a7[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = (a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.050000000000000003 * a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
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
  double* const a5 = arrays[5];
  double* const a6 = arrays[6];
  double* const a7 = arrays[7];

  for (long long t0 = pf_min(pf_min((1), (2)), (3)); t0 <= pf_max(pf_max((N), (N + 1)), (N + 2)); t0++) {
    #pragma omp parallel for
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S1 */
          if ((t0 - 1) >= 0 && (-t0 + N) >= 0) {
            const long long i = t0;
            const long long j = t1;
            const long long k = t2;
            a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = (0.5 * (a0[(((i + 1)) * (N + 2) + (j)) * (N + 2) + (k)] - a0[(((i - 1)) * (N + 2) + (j)) * (N + 2) + (k)]));
          }
        }
        { /* S3 */
          if ((t0 - 1) >= 0 && (-t0 + N) >= 0) {
            const long long i = t0;
            const long long j = t1;
            const long long k = t2;
            a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] * a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]) + (0.20000000000000001 * a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
          }
        }
        { /* S4 */
          if ((t0 - 2) >= 0 && (-t0 + N + 1) >= 0) {
            const long long i = t0 - 1;
            const long long j = t1;
            const long long k = t2;
            a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((0.5 * (a0[(((i)) * (N + 2) + (j + 1)) * (N + 2) + (k)] - a0[(((i)) * (N + 2) + (j - 1)) * (N + 2) + (k)])) + (0.10000000000000001 * (((a5[(((i + 1)) * (N + 2) + (j)) * (N + 2) + (k)] + a5[(((i)) * (N + 2) + (j + 1)) * (N + 2) + (k)]) + a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k + 1)]) - (3.0 * a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]))));
          }
        }
        { /* S6 */
          if ((t0 - 2) >= 0 && (-t0 + N + 1) >= 0) {
            const long long i = t0 - 1;
            const long long j = t1;
            const long long k = t2;
            a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] * a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]) + (0.20000000000000001 * a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
          }
        }
        { /* S7 */
          if ((t0 - 3) >= 0 && (-t0 + N + 2) >= 0) {
            const long long i = t0 - 2;
            const long long j = t1;
            const long long k = t2;
            a4[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((0.5 * (a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k + 1)] - a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k - 1)])) + (0.10000000000000001 * (((a6[(((i + 1)) * (N + 2) + (j)) * (N + 2) + (k)] + a6[(((i)) * (N + 2) + (j + 1)) * (N + 2) + (k)]) + a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k + 1)]) - (3.0 * a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]))));
          }
        }
        { /* S2 */
          if ((t0 - 2) >= 0 && (-t0 + N + 1) >= 0) {
            const long long i = t0 - 1;
            const long long j = t1;
            const long long k = t2;
            a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.29999999999999999 * a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])) + (0.10000000000000001 * a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
          }
        }
        { /* S5 */
          if ((t0 - 2) >= 0 && (-t0 + N + 1) >= 0) {
            const long long i = t0 - 1;
            const long long j = t1;
            const long long k = t2;
            a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.29999999999999999 * a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])) + (0.10000000000000001 * a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
          }
        }
        { /* S8 */
          if ((t0 - 3) >= 0 && (-t0 + N + 2) >= 0) {
            const long long i = t0 - 2;
            const long long j = t1;
            const long long k = t2;
            a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.29999999999999999 * a4[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])) + (0.10000000000000001 * a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
          }
        }
        { /* S9 */
          if ((t0 - 3) >= 0 && (-t0 + N + 2) >= 0) {
            const long long i = t0 - 2;
            const long long j = t1;
            const long long k = t2;
            a7[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = (a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.050000000000000003 * a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
          }
        }
      }
    }
  }
}
