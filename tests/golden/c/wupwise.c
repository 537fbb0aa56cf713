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
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S1 */
          const long long i = t0;
          const long long j = t1;
          a4[((i)) * (N) + (j)] = 0.0;
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S2 */
          const long long i = t0;
          const long long j = t1;
          a5[((i)) * (N) + (j)] = 0.0;
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      for (long long t2 = (0); t2 <= (N - 1); t2++) {
        { /* S3 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a4[((i)) * (N) + (j)] = ((a4[((i)) * (N) + (j)] + (a0[((i)) * (N) + (k)] * a2[((k)) * (N) + (j)])) - (a1[((i)) * (N) + (k)] * a3[((k)) * (N) + (j)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      for (long long t2 = (0); t2 <= (N - 1); t2++) {
        { /* S4 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a5[((i)) * (N) + (j)] = ((a5[((i)) * (N) + (j)] + (a0[((i)) * (N) + (k)] * a3[((k)) * (N) + (j)])) + (a1[((i)) * (N) + (k)] * a2[((k)) * (N) + (j)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S5 */
          const long long i = t0;
          const long long j = t1;
          a6[((i)) * (N) + (j)] = (0.5 * a4[((i)) * (N) + (j)]);
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S6 */
          const long long i = t0;
          const long long j = t1;
          a7[((i)) * (N) + (j)] = (0.5 * a5[((i)) * (N) + (j)]);
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
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S1 */
          const long long i = t0;
          const long long j = t1;
          a4[((i)) * (N) + (j)] = 0.0;
        }
        { /* S2 */
          const long long i = t0;
          const long long j = t1;
          a5[((i)) * (N) + (j)] = 0.0;
        }
      }
      for (long long t2 = (0); t2 <= (N - 1); t2++) {
        { /* S3 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a4[((i)) * (N) + (j)] = ((a4[((i)) * (N) + (j)] + (a0[((i)) * (N) + (k)] * a2[((k)) * (N) + (j)])) - (a1[((i)) * (N) + (k)] * a3[((k)) * (N) + (j)]));
        }
        { /* S4 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a5[((i)) * (N) + (j)] = ((a5[((i)) * (N) + (j)] + (a0[((i)) * (N) + (k)] * a3[((k)) * (N) + (j)])) + (a1[((i)) * (N) + (k)] * a2[((k)) * (N) + (j)]));
        }
      }
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S5 */
          const long long i = t0;
          const long long j = t1;
          a6[((i)) * (N) + (j)] = (0.5 * a4[((i)) * (N) + (j)]);
        }
        { /* S6 */
          const long long i = t0;
          const long long j = t1;
          a7[((i)) * (N) + (j)] = (0.5 * a5[((i)) * (N) + (j)]);
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

  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S2 */
          const long long i = t0;
          const long long j = t1;
          a5[((i)) * (N) + (j)] = 0.0;
        }
      }
      for (long long t2 = (0); t2 <= (N - 1); t2++) {
        { /* S4 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a5[((i)) * (N) + (j)] = ((a5[((i)) * (N) + (j)] + (a0[((i)) * (N) + (k)] * a3[((k)) * (N) + (j)])) + (a1[((i)) * (N) + (k)] * a2[((k)) * (N) + (j)]));
        }
      }
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S1 */
          const long long i = t0;
          const long long j = t1;
          a4[((i)) * (N) + (j)] = 0.0;
        }
        { /* S6 */
          const long long i = t0;
          const long long j = t1;
          a7[((i)) * (N) + (j)] = (0.5 * a5[((i)) * (N) + (j)]);
        }
      }
      for (long long t2 = (0); t2 <= (N - 1); t2++) {
        { /* S3 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a4[((i)) * (N) + (j)] = ((a4[((i)) * (N) + (j)] + (a0[((i)) * (N) + (k)] * a2[((k)) * (N) + (j)])) - (a1[((i)) * (N) + (k)] * a3[((k)) * (N) + (j)]));
        }
      }
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S5 */
          const long long i = t0;
          const long long j = t1;
          a6[((i)) * (N) + (j)] = (0.5 * a4[((i)) * (N) + (j)]);
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
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S1 */
          const long long i = t0;
          const long long j = t1;
          a4[((i)) * (N) + (j)] = 0.0;
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S2 */
          const long long i = t0;
          const long long j = t1;
          a5[((i)) * (N) + (j)] = 0.0;
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      for (long long t2 = (0); t2 <= (N - 1); t2++) {
        { /* S3 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a4[((i)) * (N) + (j)] = ((a4[((i)) * (N) + (j)] + (a0[((i)) * (N) + (k)] * a2[((k)) * (N) + (j)])) - (a1[((i)) * (N) + (k)] * a3[((k)) * (N) + (j)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      for (long long t2 = (0); t2 <= (N - 1); t2++) {
        { /* S4 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a5[((i)) * (N) + (j)] = ((a5[((i)) * (N) + (j)] + (a0[((i)) * (N) + (k)] * a3[((k)) * (N) + (j)])) + (a1[((i)) * (N) + (k)] * a2[((k)) * (N) + (j)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S5 */
          const long long i = t0;
          const long long j = t1;
          a6[((i)) * (N) + (j)] = (0.5 * a4[((i)) * (N) + (j)]);
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S6 */
          const long long i = t0;
          const long long j = t1;
          a7[((i)) * (N) + (j)] = (0.5 * a5[((i)) * (N) + (j)]);
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

  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S2 */
          const long long i = t0;
          const long long j = t1;
          a5[((i)) * (N) + (j)] = 0.0;
        }
      }
      for (long long t2 = (0); t2 <= (N - 1); t2++) {
        { /* S4 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a5[((i)) * (N) + (j)] = ((a5[((i)) * (N) + (j)] + (a0[((i)) * (N) + (k)] * a3[((k)) * (N) + (j)])) + (a1[((i)) * (N) + (k)] * a2[((k)) * (N) + (j)]));
        }
      }
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S1 */
          const long long i = t0;
          const long long j = t1;
          a4[((i)) * (N) + (j)] = 0.0;
        }
        { /* S6 */
          const long long i = t0;
          const long long j = t1;
          a7[((i)) * (N) + (j)] = (0.5 * a5[((i)) * (N) + (j)]);
        }
      }
      for (long long t2 = (0); t2 <= (N - 1); t2++) {
        { /* S3 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a4[((i)) * (N) + (j)] = ((a4[((i)) * (N) + (j)] + (a0[((i)) * (N) + (k)] * a2[((k)) * (N) + (j)])) - (a1[((i)) * (N) + (k)] * a3[((k)) * (N) + (j)]));
        }
      }
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S5 */
          const long long i = t0;
          const long long j = t1;
          a6[((i)) * (N) + (j)] = (0.5 * a4[((i)) * (N) + (j)]);
        }
      }
    }
  }
}
