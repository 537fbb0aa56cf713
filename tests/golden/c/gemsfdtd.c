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
  double* const a14 = arrays[14];

  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S1 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.5 * (a7[(((i)) * (N + 2) + (j)) * (N + 2) + (k + 1)] - a7[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]))) - (0.5 * (a8[(((i)) * (N + 2) + (j + 1)) * (N + 2) + (k)] - a8[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S2 */
          const long long j = t0;
          a9[(j)] = ((0.40000000000000002 * a9[(j)]) + ((0.10000000000000001 * a14[(j)]) * (a0[(((N)) * (N + 2) + (j)) * (N + 2) + (N)] - a0[(((j)) * (N + 2) + (N)) * (N + 2) + (N)])));
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
          a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.5 * (a8[(((i + 1)) * (N + 2) + (j)) * (N + 2) + (k)] - a8[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]))) - (0.5 * (a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k + 1)] - a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S4 */
          const long long j = t0;
          a10[(j)] = ((0.40000000000000002 * a10[(j)]) + ((0.10000000000000001 * a14[(j)]) * (a1[(((N)) * (N + 2) + (j)) * (N + 2) + (N)] - a1[(((j)) * (N + 2) + (N)) * (N + 2) + (N)])));
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
          a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.5 * (a6[(((i)) * (N + 2) + (j + 1)) * (N + 2) + (k)] - a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]))) - (0.5 * (a7[(((i + 1)) * (N + 2) + (j)) * (N + 2) + (k)] - a7[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S6 */
          const long long j = t0;
          a11[(j)] = ((0.40000000000000002 * a11[(j)]) + ((0.10000000000000001 * a14[(j)]) * (a2[(((N)) * (N + 2) + (j)) * (N + 2) + (N)] - a2[(((j)) * (N + 2) + (N)) * (N + 2) + (N)])));
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
          a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((0.90000000000000002 * a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]) + (0.20000000000000001 * a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
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
          a4[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((0.90000000000000002 * a4[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]) + (0.20000000000000001 * a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
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
          a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((0.90000000000000002 * a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]) + (0.20000000000000001 * a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S10 */
          const long long j = t0;
          a12[(j)] = (a9[(j)] + (a14[(j)] * (a3[(((N)) * (N + 2) + (j)) * (N + 2) + (N)] - a3[(((j)) * (N + 2) + (N)) * (N + 2) + (N)])));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S11 */
          const long long j = t0;
          a13[(j)] = (a10[(j)] + (a14[(j)] * (a4[(((N)) * (N + 2) + (j)) * (N + 2) + (N)] - a4[(((j)) * (N + 2) + (N)) * (N + 2) + (N)])));
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
  double* const a8 = arrays[8];
  double* const a9 = arrays[9];
  double* const a10 = arrays[10];
  double* const a11 = arrays[11];
  double* const a12 = arrays[12];
  double* const a13 = arrays[13];
  double* const a14 = arrays[14];

  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S1 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.5 * (a7[(((i)) * (N + 2) + (j)) * (N + 2) + (k + 1)] - a7[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]))) - (0.5 * (a8[(((i)) * (N + 2) + (j + 1)) * (N + 2) + (k)] - a8[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])));
        }
        { /* S3 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.5 * (a8[(((i + 1)) * (N + 2) + (j)) * (N + 2) + (k)] - a8[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]))) - (0.5 * (a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k + 1)] - a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])));
        }
        { /* S5 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.5 * (a6[(((i)) * (N + 2) + (j + 1)) * (N + 2) + (k)] - a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]))) - (0.5 * (a7[(((i + 1)) * (N + 2) + (j)) * (N + 2) + (k)] - a7[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])));
        }
        { /* S7 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((0.90000000000000002 * a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]) + (0.20000000000000001 * a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
        }
        { /* S8 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a4[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((0.90000000000000002 * a4[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]) + (0.20000000000000001 * a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
        }
        { /* S9 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((0.90000000000000002 * a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]) + (0.20000000000000001 * a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S2 */
          const long long j = t0;
          a9[(j)] = ((0.40000000000000002 * a9[(j)]) + ((0.10000000000000001 * a14[(j)]) * (a0[(((N)) * (N + 2) + (j)) * (N + 2) + (N)] - a0[(((j)) * (N + 2) + (N)) * (N + 2) + (N)])));
        }
        { /* S4 */
          const long long j = t0;
          a10[(j)] = ((0.40000000000000002 * a10[(j)]) + ((0.10000000000000001 * a14[(j)]) * (a1[(((N)) * (N + 2) + (j)) * (N + 2) + (N)] - a1[(((j)) * (N + 2) + (N)) * (N + 2) + (N)])));
        }
        { /* S6 */
          const long long j = t0;
          a11[(j)] = ((0.40000000000000002 * a11[(j)]) + ((0.10000000000000001 * a14[(j)]) * (a2[(((N)) * (N + 2) + (j)) * (N + 2) + (N)] - a2[(((j)) * (N + 2) + (N)) * (N + 2) + (N)])));
        }
        { /* S10 */
          const long long j = t0;
          a12[(j)] = (a9[(j)] + (a14[(j)] * (a3[(((N)) * (N + 2) + (j)) * (N + 2) + (N)] - a3[(((j)) * (N + 2) + (N)) * (N + 2) + (N)])));
        }
        { /* S11 */
          const long long j = t0;
          a13[(j)] = (a10[(j)] + (a14[(j)] * (a4[(((N)) * (N + 2) + (j)) * (N + 2) + (N)] - a4[(((j)) * (N + 2) + (N)) * (N + 2) + (N)])));
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
  double* const a14 = arrays[14];

  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S5 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.5 * (a6[(((i)) * (N + 2) + (j + 1)) * (N + 2) + (k)] - a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]))) - (0.5 * (a7[(((i + 1)) * (N + 2) + (j)) * (N + 2) + (k)] - a7[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])));
        }
        { /* S9 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((0.90000000000000002 * a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]) + (0.20000000000000001 * a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S6 */
          const long long j = t0;
          a11[(j)] = ((0.40000000000000002 * a11[(j)]) + ((0.10000000000000001 * a14[(j)]) * (a2[(((N)) * (N + 2) + (j)) * (N + 2) + (N)] - a2[(((j)) * (N + 2) + (N)) * (N + 2) + (N)])));
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
          a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.5 * (a8[(((i + 1)) * (N + 2) + (j)) * (N + 2) + (k)] - a8[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]))) - (0.5 * (a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k + 1)] - a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])));
        }
        { /* S8 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a4[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((0.90000000000000002 * a4[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]) + (0.20000000000000001 * a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S4 */
          const long long j = t0;
          a10[(j)] = ((0.40000000000000002 * a10[(j)]) + ((0.10000000000000001 * a14[(j)]) * (a1[(((N)) * (N + 2) + (j)) * (N + 2) + (N)] - a1[(((j)) * (N + 2) + (N)) * (N + 2) + (N)])));
        }
        { /* S11 */
          const long long j = t0;
          a13[(j)] = (a10[(j)] + (a14[(j)] * (a4[(((N)) * (N + 2) + (j)) * (N + 2) + (N)] - a4[(((j)) * (N + 2) + (N)) * (N + 2) + (N)])));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S1 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.5 * (a7[(((i)) * (N + 2) + (j)) * (N + 2) + (k + 1)] - a7[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]))) - (0.5 * (a8[(((i)) * (N + 2) + (j + 1)) * (N + 2) + (k)] - a8[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])));
        }
        { /* S7 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((0.90000000000000002 * a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]) + (0.20000000000000001 * a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S2 */
          const long long j = t0;
          a9[(j)] = ((0.40000000000000002 * a9[(j)]) + ((0.10000000000000001 * a14[(j)]) * (a0[(((N)) * (N + 2) + (j)) * (N + 2) + (N)] - a0[(((j)) * (N + 2) + (N)) * (N + 2) + (N)])));
        }
        { /* S10 */
          const long long j = t0;
          a12[(j)] = (a9[(j)] + (a14[(j)] * (a3[(((N)) * (N + 2) + (j)) * (N + 2) + (N)] - a3[(((j)) * (N + 2) + (N)) * (N + 2) + (N)])));
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
  double* const a14 = arrays[14];

  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S1 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.5 * (a7[(((i)) * (N + 2) + (j)) * (N + 2) + (k + 1)] - a7[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]))) - (0.5 * (a8[(((i)) * (N + 2) + (j + 1)) * (N + 2) + (k)] - a8[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S2 */
          const long long j = t0;
          a9[(j)] = ((0.40000000000000002 * a9[(j)]) + ((0.10000000000000001 * a14[(j)]) * (a0[(((N)) * (N + 2) + (j)) * (N + 2) + (N)] - a0[(((j)) * (N + 2) + (N)) * (N + 2) + (N)])));
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
          a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.5 * (a8[(((i + 1)) * (N + 2) + (j)) * (N + 2) + (k)] - a8[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]))) - (0.5 * (a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k + 1)] - a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S4 */
          const long long j = t0;
          a10[(j)] = ((0.40000000000000002 * a10[(j)]) + ((0.10000000000000001 * a14[(j)]) * (a1[(((N)) * (N + 2) + (j)) * (N + 2) + (N)] - a1[(((j)) * (N + 2) + (N)) * (N + 2) + (N)])));
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
          a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.5 * (a6[(((i)) * (N + 2) + (j + 1)) * (N + 2) + (k)] - a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]))) - (0.5 * (a7[(((i + 1)) * (N + 2) + (j)) * (N + 2) + (k)] - a7[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S6 */
          const long long j = t0;
          a11[(j)] = ((0.40000000000000002 * a11[(j)]) + ((0.10000000000000001 * a14[(j)]) * (a2[(((N)) * (N + 2) + (j)) * (N + 2) + (N)] - a2[(((j)) * (N + 2) + (N)) * (N + 2) + (N)])));
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
          a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((0.90000000000000002 * a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]) + (0.20000000000000001 * a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
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
          a4[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((0.90000000000000002 * a4[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]) + (0.20000000000000001 * a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
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
          a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((0.90000000000000002 * a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]) + (0.20000000000000001 * a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S10 */
          const long long j = t0;
          a12[(j)] = (a9[(j)] + (a14[(j)] * (a3[(((N)) * (N + 2) + (j)) * (N + 2) + (N)] - a3[(((j)) * (N + 2) + (N)) * (N + 2) + (N)])));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S11 */
          const long long j = t0;
          a13[(j)] = (a10[(j)] + (a14[(j)] * (a4[(((N)) * (N + 2) + (j)) * (N + 2) + (N)] - a4[(((j)) * (N + 2) + (N)) * (N + 2) + (N)])));
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
  double* const a8 = arrays[8];
  double* const a9 = arrays[9];
  double* const a10 = arrays[10];
  double* const a11 = arrays[11];
  double* const a12 = arrays[12];
  double* const a13 = arrays[13];
  double* const a14 = arrays[14];

  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (1); t1 <= (N); t1++) {
      for (long long t2 = (1); t2 <= (N); t2++) {
        { /* S5 */
          const long long i = t0;
          const long long j = t1;
          const long long k = t2;
          a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.5 * (a6[(((i)) * (N + 2) + (j + 1)) * (N + 2) + (k)] - a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]))) - (0.5 * (a7[(((i + 1)) * (N + 2) + (j)) * (N + 2) + (k)] - a7[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = pf_min((1), (0)); t1 <= pf_max((N), (0)); t1++) {
      for (long long t2 = pf_min((1), (0)); t2 <= pf_max((N), (0)); t2++) {
        { /* S3 */
          if ((t1 - 1) >= 0 && (-t1 + N) >= 0 && (t2 - 1) >= 0 && (-t2 + N) >= 0) {
            const long long i = t0;
            const long long j = t1;
            const long long k = t2;
            a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.5 * (a8[(((i + 1)) * (N + 2) + (j)) * (N + 2) + (k)] - a8[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]))) - (0.5 * (a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k + 1)] - a6[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])));
          }
        }
        { /* S6 */
          if ((t1) >= 0 && (-t1) >= 0 && (t2) >= 0 && (-t2) >= 0) {
            const long long j = t0;
            a11[(j)] = ((0.40000000000000002 * a11[(j)]) + ((0.10000000000000001 * a14[(j)]) * (a2[(((N)) * (N + 2) + (j)) * (N + 2) + (N)] - a2[(((j)) * (N + 2) + (N)) * (N + 2) + (N)])));
          }
        }
        { /* S9 */
          if ((t1 - 1) >= 0 && (-t1 + N) >= 0 && (t2 - 1) >= 0 && (-t2 + N) >= 0) {
            const long long i = t0;
            const long long j = t1;
            const long long k = t2;
            a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((0.90000000000000002 * a5[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]) + (0.20000000000000001 * a2[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
          }
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
          a4[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((0.90000000000000002 * a4[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]) + (0.20000000000000001 * a1[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S4 */
          const long long j = t0;
          a10[(j)] = ((0.40000000000000002 * a10[(j)]) + ((0.10000000000000001 * a14[(j)]) * (a1[(((N)) * (N + 2) + (j)) * (N + 2) + (N)] - a1[(((j)) * (N + 2) + (N)) * (N + 2) + (N)])));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = pf_min((1), (0)); t1 <= pf_max((N), (0)); t1++) {
      for (long long t2 = pf_min((1), (0)); t2 <= pf_max((N), (0)); t2++) {
        { /* S1 */
          if ((t1 - 1) >= 0 && (-t1 + N) >= 0 && (t2 - 1) >= 0 && (-t2 + N) >= 0) {
            const long long i = t0;
            const long long j = t1;
            const long long k = t2;
            a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] + (0.5 * (a7[(((i)) * (N + 2) + (j)) * (N + 2) + (k + 1)] - a7[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]))) - (0.5 * (a8[(((i)) * (N + 2) + (j + 1)) * (N + 2) + (k)] - a8[(((i)) * (N + 2) + (j)) * (N + 2) + (k)])));
          }
        }
        { /* S11 */
          if ((t1) >= 0 && (-t1) >= 0 && (t2) >= 0 && (-t2) >= 0) {
            const long long j = t0;
            a13[(j)] = (a10[(j)] + (a14[(j)] * (a4[(((N)) * (N + 2) + (j)) * (N + 2) + (N)] - a4[(((j)) * (N + 2) + (N)) * (N + 2) + (N)])));
          }
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
          a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)] = ((0.90000000000000002 * a3[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]) + (0.20000000000000001 * a0[(((i)) * (N + 2) + (j)) * (N + 2) + (k)]));
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (1); t0 <= (N); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S2 */
          const long long j = t0;
          a9[(j)] = ((0.40000000000000002 * a9[(j)]) + ((0.10000000000000001 * a14[(j)]) * (a0[(((N)) * (N + 2) + (j)) * (N + 2) + (N)] - a0[(((j)) * (N + 2) + (N)) * (N + 2) + (N)])));
        }
        { /* S10 */
          const long long j = t0;
          a12[(j)] = (a9[(j)] + (a14[(j)] * (a3[(((N)) * (N + 2) + (j)) * (N + 2) + (N)] - a3[(((j)) * (N + 2) + (N)) * (N + 2) + (N)])));
        }
      }
    }
  }
}
