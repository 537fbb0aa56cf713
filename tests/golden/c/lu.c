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

  for (long long t0 = (0); t0 <= (N - 2); t0++) {
    #pragma omp parallel for
    for (long long t1 = (t0 + 1); t1 <= (N - 1); t1++) {
      for (long long t2 = (0); t2 <= (0); t2++) {
        { /* S1 */
          const long long k = t0;
          const long long i = t1;
          a0[((i)) * (N) + (k)] = (a0[((i)) * (N) + (k)] / a0[((k)) * (N) + (k)]);
        }
      }
    }
    #pragma omp parallel for
    for (long long t1 = (t0 + 1); t1 <= (N - 1); t1++) {
      for (long long t2 = (t0 + 1); t2 <= (N - 1); t2++) {
        { /* S2 */
          const long long k = t0;
          const long long i = t1;
          const long long j = t2;
          a0[((i)) * (N) + (j)] = (a0[((i)) * (N) + (j)] - (a0[((i)) * (N) + (k)] * a0[((k)) * (N) + (j)]));
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

  for (long long t0 = (0); t0 <= (N - 2); t0++) {
    #pragma omp parallel for
    for (long long t1 = (t0 + 1); t1 <= (N - 1); t1++) {
      for (long long t2 = pf_min((0), (t0 + 1)); t2 <= pf_max((0), (N - 1)); t2++) {
        { /* S1 */
          if ((t2) >= 0 && (-t2) >= 0) {
            const long long k = t0;
            const long long i = t1;
            a0[((i)) * (N) + (k)] = (a0[((i)) * (N) + (k)] / a0[((k)) * (N) + (k)]);
          }
        }
        { /* S2 */
          if ((-t0 + t2 - 1) >= 0 && (-t2 + N - 1) >= 0) {
            const long long k = t0;
            const long long i = t1;
            const long long j = t2;
            a0[((i)) * (N) + (j)] = (a0[((i)) * (N) + (j)] - (a0[((i)) * (N) + (k)] * a0[((k)) * (N) + (j)]));
          }
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

  for (long long t0 = (0); t0 <= (N - 2); t0++) {
    #pragma omp parallel for
    for (long long t1 = (t0 + 1); t1 <= (N - 1); t1++) {
      for (long long t2 = pf_min((0), (t0 + 1)); t2 <= pf_max((0), (N - 1)); t2++) {
        { /* S1 */
          if ((t2) >= 0 && (-t2) >= 0) {
            const long long k = t0;
            const long long i = t1;
            a0[((i)) * (N) + (k)] = (a0[((i)) * (N) + (k)] / a0[((k)) * (N) + (k)]);
          }
        }
        { /* S2 */
          if ((-t0 + t2 - 1) >= 0 && (-t2 + N - 1) >= 0) {
            const long long k = t0;
            const long long i = t1;
            const long long j = t2;
            a0[((i)) * (N) + (j)] = (a0[((i)) * (N) + (j)] - (a0[((i)) * (N) + (k)] * a0[((k)) * (N) + (j)]));
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

  for (long long t0 = (0); t0 <= (N - 2); t0++) {
    #pragma omp parallel for
    for (long long t1 = (t0 + 1); t1 <= (N - 1); t1++) {
      for (long long t2 = pf_min((0), (t0 + 1)); t2 <= pf_max((0), (N - 1)); t2++) {
        { /* S1 */
          if ((t2) >= 0 && (-t2) >= 0) {
            const long long k = t0;
            const long long i = t1;
            a0[((i)) * (N) + (k)] = (a0[((i)) * (N) + (k)] / a0[((k)) * (N) + (k)]);
          }
        }
        { /* S2 */
          if ((-t0 + t2 - 1) >= 0 && (-t2 + N - 1) >= 0) {
            const long long k = t0;
            const long long i = t1;
            const long long j = t2;
            a0[((i)) * (N) + (j)] = (a0[((i)) * (N) + (j)] - (a0[((i)) * (N) + (k)] * a0[((k)) * (N) + (j)]));
          }
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

  for (long long t0 = (0); t0 <= (N - 2); t0++) {
    #pragma omp parallel for
    for (long long t1 = (t0 + 1); t1 <= (N - 1); t1++) {
      for (long long t2 = pf_min((0), (t0 + 1)); t2 <= pf_max((0), (N - 1)); t2++) {
        { /* S1 */
          if ((t2) >= 0 && (-t2) >= 0) {
            const long long k = t0;
            const long long i = t1;
            a0[((i)) * (N) + (k)] = (a0[((i)) * (N) + (k)] / a0[((k)) * (N) + (k)]);
          }
        }
        { /* S2 */
          if ((-t0 + t2 - 1) >= 0 && (-t2 + N - 1) >= 0) {
            const long long k = t0;
            const long long i = t1;
            const long long j = t2;
            a0[((i)) * (N) + (j)] = (a0[((i)) * (N) + (j)] - (a0[((i)) * (N) + (k)] * a0[((k)) * (N) + (j)]));
          }
        }
      }
    }
  }
}
