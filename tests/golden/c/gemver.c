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

  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      { /* S1 */
        const long long i = t0;
        const long long j = t1;
        a1[((i)) * (N) + (j)] = ((a0[((i)) * (N) + (j)] + (a2[(i)] * a3[(j)])) + (a4[(i)] * a5[(j)]));
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      { /* S2 */
        const long long i = t0;
        const long long j = t1;
        a6[(i)] = (a6[(i)] + ((2.5 * a1[((j)) * (N) + (i)]) * a7[(j)]));
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S3 */
        const long long i = t0;
        a6[(i)] = (a6[(i)] + a9[(i)]);
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      { /* S4 */
        const long long i = t0;
        const long long j = t1;
        a8[(i)] = (a8[(i)] + ((1.5 * a1[((i)) * (N) + (j)]) * a6[(j)]));
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

  #pragma omp parallel for reduction(+:a8[0:(N)])
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      { /* S1 */
        const long long i = t1;
        const long long j = t0;
        a1[((i)) * (N) + (j)] = ((a0[((i)) * (N) + (j)] + (a2[(i)] * a3[(j)])) + (a4[(i)] * a5[(j)]));
      }
      { /* S2 */
        const long long i = t0;
        const long long j = t1;
        a6[(i)] = (a6[(i)] + ((2.5 * a1[((j)) * (N) + (i)]) * a7[(j)]));
      }
    }
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S3 */
        const long long i = t0;
        a6[(i)] = (a6[(i)] + a9[(i)]);
      }
    }
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      { /* S4 */
        const long long i = t1;
        const long long j = t0;
        a8[(i)] = (a8[(i)] + ((1.5 * a1[((i)) * (N) + (j)]) * a6[(j)]));
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

  #pragma omp parallel for reduction(+:a8[0:(N)])
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      { /* S1 */
        const long long i = t1;
        const long long j = t0;
        a1[((i)) * (N) + (j)] = ((a0[((i)) * (N) + (j)] + (a2[(i)] * a3[(j)])) + (a4[(i)] * a5[(j)]));
      }
      { /* S2 */
        const long long i = t0;
        const long long j = t1;
        a6[(i)] = (a6[(i)] + ((2.5 * a1[((j)) * (N) + (i)]) * a7[(j)]));
      }
    }
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S3 */
        const long long i = t0;
        a6[(i)] = (a6[(i)] + a9[(i)]);
      }
    }
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      { /* S4 */
        const long long i = t1;
        const long long j = t0;
        a8[(i)] = (a8[(i)] + ((1.5 * a1[((i)) * (N) + (j)]) * a6[(j)]));
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

  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      { /* S1 */
        const long long i = t0;
        const long long j = t1;
        a1[((i)) * (N) + (j)] = ((a0[((i)) * (N) + (j)] + (a2[(i)] * a3[(j)])) + (a4[(i)] * a5[(j)]));
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      { /* S2 */
        const long long i = t0;
        const long long j = t1;
        a6[(i)] = (a6[(i)] + ((2.5 * a1[((j)) * (N) + (i)]) * a7[(j)]));
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (0); t1++) {
      { /* S3 */
        const long long i = t0;
        a6[(i)] = (a6[(i)] + a9[(i)]);
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      { /* S4 */
        const long long i = t0;
        const long long j = t1;
        a8[(i)] = (a8[(i)] + ((1.5 * a1[((i)) * (N) + (j)]) * a6[(j)]));
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

  #pragma omp parallel for reduction(+:a8[0:(N)])
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      { /* S1 */
        const long long i = t1;
        const long long j = t0;
        a1[((i)) * (N) + (j)] = ((a0[((i)) * (N) + (j)] + (a2[(i)] * a3[(j)])) + (a4[(i)] * a5[(j)]));
      }
    }
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      { /* S2 */
        const long long i = t0;
        const long long j = t1;
        a6[(i)] = (a6[(i)] + ((2.5 * a1[((j)) * (N) + (i)]) * a7[(j)]));
      }
    }
    for (long long t1 = (0); t1 <= pf_max((0), (N - 1)); t1++) {
      { /* S3 */
        if ((t1) >= 0 && (-t1) >= 0) {
          const long long i = t0;
          a6[(i)] = (a6[(i)] + a9[(i)]);
        }
      }
      { /* S4 */
        if ((t1) >= 0 && (-t1 + N - 1) >= 0) {
          const long long i = t1;
          const long long j = t0;
          a8[(i)] = (a8[(i)] + ((1.5 * a1[((i)) * (N) + (j)]) * a6[(j)]));
        }
      }
    }
  }
}
