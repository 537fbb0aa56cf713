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

  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    #pragma omp parallel for
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      for (long long t2 = (0); t2 <= (N - 1); t2++) {
        for (long long t3 = (0); t3 <= (N - 1); t3++) {
          for (long long t4 = (0); t4 <= (N - 1); t4++) {
            { /* S1 */
              const long long p = t0;
              const long long q = t1;
              const long long r = t2;
              const long long s = t3;
              const long long a = t4;
              a1[((((a)) * (N) + (q)) * (N) + (r)) * (N) + (s)] = (a1[((((a)) * (N) + (q)) * (N) + (r)) * (N) + (s)] + (a0[((((p)) * (N) + (q)) * (N) + (r)) * (N) + (s)] * a8[((p)) * (N) + (a)]));
            }
          }
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      for (long long t2 = (0); t2 <= (N - 1); t2++) {
        for (long long t3 = (0); t3 <= (N - 1); t3++) {
          for (long long t4 = (0); t4 <= (N - 1); t4++) {
            { /* S2 */
              const long long b = t0;
              const long long a = t1;
              const long long s = t2;
              const long long r = t3;
              const long long q = t4;
              a2[((((a)) * (N) + (b)) * (N) + (r)) * (N) + (s)] = (a2[((((a)) * (N) + (b)) * (N) + (r)) * (N) + (s)] + (a1[((((a)) * (N) + (q)) * (N) + (r)) * (N) + (s)] * a7[((q)) * (N) + (b)]));
            }
          }
        }
      }
    }
  }
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    #pragma omp parallel for
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      for (long long t2 = (0); t2 <= (N - 1); t2++) {
        for (long long t3 = (0); t3 <= (N - 1); t3++) {
          for (long long t4 = (0); t4 <= (N - 1); t4++) {
            { /* S3 */
              const long long r = t0;
              const long long c = t1;
              const long long a = t2;
              const long long b = t3;
              const long long s = t4;
              a3[((((a)) * (N) + (b)) * (N) + (c)) * (N) + (s)] = (a3[((((a)) * (N) + (b)) * (N) + (c)) * (N) + (s)] + (a2[((((a)) * (N) + (b)) * (N) + (r)) * (N) + (s)] * a6[((r)) * (N) + (c)]));
            }
          }
        }
      }
    }
  }
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    #pragma omp parallel for
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      for (long long t2 = (0); t2 <= (N - 1); t2++) {
        for (long long t3 = (0); t3 <= (N - 1); t3++) {
          for (long long t4 = (0); t4 <= (N - 1); t4++) {
            { /* S4 */
              const long long s = t0;
              const long long d = t1;
              const long long b = t2;
              const long long c = t3;
              const long long a = t4;
              a4[((((a)) * (N) + (b)) * (N) + (c)) * (N) + (d)] = (a4[((((a)) * (N) + (b)) * (N) + (c)) * (N) + (d)] + (a3[((((a)) * (N) + (b)) * (N) + (c)) * (N) + (s)] * a5[((s)) * (N) + (d)]));
            }
          }
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

  #pragma omp parallel for reduction(+:a4[0:(N) * (N) * (N) * (N)])
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      for (long long t2 = (0); t2 <= (N - 1); t2++) {
        for (long long t3 = (0); t3 <= (N - 1); t3++) {
          for (long long t4 = (0); t4 <= (N - 1); t4++) {
            { /* S1 */
              const long long p = t2;
              const long long q = t3;
              const long long r = t4;
              const long long s = t0;
              const long long a = t1;
              a1[((((a)) * (N) + (q)) * (N) + (r)) * (N) + (s)] = (a1[((((a)) * (N) + (q)) * (N) + (r)) * (N) + (s)] + (a0[((((p)) * (N) + (q)) * (N) + (r)) * (N) + (s)] * a8[((p)) * (N) + (a)]));
            }
          }
        }
      }
      for (long long t2 = (0); t2 <= (N - 1); t2++) {
        for (long long t3 = (0); t3 <= (N - 1); t3++) {
          for (long long t4 = (0); t4 <= (N - 1); t4++) {
            { /* S2 */
              const long long b = t2;
              const long long a = t1;
              const long long s = t0;
              const long long r = t3;
              const long long q = t4;
              a2[((((a)) * (N) + (b)) * (N) + (r)) * (N) + (s)] = (a2[((((a)) * (N) + (b)) * (N) + (r)) * (N) + (s)] + (a1[((((a)) * (N) + (q)) * (N) + (r)) * (N) + (s)] * a7[((q)) * (N) + (b)]));
            }
          }
        }
      }
      for (long long t2 = (0); t2 <= (N - 1); t2++) {
        for (long long t3 = (0); t3 <= (N - 1); t3++) {
          for (long long t4 = (0); t4 <= (N - 1); t4++) {
            { /* S3 */
              const long long r = t2;
              const long long c = t3;
              const long long a = t1;
              const long long b = t4;
              const long long s = t0;
              a3[((((a)) * (N) + (b)) * (N) + (c)) * (N) + (s)] = (a3[((((a)) * (N) + (b)) * (N) + (c)) * (N) + (s)] + (a2[((((a)) * (N) + (b)) * (N) + (r)) * (N) + (s)] * a6[((r)) * (N) + (c)]));
            }
          }
        }
      }
      for (long long t2 = (0); t2 <= (N - 1); t2++) {
        for (long long t3 = (0); t3 <= (N - 1); t3++) {
          for (long long t4 = (0); t4 <= (N - 1); t4++) {
            { /* S4 */
              const long long s = t0;
              const long long d = t2;
              const long long b = t3;
              const long long c = t4;
              const long long a = t1;
              a4[((((a)) * (N) + (b)) * (N) + (c)) * (N) + (d)] = (a4[((((a)) * (N) + (b)) * (N) + (c)) * (N) + (d)] + (a3[((((a)) * (N) + (b)) * (N) + (c)) * (N) + (s)] * a5[((s)) * (N) + (d)]));
            }
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
  double* const a1 = arrays[1];
  double* const a2 = arrays[2];
  double* const a3 = arrays[3];
  double* const a4 = arrays[4];
  double* const a5 = arrays[5];
  double* const a6 = arrays[6];
  double* const a7 = arrays[7];
  double* const a8 = arrays[8];

  #pragma omp parallel for reduction(+:a4[0:(N) * (N) * (N) * (N)])
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      for (long long t2 = (0); t2 <= (N - 1); t2++) {
        for (long long t3 = (0); t3 <= (N - 1); t3++) {
          for (long long t4 = (0); t4 <= (N - 1); t4++) {
            { /* S1 */
              const long long p = t2;
              const long long q = t3;
              const long long r = t4;
              const long long s = t0;
              const long long a = t1;
              a1[((((a)) * (N) + (q)) * (N) + (r)) * (N) + (s)] = (a1[((((a)) * (N) + (q)) * (N) + (r)) * (N) + (s)] + (a0[((((p)) * (N) + (q)) * (N) + (r)) * (N) + (s)] * a8[((p)) * (N) + (a)]));
            }
          }
        }
      }
      for (long long t2 = (0); t2 <= (N - 1); t2++) {
        for (long long t3 = (0); t3 <= (N - 1); t3++) {
          for (long long t4 = (0); t4 <= (N - 1); t4++) {
            { /* S2 */
              const long long b = t2;
              const long long a = t1;
              const long long s = t0;
              const long long r = t3;
              const long long q = t4;
              a2[((((a)) * (N) + (b)) * (N) + (r)) * (N) + (s)] = (a2[((((a)) * (N) + (b)) * (N) + (r)) * (N) + (s)] + (a1[((((a)) * (N) + (q)) * (N) + (r)) * (N) + (s)] * a7[((q)) * (N) + (b)]));
            }
          }
        }
      }
      for (long long t2 = (0); t2 <= (N - 1); t2++) {
        for (long long t3 = (0); t3 <= (N - 1); t3++) {
          for (long long t4 = (0); t4 <= (N - 1); t4++) {
            { /* S3 */
              const long long r = t2;
              const long long c = t3;
              const long long a = t1;
              const long long b = t4;
              const long long s = t0;
              a3[((((a)) * (N) + (b)) * (N) + (c)) * (N) + (s)] = (a3[((((a)) * (N) + (b)) * (N) + (c)) * (N) + (s)] + (a2[((((a)) * (N) + (b)) * (N) + (r)) * (N) + (s)] * a6[((r)) * (N) + (c)]));
            }
          }
        }
      }
      for (long long t2 = (0); t2 <= (N - 1); t2++) {
        for (long long t3 = (0); t3 <= (N - 1); t3++) {
          for (long long t4 = (0); t4 <= (N - 1); t4++) {
            { /* S4 */
              const long long s = t0;
              const long long d = t2;
              const long long b = t3;
              const long long c = t4;
              const long long a = t1;
              a4[((((a)) * (N) + (b)) * (N) + (c)) * (N) + (d)] = (a4[((((a)) * (N) + (b)) * (N) + (c)) * (N) + (d)] + (a3[((((a)) * (N) + (b)) * (N) + (c)) * (N) + (s)] * a5[((s)) * (N) + (d)]));
            }
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
  double* const a8 = arrays[8];

  #pragma omp parallel for reduction(+:a1[0:(N) * (N) * (N) * (N)])
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      for (long long t2 = (0); t2 <= (N - 1); t2++) {
        for (long long t3 = (0); t3 <= (N - 1); t3++) {
          for (long long t4 = (0); t4 <= (N - 1); t4++) {
            { /* S1 */
              const long long p = t0;
              const long long q = t1;
              const long long r = t2;
              const long long s = t3;
              const long long a = t4;
              a1[((((a)) * (N) + (q)) * (N) + (r)) * (N) + (s)] = (a1[((((a)) * (N) + (q)) * (N) + (r)) * (N) + (s)] + (a0[((((p)) * (N) + (q)) * (N) + (r)) * (N) + (s)] * a8[((p)) * (N) + (a)]));
            }
          }
        }
      }
    }
  }
  #pragma omp parallel for
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      for (long long t2 = (0); t2 <= (N - 1); t2++) {
        for (long long t3 = (0); t3 <= (N - 1); t3++) {
          for (long long t4 = (0); t4 <= (N - 1); t4++) {
            { /* S2 */
              const long long b = t0;
              const long long a = t1;
              const long long s = t2;
              const long long r = t3;
              const long long q = t4;
              a2[((((a)) * (N) + (b)) * (N) + (r)) * (N) + (s)] = (a2[((((a)) * (N) + (b)) * (N) + (r)) * (N) + (s)] + (a1[((((a)) * (N) + (q)) * (N) + (r)) * (N) + (s)] * a7[((q)) * (N) + (b)]));
            }
          }
        }
      }
    }
  }
  #pragma omp parallel for reduction(+:a3[0:(N) * (N) * (N) * (N)])
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      for (long long t2 = (0); t2 <= (N - 1); t2++) {
        for (long long t3 = (0); t3 <= (N - 1); t3++) {
          for (long long t4 = (0); t4 <= (N - 1); t4++) {
            { /* S3 */
              const long long r = t0;
              const long long c = t1;
              const long long a = t2;
              const long long b = t3;
              const long long s = t4;
              a3[((((a)) * (N) + (b)) * (N) + (c)) * (N) + (s)] = (a3[((((a)) * (N) + (b)) * (N) + (c)) * (N) + (s)] + (a2[((((a)) * (N) + (b)) * (N) + (r)) * (N) + (s)] * a6[((r)) * (N) + (c)]));
            }
          }
        }
      }
    }
  }
  #pragma omp parallel for reduction(+:a4[0:(N) * (N) * (N) * (N)])
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      for (long long t2 = (0); t2 <= (N - 1); t2++) {
        for (long long t3 = (0); t3 <= (N - 1); t3++) {
          for (long long t4 = (0); t4 <= (N - 1); t4++) {
            { /* S4 */
              const long long s = t0;
              const long long d = t1;
              const long long b = t2;
              const long long c = t3;
              const long long a = t4;
              a4[((((a)) * (N) + (b)) * (N) + (c)) * (N) + (d)] = (a4[((((a)) * (N) + (b)) * (N) + (c)) * (N) + (d)] + (a3[((((a)) * (N) + (b)) * (N) + (c)) * (N) + (s)] * a5[((s)) * (N) + (d)]));
            }
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
  double* const a1 = arrays[1];
  double* const a2 = arrays[2];
  double* const a3 = arrays[3];
  double* const a4 = arrays[4];
  double* const a5 = arrays[5];
  double* const a6 = arrays[6];
  double* const a7 = arrays[7];
  double* const a8 = arrays[8];

  #pragma omp parallel for reduction(+:a4[0:(N) * (N) * (N) * (N)])
  for (long long t0 = (0); t0 <= (N - 1); t0++) {
    for (long long t1 = (0); t1 <= (N - 1); t1++) {
      for (long long t2 = (0); t2 <= (N - 1); t2++) {
        for (long long t3 = (0); t3 <= (N - 1); t3++) {
          for (long long t4 = (0); t4 <= (N - 1); t4++) {
            { /* S1 */
              const long long p = t2;
              const long long q = t3;
              const long long r = t4;
              const long long s = t0;
              const long long a = t1;
              a1[((((a)) * (N) + (q)) * (N) + (r)) * (N) + (s)] = (a1[((((a)) * (N) + (q)) * (N) + (r)) * (N) + (s)] + (a0[((((p)) * (N) + (q)) * (N) + (r)) * (N) + (s)] * a8[((p)) * (N) + (a)]));
            }
          }
        }
      }
      for (long long t2 = (0); t2 <= (N - 1); t2++) {
        for (long long t3 = (0); t3 <= (N - 1); t3++) {
          for (long long t4 = (0); t4 <= (N - 1); t4++) {
            { /* S2 */
              const long long b = t2;
              const long long a = t1;
              const long long s = t0;
              const long long r = t3;
              const long long q = t4;
              a2[((((a)) * (N) + (b)) * (N) + (r)) * (N) + (s)] = (a2[((((a)) * (N) + (b)) * (N) + (r)) * (N) + (s)] + (a1[((((a)) * (N) + (q)) * (N) + (r)) * (N) + (s)] * a7[((q)) * (N) + (b)]));
            }
          }
        }
        for (long long t3 = (0); t3 <= (N - 1); t3++) {
          for (long long t4 = (0); t4 <= (N - 1); t4++) {
            { /* S3 */
              const long long r = t4;
              const long long c = t3;
              const long long a = t1;
              const long long b = t2;
              const long long s = t0;
              a3[((((a)) * (N) + (b)) * (N) + (c)) * (N) + (s)] = (a3[((((a)) * (N) + (b)) * (N) + (c)) * (N) + (s)] + (a2[((((a)) * (N) + (b)) * (N) + (r)) * (N) + (s)] * a6[((r)) * (N) + (c)]));
            }
          }
          for (long long t4 = (0); t4 <= (N - 1); t4++) {
            { /* S4 */
              const long long s = t0;
              const long long d = t4;
              const long long b = t2;
              const long long c = t3;
              const long long a = t1;
              a4[((((a)) * (N) + (b)) * (N) + (c)) * (N) + (d)] = (a4[((((a)) * (N) + (b)) * (N) + (c)) * (N) + (d)] + (a3[((((a)) * (N) + (b)) * (N) + (c)) * (N) + (s)] * a5[((s)) * (N) + (d)]));
            }
          }
        }
      }
    }
  }
}
