// Process-wide switch for the int64 fast lane.
//
// The fast lane (lp/simplex.cpp's kernel on int64 cells, poly/set.cpp's
// integer Fourier-Motzkin combination, and the scheduler's warm-started
// lexmin) is a pure performance feature: every answer it produces is
// byte-identical to the exact path, and any solve it cannot finish (an
// intermediate outside the 2^62 safety bound) falls back transparently --
// a simplex solve to the same kernel on BigInt cells (lp/bigint.h), an FM
// row to checked AffineExpr arithmetic. The switch exists for
// differential testing and for the byte-identity acceptance check: set
// POLYFUSE_NO_FASTLANE=1 (or pass --no-fastlane) and the whole pipeline
// runs the exact paths only.
#pragma once

namespace pf::lp {

/// True when the int64 fast lane is active. Reads POLYFUSE_NO_FASTLANE
/// once on first call (disabled when set, non-empty, and not "0"); later
/// calls are a relaxed atomic load.
bool fastlane_enabled();

/// Override the lane state (CLI --no-fastlane, differential tests).
void set_fastlane_enabled(bool enabled);

}  // namespace pf::lp
