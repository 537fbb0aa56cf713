// Exact rational/integer linear algebra on small dense matrices.
//
// These routines back two consumers:
//  * code generation (rank, to drop dependent schedule rows, and
//    inversion of a statement's schedule to recover original iterators
//    from transformed ones),
//  * the Pluto scheduler's linear-independence machinery (orthogonal
//    complements of found hyperplane rows, through null spaces).
#pragma once

#include <optional>
#include <vector>

#include "support/matrix.h"
#include "support/rational.h"

namespace pf {

using RatMatrix = Matrix<Rational>;
using IntMatrix = Matrix<i64>;
using RatVector = std::vector<Rational>;
using IntVector = std::vector<i64>;

/// Rank of a rational matrix (Gaussian elimination).
std::size_t rank(const RatMatrix& m);

/// Basis of the (right) null space {x : m * x = 0}; each row of the result
/// is one basis vector of length m.cols(). Empty matrix if the null space
/// is trivial.
RatMatrix null_space(const RatMatrix& m);

/// Inverse of a square rational matrix, or nullopt if singular.
std::optional<RatMatrix> invert(const RatMatrix& m);

/// Rows spanning the orthogonal complement of the row space of `h`
/// (h need not be full rank; duplicate/dependent rows are tolerated).
/// Result rows are primitive integer vectors; empty if h spans everything.
///
/// This is Pluto's H* = I - H^T (H H^T)^-1 H construction, computed here
/// as the null space of H (equivalent row space).
IntMatrix orthogonal_complement_rows(const IntMatrix& h);

}  // namespace pf
