/**
 * @file
 * Test-only reference LP solver: the dense two-phase primal simplex the
 * branch-and-bound used before the bounded-variable engine. Every
 * upper bound becomes a row and every solve starts from scratch, which
 * makes it slow but independent of ilp::LpEngine — the differential
 * tests re-solve each node LP with it.
 */

#ifndef TAPACS_TESTS_REFERENCE_SIMPLEX_HH
#define TAPACS_TESTS_REFERENCE_SIMPLEX_HH

#include <vector>

#include "ilp/model.hh"
#include "ilp/simplex.hh"

namespace tapacs::ilp::reference
{

/** Cold two-phase solve of @p model's relaxation under optional
 *  per-variable bound overrides. */
LpResult solveLp(const Model &model,
                 const std::vector<double> &boundsLower = {},
                 const std::vector<double> &boundsUpper = {});

} // namespace tapacs::ilp::reference

#endif // TAPACS_TESTS_REFERENCE_SIMPLEX_HH
