#ifndef PROGRES_ESTIMATE_COST_MODEL_H_
#define PROGRES_ESTIMATE_COST_MODEL_H_

#include <cstdint>

#include "mechanism/mechanism.h"

namespace progres {

// Closed-form cost predictions matching what the mechanisms in src/mechanism
// actually charge (they share MechanismCosts and CostA), so the schedule
// generator's Cost(.) values (Eqs. 3 and 5) line up with execution.

// Candidate pairs a windowed mechanism enumerates over a block of `n`
// entities: sum over distances d = 1..min(window-1, n-1) of (n - d), the
// d-major order both mechanisms (sorted neighborhood, PSNM) share.
int64_t WindowPairCount(int64_t n, int window);

// Cost of resolving `dup` duplicate and `dis` distinct pairs (CostP).
double CostP(double dup, double dis, const MechanismCosts& costs);

// Cost of resolving a block fully (CostF): all window pairs, of which at
// most `cov` are genuine comparisons and the remainder are redundancy skips.
double CostF(int64_t n, int window, int64_t cov, const MechanismCosts& costs);

}  // namespace progres

#endif  // PROGRES_ESTIMATE_COST_MODEL_H_
