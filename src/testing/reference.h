#pragma once

// The interpreter oracle for subcube queries — the second of the tree
// interpreter's two roles (the first is the per-row fallback of src/vm).
// Production queries run the compiled, columnar, fused path of
// SubcubeManager::Query; the differential tests compare its bytes against
// this reference, which evaluates Section 7.3 literally:
//
//   * every cube's rows as an MO (FactTable::ToMO, no zone-map pruning);
//   * when not synchronized, Figure 9's rewrite — the cube's rows plus every
//     strictly-lower cube's rows, filtered to the rows the cube is currently
//     responsible for through the public, interpreted ResponsibleCube, then
//     aggregated to the cube's granularity;
//   * σ through Select with no compiled program (per-row tree walk);
//   * α as a per-fact Leq/Rollup walk with CombineMeasure, in fact order
//     (no AggregateFormation, so no vm::RollupProgram tables);
//   * the union of the per-cube subresults and one final availability
//     aggregation.
//
// Nothing is fused, cached, or compiled by the caller, so a divergence
// between Query and ReferenceQuery isolates the production path.

#include <cstdint>
#include <vector>

#include "subcube/manager.h"

namespace dwred::testing {

/// σ[pred] then (optionally) α[target] over `mgr`'s subcubes at `now_day`,
/// with the same arguments and result bytes as SubcubeManager::Query. `pred`
/// and `target` may be null. Reads the tables without the snapshot lock: no
/// writer may run concurrently.
Result<MultidimensionalObject> ReferenceQuery(
    const SubcubeManager& mgr, const PredExpr* pred,
    const std::vector<CategoryId>* target, int64_t now_day,
    bool assume_synchronized);

}  // namespace dwred::testing
