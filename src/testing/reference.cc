#include "testing/reference.h"

#include <map>

namespace dwred::testing {

namespace {

/// Appends every fact of `from` to `to` (coordinates and measures only).
Status AppendFacts(const MultidimensionalObject& from,
                   MultidimensionalObject* to) {
  for (FactId f = 0; f < from.num_facts(); ++f) {
    DWRED_RETURN_IF_ERROR(
        to->AddFact(from.FactCoords(f), from.FactMeasures(f)).status());
  }
  return Status::OK();
}

/// α[target] under the availability approach as a literal per-fact walk:
/// each coordinate rolls up through Dimension::Rollup when its category is
/// <= the target (DimensionType::Leq), and stays as is otherwise; facts that
/// land in one cell combine with CombineMeasure. Output cells appear in the
/// order their first fact does, as in AggregateFormation. No rollup tables.
Result<MultidimensionalObject> InterpretedAggregate(
    const MultidimensionalObject& mo, const std::vector<CategoryId>& target) {
  const size_t ndims = mo.num_dimensions();
  const size_t nmeas = mo.num_measures();
  if (target.size() != ndims) {
    return Status::InvalidArgument(
        "aggregate formation needs one category per dimension");
  }
  MultidimensionalObject out(mo.fact_type(), mo.dimensions(),
                             mo.measure_types());
  std::map<std::vector<ValueId>, FactId> cells;
  std::vector<ValueId> cell(ndims);
  for (FactId f = 0; f < mo.num_facts(); ++f) {
    for (size_t d = 0; d < ndims; ++d) {
      auto dd = static_cast<DimensionId>(d);
      const Dimension& dim = *mo.dimension(dd);
      ValueId v = mo.Coord(f, dd);
      cell[d] = dim.type().Leq(dim.value_category(v), target[d])
                    ? dim.Rollup(v, target[d])
                    : v;
    }
    auto it = cells.find(cell);
    if (it == cells.end()) {
      DWRED_ASSIGN_OR_RETURN(FactId nf,
                             out.AddFact(cell, mo.FactMeasures(f)));
      cells.emplace(cell, nf);
      continue;
    }
    for (size_t m = 0; m < nmeas; ++m) {
      auto mm = static_cast<MeasureId>(m);
      out.SetMeasure(it->second, mm,
                     CombineMeasure(mo.measure_type(mm).agg,
                                    out.Measure(it->second, mm),
                                    mo.Measure(f, mm)));
    }
  }
  return out;
}

}  // namespace

Result<MultidimensionalObject> ReferenceQuery(
    const SubcubeManager& mgr, const PredExpr* pred,
    const std::vector<CategoryId>* target, int64_t now_day,
    bool assume_synchronized) {
  const MultidimensionalObject& ctx = mgr.context();
  const std::vector<MeasureType> measures(ctx.measure_types());
  auto empty = [&] {
    return MultidimensionalObject(ctx.fact_type(), ctx.dimensions(), measures);
  };
  auto rows_of = [&](size_t i) {
    return mgr.subcube(i).table.ToMO(ctx.fact_type(), ctx.dimensions(),
                                     measures);
  };

  MultidimensionalObject unioned = empty();
  for (size_t i = 0; i < mgr.num_subcubes(); ++i) {
    const Subcube& cube = mgr.subcube(i);
    MultidimensionalObject base = rows_of(i);
    if (!assume_synchronized) {
      // Figure 9: α[G_i]σ[P_i](K_i ∪ every strictly-lower cube).
      MultidimensionalObject pulled = std::move(base);
      for (size_t p = 0; p < mgr.num_subcubes(); ++p) {
        const std::vector<CategoryId>& gp = mgr.subcube(p).granularity;
        if (p == i || gp == cube.granularity ||
            !GranularityLeq(ctx, gp, cube.granularity)) {
          continue;
        }
        DWRED_RETURN_IF_ERROR(AppendFacts(rows_of(p), &pulled));
      }
      MultidimensionalObject responsible = empty();
      for (FactId f = 0; f < pulled.num_facts(); ++f) {
        DWRED_ASSIGN_OR_RETURN(
            size_t resp, mgr.ResponsibleCube(pulled.FactCoords(f), now_day));
        if (resp != i) continue;
        DWRED_RETURN_IF_ERROR(
            responsible.AddFact(pulled.FactCoords(f), pulled.FactMeasures(f))
                .status());
      }
      DWRED_ASSIGN_OR_RETURN(
          base, InterpretedAggregate(responsible, cube.granularity));
    }
    if (pred != nullptr) {
      DWRED_ASSIGN_OR_RETURN(
          SelectionResult sel,
          Select(base, *pred, now_day, SelectionApproach::kConservative,
                 /*compiled=*/nullptr));
      base = std::move(sel.mo);
    }
    if (target != nullptr) {
      DWRED_ASSIGN_OR_RETURN(base, InterpretedAggregate(base, *target));
    }
    DWRED_RETURN_IF_ERROR(AppendFacts(base, &unioned));
  }
  // The final combining aggregation (distributivity, Section 7.3).
  if (target == nullptr) return unioned;
  return InterpretedAggregate(unioned, *target);
}

}  // namespace dwred::testing
