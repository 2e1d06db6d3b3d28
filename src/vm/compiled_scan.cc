#include "vm/compiled_scan.h"

#include <algorithm>

namespace dwred::vm {

namespace {

/// Gathers lane `i`'s full cell from the batch columns.
inline void GatherCell(const ValueId* const* cols, size_t ndims, size_t i,
                       ValueId* cell) {
  for (size_t d = 0; d < ndims; ++d) cell[d] = cols[d][i];
}

}  // namespace

void CompiledScan::WeighColumns(const ValueId* const* cols, size_t ndims,
                                size_t n, double* out,
                                PredProgram::BatchScratch* scratch) const {
  std::vector<ValueId> cell(ndims);
  if (prog_ != nullptr) {
    prog_->EvalBatch(cols, n, out, scratch);
    for (size_t i = 0; i < n; ++i) {
      if (out[i] == PredProgram::kOutOfRange) {
        CountFallback();  // coordinate interned after compilation
        GatherCell(cols, ndims, i, cell.data());
        out[i] = fallback_(cell.data());
      }
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    GatherCell(cols, ndims, i, cell.data());
    out[i] = fallback_(cell.data());
  }
}

void CompiledScan::WeighTable(const FactTable& t, const scan::ScanPlan& plan,
                              std::vector<double>* weights) const {
  weights->assign(t.num_rows(), 0.0);
  scan::Execute(plan, [&](size_t, size_t begin, size_t end) {
    PredProgram::BatchScratch scratch;
    t.ForEachDimBatch(begin, end, [&](const FactTable::BatchView& b) {
      WeighBatch(b, weights->data() + b.first_row(), &scratch);
    });
  });
}

void CompiledScan::WeighMo(const MultidimensionalObject& mo,
                           std::vector<double>* weights) const {
  weights->assign(mo.num_facts(), 0.0);
  const size_t ndims = mo.num_dimensions();
  if (prog_ == nullptr) {
    scan::Execute(scan::PlanMoScan(mo.num_facts(), /*grain=*/512),
                  [&](size_t, size_t begin, size_t end) {
                    for (FactId f = begin; f < end; ++f) {
                      (*weights)[f] = fallback_(mo.FactCoords(f).data());
                    }
                  });
    return;
  }
  // The MO fact store is row-major; transpose chunks into column scratch so
  // the batch evaluator sees flat columns.
  constexpr size_t kChunk = FactTable::kBatchRows;
  scan::Execute(
      scan::PlanMoScan(mo.num_facts(), /*grain=*/512),
      [&](size_t, size_t begin, size_t end) {
        PredProgram::BatchScratch scratch;
        std::vector<ValueId> cols(ndims * kChunk);
        std::vector<const ValueId*> colp(ndims);
        for (size_t d = 0; d < ndims; ++d) colp[d] = cols.data() + d * kChunk;
        for (FactId f = begin; f < end; f += kChunk) {
          const size_t n = std::min<size_t>(kChunk, end - f);
          for (size_t i = 0; i < n; ++i) {
            const ValueId* row = mo.FactCoords(f + i).data();
            for (size_t d = 0; d < ndims; ++d) cols[d * kChunk + i] = row[d];
          }
          double* out = weights->data() + f;
          prog_->EvalBatch(colp.data(), n, out, &scratch);
          for (size_t i = 0; i < n; ++i) {
            if (out[i] == PredProgram::kOutOfRange) {
              CountFallback();
              out[i] = fallback_(mo.FactCoords(f + i).data());
            }
          }
        }
      });
}

}  // namespace dwred::vm
