#include "reduce/semantics.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "runtime/cancel.h"
#include "scan/scan.h"
#include "storage/fact_table.h"
#include "vm/program.h"

namespace dwred {

namespace {

/// Completes a fact's routing key — its category tuple, then the actions it
/// satisfies in action order — by appending the actions `satisfied(a)`
/// accepts. The first satisfied deletion action ends the list: it decides
/// the fact alone.
template <typename Satisfied>
void AppendSatisfied(const ReductionSpecification& spec, Satisfied satisfied,
                     std::vector<uint32_t>* key) {
  for (ActionId a = 0; a < spec.size(); ++a) {
    if (!satisfied(a)) continue;
    key->push_back(a);
    if (spec.action(a).deletes) return;
  }
}

/// The decision of every fact with routing key `key`: the one
/// implementation of the maximum.
SpecGran DecideSpecGran(const MultidimensionalObject& mo,
                        const ReductionSpecification& spec,
                        std::span<const uint32_t> key) {
  const std::span<const uint32_t> cats = key.first(mo.num_dimensions());
  SpecGran out;
  out.gran.assign(cats.begin(), cats.end());
  // Maximum over the satisfied actions (totally ordered for NonCrossing
  // specifications).
  const std::vector<CategoryId>* action_gran = nullptr;
  for (const ActionId a : key.subspan(cats.size())) {
    const Action& act = spec.action(a);
    if (act.deletes) {
      // Deletion dominates every aggregation level.
      out.deleted = true;
      out.responsible = a;
      return out;
    }
    if (action_gran != nullptr) {
      if (GranularityLeq(mo, act.granularity, *action_gran)) continue;
      if (!GranularityLeq(mo, *action_gran, act.granularity)) {
        out.crossing = true;
        return out;
      }
    }
    action_gran = &act.granularity;
    out.responsible = a;
  }
  if (action_gran == nullptr) return out;
  // Combine with the fact's own granularity per dimension (Spec_gran always
  // contains Gran(f)). Tuple comparison suffices for bottom-level facts; the
  // per-dimension LUB generalizes it to facts mapped to ⊤ in some dimension.
  for (size_t d = 0; d < out.gran.size(); ++d) {
    out.gran[d] = mo.dimension(static_cast<DimensionId>(d))
                      ->type()
                      .Lub(cats[d], (*action_gran)[d]);
  }
  return out;
}

}  // namespace

Status NonCrossingError(std::string_view what) {
  return Status::Internal("satisfied granularities are not totally ordered "
                          "for " + std::string(what) +
                          " — specification violates NonCrossing");
}

SpecGran SpecGranOfCell(const MultidimensionalObject& mo,
                        const ReductionSpecification& spec,
                        std::span<const ValueId> cell, int64_t now_day) {
  std::vector<uint32_t> key;
  for (size_t d = 0; d < cell.size(); ++d) {
    key.push_back(
        mo.dimension(static_cast<DimensionId>(d))->value_category(cell[d]));
  }
  AppendSatisfied(
      spec,
      [&](ActionId a) {
        return EvalPredOnCell(*spec.action(a).predicate, mo, cell, now_day);
      },
      &key);
  return DecideSpecGran(mo, spec, key);
}

Result<std::vector<CategoryId>> MaxSpecGran(const MultidimensionalObject& mo,
                                            const ReductionSpecification& spec,
                                            FactId f, int64_t now_day,
                                            ActionId* responsible,
                                            bool* deleted) {
  SpecGran g = SpecGranOfCell(mo, spec, mo.FactCoords(f), now_day);
  if (g.crossing) return NonCrossingError(mo.FactName(f));
  if (responsible) *responsible = g.responsible;
  if (deleted) *deleted = g.deleted;
  return std::move(g.gran);
}

Result<std::vector<ValueId>> CellOf(const MultidimensionalObject& mo,
                                    const ReductionSpecification& spec,
                                    FactId f, int64_t now_day) {
  DWRED_ASSIGN_OR_RETURN(std::vector<CategoryId> gran,
                         MaxSpecGran(mo, spec, f, now_day));
  std::vector<ValueId> cell(mo.num_dimensions());
  for (size_t d = 0; d < mo.num_dimensions(); ++d) {
    auto dd = static_cast<DimensionId>(d);
    ValueId v = mo.dimension(dd)->Rollup(mo.Coord(f, dd), gran[d]);
    if (v == kInvalidValue) {
      return Status::Internal("no rollup of " +
                              mo.dimension(dd)->value_name(mo.Coord(f, dd)) +
                              " to the target granularity");
    }
    cell[d] = v;
  }
  return cell;
}

ActionPrograms CompileActionPrograms(
    const MultidimensionalObject& mo, const ReductionSpecification& spec,
    int64_t now_day,
    const std::function<std::shared_ptr<const vm::PredProgram>(
        const PredExpr&, const CompileStep&)>& memo) {
  const scan::AtomOracle oracle = vm::SpecAtomOracle(mo, now_day);
  ActionPrograms progs;
  progs.reserve(spec.size());
  for (const Action& a : spec.actions()) {
    const CompileStep compile = [&]() -> std::shared_ptr<const vm::PredProgram> {
      auto compiled = vm::PredProgram::Compile(mo, *a.predicate, oracle);
      if (!compiled) return nullptr;  // null slot: interpret that action
      return std::make_shared<const vm::PredProgram>(std::move(*compiled));
    };
    progs.push_back(memo ? memo(*a.predicate, compile) : compile());
  }
  return progs;
}

CellAssigner::CellAssigner(const MultidimensionalObject& mo,
                           const ReductionSpecification& spec,
                           int64_t now_day)
    : CellAssigner(mo, spec, now_day,
                   CompileActionPrograms(mo, spec, now_day)) {}

CellAssigner::CellAssigner(const MultidimensionalObject& mo,
                           const ReductionSpecification& spec,
                           int64_t now_day, ActionPrograms progs)
    : mo_(mo), spec_(spec), now_day_(now_day), progs_(std::move(progs)) {}

void CellAssigner::Decide(const ValueId* const* cols, size_t n, Shard* shard,
                          uint32_t* ids) const {
  constexpr size_t kLanes = FactTable::kBatchRows;
  const size_t ndims = mo_.num_dimensions();
  shard->lanes.resize(progs_.size() * kLanes);
  shard->cell.resize(ndims);
  for (size_t a = 0; a < progs_.size(); ++a) {
    if (const vm::PredProgram* p = progs_[a].get()) {
      p->EvalBatch(cols, n, shard->lanes.data() + a * kLanes, &shard->scratch);
    }
  }
  std::vector<uint32_t>& key = shard->key;
  for (size_t k = 0; k < n; ++k) {
    key.clear();
    for (size_t d = 0; d < ndims; ++d) {
      key.push_back(mo_.dimension(static_cast<DimensionId>(d))
                        ->value_category(cols[d][k]));
    }
    bool have_cell = false;
    AppendSatisfied(
        spec_,
        [&](ActionId a) {
          if (progs_[a] != nullptr) {
            const double w = shard->lanes[a * kLanes + k];
            if (w != vm::PredProgram::kOutOfRange) return w != 0.0;
            vm::CountFallback();  // coordinate interned after compilation
          }
          if (!have_cell) {
            for (size_t d = 0; d < ndims; ++d) shard->cell[d] = cols[d][k];
            have_cell = true;
          }
          return EvalPredOnCell(*spec_.action(a).predicate, mo_, shard->cell,
                                now_day_);
        },
        &key);
    auto [it, fresh] = shard->memo.try_emplace(
        key, static_cast<uint32_t>(shard->decisions.size()));
    if (fresh) shard->decisions.push_back(DecideSpecGran(mo_, spec_, key));
    ids[k] = it->second;
  }
}

Status CellAssigner::Assign(
    FactId begin, FactId end,
    const std::function<void(const CellAssignment&)>& visit) const {
  // Row-major MO chunks are transposed into column scratch and decided
  // chunk-at-a-time; each fact then rolls its direct cell up to its decided
  // granularity.
  constexpr size_t kChunk = FactTable::kBatchRows;
  const size_t ndims = mo_.num_dimensions();
  Shard shard;
  std::vector<ValueId> cols(ndims * kChunk);
  std::vector<const ValueId*> colp(ndims);
  for (size_t d = 0; d < ndims; ++d) colp[d] = cols.data() + d * kChunk;
  std::vector<uint32_t> ids(kChunk);
  std::vector<ValueId> cell(ndims);
  CellAssignment out;
  for (FactId f0 = begin; f0 < end; f0 += kChunk) {
    const size_t n = std::min<size_t>(kChunk, end - f0);
    for (size_t i = 0; i < n; ++i) {
      const ValueId* row = mo_.FactCoords(f0 + i).data();
      for (size_t d = 0; d < ndims; ++d) cols[d * kChunk + i] = row[d];
    }
    Decide(colp.data(), n, &shard, ids.data());
    for (size_t i = 0; i < n; ++i) {
      const FactId f = f0 + i;
      const SpecGran& g = shard.decisions[ids[i]];
      if (g.crossing) return NonCrossingError(mo_.FactName(f));
      out.fact = f;
      out.deleted = g.deleted;
      out.responsible = g.responsible;
      out.changed = false;
      for (size_t d = 0; d < ndims; ++d) {
        const ValueId direct = cols[d * kChunk + i];
        if (out.deleted) {
          cell[d] = direct;
          continue;
        }
        const ValueId v =
            mo_.dimension(static_cast<DimensionId>(d))->Rollup(direct, g.gran[d]);
        if (v == kInvalidValue) {
          return Status::Internal("no rollup to target granularity for " +
                                  mo_.FactName(f));
        }
        out.changed = out.changed || v != direct;
        cell[d] = v;
      }
      out.cell = cell;
      visit(out);
    }
  }
  return Status::OK();
}

Result<CategoryId> AggLevel(const MultidimensionalObject& mo,
                            const ReductionSpecification& spec,
                            DimensionId dim, std::span<const ValueId> cell,
                            int64_t now_day) {
  const DimensionType& type = mo.dimension(dim)->type();
  CategoryId best = type.bottom();
  for (const Action& a : spec.actions()) {
    if (!EvalPredOnCell(*a.predicate, mo, cell, now_day)) continue;
    CategoryId c = a.granularity[dim];
    if (type.Leq(c, best)) continue;
    if (!type.Leq(best, c)) {
      return Status::Internal(
          "AggLevel: incomparable categories specified for one cell — "
          "specification violates NonCrossing");
    }
    best = c;
  }
  return best;
}

Result<MultidimensionalObject> Reduce(const MultidimensionalObject& mo,
                                      const ReductionSpecification& spec,
                                      int64_t now_day,
                                      const ReduceOptions& options,
                                      ReduceStats* stats) {
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Histogram& pass_latency = registry.GetHistogram(
      "dwred_reduce_pass_seconds", obs::DefaultLatencyBuckets(),
      "wall time of one reduction pass (Definition 2)");
  obs::TraceSpan span("reduce.pass", &pass_latency);

  MultidimensionalObject out(mo.fact_type(), mo.dimensions(),
                             mo.measure_types());
  const size_t ndims = mo.num_dimensions();
  const size_t nmeas = mo.num_measures();

  struct Group {
    FactId out_id;
    std::vector<FactId> sources;   // original constituent ids
    ActionId responsible;
    bool aggregated;               // any input changed granularity
  };
  std::unordered_map<std::vector<ValueId>, Group, CellKeyHash> groups;

  // --- Parallel scan (docs/PARALLELISM.md) --------------------------------
  // Definition 2 assigns every fact to its cell independently, so the scan
  // shards over contiguous fact ranges. Each shard builds an
  // insertion-ordered local cell map with partial aggregates; the shards are
  // then merged in ascending range order, which reproduces the serial
  // first-occurrence order (output fact ids) and the serial measure fold
  // sequence (the default aggregate functions are associative), so the
  // output is byte-identical at every thread count.
  struct ShardGroup {
    std::vector<ValueId> cell;
    std::vector<int64_t> meas;      // folded over the shard's members
    std::vector<FactId> sources;    // raw; dedup/sort happens at naming time
    ActionId last_action_resp = kNoAction;  // last in-shard action responsible
    ActionId first_fallback = kNoAction;    // serial init value (first member)
    bool aggregated_if_first = false;       // changed(first) || members > 1
  };
  struct ShardAccum {
    std::vector<ShardGroup> ordered;  // first-occurrence order within shard
    std::unordered_map<std::vector<ValueId>, size_t, CellKeyHash> index;
    size_t facts_aggregated = 0;
    size_t facts_deleted = 0;
    Status error = Status::OK();  // first error; shard stops there
  };

  // The assignment's action programs and the measure fold, compiled once
  // for the whole pass (src/vm) and shared read-only by every shard.
  const CellAssigner assigner(mo, spec, now_day);
  const vm::FoldProgram fold = vm::FoldProgram::Compile(mo.measure_types());

  scan::ScanPlan plan = scan::PlanMoScan(mo.num_facts(), /*grain=*/1024);
  std::vector<ShardAccum> accums(plan.units.size());

  scan::Execute(plan, [&](size_t si, size_t begin, size_t end) {
    ShardAccum& acc = accums[si];
    // Cooperative abort point (runtime/cancel.h): polled once per shard, and
    // the shard's rows are charged against the operation's budget before any
    // of them are scanned. Reduce builds `out` fresh and the caller assigns
    // it only on success, so stopping here leaves no partial state anywhere.
    acc.error = runtime::PollCancel("cancel.reduce.shard");
    if (!acc.error.ok()) return;
    acc.error = runtime::CurrentOpContext().ChargeRows(
        static_cast<int64_t>(end - begin));
    if (!acc.error.ok()) return;
    std::vector<ValueId> cell(ndims);
    // Folds each assigned fact into its shard-local cell group.
    acc.error = assigner.Assign(begin, end, [&](const CellAssignment& a) {
      const FactId f = a.fact;
      if (a.deleted) {
        // Deletion action (Section 8 extension): the fact is physically
        // removed — no cell, no group.
        ++acc.facts_deleted;
        return;
      }
      if (a.changed) ++acc.facts_aggregated;
      cell.assign(a.cell.begin(), a.cell.end());
      auto it = acc.index.find(cell);
      if (it == acc.index.end()) {
        ShardGroup g;
        g.cell = cell;
        g.meas.resize(nmeas);
        for (size_t m = 0; m < nmeas; ++m) {
          g.meas[m] = mo.Measure(f, static_cast<MeasureId>(m));
        }
        g.first_fallback = a.responsible != kNoAction ? a.responsible
                                                      : mo.ResponsibleAction(f);
        g.last_action_resp = a.responsible;
        g.aggregated_if_first = a.changed;
        if (options.track_provenance) {
          if (const std::vector<FactId>* prov = mo.Provenance(f)) {
            g.sources = *prov;
          } else {
            g.sources = {f};
          }
        }
        acc.index.emplace(cell, acc.ordered.size());
        acc.ordered.push_back(std::move(g));
      } else {
        ShardGroup& g = acc.ordered[it->second];
        // Fold measures with the default aggregate functions (Definition 2),
        // through the precompiled fold (same CombineMeasure calls).
        fold.Fold(g.meas.data(), mo.FactMeasures(f).data());
        g.aggregated_if_first = true;  // two members make the group aggregated
        if (a.responsible != kNoAction) g.last_action_resp = a.responsible;
        if (options.track_provenance) {
          if (const std::vector<FactId>* prov = mo.Provenance(f)) {
            g.sources.insert(g.sources.end(), prov->begin(), prov->end());
          } else {
            g.sources.push_back(f);
          }
        }
      }
    });
  });

  // Deterministic merge, ascending shard order, reproducing the interleaved
  // serial error order exactly: each shard's groups are merged (surfacing any
  // out.AddFact error at that cell's globally first occurrence) *before* the
  // shard's own scan error is checked. A shard stops accumulating at its
  // first failing fact, so every group it carries precedes that fact, and
  // shards after the first failing one are never merged — the error reported
  // is the globally first failing fact's error at every thread count
  // (docs/PARALLELISM.md, "Error reporting").
  size_t facts_aggregated = 0;
  size_t facts_deleted = 0;
  for (ShardAccum& acc : accums) {
    for (ShardGroup& sg : acc.ordered) {
      auto it = groups.find(sg.cell);
      if (it == groups.end()) {
        // Globally first occurrence: materialize the output fact.
        DWRED_ASSIGN_OR_RETURN(FactId nf, out.AddFact(sg.cell, sg.meas));
        Group g;
        g.out_id = nf;
        g.responsible = sg.last_action_resp != kNoAction ? sg.last_action_resp
                                                         : sg.first_fallback;
        g.aggregated = sg.aggregated_if_first;
        g.sources = std::move(sg.sources);
        groups.emplace(std::move(sg.cell), std::move(g));
      } else {
        Group& g = it->second;
        for (size_t m = 0; m < nmeas; ++m) {
          auto mm = static_cast<MeasureId>(m);
          out.SetMeasure(g.out_id, mm,
                         CombineMeasure(mo.measure_type(mm).agg,
                                        out.Measure(g.out_id, mm), sg.meas[m]));
        }
        g.aggregated = true;
        if (sg.last_action_resp != kNoAction) {
          g.responsible = sg.last_action_resp;
        }
        g.sources.insert(g.sources.end(), sg.sources.begin(),
                         sg.sources.end());
      }
    }
    if (!acc.error.ok()) return runtime::CountAbort(acc.error);
    facts_aggregated += acc.facts_aggregated;
    facts_deleted += acc.facts_deleted;
  }

  if (options.track_provenance) {
    for (auto& [key, g] : groups) {
      if (!g.aggregated && g.sources.size() == 1) {
        // Unchanged fact: keep its name; record provenance so later passes
        // and aggregations still know the original constituents.
        FactId original = g.sources[0];
        out.SetFactName(g.out_id, "fact_" + std::to_string(original));
        out.SetProvenance(g.out_id, g.sources, g.responsible);
        continue;
      }
      std::sort(g.sources.begin(), g.sources.end());
      g.sources.erase(std::unique(g.sources.begin(), g.sources.end()),
                      g.sources.end());
      // Paper-style merged names: fact_0 + fact_3 -> "fact_03".
      std::string name = "fact_";
      for (FactId s : g.sources) name += std::to_string(s);
      out.SetFactName(g.out_id, std::move(name));
      out.SetProvenance(g.out_id, g.sources, g.responsible);
    }
  }

  if (stats) {
    stats->input_facts = mo.num_facts();
    stats->output_facts = out.num_facts();
    stats->facts_aggregated = facts_aggregated;
    stats->facts_deleted = facts_deleted;
  }

  // ReduceStats, folded into process-wide totals.
  static obs::Counter& c_passes = registry.GetCounter(
      "dwred_reduce_passes", "completed reduction passes");
  static obs::Counter& c_in = registry.GetCounter(
      "dwred_reduce_facts_in", "input facts scanned by reduction passes");
  static obs::Counter& c_out = registry.GetCounter(
      "dwred_reduce_facts_out", "facts materialized by reduction passes");
  static obs::Counter& c_agg = registry.GetCounter(
      "dwred_reduce_facts_aggregated",
      "input facts whose granularity changed during reduction");
  static obs::Counter& c_del = registry.GetCounter(
      "dwred_reduce_facts_deleted",
      "input facts removed by deletion actions during reduction");
  c_passes.Increment();
  c_in.Increment(mo.num_facts());
  c_out.Increment(out.num_facts());
  c_agg.Increment(facts_aggregated);
  c_del.Increment(facts_deleted);
  span.AddField("facts_in", static_cast<int64_t>(mo.num_facts()));
  span.AddField("facts_out", static_cast<int64_t>(out.num_facts()));
  span.AddField("facts_aggregated", static_cast<int64_t>(facts_aggregated));
  span.AddField("facts_deleted", static_cast<int64_t>(facts_deleted));
  obs::OpProfile prof;
  prof.op = "reduce.pass";
  prof.trace_id = span.context().trace_id;
  prof.now_day = now_day;
  prof.rows_scanned = static_cast<int64_t>(mo.num_facts());
  prof.result_facts = static_cast<int64_t>(out.num_facts());
  prof.AddCounter("facts_aggregated", static_cast<int64_t>(facts_aggregated));
  prof.AddCounter("facts_deleted", static_cast<int64_t>(facts_deleted));
  prof.total_us = static_cast<int64_t>(span.ElapsedSeconds() * 1e6);
  static obs::Histogram& op_hist = obs::OpLatencyHistogram("reduce.pass");
  op_hist.Record(prof.total_us * 1e-6);
  obs::FlightRecorder::Global().Record(prof);
  return out;
}

}  // namespace dwred
