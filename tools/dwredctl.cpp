// dwredctl — a scriptable warehouse shell over the dwred library.
//
// Reads commands from a script file (or stdin), one per line. The shared
// commands have one grammar (net::ParseCommand) and one body (net::Execute):
// dwredctl runs them in process, or ships them to a dwredd under --connect,
// and prints the same bytes either way (docs/SERVER.md has the table):
//
//   ping                                     # pong
//   load-facts <file.csv>                    # insert facts (before
//                                            #   subcube-init: into the plain
//                                            #   warehouse)
//   subcube-load <file.csv>                  # insert bottom-subcube facts
//   subcube-sync <date>                      # Section 7.2 synchronization
//   subcube-query <date> [<granularity list>] [where <predicate>]
//                                            # Section 7.3 combined query
//   explain <date> [<granularity list>] [where <predicate>]
//                                            # the query, synchronized and
//                                            #   parallel: cells, then profile
//   action [name:] <action text>             # stage an action
//   apply <date>                             # replace the subcube spec with
//                                            #   the staged actions
//   metrics                                  # Prometheus-style text dump
//   metrics-json                             # same registry, JSON snapshot
//   cache                                    # epoch, cache entries, hit rates
//   cache clear                              # drop every cached entry
//   snapshot-crc                             # CRC of every subcube's rows
//   shutdown                                 # stop the dwredd (--connect only)
//   echo <text>
//
// The local-only commands build, reduce and inspect a warehouse in process
// (under --connect the server owns the warehouse, so they are rejected):
//
//   fact-type <Name>                         # default "Fact"
//   time-dimension <Name>                    # built-in day..year hierarchy
//   load-dimension <Name> <file.csv>         # denormalized rollup table
//   measures <name>:<sum|min|max>[,...]
//   init                                     # create the warehouse
//   apply                                    # validate + install staged set
//   delete-action <name> <date>              # Definition 4 at the date
//   reduce <date>                            # Definition 2 in place
//   select <conservative|liberal|weighted> <date> <predicate>
//   aggregate <date> <granularity list>
//   drop-dimension <Name>
//   drop-measure <name>
//   raise-bottom <Dim> <category>
//   save-facts <file.csv>
//   save-dimension <Name> <file.csv>
//   save-snapshot <file.dwsnap>             # binary warehouse + spec
//   load-snapshot <file.dwsnap>             # instead of init + loads
//   show [n]                                 # print up to n facts (default 20)
//   stats                                    # facts, bytes, actions
//   subcube-init                             # Section 7 layout from the spec
//   subcube-layout
//   slowlog                                  # flight recorder: slow ops + why
//   trace-tree                               # span tree of the trace buffer
//   storage                                  # per-subcube segments + zone maps
//   attach <dir>                             # bind to a durable directory:
//                                            #   fresh dir: journal this warehouse
//                                            #   existing: recover, then continue
//   checkpoint                               # fold the journal into a snapshot
//   detach                                   # checkpoint + release the directory
//
// Every <date> is a day, e.g. 2000/11/5.
//
// Blank lines and '#' comments are ignored. The tool stops at the first
// failing command and reports its diagnostic (Status on stderr), exiting
// with a code that names the failure class (see --help): 1 generic command
// failure, 2 usage / IO, 3 cancelled, 4 deadline exceeded, 5 resource
// exhausted (budget or admission shed), 6 server unavailable (--connect
// mode: refused, disconnected mid-command, or short read — docs/SERVER.md).
//
//   $ dwredctl warehouse.dwred
//   $ dwredctl -                    # read from stdin
//   $ dwredctl recover <dir>        # replay the journal, checkpoint, report
//   $ dwredctl stats warehouse.dwred    # run, then dump the metrics registry
//   $ dwredctl --trace=/tmp/t.jsonl warehouse.dwred   # JSON-lines span trace
//   $ dwredctl trace-tree /tmp/t.jsonl  # pretty-print a recorded span trace
//   $ dwredctl --deadline-ms=500 warehouse.dwred  # per-command deadline
//   $ dwredctl --max-rows=100000 warehouse.dwred  # per-command row budget

#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>

#include "common/strings.h"
#include "io/csv.h"
#include "io/recovery.h"
#include "io/snapshot.h"
#include "io/warehouse_io.h"
#include "net/client.h"
#include "net/command.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "query/operators.h"
#include "reduce/dynamics.h"
#include "runtime/cancel.h"
#include "reduce/schema_reduction.h"
#include "reduce/semantics.h"
#include "spec/parser.h"
#include "storage/column.h"
#include "subcube/manager.h"

using namespace dwred;

namespace {

struct Shell {
  std::string fact_type = "Fact";
  std::vector<std::shared_ptr<Dimension>> dims;
  std::vector<MeasureType> measures;
  std::unique_ptr<MultidimensionalObject> mo;
  ReductionSpecification spec;
  std::string staged;  ///< `action` lines awaiting `apply`, one per line
  std::unique_ptr<SubcubeManager> subcubes;
  /// Non-null while attached to a durable directory; mutating commands are
  /// then journaled (io/recovery.h) and `mo`/`spec` stay empty.
  std::unique_ptr<DurableWarehouse> durable;
  /// --connect: shared commands go to this dwredd, local-only ones are
  /// rejected. Transport failures surface as Unavailable (exit 6).
  bool remote = false;
  net::Client client;
  uint32_t deadline_ms = 0;  ///< remote: travels in every request
  uint64_t max_rows = 0;

  const MultidimensionalObject& CurMO() const {
    return durable ? durable->mo() : *mo;
  }
  const ReductionSpecification& CurSpec() const {
    return durable ? durable->spec() : spec;
  }

  Status Require(bool initialized) const {
    if (initialized && !mo && !durable) {
      return Status::InvalidArgument("run 'init' first");
    }
    if (!initialized && (mo || durable)) {
      return Status::InvalidArgument("warehouse already initialized");
    }
    return Status::OK();
  }

  Status RequireDetached(const std::string& cmd) const {
    if (durable) {
      return Status::InvalidArgument(
          "'" + cmd + "' is not journaled; detach before running it");
    }
    return Status::OK();
  }

  bool HasSubcubes() const {
    return durable ? durable->subcubes() != nullptr : subcubes != nullptr;
  }

  Status RequireSubcubes() const {
    if (!HasSubcubes()) {
      return Status::InvalidArgument("run 'subcube-init' first");
    }
    return Status::OK();
  }

  const SubcubeManager& CurSubcubes() const {
    return durable ? *durable->subcubes() : *subcubes;
  }

  Result<DimensionId> DimByName(std::string_view name) const {
    for (size_t d = 0; d < dims.size(); ++d) {
      if (dims[d]->name() == name) return static_cast<DimensionId>(d);
    }
    return Status::NotFound("no dimension named '" + std::string(name) + "'");
  }

  /// A shared command: sent to the dwredd under --connect, else run by the
  /// same net::Execute the daemon runs. Either way the body is printed.
  Status RunRequest(const std::string& cmd, net::Request req) {
    net::Response resp;
    if (remote) {
      req.deadline_ms = deadline_ms;
      req.max_rows = max_rows;
      DWRED_ASSIGN_OR_RETURN(resp, client.Call(req));
    } else if (req.cmd == net::Command::kShutdown) {
      return Status::InvalidArgument(
          "'shutdown' stops a dwredd; run it with --connect");
    } else if (cmd == "load-facts" && !HasSubcubes()) {
      return LoadPlainFacts(req.a);
    } else {
      resp = net::Execute(req, {subcubes.get(), durable.get()});
    }
    if (resp.code != StatusCode::kOk) return Status(resp.code, resp.message);
    if (req.cmd == net::Command::kSpecChange) staged.clear();
    if (!resp.body.empty()) {
      std::printf("%s%s", resp.body.c_str(),
                  resp.body.back() == '\n' ? "" : "\n");
    }
    return Status::OK();
  }

  /// `load-facts` before `subcube-init`: the facts join the plain warehouse.
  Status LoadPlainFacts(std::string_view csv) {
    DWRED_RETURN_IF_ERROR(Require(true));
    if (durable) {
      MultidimensionalObject batch(fact_type, dims, measures);
      DWRED_RETURN_IF_ERROR(ReadFactCsv(&batch, csv));
      DWRED_RETURN_IF_ERROR(durable->InsertFacts(batch));
      std::printf("loaded %zu facts (journaled, lsn %llu)\n",
                  batch.num_facts(),
                  static_cast<unsigned long long>(durable->applied_lsn()));
      return Status::OK();
    }
    size_t before = mo->num_facts();
    DWRED_RETURN_IF_ERROR(ReadFactCsv(mo.get(), csv));
    std::printf("loaded %zu facts (%zu total)\n", mo->num_facts() - before,
                mo->num_facts());
    return Status::OK();
  }

  Status Run(std::string_view text) {
    DWRED_ASSIGN_OR_RETURN(net::ScriptLine line,
                           net::ParseCommand(text, staged));
    const std::string& cmd = line.word;
    const std::string& rest = line.rest;
    if (cmd.empty()) return Status::OK();
    if (line.request) return RunRequest(cmd, std::move(*line.request));
    if (cmd == "echo") {
      std::printf("%s\n", rest.c_str());
      return Status::OK();
    }
    if (cmd == "action") {
      if (rest.empty()) return Status::InvalidArgument("action: empty text");
      staged += rest;
      staged += '\n';
      return Status::OK();
    }
    if (remote) {
      return Status::InvalidArgument(
          "command not available over --connect (the server owns the "
          "warehouse): " + cmd);
    }
    if (cmd == "fact-type") {
      DWRED_RETURN_IF_ERROR(Require(false));
      fact_type = rest;
      return Status::OK();
    }
    if (cmd == "time-dimension") {
      DWRED_RETURN_IF_ERROR(Require(false));
      auto dim = std::make_shared<Dimension>(Dimension::MakeTimeDimension());
      // The built-in time type is named "Time"; an alias is not supported —
      // report rather than silently mis-name.
      if (rest != "Time") {
        return Status::InvalidArgument(
            "the built-in time dimension is named 'Time'");
      }
      dims.push_back(std::move(dim));
      return Status::OK();
    }
    if (cmd == "load-dimension") {
      DWRED_RETURN_IF_ERROR(Require(false));
      std::istringstream args(rest);
      std::string name, path;
      args >> name >> path;
      DWRED_ASSIGN_OR_RETURN(std::string csv, ReadFile(path));
      DWRED_ASSIGN_OR_RETURN(Dimension dim, ReadDimensionCsv(name, csv));
      std::printf("loaded dimension %s: %zu values\n", name.c_str(),
                  dim.num_values());
      dims.push_back(std::make_shared<Dimension>(std::move(dim)));
      return Status::OK();
    }
    if (cmd == "measures") {
      DWRED_RETURN_IF_ERROR(Require(false));
      for (const std::string& part : Split(rest, ',')) {
        std::string_view p = Trim(part);
        size_t colon = p.find(':');
        if (colon == std::string_view::npos) {
          return Status::InvalidArgument("expected <name>:<sum|min|max>");
        }
        std::string_view agg = p.substr(colon + 1);
        MeasureType m;
        m.name = std::string(p.substr(0, colon));
        if (agg == "sum") m.agg = AggFn::kSum;
        else if (agg == "min") m.agg = AggFn::kMin;
        else if (agg == "max") m.agg = AggFn::kMax;
        else return Status::InvalidArgument("unknown aggregate: " +
                                            std::string(agg));
        measures.push_back(std::move(m));
      }
      return Status::OK();
    }
    if (cmd == "init") {
      DWRED_RETURN_IF_ERROR(Require(false));
      if (dims.empty()) {
        return Status::InvalidArgument("declare dimensions before init");
      }
      if (measures.empty()) {
        return Status::InvalidArgument("declare measures before init");
      }
      mo = std::make_unique<MultidimensionalObject>(fact_type, dims, measures);
      std::printf("warehouse ready: %zu dimensions, %zu measures\n",
                  dims.size(), measures.size());
      return Status::OK();
    }
    if (cmd == "attach") {
      if (durable) return Status::InvalidArgument("already attached");
      if (rest.empty()) return Status::InvalidArgument("attach <dir>");
      if (subcubes) {
        return Status::InvalidArgument(
            "attach before subcube-init; the durable layer owns the subcube "
            "organization");
      }
      if (mo) {
        // Bind the current in-memory warehouse to a fresh directory.
        DWRED_ASSIGN_OR_RETURN(
            durable,
            DurableWarehouse::Create(rest, std::move(mo), std::move(spec)));
        spec = ReductionSpecification{};
        std::printf("attached %s (new directory)\n", rest.c_str());
      } else {
        // Existing directory: recovery runs as part of the open.
        RecoveryStats rs;
        DWRED_ASSIGN_OR_RETURN(durable, DurableWarehouse::Open(rest, &rs));
        std::printf(
            "attached %s: recovered to lsn %llu (snapshot lsn %llu, "
            "%zu ops replayed, %zu intents rolled back)\n",
            rest.c_str(), static_cast<unsigned long long>(rs.recovered_lsn),
            static_cast<unsigned long long>(rs.snapshot_lsn), rs.ops_replayed,
            rs.intents_rolled_back);
      }
      dims = durable->mo().dimensions();
      measures = durable->mo().measure_types();
      fact_type = durable->mo().fact_type();
      return Status::OK();
    }
    if (cmd == "checkpoint") {
      if (!durable) return Status::InvalidArgument("run 'attach' first");
      DWRED_RETURN_IF_ERROR(durable->Checkpoint());
      std::printf("checkpoint written at lsn %llu\n",
                  static_cast<unsigned long long>(durable->applied_lsn()));
      return Status::OK();
    }
    if (cmd == "detach") {
      if (!durable) return Status::InvalidArgument("run 'attach' first");
      if (durable->subcubes()) {
        return Status::InvalidArgument(
            "detach under the subcube organization is not supported; the "
            "subcubes live only in the durable directory");
      }
      DWRED_RETURN_IF_ERROR(durable->Checkpoint());
      mo = std::make_unique<MultidimensionalObject>(durable->mo());
      spec = durable->spec();
      durable.reset();
      std::printf("detached (directory checkpointed)\n");
      return Status::OK();
    }
    if (cmd == "apply") {
      DWRED_RETURN_IF_ERROR(Require(true));
      if (HasSubcubes()) {
        return Status::InvalidArgument(
            "the subcube warehouse takes 'apply <date>'");
      }
      DWRED_ASSIGN_OR_RETURN(std::vector<Action> actions,
                             ReadSpecificationText(CurMO(), staged));
      if (durable) {
        std::vector<std::pair<std::string, std::string>> pairs;
        pairs.reserve(actions.size());
        for (const Action& a : actions) {
          pairs.emplace_back(a.name, a.source_text);
        }
        DWRED_RETURN_IF_ERROR(durable->ApplyActions(pairs));
      } else {
        // A rejected set stays staged: the user can stage a covering action
        // and retry instead of starting over.
        DWRED_ASSIGN_OR_RETURN(spec, InsertActions(*mo, spec, actions));
      }
      staged.clear();
      std::printf("specification valid: %zu actions installed\n",
                  CurSpec().size());
      return Status::OK();
    }
    if (cmd == "delete-action") {
      DWRED_RETURN_IF_ERROR(Require(true));
      std::istringstream args(rest);
      std::string name, date;
      args >> name >> date;
      DWRED_ASSIGN_OR_RETURN(int64_t day, net::ParseDay(date));
      if (durable) {
        DWRED_RETURN_IF_ERROR(durable->DeleteAction(name, day));
        std::printf("deleted action %s (%zu remain)\n", name.c_str(),
                    durable->spec().size());
        return Status::OK();
      }
      for (ActionId i = 0; i < spec.size(); ++i) {
        if (spec.action(i).name == name) {
          DWRED_ASSIGN_OR_RETURN(spec,
                                 DeleteActions(*mo, spec, {i}, day));
          std::printf("deleted action %s (%zu remain)\n", name.c_str(),
                      spec.size());
          return Status::OK();
        }
      }
      return Status::NotFound("no action named '" + name + "'");
    }
    if (cmd == "reduce") {
      DWRED_RETURN_IF_ERROR(Require(true));
      DWRED_ASSIGN_OR_RETURN(int64_t day, net::ParseDay(rest));
      ReduceStats stats;
      if (durable) {
        DWRED_RETURN_IF_ERROR(durable->ReducePass(day, &stats));
        std::printf(
            "reduced at %s: %zu -> %zu facts (%zu aggregated, %zu deleted)\n",
            rest.c_str(), stats.input_facts, stats.output_facts,
            stats.facts_aggregated, stats.facts_deleted);
        return Status::OK();
      }
      DWRED_ASSIGN_OR_RETURN(MultidimensionalObject reduced,
                             Reduce(*mo, spec, day, {}, &stats));
      *mo = std::move(reduced);
      std::printf(
          "reduced at %s: %zu -> %zu facts (%zu aggregated, %zu deleted)\n",
          rest.c_str(), stats.input_facts, stats.output_facts,
          stats.facts_aggregated, stats.facts_deleted);
      return Status::OK();
    }
    if (cmd == "select") {
      DWRED_RETURN_IF_ERROR(Require(true));
      std::istringstream args(rest);
      std::string approach_s, date;
      args >> approach_s >> date;
      std::string pred_text;
      std::getline(args, pred_text);
      SelectionApproach ap;
      if (approach_s == "conservative") ap = SelectionApproach::kConservative;
      else if (approach_s == "liberal") ap = SelectionApproach::kLiberal;
      else if (approach_s == "weighted") ap = SelectionApproach::kWeighted;
      else return Status::InvalidArgument("unknown approach " + approach_s);
      DWRED_ASSIGN_OR_RETURN(int64_t day, net::ParseDay(date));
      DWRED_ASSIGN_OR_RETURN(auto pred,
                             ParsePredicate(CurMO(), Trim(pred_text)));
      DWRED_ASSIGN_OR_RETURN(SelectionResult sel,
                             Select(CurMO(), *pred, day, ap));
      std::printf("select (%s): %zu facts\n", approach_s.c_str(),
                  sel.mo.num_facts());
      for (FactId f = 0; f < sel.mo.num_facts() && f < 20; ++f) {
        if (ap == SelectionApproach::kWeighted) {
          std::printf("  %s  w=%.3f\n", sel.mo.FormatFact(f).c_str(),
                      sel.weights[f]);
        } else {
          std::printf("  %s\n", sel.mo.FormatFact(f).c_str());
        }
      }
      return Status::OK();
    }
    if (cmd == "aggregate") {
      DWRED_RETURN_IF_ERROR(Require(true));
      std::istringstream args(rest);
      std::string date;
      args >> date;
      std::string gran_text;
      std::getline(args, gran_text);
      // α takes no NOW, but the date is still checked like every other.
      DWRED_RETURN_IF_ERROR(net::ParseDay(date).status());
      DWRED_ASSIGN_OR_RETURN(auto gran,
                             ParseGranularityList(CurMO(), Trim(gran_text)));
      DWRED_ASSIGN_OR_RETURN(MultidimensionalObject agg,
                             AggregateFormation(CurMO(), gran));
      std::printf("aggregate: %zu cells\n", agg.num_facts());
      for (FactId f = 0; f < agg.num_facts() && f < 20; ++f) {
        std::printf("  %s\n", agg.FormatFact(f).c_str());
      }
      return Status::OK();
    }
    if (cmd == "drop-dimension") {
      DWRED_RETURN_IF_ERROR(Require(true));
      DWRED_RETURN_IF_ERROR(RequireDetached(cmd));
      DWRED_ASSIGN_OR_RETURN(DimensionId d, DimByName(rest));
      DWRED_ASSIGN_OR_RETURN(MultidimensionalObject out,
                             DropDimension(*mo, d));
      *mo = std::move(out);
      dims.erase(dims.begin() + d);
      std::printf("dropped dimension %s: %zu facts remain\n", rest.c_str(),
                  mo->num_facts());
      return Status::OK();
    }
    if (cmd == "drop-measure") {
      DWRED_RETURN_IF_ERROR(Require(true));
      DWRED_RETURN_IF_ERROR(RequireDetached(cmd));
      DWRED_ASSIGN_OR_RETURN(MeasureId m, mo->MeasureByName(rest));
      DWRED_ASSIGN_OR_RETURN(MultidimensionalObject out, DropMeasure(*mo, m));
      *mo = std::move(out);
      measures.erase(measures.begin() + m);
      return Status::OK();
    }
    if (cmd == "raise-bottom") {
      DWRED_RETURN_IF_ERROR(Require(true));
      DWRED_RETURN_IF_ERROR(RequireDetached(cmd));
      std::istringstream args(rest);
      std::string dim_name, cat_name;
      args >> dim_name >> cat_name;
      DWRED_ASSIGN_OR_RETURN(DimensionId d, DimByName(dim_name));
      DWRED_ASSIGN_OR_RETURN(CategoryId c,
                             dims[d]->type().CategoryByName(cat_name));
      DWRED_ASSIGN_OR_RETURN(MultidimensionalObject out,
                             RaiseBottomCategory(*mo, d, c));
      dims[d] = out.dimension(d);
      *mo = std::move(out);
      std::printf("raised %s bottom to %s\n", dim_name.c_str(),
                  cat_name.c_str());
      return Status::OK();
    }
    if (cmd == "save-snapshot") {
      DWRED_RETURN_IF_ERROR(Require(true));
      DWRED_RETURN_IF_ERROR(WriteFile(rest, SaveWarehouse(CurMO(), CurSpec())));
      std::printf("snapshot written to %s\n", rest.c_str());
      return Status::OK();
    }
    if (cmd == "load-snapshot") {
      DWRED_RETURN_IF_ERROR(Require(false));
      DWRED_ASSIGN_OR_RETURN(std::string bytes, ReadFile(rest));
      DWRED_ASSIGN_OR_RETURN(LoadedWarehouse lw, LoadWarehouse(bytes));
      mo = std::move(lw.mo);
      spec = std::move(lw.spec);
      dims = mo->dimensions();
      measures = mo->measure_types();
      fact_type = mo->fact_type();
      std::printf("snapshot loaded: %zu facts, %zu actions\n",
                  mo->num_facts(), spec.size());
      return Status::OK();
    }
    if (cmd == "save-facts") {
      DWRED_RETURN_IF_ERROR(Require(true));
      DWRED_RETURN_IF_ERROR(WriteFile(rest, WriteFactCsv(CurMO())));
      std::printf("wrote %zu facts to %s\n", CurMO().num_facts(),
                  rest.c_str());
      return Status::OK();
    }
    if (cmd == "save-dimension") {
      DWRED_RETURN_IF_ERROR(Require(true));
      std::istringstream args(rest);
      std::string name, path;
      args >> name >> path;
      DWRED_ASSIGN_OR_RETURN(DimensionId d, DimByName(name));
      DWRED_ASSIGN_OR_RETURN(std::string csv, WriteDimensionCsv(*dims[d]));
      DWRED_RETURN_IF_ERROR(WriteFile(path, csv));
      return Status::OK();
    }
    if (cmd == "show") {
      DWRED_RETURN_IF_ERROR(Require(true));
      int64_t limit = 20;
      if (!rest.empty() && (!ParseInt64(rest, &limit) || limit < 0)) {
        return Status::InvalidArgument("show: expected a non-negative count, "
                                       "got '" + rest + "'");
      }
      const MultidimensionalObject& cur = CurMO();
      for (FactId f = 0; f < cur.num_facts() &&
                         f < static_cast<FactId>(limit);
           ++f) {
        std::printf("  %s\n", cur.FormatFact(f).c_str());
      }
      if (cur.num_facts() > static_cast<size_t>(limit)) {
        std::printf("  ... (%zu more)\n",
                    cur.num_facts() - static_cast<size_t>(limit));
      }
      return Status::OK();
    }
    if (cmd == "stats") {
      DWRED_RETURN_IF_ERROR(Require(true));
      size_t dim_bytes = 0;
      for (const auto& d : dims) dim_bytes += d->ApproxBytes();
      std::printf("facts: %zu (%s); dimensions: %s; actions: %zu\n",
                  CurMO().num_facts(), HumanBytes(CurMO().FactBytes()).c_str(),
                  HumanBytes(dim_bytes).c_str(), CurSpec().size());
      return Status::OK();
    }
    if (cmd == "subcube-init") {
      DWRED_RETURN_IF_ERROR(Require(true));
      if (CurSpec().empty()) {
        return Status::InvalidArgument(
            "apply a specification before subcube-init");
      }
      if (durable) {
        DWRED_RETURN_IF_ERROR(durable->EnableSubcubes());
        std::printf("subcube warehouse ready: %zu subcubes (journaled)\n",
                    durable->subcubes()->num_subcubes());
        return Status::OK();
      }
      auto m = SubcubeManager::Create(fact_type, dims, measures, spec);
      if (!m.ok()) return m.status();
      subcubes = std::make_unique<SubcubeManager>(m.take());
      std::printf("subcube warehouse ready: %zu subcubes\n",
                  subcubes->num_subcubes());
      return Status::OK();
    }
    if (cmd == "subcube-layout") {
      DWRED_RETURN_IF_ERROR(RequireSubcubes());
      std::printf("%s", CurSubcubes().DescribeLayout().c_str());
      return Status::OK();
    }
    if (cmd == "slowlog") {
      std::printf("%s", obs::FlightRecorder::Global().Render().c_str());
      return Status::OK();
    }
    if (cmd == "trace-tree") {
      if (!obs::TraceBuffer::Global().enabled()) {
        std::printf("trace-tree: trace buffer disabled (run with --trace=)\n");
        return Status::OK();
      }
      std::printf(
          "%s", obs::RenderTraceTree(obs::TraceBuffer::Global().Snapshot())
                    .c_str());
      return Status::OK();
    }
    if (cmd == "storage") {
      DWRED_RETURN_IF_ERROR(RequireSubcubes());
      const SubcubeManager& m = CurSubcubes();
      for (size_t i = 0; i < m.num_subcubes(); ++i) {
        const Subcube& cube = m.subcube(i);
        const FactTable& t = cube.table;
        size_t phys = 0, dead = 0;
        for (size_t s = 0; s < t.num_segments(); ++s) {
          phys += t.SegmentPhysicalRows(s);
          dead += t.SegmentTombstones(s);
        }
        std::printf(
            "%s: %zu segments, %zu rows, %zu tombstones (%.1f%%), %s "
            "(row-equivalent %s, saved %s)\n",
            cube.name.c_str(), t.num_segments(), t.num_rows(), dead,
            phys == 0 ? 0.0 : 100.0 * static_cast<double>(dead) /
                                  static_cast<double>(phys),
            HumanBytes(t.Bytes()).c_str(),
            HumanBytes(t.RowEquivalentBytes()).c_str(),
            HumanBytes(t.RowEquivalentBytes() - t.Bytes()).c_str());
        constexpr size_t kMaxSegments = 8;
        for (size_t s = 0; s < t.num_segments() && s < kMaxSegments; ++s) {
          std::printf("  seg %zu [%zu, %zu) %s live=%zu/%zu",
                      s, static_cast<size_t>(t.SegmentBegin(s)),
                      static_cast<size_t>(t.SegmentBegin(s)) +
                          t.SegmentLiveRows(s),
                      t.SegmentSealed(s)
                          ? (t.SegmentEncoded(s) ? "sealed/columnar" : "sealed")
                          : "tail",
                      t.SegmentLiveRows(s), t.SegmentPhysicalRows(s));
          for (DimensionId d = 0; d < t.num_dims(); ++d) {
            std::printf(" %s=[%s..%s]", dims[d]->name().c_str(),
                        dims[d]->value_name(t.SegmentDimMin(s, d)).c_str(),
                        dims[d]->value_name(t.SegmentDimMax(s, d)).c_str());
          }
          std::printf("\n");
          // Per-column physical layout: encoding + resident bytes.
          std::printf("    cols:");
          for (DimensionId d = 0; d < t.num_dims(); ++d) {
            std::printf(" %s=%s/%zuB", dims[d]->name().c_str(),
                        storage::EncodingName(t.SegmentDimEncoding(s, d)),
                        t.SegmentDimBytes(s, d));
          }
          for (size_t mi = 0; mi < t.num_measures(); ++mi) {
            std::printf(" m%zu=%s/%zuB", mi,
                        storage::EncodingName(t.SegmentMeasureEncoding(s, mi)),
                        t.SegmentMeasureBytes(s, mi));
          }
          std::printf(" total=%zuB\n", t.SegmentBytes(s));
        }
        if (t.num_segments() > kMaxSegments) {
          std::printf("  ... (%zu more segments)\n",
                      t.num_segments() - kMaxSegments);
        }
      }
      return Status::OK();
    }
    return Status::InvalidArgument("unknown command: " + cmd);
  }
};

/// Maps a Status code to the process exit code documented in --help. The
/// abort codes get distinct values so scripts and supervisors can tell a
/// timed-out command from a plain failure without parsing stderr.
int ExitCodeFor(StatusCode code) {
  switch (code) {
    case StatusCode::kCancelled: return 3;
    case StatusCode::kDeadlineExceeded: return 4;
    case StatusCode::kResourceExhausted: return 5;
    case StatusCode::kUnavailable: return 6;
    default: return 1;
  }
}

void PrintHelp(const char* argv0) {
  std::printf(
      "usage: %s [stats] [--trace=<file.jsonl>] [--deadline-ms=<n>] "
      "[--max-rows=<n>] [--connect=<host:port>] <script.dwred | ->\n"
      "       %s recover <dir>\n"
      "       %s trace-tree <file.jsonl>\n"
      "\n"
      "flags:\n"
      "  --trace=<file>     record a JSON-lines span trace of the run\n"
      "  --deadline-ms=<n>  per-command deadline: each script command gets a\n"
      "                     fresh n-millisecond budget; a command that runs\n"
      "                     past it aborts cleanly (DeadlineExceeded)\n"
      "  --max-rows=<n>     per-command row budget: a command that charges\n"
      "                     more than n rows aborts (ResourceExhausted)\n"
      "  --connect=<h:p>    remote mode: ship each command to a dwredd\n"
      "                     (docs/SERVER.md); deadline/budget flags travel\n"
      "                     in the request and are enforced server-side\n"
      "  stats              dump the metrics registry after the script\n"
      "\n"
      "shared commands (the same bytes in process and under --connect;\n"
      "<date> is a day, e.g. 2000/11/5):\n"
      "  ping | snapshot-crc | metrics | metrics-json | cache [clear]\n"
      "  load-facts <csv> | subcube-load <csv> | subcube-sync <date>\n"
      "  subcube-query <date> [<granularities>] [where <predicate>]\n"
      "  explain <date> [<granularities>] [where <predicate>]\n"
      "  action [name:] <text> | apply <date> | echo <text>\n"
      "  shutdown (--connect only)\n"
      "local-only commands: see the header of tools/dwredctl.cpp\n"
      "\n"
      "exit codes:\n"
      "  0  success\n"
      "  1  a command failed (Status printed on stderr, mid-stream)\n"
      "  2  usage error, unreadable input, or trace-write failure\n"
      "  3  command cancelled (Cancelled)\n"
      "  4  command exceeded its deadline (DeadlineExceeded)\n"
      "  5  budget exceeded or admission shed (ResourceExhausted)\n"
      "  6  server unavailable: connect refused, disconnect mid-command,\n"
      "     short read, or timed-out response (Unavailable)\n",
      argv0, argv0, argv0);
}

}  // namespace

int main(int argc, char** argv) {
  bool dump_stats = false;
  std::string trace_path;
  std::string connect_spec;
  int64_t deadline_ms = 0;
  int64_t max_rows = 0;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintHelp(argv[0]);
      return 0;
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(std::string("--trace=").size());
      if (trace_path.empty()) {
        std::fprintf(stderr, "--trace= requires a file path\n");
        return 2;
      }
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      std::string v = arg.substr(std::string("--deadline-ms=").size());
      if (!ParseInt64(v, &deadline_ms) || deadline_ms < 1) {
        std::fprintf(stderr, "--deadline-ms= requires a positive integer\n");
        return 2;
      }
    } else if (arg.rfind("--max-rows=", 0) == 0) {
      std::string v = arg.substr(std::string("--max-rows=").size());
      if (!ParseInt64(v, &max_rows) || max_rows < 1) {
        std::fprintf(stderr, "--max-rows= requires a positive integer\n");
        return 2;
      }
    } else if (arg.rfind("--connect=", 0) == 0) {
      connect_spec = arg.substr(std::string("--connect=").size());
      if (connect_spec.empty()) {
        std::fprintf(stderr, "--connect= requires host:port\n");
        return 2;
      }
    } else if (arg == "stats" && positional.empty()) {
      dump_stats = true;
    } else {
      positional.push_back(std::move(arg));
    }
  }
  if (positional.size() == 2 && positional[0] == "trace-tree") {
    auto r = ReadFile(positional[1]);
    if (!r.ok()) {
      std::fprintf(stderr, "trace-tree: %s\n", r.status().ToString().c_str());
      return 2;
    }
    std::vector<obs::TraceEvent> events;
    if (!obs::ParseTraceJsonLines(r.value(), &events)) {
      std::fprintf(stderr, "trace-tree: %s holds no trace events\n",
                   positional[1].c_str());
      return 1;
    }
    std::printf("%s", obs::RenderTraceTree(events).c_str());
    return 0;
  }
  if (positional.size() == 2 && positional[0] == "recover") {
    RecoveryStats rs;
    auto rec = RecoverWarehouse(positional[1], &rs);
    if (!rec.ok()) {
      std::fprintf(stderr, "recover: %s\n", rec.status().ToString().c_str());
      return 1;
    }
    Status cp = rec.value()->Checkpoint();
    if (!cp.ok()) {
      std::fprintf(stderr, "recover: checkpoint failed: %s\n",
                   cp.ToString().c_str());
      return 1;
    }
    std::printf(
        "recovered %s to lsn %llu: %zu ops replayed, %zu intents rolled "
        "back, %zu torn bytes discarded\n",
        positional[1].c_str(),
        static_cast<unsigned long long>(rs.recovered_lsn), rs.ops_replayed,
        rs.intents_rolled_back, rs.journal_torn_bytes);
    return 0;
  }
  if (positional.size() != 1) {
    std::fprintf(stderr,
                 "usage: %s [stats] [--trace=<file.jsonl>] "
                 "[--deadline-ms=<n>] [--max-rows=<n>] "
                 "<script.dwred | -> | %s recover <dir> | "
                 "%s trace-tree <file.jsonl>  (see --help)\n",
                 argv[0], argv[0], argv[0]);
    return 2;
  }

  if (!trace_path.empty()) obs::TraceBuffer::Global().Enable();

  std::string script;
  if (positional[0] == "-") {
    std::ostringstream all;
    all << std::cin.rdbuf();
    script = all.str();
  } else {
    auto r = ReadFile(positional[0]);
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 2;
    }
    script = r.take();
  }

  int rc = 0;
  {
    Shell shell;
    if (!connect_spec.empty()) {
      // Remote mode: the same loop, with every shared command shipped to
      // the dwredd. A transport failure mid-stream (server killed, short
      // read, EPIPE) stops the script with exit 6 — never exit 0.
      auto hp = net::ParseHostPort(connect_spec);
      if (!hp.ok()) {
        std::fprintf(stderr, "--connect: %s\n", hp.status().ToString().c_str());
        return 2;
      }
      auto conn = net::Client::Connect(hp.value().host, hp.value().port);
      if (!conn.ok()) {
        std::fprintf(stderr, "--connect: %s\n",
                     conn.status().ToString().c_str());
        return 6;
      }
      shell.remote = true;
      shell.client = conn.take();
      shell.deadline_ms = static_cast<uint32_t>(deadline_ms);
      shell.max_rows = static_cast<uint64_t>(max_rows);
    }
    size_t line_no = 0;
    for (const std::string& line : Split(script, '\n')) {
      ++line_no;
      // Each command gets a fresh operation context: the deadline restarts
      // per command (a slow command can't starve the next one of budget it
      // already burned) and the row budget is per command too.
      runtime::OpContext ctx;
      if (deadline_ms > 0) ctx.deadline = runtime::Deadline::AfterMillis(deadline_ms);
      if (max_rows > 0) ctx.SetMaxRows(max_rows);
      Status st;
      {
        runtime::ScopedOpContext scope(ctx);
        st = shell.Run(line);
      }
      if (!st.ok()) {
        std::fprintf(stderr, "line %zu: %s\n  %s\n", line_no,
                     st.ToString().c_str(), line.c_str());
        rc = ExitCodeFor(st.code());
        break;
      }
    }
  }

  // The registry dump and trace flush run even when the script failed —
  // the partial numbers are exactly what one wants when debugging a script.
  if (dump_stats) {
    std::printf("%s", obs::MetricsRegistry::Global().RenderText().c_str());
  }
  if (!trace_path.empty()) {
    if (!obs::TraceBuffer::Global().WriteTo(trace_path)) {
      std::fprintf(stderr, "--trace: cannot write %s\n", trace_path.c_str());
      if (rc == 0) rc = 2;
    }
  }
  return rc;
}
