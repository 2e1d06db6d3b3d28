// The in-process mirror of the served path (net/server.cc's Session +
// DoQuery/DoInsert/DoSynchronize), with a span around every public call.

#include <algorithm>
#include <optional>
#include <shared_mutex>

#include "e2e.h"
#include "io/warehouse_io.h"
#include "spec/parser.h"

namespace dwred::e2e {

namespace {

net::Response FromStatus(const Status& st) {
  net::Response r;
  r.code = st.code();
  r.message = st.message();
  return r;
}

int64_t StageNs(const obs::OpProfile& p, const char* name) {
  for (const obs::StageTime& s : p.stages) {
    if (s.name == name) return std::max<int64_t>(s.wall_us, 0) * 1000;
  }
  return 0;
}

/// Attaches a query's profile stages as children of its span, laid out in
/// execution order from the span's start. The scan and aggregate stages are
/// per-subcube sums that overlap under parallel fan-out; when they exceed the
/// fan-out's wall time they are scaled down to share it in proportion, so
/// self times stay additive.
void AddQueryStages(RequestTrace* trace, int query, const obs::OpProfile& p) {
  int64_t t = trace->spans()[static_cast<size_t>(query)].start_ns;
  if (p.cache == obs::CacheOutcome::kHit) {
    trace->Add(query, "cache.lookup", t, p.total_us * 1000);
    return;
  }
  const int64_t lookup = StageNs(p, "lookup");
  trace->Add(query, "cache.lookup", t, lookup);
  t += lookup;
  const int64_t subq = StageNs(p, "subqueries_wall");
  const int sub = trace->Add(query, "subcube.subqueries", t, subq);
  const int64_t plan = std::min(StageNs(p, "plan"), subq);
  trace->Add(sub, "subcube.plan", t, plan);
  const int64_t fan = subq - plan;
  int64_t scan = StageNs(p, "scan");
  int64_t agg = StageNs(p, "aggregate");
  if (scan + agg > fan) {
    const double share = static_cast<double>(fan) / static_cast<double>(scan + agg);
    scan = static_cast<int64_t>(static_cast<double>(scan) * share);
    agg = std::min(fan - scan, static_cast<int64_t>(static_cast<double>(agg) * share));
  }
  trace->Add(sub, "scan", t + plan, scan);
  trace->Add(sub, "query.aggregate", t + plan + scan, agg);
  t += subq;
  trace->Add(query, "subcube.materialize", t, StageNs(p, "materialize"));
}

}  // namespace

const char* RequestKind(const net::Request& req) {
  switch (req.cmd) {
    case net::Command::kQuery:
      return (req.flags & net::kQuerySynchronized) != 0 ? "request.query.sync"
                                                         : "request.query.unsync";
    case net::Command::kInsert:
      return "request.insert";
    case net::Command::kSynchronize:
      return "request.synchronize";
    default:
      return "request.other";
  }
}

void ProfileTotals::Merge(const ProfileTotals& o) {
  queries += o.queries;
  fan_out += o.fan_out;
  rows_scanned += o.rows_scanned;
  result_facts += o.result_facts;
  response_bytes += o.response_bytes;
}

net::Response Replayer::Execute(const net::Request& req, RequestTrace* trace,
                                ProfileTotals* totals) {
  std::string wire;
  {
    SpanScope span(trace, "net.client_encode");
    net::AppendFrame(&wire, net::EncodeRequest(req));
  }
  std::string payload, error;
  size_t consumed = 0;
  Result<net::Request> decoded = Status::Internal("no frame");
  {
    SpanScope span(trace, "net.server_decode");
    if (net::ExtractFrame(wire, &payload, &consumed, &error) ==
        net::FrameParse::kFrame) {
      decoded = net::DecodeRequest(payload);
    }
  }
  if (!decoded.ok()) return FromStatus(decoded.status());
  net::Response resp;
  switch (decoded.value().cmd) {
    case net::Command::kQuery:
      resp = Query(decoded.value(), trace, totals);
      break;
    case net::Command::kInsert:
      resp = Insert(decoded.value(), trace);
      break;
    case net::Command::kSynchronize:
      resp = Synchronize(decoded.value(), trace);
      break;
    default:
      resp = FromStatus(Status::InvalidArgument("not replayed"));
  }
  wire.clear();
  {
    SpanScope span(trace, "net.server_encode");
    net::AppendFrame(&wire, net::EncodeResponse(resp));
  }
  Result<net::Response> received = Status::Internal("no frame");
  {
    SpanScope span(trace, "net.client_decode");
    if (net::ExtractFrame(wire, &payload, &consumed, &error) ==
        net::FrameParse::kFrame) {
      received = net::DecodeResponse(payload);
    }
  }
  if (!received.ok()) return FromStatus(received.status());
  return received.take();
}

net::Response Replayer::Query(const net::Request& req, RequestTrace* trace,
                              ProfileTotals* totals) {
  std::shared_ptr<PredExpr> pred;
  std::vector<CategoryId> gran;
  {
    SpanScope span(trace, "spec.parse");
    if (!req.a.empty()) {
      auto p = ParsePredicate(mgr_->context(), req.a);
      if (!p.ok()) return FromStatus(p.status());
      pred = p.take();
    }
    if (!req.b.empty()) {
      auto g = ParseGranularityList(mgr_->context(), req.b);
      if (!g.ok()) return FromStatus(g.status());
      gran = g.take();
    }
  }
  obs::OpProfile profile;
  std::optional<Result<MultidimensionalObject>> result;
  {
    SpanScope span(trace, "subcube.query");
    result.emplace(mgr_->Query(pred.get(), req.b.empty() ? nullptr : &gran,
                               req.now_day,
                               (req.flags & net::kQuerySynchronized) != 0,
                               (req.flags & net::kQueryParallel) != 0,
                               /*pinned_epoch=*/nullptr,
                               trace != nullptr ? &profile : nullptr));
    if (trace != nullptr) AddQueryStages(trace, span.index(), profile);
  }
  if (!result->ok()) return FromStatus(result->status());
  net::Response resp;
  {
    SpanScope span(trace, "net.render");
    resp.body = net::RenderResult(result->value());
  }
  if (totals != nullptr) {
    ++totals->queries;
    totals->fan_out += profile.fan_out;
    totals->rows_scanned += profile.rows_scanned;
    totals->result_facts += profile.result_facts;
    totals->response_bytes += static_cast<int64_t>(resp.body.size());
  }
  return resp;
}

net::Response Replayer::Insert(const net::Request& req, RequestTrace* trace) {
  std::lock_guard<std::mutex> writer(write_mu_);
  const MultidimensionalObject& ctx = mgr_->context();
  MultidimensionalObject batch(ctx.fact_type(), ctx.dimensions(),
                               ctx.measure_types());
  {
    // As in Server::DoInsert: CSV decoding interns time values into the
    // shared dimensions, so it runs under the exclusive snapshot lock.
    SpanScope span(trace, "io.csv_decode");
    std::unique_lock<std::shared_mutex> lock(
        mgr_->warehouse_cache().snapshot_mutex());
    Status st = ReadFactCsv(&batch, req.a);
    if (!st.ok()) return FromStatus(st);
  }
  {
    SpanScope span(trace, "subcube.insert");
    Status st = mgr_->InsertBottomFacts(batch);
    if (!st.ok()) return FromStatus(st);
  }
  net::Response resp;
  resp.body = "inserted " + std::to_string(batch.num_facts()) +
              " facts epoch=" + std::to_string(mgr_->epoch());
  return resp;
}

net::Response Replayer::Synchronize(const net::Request& req,
                                    RequestTrace* trace) {
  std::lock_guard<std::mutex> writer(write_mu_);
  obs::OpProfile profile;
  std::optional<Result<size_t>> migrated;
  {
    SpanScope span(trace, "subcube.sync");
    migrated.emplace(
        mgr_->Synchronize(req.now_day, trace != nullptr ? &profile : nullptr));
    if (trace != nullptr) {
      static const char* const kStages[3][2] = {
          {"plan", "subcube.sync.plan"},
          {"apply", "subcube.sync.apply"},
          {"compact", "subcube.sync.compact"}};
      int64_t t = trace->spans()[static_cast<size_t>(span.index())].start_ns;
      for (const auto& stage : kStages) {
        const int64_t ns = StageNs(profile, stage[0]);
        trace->Add(span.index(), stage[1], t, ns);
        t += ns;
      }
    }
  }
  if (!migrated->ok()) return FromStatus(migrated->status());
  net::Response resp;
  resp.body = "synchronized: " + std::to_string(migrated->value()) +
              " rows migrated epoch=" + std::to_string(mgr_->epoch());
  return resp;
}

}  // namespace dwred::e2e
