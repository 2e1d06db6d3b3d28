// B14 — sustained query throughput through dwredd's serving core
// (docs/SERVER.md): an in-process net::Server on an ephemeral loopback port,
// driven by real client connections issuing pipelined kQuery commands, so
// every request pays the full wire cost — framing, CRC, socket round trip,
// session dispatch, OpContext setup — on top of the embedded query path.
//
// Expected shape: the warm-cache path clears the 50k req/s acceptance bar at
// 8 connections (the engine side is a cache hit that hands back the cached
// answer's rendered body — no result copy, no render). Its answer is small
// (about 800 B); the wide warm row asks dashboard's widest shape, one domain
// group's last six months by month and domain (about 16 KB), so the
// per-byte costs — the frame CRC on both sides, the body copies — dominate
// it. The differential anchor:
// `wire_crc` (the snapshot CRC reported over the wire) equals `embedded_crc`
// (net::WarehouseCrc computed in-process) for every row, the {1, 8} threads
// x cache on/off sweep included — serving never changes bytes, only cost.
// Recorded in the JSON sidecar (DWRED_BENCH_SIDECAR) as
// bench/results/server_qps_sweep.json.

#include "bench_common.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "exec/thread_pool.h"
#include "net/client.h"
#include "net/server.h"
#include "subcube/manager.h"

namespace dwred::bench {
namespace {

struct Warehouse {
  std::shared_ptr<Dimension> time_dim, url_dim;
  std::unique_ptr<SubcubeManager> mgr;
  int64_t t;
};

Warehouse MakeWarehouse(size_t per_month) {
  Warehouse wh;
  ClickstreamWorkload w = MakeWorkload(0);
  wh.time_dim = w.time_dim;
  wh.url_dim = w.url_dim;
  ReductionSpecification spec = TakeOrAbort(MakePolicy(*w.mo, 3));
  wh.mgr = std::make_unique<SubcubeManager>(
      SubcubeManager::Create("Click", w.mo->dimensions(),
                             std::vector<MeasureType>(w.mo->measure_types()),
                             spec)
          .take());
  uint64_t seed = 23;
  for (int m = 0; m < 30; ++m) {
    int year = 2000 + m / 12, month = m % 12 + 1;
    int64_t lo = DaysFromCivil({year, month, 1});
    int64_t hi = DaysFromCivil({year, month, DaysInMonth(year, month)});
    MultidimensionalObject batch =
        MakeClickBatch(w.time_dim, w.url_dim, lo, hi, per_month, ++seed);
    (void)wh.mgr->InsertBottomFacts(batch);
    (void)wh.mgr->Synchronize(hi + 1);
  }
  wh.t = DaysFromCivil({2002, 7, 1});
  (void)wh.mgr->Synchronize(wh.t);
  return wh;
}

/// The query's answer shape: .com's last two years by month and domain
/// group, or the wide one, its last six months by month and domain.
enum class Shape { kNarrow, kWide };

net::Request QueryRequest(const Warehouse& wh, bool parallel, Shape shape) {
  net::Request req;
  req.cmd = net::Command::kQuery;
  req.now_day = wh.t;
  if (shape == Shape::kWide) {
    req.a = "URL.domain_grp = .com AND NOW - 6 months <= Time.month";
    req.b = "Time.month, URL.domain";
  } else {
    req.a = "URL.domain_grp = .com AND NOW - 24 months <= Time.month";
    req.b = "Time.month, URL.domain_grp";
  }
  req.flags = static_cast<uint8_t>(
      net::kQuerySynchronized | (parallel ? net::kQueryParallel : 0));
  return req;
}

/// Drives `requests` pipelined queries over one connection; any transport
/// failure or non-OK response bumps `errors`.
void DriveConnection(net::Client* client, const net::Request& req,
                     size_t requests, size_t pipeline,
                     std::atomic<size_t>* errors) {
  std::vector<net::Request> window(pipeline, req);
  size_t sent = 0;
  while (sent < requests) {
    size_t n = std::min(pipeline, requests - sent);
    if (!client->SendPipelined(window.data(), n).ok()) {
      errors->fetch_add(requests - sent);
      return;
    }
    for (size_t i = 0; i < n; ++i) {
      auto resp = client->Recv();
      if (!resp.ok() || resp.value().code != StatusCode::kOk) {
        errors->fetch_add(1);
      }
    }
    sent += n;
  }
}

void RunServerQps(benchmark::State& state, int connections, int threads,
                  bool cache_enabled, Shape shape = Shape::kNarrow) {
  if (cache_enabled) {
    ::unsetenv("DWRED_CACHE_DISABLED");
  } else {
    ::setenv("DWRED_CACHE_DISABLED", "1", 1);
  }
  Warehouse wh = MakeWarehouse(static_cast<size_t>(state.range(0)));
  exec::ThreadPool::ResetGlobal(threads);
  const bool parallel = threads > 1;

  net::ServerConfig config;
  config.max_connections = connections + 4;
  net::Server server(config, wh.mgr.get());
  if (!server.Start().ok()) {
    state.SkipWithError("server failed to start");
    return;
  }
  std::vector<net::Client> clients;
  for (int c = 0; c < connections; ++c) {
    auto conn = net::Client::Connect("127.0.0.1", server.port());
    if (!conn.ok()) {
      state.SkipWithError(conn.status().ToString().c_str());
      server.Stop();
      return;
    }
    clients.push_back(conn.take());
  }
  const net::Request req = QueryRequest(wh, parallel, shape);
  constexpr size_t kPipeline = 32;
  // Requests per connection per iteration: enough on the warm path to
  // amortize the 8 driver-thread spawns; the cache-off path re-runs the full
  // evaluation per request (~ms each), so a smaller burst keeps it bounded.
  const size_t kPerConnection = cache_enabled ? 1024 : 64;

  // Warm the cache (and the connections) outside the timed region.
  std::atomic<size_t> errors{0};
  DriveConnection(&clients[0], req, kPipeline, kPipeline, &errors);
  size_t response_bytes = 0;
  if (auto resp = clients[0].Call(req); resp.ok()) {
    response_bytes = resp.value().body.size();
  }

  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> drivers;
    drivers.reserve(clients.size());
    for (auto& client : clients) {
      drivers.emplace_back(DriveConnection, &client, req, kPerConnection,
                           kPipeline, &errors);
    }
    for (auto& d : drivers) d.join();
    auto elapsed = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start);
    state.SetIterationTime(elapsed.count());
  }
  if (errors.load() != 0) {
    state.SkipWithError("requests failed over the wire");
  }

  // Differential anchor: the CRC the server reports over the wire must match
  // the one computed in-process against the same manager.
  uint32_t wire_crc = 0;
  {
    net::Request crc_req;
    crc_req.cmd = net::Command::kSnapshotCrc;
    auto resp = clients[0].Call(crc_req);
    if (resp.ok() && resp.value().code == StatusCode::kOk) {
      wire_crc = static_cast<uint32_t>(
          std::strtoul(resp.value().body.c_str() + 4, nullptr, 10));
    }
  }
  state.counters["wire_crc"] = static_cast<double>(wire_crc);
  state.counters["embedded_crc"] =
      static_cast<double>(net::WarehouseCrc(*wh.mgr));
  state.counters["connections"] = connections;
  state.counters["pipeline"] = static_cast<double>(kPipeline);
  state.counters["threads"] = threads;
  state.counters["cache"] = cache_enabled ? 1 : 0;
  state.counters["response_bytes"] = static_cast<double>(response_bytes);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kPerConnection) * connections);
  for (auto& client : clients) client.Close();
  server.Stop();
  exec::ThreadPool::ResetGlobal(0);
  ::unsetenv("DWRED_CACHE_DISABLED");
}

// The acceptance row: 8 connections, warm cache, serial pool.
void BM_ServerQpsWarmCache(benchmark::State& state) {
  RunServerQps(state, /*connections=*/8, /*threads=*/1,
               /*cache_enabled=*/true);
}
BENCHMARK(BM_ServerQpsWarmCache)
    ->Arg(10000)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// The same row with dashboard's widest answer.
void BM_ServerQpsWarmCacheWide(benchmark::State& state) {
  RunServerQps(state, /*connections=*/8, /*threads=*/1,
               /*cache_enabled=*/true, Shape::kWide);
}
BENCHMARK(BM_ServerQpsWarmCacheWide)
    ->Arg(10000)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// The CRC-identity sweep: threads {1, 8} x cache on/off, 8 connections.
void BM_ServerQpsSweep(benchmark::State& state) {
  RunServerQps(state, /*connections=*/8,
               static_cast<int>(state.range(1)), state.range(2) != 0);
}
BENCHMARK(BM_ServerQpsSweep)
    ->ArgsProduct({{10000}, {1, 8}, {0, 1}})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dwred::bench
