#pragma once

// The warehouse command layer (docs/SERVER.md): one grammar and one set of
// command bodies for `dwredctl`, `dwredctl --connect` and `dwredd`.
//
//   script line --ParseCommand--> Request --Execute--> Response
//
// dwredctl runs Execute in process, or sends the Request over the wire
// under --connect, where Server frames it and runs the same Execute. A
// shared command therefore answers with the same body bytes both ways.
// Lines the shared grammar does not own (warehouse construction, the
// Section 4–6 operators on a plain warehouse, storage and profiler views)
// stay with the local shell.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "cache/cache.h"
#include "common/status.h"
#include "net/protocol.h"
#include "subcube/manager.h"

namespace dwred {
class DurableWarehouse;
}  // namespace dwred

namespace dwred::net {

/// One script line as the grammar reads it.
struct ScriptLine {
  std::string word;  ///< the command word; empty for blank and '#' lines
  std::string rest;  ///< the arguments, trimmed
  /// Set for a shared command: what Execute runs and --connect sends.
  std::optional<Request> request;
};

/// The grammar's `<date>`: a day such as 2000/11/5, as its day index. Any
/// other granule is InvalidArgument("expected a day, e.g. 2000/11/5").
Result<int64_t> ParseDay(std::string_view text);

/// Parses one script line. Shared commands become requests; `load-facts`
/// and `subcube-load` read their CSV file here, and `apply <date>` carries
/// `staged_actions`, the caller's `action` lines. Any other word comes back
/// without a request, for the local shell to run or reject. Malformed
/// arguments of a shared command are errors.
Result<ScriptLine> ParseCommand(std::string_view line,
                                std::string_view staged_actions);

/// The warehouse Execute runs against: a manager (dwredd, or the local
/// shell after `subcube-init`), or an attached DurableWarehouse, whose
/// subcubes answer reads and whose journaled passes apply writes. With
/// neither, only ping, stats and shutdown answer.
struct CommandTarget {
  SubcubeManager* mgr = nullptr;
  DurableWarehouse* durable = nullptr;
};

/// Runs one request and returns the response the wire carries. Safe to call
/// from any number of threads against one manager: reads take the engine's
/// shared snapshot lock, and writers serialize on the manager's writer mutex
/// (SubcubeManager). An attached DurableWarehouse is single-threaded, like
/// the rest of its API. kShutdown is acknowledged here and acted on by the
/// server.
Response Execute(const Request& req, const CommandTarget& target);

/// CRC32 over a canonical serialization of every subcube's live rows (name,
/// granularity, coordinates, measures), taken under the shared snapshot lock.
/// The differential anchor for over-the-wire vs. embedded workloads: equal
/// CRCs mean byte-identical warehouses. A non-null `rows` receives the live
/// row count of the same snapshot.
uint32_t WarehouseCrc(const SubcubeManager& mgr, size_t* rows = nullptr);

/// Canonical rendering of a query result (cache::RenderResult, the body a
/// cached QueryAnswer holds). Shared by the wire path and embedded
/// differential tests so both render identical bytes.
using cache::RenderResult;

}  // namespace dwred::net
