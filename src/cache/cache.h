#pragma once

// Epoch-versioned caching with snapshot-isolated reads (docs/CACHING.md).
//
// The warehouse keeps one **epoch counter**, bumped by every mutating pass —
// fact appends, Synchronize, specification changes, recovery replay. Two LRU
// caches hang off it:
//
//   - the **query-result cache**: finished `SubcubeManager::Answer`s — each
//     an immutable QueryAnswer, the result and its rendered body — keyed by
//     a canonical fingerprint of the resolved query (predicate rendering,
//     target granularity, the resolved NOW day, the synchronized-assumption
//     flag) *plus the epoch*;
//   - the **ScanSpec cache**: compiled segment-pruning specs (whose
//     compilation enumerates every dimension value through the liberal atom
//     oracle — linear in dimension extent), keyed the same way.
//
// Because the epoch is part of every key, an entry written before a mutation
// can never be returned after it; BumpEpoch additionally drops all entries
// eagerly (counted as invalidations) so stale results do not squat in the
// byte budget. NOW is resolved into the key, so a NOW-relative predicate
// re-evaluated at a later day is a different key — a cache can never serve a
// stale window.
//
// Snapshot isolation: the cache owns the warehouse's reader/writer lock.
// Queries hold it shared for their whole evaluation — pinning the epoch and
// the sealed-segment manifest they read — while mutating passes hold it
// exclusively, so a query observes exactly one epoch's bytes (the PR-3
// determinism contract extends across concurrent writers: a query result
// equals the serial result at whichever epoch it pinned, cache on or off).
// Writers also serialize on the cache's writer mutex, which a synchronize
// holds from its shared-lock plan through its exclusive-lock apply.
//
// The whole layer is disabled by the DWRED_CACHE_DISABLED environment
// variable (re-read on every operation, so tests can flip it at runtime);
// disabling the cache never changes query bytes, only their cost.
//
// Observability: dwred_cache_query_{hits,misses} /
// dwred_cache_scanspec_{hits,misses} / dwred_cache_{evictions,invalidations}
// counters and the dwred_cache_{bytes,entries} gauges.

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mdm/mo.h"
#include "scan/scan.h"
#include "spec/predicate.h"
#include "vm/program.h"

namespace dwred::cache {

/// Canonical rendering of a query result: a cell-count line followed by one
/// FormatFact line per fact — the body a served query answers with. Reads
/// the dimensions' value names, so call it under the snapshot lock while
/// writers may run.
std::string RenderResult(const MultidimensionalObject& mo);

/// One query-result cache entry: a finished result and its rendered body,
/// both fixed at construction. Built once, on the miss, under the shared
/// snapshot lock; shared read-only from then on, so a hit neither copies
/// the result nor renders it again.
struct QueryAnswer {
  explicit QueryAnswer(MultidimensionalObject mo)
      : result(std::move(mo)), body(RenderResult(result)) {}

  const MultidimensionalObject result;
  const std::string body;  ///< RenderResult(result)
};

/// True unless the DWRED_CACHE_DISABLED environment variable is set to a
/// non-empty value. Re-read on every call.
bool Enabled();

/// Canonical fingerprint of a query against one warehouse snapshot: the
/// resolved predicate rendering (atom values and operators, canonical through
/// PredExpr::ToString), the target granularity ids, the resolved NOW day,
/// the synchronized-assumption flag, and the epoch. The `parallel` flag is
/// deliberately excluded: the determinism contract makes parallel and serial
/// evaluation byte-identical, so they share cache entries.
std::string QueryFingerprint(const MultidimensionalObject& ctx,
                             const PredExpr* pred,
                             const std::vector<CategoryId>* target,
                             int64_t now_day, bool assume_synchronized,
                             uint64_t epoch);

/// Fingerprint of a compiled segment-pruning ScanSpec: predicate rendering +
/// resolved NOW day + epoch (compilation depends on nothing else once the
/// dimension extents are fixed, and any extent change is an epoch bump).
std::string ScanSpecFingerprint(const MultidimensionalObject& ctx,
                                const PredExpr& pred, int64_t now_day,
                                uint64_t epoch);

/// Fingerprint of a compiled vm::PredProgram: predicate rendering + resolved
/// NOW day + epoch (the same keying contract as ScanSpecFingerprint — atom
/// weight tables depend only on the dimension extents, and any extent change
/// is an epoch bump) plus an `approach` tag, because the weighted/liberal/
/// conservative oracles fill the tables differently ("spec" for 0/1 spec
/// predicates).
std::string ProgramFingerprint(const MultidimensionalObject& ctx,
                               const PredExpr& pred, int64_t now_day,
                               uint64_t epoch, const char* approach);

/// Fingerprint of a compiled vm::RollupProgram: the target granularity ids +
/// epoch. NOW plays no part — rollup tables depend only on the hierarchy,
/// and any hierarchy change is an epoch bump.
std::string RollupFingerprint(const std::vector<CategoryId>& target,
                              uint64_t epoch);

/// One warehouse's epoch counter, snapshot lock, writer mutex, and LRU
/// caches. Heap-held by SubcubeManager (the manager must stay movable
/// through Result<SubcubeManager>; the locks and atomics must not move).
class WarehouseCache {
 public:
  static constexpr size_t kDefaultMaxEntries = 256;
  static constexpr size_t kDefaultMaxBytes = 64ull << 20;  // 64 MiB

  explicit WarehouseCache(size_t max_entries = kDefaultMaxEntries,
                          size_t max_bytes = kDefaultMaxBytes);
  ~WarehouseCache();

  WarehouseCache(const WarehouseCache&) = delete;
  WarehouseCache& operator=(const WarehouseCache&) = delete;

  /// The warehouse reader/writer lock: queries hold it shared for their whole
  /// evaluation (epoch-pinned snapshot), mutating passes exclusively.
  std::shared_mutex& snapshot_mutex() const { return mu_; }

  /// The warehouse writer mutex: every SubcubeManager writer holds it for
  /// its whole pass (a synchronize from its plan to its apply), so writers
  /// serialize among themselves while readers wait only on the snapshot
  /// lock's exclusive phases. Taken before the snapshot lock, never after;
  /// not recursive, so a holder must not call those writers.
  std::mutex& writer_mutex() const { return writer_mu_; }

  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Bumps the epoch and eagerly drops every cached entry (keyed by older
  /// epochs, hence unreachable; counted as invalidations). Returns the new
  /// epoch. Call with the snapshot lock held exclusively.
  uint64_t BumpEpoch();

  /// Query-result cache. Lookup refreshes LRU order and counts a hit or
  /// miss; Insert evicts from the cold end past either budget. Both are
  /// no-ops (miss) while the cache is disabled.
  ///
  /// Abort invariant (runtime/cancel.h): a query aborted by cancellation,
  /// deadline, or budget returns before InsertQuery, so an aborted query
  /// never inserts a partial result, never moves the hit counter (a hit
  /// returns before any poll can abort), and never changes entries or bytes.
  /// The entry poll site (cancel.query.begin) precedes LookupQuery, so an
  /// abort on entry moves no counter at all; an abort mid-evaluation counts
  /// exactly the one miss its lookup honestly performed.
  /// tests/cancel_matrix_test.cc asserts all of this differentially.
  ///
  /// Compiled vm::PredPrograms are the deliberate exception: a program is a
  /// complete artifact of (predicate, NOW, epoch, approach) alone — never of
  /// the operation's outcome — so programs compiled before an abort are
  /// retained (Stats.program_bytes reports their share). Retaining them only
  /// warms the retry; it can never change result bytes.
  ///
  /// An entry's bytes count both halves of the answer: the result's
  /// allocations and the rendered body.
  std::shared_ptr<const QueryAnswer> LookupQuery(const std::string& key) const;
  void InsertQuery(const std::string& key,
                   std::shared_ptr<const QueryAnswer> answer);

  /// Compiled-ScanSpec cache, same discipline.
  std::shared_ptr<const scan::ScanSpec> LookupScanSpec(
      const std::string& key) const;
  void InsertScanSpec(const std::string& key, scan::ScanSpec spec);

  /// Compiled vm::PredProgram cache, same discipline, but its hit counter is
  /// dwred_vm_cache_hits (the VM surface) rather than a cache counter.
  /// Insert returns the cached (or, while the cache is disabled, the passed)
  /// program so call sites always use one canonical shared program.
  std::shared_ptr<const vm::PredProgram> LookupProgram(
      const std::string& key) const;
  std::shared_ptr<const vm::PredProgram> InsertProgram(
      const std::string& key, std::shared_ptr<const vm::PredProgram> prog);

  /// Compiled vm::RollupProgram cache (aggregate formation's per-dimension
  /// rollup tables), same discipline and counters as the PredProgram cache.
  std::shared_ptr<const vm::RollupProgram> LookupRollup(
      const std::string& key) const;
  std::shared_ptr<const vm::RollupProgram> InsertRollup(
      const std::string& key, std::shared_ptr<const vm::RollupProgram> prog);

  struct Stats {
    uint64_t epoch = 0;
    size_t query_entries = 0;
    size_t scanspec_entries = 0;
    size_t program_entries = 0;  ///< PredPrograms + RollupPrograms
    size_t bytes = 0;            ///< all LRUs together
    size_t program_bytes = 0;    ///< the program LRUs' share of `bytes`
    size_t max_entries = 0;
    size_t max_bytes = 0;
  };
  Stats GetStats() const;

  /// Drops every entry without bumping the epoch (dwredctl `cache clear`).
  void Clear();

 private:
  template <typename V>
  struct Lru {
    struct Node {
      std::string key;
      std::shared_ptr<const V> value;
      size_t bytes = 0;
    };
    std::list<Node> order;  ///< front = most recently used
    std::unordered_map<std::string, typename std::list<Node>::iterator> index;
    size_t bytes = 0;
  };

  template <typename V>
  std::shared_ptr<const V> Lookup(Lru<V>& lru, const std::string& key) const;
  template <typename V>
  void Insert(Lru<V>& lru, const std::string& key,
              std::shared_ptr<const V> value, size_t value_bytes);
  /// Evicts cold entries until both budgets hold. Returns entries dropped.
  template <typename V>
  size_t EvictOver(Lru<V>& lru, size_t max_entries, size_t max_bytes);
  template <typename V>
  size_t DropAll(Lru<V>& lru);

  mutable std::shared_mutex mu_;  ///< snapshot lock (see snapshot_mutex)
  mutable std::mutex writer_mu_;  ///< see writer_mutex
  std::atomic<uint64_t> epoch_{0};

  mutable std::mutex cache_mu_;  ///< guards the LRU structures below
  mutable Lru<QueryAnswer> query_;
  mutable Lru<scan::ScanSpec> scanspec_;
  mutable Lru<vm::PredProgram> program_;
  mutable Lru<vm::RollupProgram> rollup_;
  size_t max_entries_;
  size_t max_bytes_;
};

}  // namespace dwred::cache
