#include "cache/cache.h"

#include <cstdlib>
#include <utility>

#include "obs/metrics.h"

namespace dwred::cache {

namespace {

struct CacheMetrics {
  obs::Counter& query_hits;
  obs::Counter& query_misses;
  obs::Counter& scanspec_hits;
  obs::Counter& scanspec_misses;
  obs::Counter& evictions;
  obs::Counter& invalidations;
  obs::Gauge& bytes;
  obs::Gauge& entries;

  static CacheMetrics& Get() {
    auto& r = obs::MetricsRegistry::Global();
    static CacheMetrics m{
        r.GetCounter("dwred_cache_query_hits",
                     "query results served from the epoch-versioned cache"),
        r.GetCounter("dwred_cache_query_misses",
                     "query-result cache lookups that fell through"),
        r.GetCounter("dwred_cache_scanspec_hits",
                     "compiled ScanSpecs served from the cache"),
        r.GetCounter("dwred_cache_scanspec_misses",
                     "ScanSpec cache lookups that fell through"),
        r.GetCounter("dwred_cache_evictions",
                     "cache entries dropped past the LRU entry/byte budgets"),
        r.GetCounter("dwred_cache_invalidations",
                     "cache entries dropped by an epoch bump"),
        r.GetGauge("dwred_cache_bytes",
                   "approximate bytes held by warehouse caches"),
        r.GetGauge("dwred_cache_entries",
                   "entries held by warehouse caches"),
    };
    return m;
  }
};

void AppendGranularity(const std::vector<CategoryId>* target,
                       std::string* out) {
  if (!target) {
    *out += "<none>";
    return;
  }
  for (size_t d = 0; d < target->size(); ++d) {
    if (d) *out += ",";
    *out += std::to_string((*target)[d]);
  }
}

}  // namespace

std::string RenderResult(const MultidimensionalObject& mo) {
  std::string out = std::to_string(mo.num_facts()) + " cells\n";
  for (FactId f = 0; f < mo.num_facts(); ++f) {
    out += mo.FormatFact(f);
    out += '\n';
  }
  return out;
}

bool Enabled() {
  const char* env = std::getenv("DWRED_CACHE_DISABLED");
  return env == nullptr || *env == '\0';
}

std::string QueryFingerprint(const MultidimensionalObject& ctx,
                             const PredExpr* pred,
                             const std::vector<CategoryId>* target,
                             int64_t now_day, bool assume_synchronized,
                             uint64_t epoch) {
  std::string key = "q|e=" + std::to_string(epoch) +
                    "|now=" + std::to_string(now_day) +
                    "|sync=" + (assume_synchronized ? "1" : "0") + "|t=";
  AppendGranularity(target, &key);
  key += "|p=";
  key += pred ? pred->ToString(ctx) : "<all>";
  return key;
}

std::string ScanSpecFingerprint(const MultidimensionalObject& ctx,
                                const PredExpr& pred, int64_t now_day,
                                uint64_t epoch) {
  return "s|e=" + std::to_string(epoch) + "|now=" + std::to_string(now_day) +
         "|p=" + pred.ToString(ctx);
}

std::string ProgramFingerprint(const MultidimensionalObject& ctx,
                               const PredExpr& pred, int64_t now_day,
                               uint64_t epoch, const char* approach) {
  return std::string("v|a=") + approach + "|e=" + std::to_string(epoch) +
         "|now=" + std::to_string(now_day) + "|p=" + pred.ToString(ctx);
}

std::string RollupFingerprint(const std::vector<CategoryId>& target,
                              uint64_t epoch) {
  std::string key = "r|e=" + std::to_string(epoch) + "|g=";
  AppendGranularity(&target, &key);
  return key;
}

WarehouseCache::WarehouseCache(size_t max_entries, size_t max_bytes)
    : max_entries_(max_entries), max_bytes_(max_bytes) {}

WarehouseCache::~WarehouseCache() {
  // Return this instance's footprint to the process-wide gauges.
  Clear();
}

template <typename V>
std::shared_ptr<const V> WarehouseCache::Lookup(Lru<V>& lru,
                                                const std::string& key) const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = lru.index.find(key);
  if (it == lru.index.end()) return nullptr;
  lru.order.splice(lru.order.begin(), lru.order, it->second);
  return it->second->value;
}

template <typename V>
size_t WarehouseCache::EvictOver(Lru<V>& lru, size_t max_entries,
                                 size_t max_bytes) {
  size_t dropped = 0;
  while (!lru.order.empty() &&
         (lru.index.size() > max_entries || lru.bytes > max_bytes)) {
    const auto& cold = lru.order.back();
    lru.bytes -= cold.bytes;
    CacheMetrics::Get().bytes.Add(-static_cast<int64_t>(cold.bytes));
    lru.index.erase(cold.key);
    lru.order.pop_back();
    ++dropped;
  }
  return dropped;
}

template <typename V>
void WarehouseCache::Insert(Lru<V>& lru, const std::string& key,
                            std::shared_ptr<const V> value,
                            size_t value_bytes) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  size_t entry_bytes = key.size() + value_bytes + sizeof(typename Lru<V>::Node);
  auto it = lru.index.find(key);
  if (it != lru.index.end()) {
    // Same key, same epoch: the value is byte-identical by the determinism
    // contract — just refresh recency.
    lru.order.splice(lru.order.begin(), lru.order, it->second);
    return;
  }
  lru.order.push_front(
      typename Lru<V>::Node{key, std::move(value), entry_bytes});
  lru.index.emplace(key, lru.order.begin());
  lru.bytes += entry_bytes;
  CacheMetrics::Get().bytes.Add(static_cast<int64_t>(entry_bytes));
  CacheMetrics::Get().entries.Add(1);
  size_t evicted = EvictOver(lru, max_entries_, max_bytes_);
  if (evicted > 0) {
    CacheMetrics::Get().evictions.Increment(evicted);
    CacheMetrics::Get().entries.Add(-static_cast<int64_t>(evicted));
  }
}

template <typename V>
size_t WarehouseCache::DropAll(Lru<V>& lru) {
  size_t dropped = lru.index.size();
  CacheMetrics::Get().bytes.Add(-static_cast<int64_t>(lru.bytes));
  CacheMetrics::Get().entries.Add(-static_cast<int64_t>(dropped));
  lru.order.clear();
  lru.index.clear();
  lru.bytes = 0;
  return dropped;
}

uint64_t WarehouseCache::BumpEpoch() {
  uint64_t next = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  std::lock_guard<std::mutex> lock(cache_mu_);
  size_t dropped = DropAll(query_) + DropAll(scanspec_) + DropAll(program_) +
                   DropAll(rollup_);
  if (dropped > 0) CacheMetrics::Get().invalidations.Increment(dropped);
  return next;
}

std::shared_ptr<const QueryAnswer> WarehouseCache::LookupQuery(
    const std::string& key) const {
  if (!Enabled()) return nullptr;
  auto hit = Lookup(query_, key);
  if (hit) {
    CacheMetrics::Get().query_hits.Increment();
  } else {
    CacheMetrics::Get().query_misses.Increment();
  }
  return hit;
}

void WarehouseCache::InsertQuery(const std::string& key,
                                 std::shared_ptr<const QueryAnswer> answer) {
  if (!Enabled() || !answer) return;
  // Capacity-based: the budget must count what the allocator holds, not the
  // logical fact payload (see MultidimensionalObject::ApproxBytes).
  size_t bytes = answer->result.ApproxBytes() + answer->body.capacity();
  Insert(query_, key, std::move(answer), bytes);
}

std::shared_ptr<const scan::ScanSpec> WarehouseCache::LookupScanSpec(
    const std::string& key) const {
  if (!Enabled()) return nullptr;
  auto hit = Lookup(scanspec_, key);
  if (hit) {
    CacheMetrics::Get().scanspec_hits.Increment();
  } else {
    CacheMetrics::Get().scanspec_misses.Increment();
  }
  return hit;
}

void WarehouseCache::InsertScanSpec(const std::string& key,
                                    scan::ScanSpec spec) {
  if (!Enabled()) return;
  size_t bytes = spec.ApproxBytes();
  Insert(scanspec_, key,
         std::make_shared<const scan::ScanSpec>(std::move(spec)), bytes);
}

std::shared_ptr<const vm::PredProgram> WarehouseCache::LookupProgram(
    const std::string& key) const {
  if (!Enabled()) return nullptr;
  auto hit = Lookup(program_, key);
  if (hit) vm::CountCacheHit();
  return hit;
}

std::shared_ptr<const vm::PredProgram> WarehouseCache::InsertProgram(
    const std::string& key, std::shared_ptr<const vm::PredProgram> prog) {
  if (Enabled() && prog != nullptr) {
    Insert(program_, key, prog, prog->ApproxBytes());
  }
  return prog;
}

std::shared_ptr<const vm::RollupProgram> WarehouseCache::LookupRollup(
    const std::string& key) const {
  if (!Enabled()) return nullptr;
  auto hit = Lookup(rollup_, key);
  if (hit) vm::CountCacheHit();
  return hit;
}

std::shared_ptr<const vm::RollupProgram> WarehouseCache::InsertRollup(
    const std::string& key, std::shared_ptr<const vm::RollupProgram> prog) {
  if (Enabled() && prog != nullptr) {
    Insert(rollup_, key, prog, prog->ApproxBytes());
  }
  return prog;
}

WarehouseCache::Stats WarehouseCache::GetStats() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  Stats s;
  s.epoch = epoch();
  s.query_entries = query_.index.size();
  s.scanspec_entries = scanspec_.index.size();
  s.program_entries = program_.index.size() + rollup_.index.size();
  s.bytes = query_.bytes + scanspec_.bytes + program_.bytes + rollup_.bytes;
  s.program_bytes = program_.bytes + rollup_.bytes;
  s.max_entries = max_entries_;
  s.max_bytes = max_bytes_;
  return s;
}

void WarehouseCache::Clear() {
  std::lock_guard<std::mutex> lock(cache_mu_);
  DropAll(query_);
  DropAll(scanspec_);
  DropAll(program_);
  DropAll(rollup_);
}

}  // namespace dwred::cache
