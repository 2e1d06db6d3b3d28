// Request spans, self-time folding, and the JSON-lines span dump.

#include <cstdio>
#include <filesystem>

#include "e2e.h"
#include "obs/metrics.h"  // JsonEscape

namespace dwred::e2e {

void RequestTrace::Begin(const char* root) {
  spans_.clear();
  open_.clear();
  spans_.push_back({root, -1, NowNs(), 0});
  open_.push_back(0);
}

int RequestTrace::Open(const char* name) {
  const int index = static_cast<int>(spans_.size());
  spans_.push_back({name, open_.back(), NowNs(), 0});
  open_.push_back(index);
  return index;
}

void RequestTrace::Close(int span) {
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
  open_.pop_back();
}

int RequestTrace::Add(int parent, const char* name, int64_t start_ns,
                      int64_t dur_ns) {
  spans_.push_back({name, parent, start_ns, start_ns + dur_ns});
  return static_cast<int>(spans_.size()) - 1;
}

void RequestTrace::End() {
  spans_[0].end_ns = NowNs();
  open_.clear();
}

namespace {

/// The entry for `key`, created on first use; a lookup by name allocates
/// nothing once the entry exists.
template <typename Map>
typename Map::mapped_type& Slot(Map& map, std::string_view key) {
  auto it = map.find(key);
  if (it == map.end()) it = map.emplace(std::string(key), typename Map::mapped_type{}).first;
  return it->second;
}

}  // namespace

void TraceCollector::Fold(const RequestTrace& trace) {
  const auto& spans = trace.spans();
  std::vector<int64_t> covered(spans.size(), 0);
  for (size_t i = 1; i < spans.size(); ++i) {
    const RequestTrace::Span& s = spans[i];
    const RequestTrace::Span& p = spans[static_cast<size_t>(s.parent)];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns || s.end_ns < s.start_ns) {
      ++nesting_errors_;
    }
    covered[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  RootTotals& root = Slot(roots_, spans[0].name);
  ++root.requests;
  root.wall_ns += spans[0].end_ns - spans[0].start_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t dur = spans[i].end_ns - spans[i].start_ns;
    int64_t self = dur - covered[i];
    if (self < 0) {
      ++nesting_errors_;
      self = 0;
    }
    if (i == 0) {
      root.unattributed_ns += self;
      continue;
    }
    LayerTotals& layer = Slot(root.layers, spans[i].name);
    layer.self_ns += self;
    layer.dur_ns += dur;
  }
}

void TraceCollector::Merge(const TraceCollector& other) {
  for (const auto& [name, o] : other.roots_) {
    RootTotals& root = Slot(roots_, name);
    root.requests += o.requests;
    root.wall_ns += o.wall_ns;
    root.unattributed_ns += o.unattributed_ns;
    for (const auto& [layer_name, l] : o.layers) {
      LayerTotals& layer = Slot(root.layers, layer_name);
      layer.self_ns += l.self_ns;
      layer.dur_ns += l.dur_ns;
    }
  }
  nesting_errors_ += other.nesting_errors_;
}

void SetAttributionMetrics(const TraceCollector& traces, RunResult* out) {
  int64_t requests = 0, wall = 0, unattributed = 0, self = 0;
  for (const auto& [name, root] : traces.roots()) {
    requests += root.requests;
    wall += root.wall_ns;
    unattributed += root.unattributed_ns;
    for (const auto& [layer, totals] : root.layers) self += totals.self_ns;
  }
  const double n = requests == 0 ? 1 : static_cast<double>(requests);
  out->Set("unattributed_us", static_cast<double>(unattributed) / n / 1e3);
  out->Set("trace.self_us", static_cast<double>(self) / n / 1e3);
  out->Set("trace.wall_us", static_cast<double>(wall) / n / 1e3);
  out->Check(requests > 0 && traces.nesting_errors() == 0 &&
                 self + unattributed == wall,
             std::to_string(requests) +
                 " traced requests: layer self times + unattributed == wall (" +
                 std::to_string(traces.nesting_errors()) + " nesting errors)");
}

void TraceDump::Offer(const RequestTrace& trace) {
  if (full_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (traces_ >= cap_) return;
  if (++traces_ == cap_) full_.store(true, std::memory_order_relaxed);
  const auto& spans = trace.spans();
  const uint64_t first = next_id_;
  next_id_ += spans.size();
  char line[512];
  for (size_t i = 0; i < spans.size(); ++i) {
    const RequestTrace::Span& s = spans[i];
    const int64_t dur = s.end_ns - s.start_ns;
    const uint64_t parent =
        s.parent < 0 ? 0 : first + static_cast<uint64_t>(s.parent);
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"trace\":%llu,\"span\":%llu,"
                  "\"parent\":%llu,\"start_us\":%lld,\"dur_us\":%lld,"
                  "\"dur_ns\":%lld}\n",
                  obs::JsonEscape(s.name).c_str(),
                  static_cast<unsigned long long>(first),
                  static_cast<unsigned long long>(first + i),
                  static_cast<unsigned long long>(parent),
                  static_cast<long long>((s.start_ns - origin_ns_) / 1000),
                  static_cast<long long>(dur / 1000),
                  static_cast<long long>(dur));
    lines_ += line;
  }
}

void TraceDump::Save(const Options& opt, RunResult* out) const {
  std::error_code ec;
  std::filesystem::create_directories(opt.trace_out, ec);
  const std::string path = opt.trace_out + "/" + opt.workload + ".trace.jsonl";
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr &&
            std::fwrite(lines_.data(), 1, lines_.size(), f) == lines_.size();
  if (f != nullptr) ok = std::fclose(f) == 0 && ok;
  out->Check(ok, "trace dump written to " + path);
}

}  // namespace dwred::e2e
