#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace dwred::obs {

namespace {

/// Formats a double compactly and deterministically ("0.001", "2.5", "1e-06").
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

// Anchored at static init: dwred_uptime_seconds measures from roughly process
// start, not from whenever the registry was first touched.
const std::chrono::steady_clock::time_point g_process_start =
    std::chrono::steady_clock::now();

#ifndef DWRED_VERSION
#define DWRED_VERSION "unknown"
#endif
#ifndef DWRED_BUILD_TYPE
#define DWRED_BUILD_TYPE "unknown"
#endif

std::string BuildInfoLabels() {
  std::string labels = "version=\"" DWRED_VERSION "\"";
  labels += ",build_type=\"" DWRED_BUILD_TYPE "\"";
#if defined(__clang__)
  labels += ",compiler=\"clang\"";
#elif defined(__GNUC__)
  labels += ",compiler=\"gcc\"";
#else
  labels += ",compiler=\"unknown\"";
#endif
  return labels;
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    // Strictly increasing bounds are a registration-time programming error;
    // sort instead of aborting so a bad list degrades gracefully.
    if (bounds_[i] <= bounds_[i - 1]) {
      std::sort(bounds_.begin(), bounds_.end());
      bounds_.erase(std::unique(bounds_.begin(), bounds_.end()),
                    bounds_.end());
      break;
    }
  }
}

void Histogram::Record(double value) {
  // First bucket whose (inclusive) upper bound admits the sample.
  size_t i = std::lower_bound(bounds_.begin(), bounds_.end(), value) -
             bounds_.begin();
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + value,
                                     std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::CumulativeCount(size_t i) const {
  uint64_t total = 0;
  for (size_t b = 0; b <= i && b < buckets_.size(); ++b) {
    total += buckets_[b].load(std::memory_order_relaxed);
  }
  return total;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> DefaultLatencyBuckets() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0};
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  // Intentionally leaked: instrumented destructors (e.g. FactTable footprint
  // accounting) may run during static teardown, after a function-local
  // static registry would already be gone.
  static MetricsRegistry* g = new MetricsRegistry();
  // Second function-local static so the process-level gauges register exactly
  // once, strictly after `g` exists (Get* must not re-enter Global()).
  [[maybe_unused]] static const int process_metrics = [] {
    g->GetGauge("dwred_build_info",
                "constant 1; version/build labels in the text exposition")
        .Set(1);
    g->SetConstLabels("dwred_build_info", BuildInfoLabels());
    g->GetGauge("dwred_uptime_seconds",
                "seconds since process start (stamped at render time)");
    return 0;
  }();
  return *g;
}

void MetricsRegistry::SetConstLabels(const std::string& name,
                                     const std::string& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  labels_[name] = labels;
}

void MetricsRegistry::RefreshUptimeLocked() const {
  auto it = gauges_.find("dwred_uptime_seconds");
  if (it == gauges_.end()) return;
  it->second->Set(std::chrono::duration_cast<std::chrono::seconds>(
                      std::chrono::steady_clock::now() - g_process_start)
                      .count());
  // dwred_build_info is 1 by definition; re-assert it so the exposition stays
  // correct even after ResetAllForTest zeroed every gauge.
  auto bi = gauges_.find("dwred_build_info");
  if (bi != gauges_.end()) bi->second->Set(1);
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
    if (!help.empty()) help_[name] = help;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
    if (!help.empty()) help_[name] = help;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> upper_bounds,
                                         const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name,
                      std::make_unique<Histogram>(std::move(upper_bounds)))
             .first;
    if (!help.empty()) help_[name] = help;
  }
  return *it->second;
}

std::string MetricsRegistry::RenderText() const {
  std::lock_guard<std::mutex> lock(mu_);
  RefreshUptimeLocked();
  std::string out;
  auto header = [&](const std::string& name, const char* type) {
    auto h = help_.find(name);
    if (h != help_.end()) {
      out += "# HELP " + name + " " + h->second + "\n";
    }
    out += "# TYPE " + name + " " + type + "\n";
  };
  auto labeled = [&](const std::string& name) {
    auto l = labels_.find(name);
    return l == labels_.end() ? name : name + "{" + l->second + "}";
  };
  for (const auto& [name, c] : counters_) {
    header(name, "counter");
    out += labeled(name) + " " + std::to_string(c->Value()) + "\n";
  }
  for (const auto& [name, g] : gauges_) {
    header(name, "gauge");
    out += labeled(name) + " " + std::to_string(g->Value()) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    header(name, "histogram");
    for (size_t i = 0; i < h->num_bounds(); ++i) {
      out += name + "_bucket{le=\"" + FormatDouble(h->bounds()[i]) + "\"} " +
             std::to_string(h->CumulativeCount(i)) + "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(h->Count()) + "\n";
    out += name + "_sum " + FormatDouble(h->Sum()) + "\n";
    out += name + "_count " + std::to_string(h->Count()) + "\n";
  }
  return out;
}

std::string MetricsRegistry::RenderJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  RefreshUptimeLocked();
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + std::to_string(c->Value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + std::to_string(g->Value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":{\"bounds\":[";
    for (size_t i = 0; i < h->num_bounds(); ++i) {
      if (i) out += ",";
      out += FormatDouble(h->bounds()[i]);
    }
    out += "],\"counts\":[";
    for (size_t i = 0; i <= h->num_bounds(); ++i) {
      if (i) out += ",";
      out += std::to_string(h->BucketCount(i));
    }
    out += "],\"sum\":" + FormatDouble(h->Sum()) +
           ",\"count\":" + std::to_string(h->Count()) + "}";
  }
  out += "}}";
  return out;
}

void MetricsRegistry::ResetAllForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

}  // namespace dwred::obs
