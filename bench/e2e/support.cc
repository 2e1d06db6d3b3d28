// Run conditions, results, latency percentiles and metrics-JSON parsing.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "e2e.h"
#include "obs/metrics.h"

namespace dwred::e2e {

Conditions ConditionsFor(bool smoke) {
  Conditions c;
  if (smoke) {
    c.clicks_per_month = 1000;
    c.ingest_period_s = 2.0 / 6;
    c.warmup_s = 0.2;
  }
  return c;
}

void RunResult::Fail(const std::string& what, uint64_t count) {
  failed += count;
  if (failures.size() < 20) failures.push_back(what);
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

void RunResult::Check(bool ok, const std::string& what) {
  if (!ok) {
    Fail(what);
    return;
  }
  std::fprintf(stderr, "check ok: %s\n", what.c_str());
}

void Latencies::Append(const Latencies& other) {
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
}

double Latencies::PercentileUs(double q) const {
  if (samples_.empty()) return 0;
  std::vector<int64_t> v = samples_;
  // Nearest rank: the smallest sample with at least q of the samples at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank), v.end());
  return static_cast<double>(v[rank]) / 1e3;
}

double Latencies::MeanUs() const {
  if (samples_.empty()) return 0;
  long double sum = 0;
  for (int64_t ns : samples_) sum += ns;
  return static_cast<double>(sum / static_cast<long double>(samples_.size())) / 1e3;
}

void LogLatencies(const std::string& what, const Latencies& lat) {
  std::fprintf(stderr, "%s: %zu; latency us", what.c_str(), lat.size());
  for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    std::fprintf(stderr, " p%g=%.1f", q * 100, lat.PercentileUs(q));
  }
  std::fprintf(stderr, " mean=%.1f\n", lat.MeanUs());
}

void WaitUntil(int64_t due_ns) {
  // Sleep to just short of the deadline, then spin: a plain sleep wakes
  // tens of microseconds late, which an open loop would count as latency.
  constexpr int64_t kSpinNs = 30000;
  const int64_t left = due_ns - NowNs();
  if (left > kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(left - kSpinNs));
  }
  while (NowNs() < due_ns) {
  }
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

namespace {

/// Reader for the flat JSON the metrics registry renders.
class JsonReader {
 public:
  explicit JsonReader(std::string_view s) : s_(s) {}

  bool Peek(char c) {
    SkipSpace();
    return pos_ < s_.size() && s_[pos_] == c;
  }
  bool Consume(char c) {
    if (!Peek(c)) return false;
    ++pos_;
    return true;
  }
  bool String(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\' && pos_ + 1 < s_.size()) ++pos_;
      out->push_back(s_[pos_++]);
    }
    return Consume('"');
  }
  bool Number(double* out) {
    SkipSpace();
    size_t end = pos_;
    while (end < s_.size() && std::string_view("+-.0123456789eE").find(s_[end]) !=
                                  std::string_view::npos) {
      ++end;
    }
    if (end == pos_) return false;
    std::string token(s_.substr(pos_, end - pos_));
    char* stop = nullptr;
    *out = std::strtod(token.c_str(), &stop);
    pos_ = end;
    return stop != nullptr && *stop == '\0';
  }
  /// Skips an array of numbers (a histogram's bounds or bucket counts).
  bool SkipArray() {
    if (!Consume('[')) return false;
    while (pos_ < s_.size() && s_[pos_] != ']') ++pos_;
    return Consume(']');
  }

 private:
  void SkipSpace() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view s_;
  size_t pos_ = 0;
};

}  // namespace

MetricValues ParseMetricsJson(std::string_view json) {
  MetricValues out;
  JsonReader r(json);
  if (!r.Consume('{')) return out;
  std::string section, name, key;
  while (r.String(&section) && r.Consume(':')) {
    if (!r.Consume('{')) return out;
    while (r.String(&name) && r.Consume(':')) {
      double v = 0;
      if (r.Consume('{')) {
        // Histogram object: keep the numeric members (sum, count).
        while (r.String(&key) && r.Consume(':')) {
          if (r.Peek('[')) {
            if (!r.SkipArray()) return out;
          } else if (r.Number(&v)) {
            out[name + "_" + key] = v;
          } else {
            return out;
          }
          r.Consume(',');
        }
        if (!r.Consume('}')) return out;
      } else if (r.Number(&v)) {
        out[name] = v;
      } else {
        return out;
      }
      r.Consume(',');
    }
    if (!r.Consume('}')) return out;
    r.Consume(',');
  }
  return out;
}

MetricValues LocalMetrics() {
  return ParseMetricsJson(obs::MetricsRegistry::Global().RenderJson());
}

double Delta(const MetricValues& before, const MetricValues& after,
             const std::string& name) {
  auto a = after.find(name);
  if (a == after.end()) return 0;
  auto b = before.find(name);
  return a->second - (b == before.end() ? 0 : b->second);
}

}  // namespace dwred::e2e
