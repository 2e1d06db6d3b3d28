#pragma once

// Structured tracing with causal context: RAII TraceSpan scopes measure wall
// time on the steady clock, record it into a latency histogram (when one is
// supplied), and — when the global TraceBuffer is enabled — emit one
// structured event per span into a fixed-capacity ring buffer.
//
// Every traced span carries three ids:
//
//   trace_id   — the request: equal for every span caused by one root span
//   span_id    — this span (unique per process while the buffer is enabled)
//   parent_id  — the span active when this span was opened (0 for a root)
//
// The active context is a thread-local (trace_id, span_id) pair. Opening a
// span pushes it; closing restores the parent. Crossing threads is explicit:
// the exec thread pool captures the submitter's context at submission and
// installs it (ScopedTraceContext) around every shard it runs, so spans
// opened inside pool shards parent correctly under the submitting span no
// matter which worker executes them (docs/PARALLELISM.md).
//
// Events render as JSON lines
// ({"name":...,"trace":...,"span":...,"parent":...,"start_us":...,
//   "dur_us":...,<fields>}), dumpable on demand or written to a file
// (dwredctl --trace=<file>); RenderTraceTree reconstructs and pretty-prints
// the span forest (dwredctl trace-tree).
//
// Spans are cheap when tracing is off: two clock reads plus one histogram
// record, no id allocation, no thread-local writes.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace dwred::obs {

/// The causal position of the current thread: the trace being served and the
/// innermost open span (the parent of any span opened next). Zero ids mean
/// "no active trace".
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
};

/// The calling thread's active context (thread-local).
TraceContext CurrentTraceContext();

/// Installs `ctx` as the calling thread's context for the scope's lifetime
/// and restores the previous context on destruction. Used by the exec pool to
/// carry the submitter's context onto worker threads; usable by any future
/// executor (e.g. a network server's session threads).
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext prev_;
};

/// One completed span.
struct TraceEvent {
  std::string name;
  uint64_t trace_id = 0;    ///< 0 when recorded outside any span context
  uint64_t span_id = 0;
  uint64_t parent_id = 0;   ///< 0 for a root span
  int64_t start_us = 0;     ///< since the buffer was enabled
  int64_t duration_us = 0;
  std::vector<std::pair<std::string, int64_t>> fields;
};

/// Process-wide ring buffer of completed spans. Disabled by default; when
/// full, the oldest events are overwritten.
class TraceBuffer {
 public:
  static TraceBuffer& Global();

  void Enable(size_t capacity = 4096);
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Record(TraceEvent ev);

  /// Buffered events, oldest first.
  std::vector<TraceEvent> Snapshot() const;
  void Clear();

  /// One JSON object per line, oldest first.
  std::string DumpJsonLines() const;

  /// Writes DumpJsonLines() to `path`. Returns false on I/O failure.
  bool WriteTo(const std::string& path) const;

  /// Microseconds since Enable() on the steady clock (0 when disabled).
  int64_t NowMicros() const;

 private:
  TraceBuffer() = default;

  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::vector<TraceEvent> ring_;
  size_t capacity_ = 0;
  size_t next_ = 0;   ///< slot the next event lands in
  size_t count_ = 0;  ///< live events (<= capacity_)
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span: records wall time into `latency` (seconds) and, when the
/// global TraceBuffer is enabled, emits a TraceEvent on destruction. Names
/// may be dynamic (per-subcube/per-shard labels like "query/subcube=K1");
/// the span owns its copy.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, Histogram* latency = nullptr);
  explicit TraceSpan(std::string name, Histogram* latency = nullptr);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a structured field to the emitted event.
  void AddField(const char* key, int64_t value);

  double ElapsedSeconds() const;

  /// The ids this span was opened with (all zero when the buffer was
  /// disabled at construction).
  TraceContext context() const { return TraceContext{trace_id_, span_id_}; }

 private:
  void Open();  ///< allocates ids + installs the context when tracing is on

  std::string name_;
  Histogram* latency_;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::pair<std::string, int64_t>> fields_;
  uint64_t trace_id_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_id_ = 0;
  bool traced_ = false;  ///< buffer was enabled when the span opened
};

/// Parses the JSON-lines format produced by DumpJsonLines back into events.
/// Tolerant: lines that are not span objects are skipped; returns false only
/// when *no* line parsed (e.g. the file is not a trace at all).
bool ParseTraceJsonLines(const std::string& text, std::vector<TraceEvent>* out);

/// Pretty-prints the span forest: events grouped by trace_id, parents above
/// children (children indented, sorted by start time). Spans whose parent is
/// absent (evicted from the ring or recorded before tracing was enabled) are
/// promoted to roots and marked. Events with trace_id 0 (recorded outside any
/// context) list last under "(untraced)".
std::string RenderTraceTree(const std::vector<TraceEvent>& events);

}  // namespace dwred::obs
