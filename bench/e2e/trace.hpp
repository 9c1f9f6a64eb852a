#pragma once

// In-memory spans recorded by the benchmark around its calls into each
// layer, reduced to per-layer self times and exported as Chrome trace-event
// JSON (opens in Perfetto or chrome://tracing).

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "report.hpp"

namespace e2e {

/// Which trace-viewer track a span is drawn on.
enum class Lane : int {
  kCaller = 1,    // the benchmark's calling thread (nested, sequential)
  kOperator = 2,  // the operator thread of mixed-slo
  kRequest = 3,   // per-request async spans (they overlap one another)
};

struct Span {
  std::string name;
  Clock::time_point start{};
  Clock::time_point end{};
  int parent = -1;            // index of the enclosing span, -1 for a root
  std::uint64_t request = 0;  // call or request id shared by a tree of spans
  std::uint64_t rows = 0;     // rows the span's work covered
  Lane lane = Lane::kCaller;
};

/// Self time and work of every span with one name.
struct LayerTotals {
  double self_seconds = 0.0;  // duration minus the time child spans cover
  double rows = 0.0;
  std::size_t spans = 0;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  /// Open a span now; returns its id for end() and for children's parent.
  int begin(std::string name, int parent, std::uint64_t request,
            std::uint64_t rows);
  void end(int id);
  /// Add a span timed elsewhere (requests timed by the load generator).
  int record(Span span);

  std::map<std::string, LayerTotals> totals() const;
  /// Chrome trace-event JSON of every span.
  void write_chrome(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// A span from construction to destruction.
class SpanScope {
 public:
  SpanScope(Tracer& t, const char* name, int parent, std::uint64_t request,
            std::uint64_t rows)
      : t_(t), id_(t.begin(name, parent, request, rows)) {}
  ~SpanScope() { t_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

}  // namespace e2e
