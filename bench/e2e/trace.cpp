#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace e2e {

int Tracer::begin(std::string name, int parent, std::uint64_t request,
                  std::uint64_t rows) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.request = request;
  s.rows = rows;
  s.start = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(id)).end = now;
}

int Tracer::record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, LayerTotals> Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  std::map<std::string, LayerTotals> out;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to this span.
    cover.clear();
    for (int c : children[i]) {
      const Span& k = spans_[static_cast<std::size_t>(c)];
      const auto lo = std::max(k.start, s.start);
      const auto hi = std::min(k.end, s.end);
      if (lo < hi) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    Clock::time_point reach = s.start;
    for (const auto& [lo, hi] : cover) {
      const auto from = std::max(lo, reach);
      if (hi > from) {
        covered += seconds_between(from, hi);
        reach = hi;
      }
    }
    LayerTotals& t = out[s.name];
    t.self_seconds += seconds_between(s.start, s.end) - covered;
    t.rows += static_cast<double>(s.rows);
    ++t.spans;
  }
  return out;
}

void Tracer::write_chrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream f(path);
  f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  const auto us = [&](Clock::time_point t) {
    return json_number(std::chrono::duration<double, std::micro>(t - epoch_).count());
  };
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string args = "{\"rows\": " + std::to_string(s.rows) +
                             ", \"request\": " + std::to_string(s.request) +
                             ", \"parent\": " + std::to_string(s.parent) + "}";
    const std::string common = "\"name\": " + json_string(s.name) +
                               ", \"cat\": \"bench\", \"pid\": 1, \"tid\": " +
                               std::to_string(static_cast<int>(s.lane));
    f << (first ? "" : ",\n");
    first = false;
    if (s.lane == Lane::kRequest) {
      // Requests overlap in time, so they are async (b/e) events keyed by
      // request id: a request's spans nest on one async track.
      const std::string id = ", \"id\": " + std::to_string(s.request);
      f << "{" << common << id << ", \"ph\": \"b\", \"ts\": " << us(s.start)
        << ", \"args\": " << args << "},\n{" << common << id
        << ", \"ph\": \"e\", \"ts\": " << us(s.end) << "}";
    } else {
      f << "{" << common << ", \"ph\": \"X\", \"ts\": " << us(s.start)
        << ", \"dur\": "
        << json_number(std::chrono::duration<double, std::micro>(s.end - s.start).count())
        << ", \"args\": " << args << "}";
    }
  }
  f << "\n]}\n";
  if (!f) throw std::runtime_error("cannot write " + path);
}

}  // namespace e2e
