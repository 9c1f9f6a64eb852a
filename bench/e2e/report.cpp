#include "report.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>
#include <thread>

#include "common/stats.hpp"

namespace e2e {

namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// The metric names BENCHMARK.json declares, in its order. Every run reports
// every end-to-end metric; a traced run reports every per-layer metric, 0
// where the workload does not exercise that layer.
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},
    {"rows_per_s", "rows/s"},
    {"latency_p50_ms", "ms"},
    {"quality", "ratio"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricName kPerLayer[] = {
    {"ops.keyword_count.us_per_row", "us"},
    {"ops.tfidf.us_per_row", "us"},
    {"ops.string_stats.us_per_row", "us"},
    {"ops.one_hot_hash.us_per_row", "us"},
    {"ops.numeric_columns.us_per_row", "us"},
    {"ops.table_lookup.us_per_row", "us"},
    {"core.executors.efficient_us_per_row", "us"},
    {"core.executors.rest_us_per_row", "us"},
    {"core.cascades.short_circuit_frac", "ratio"},
    {"core.cascades.self_us_per_row", "us"},
    {"core.topk.subset_frac", "ratio"},
    {"core.topk.self_us_per_query", "us"},
    {"models.small.us_per_row", "us"},
    {"models.full.us_per_row", "us"},
    {"core.feature_cache.hit_frac", "ratio"},
    {"store.round_trips_per_query", "count"},
    {"store.wait_us_per_query", "us"},
    {"serving.latency_p99_ms", "ms"},
    {"serving.mean_batch_rows", "rows"},
    {"serving.exec_us_per_batch", "us"},
    {"serving.wait_us_mean", "us"},
    {"serving.submit_us_p99", "us"},
    {"serving.stats_snapshot_ms_p50", "ms"},
    {"serving.swap_ms_p50", "ms"},
    {"serialize.load_ms", "ms"},
    {"bench.generator_late_us_p99", "us"},
    {"bench.trace_overhead_frac", "ratio"},
};

Metric* find(std::vector<Metric>& v, const std::string& name) {
  for (auto& m : v) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string metrics_object(const std::vector<Metric>& v) {
  std::string out = "{";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(v[i].name) + ": {\"value\": " + json_number(v[i].value) +
           ", \"unit\": " + json_string(v[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

Plan plan_for(const RunOptions& o) {
  Plan p;
  p.warmup_s = o.smoke ? 0.05 : 1.0;
  p.setups = (o.smoke || o.trace) ? 1 : 3;
  p.measure_s = o.trace ? 0.75 * o.seconds : o.seconds;
  p.traced_s = o.trace ? 0.25 * o.seconds : 0.0;
  return p;
}

Report::Report(std::string workload) : workload_(std::move(workload)) {
  // End-to-end metrics start unmeasured (NaN); correct() requires them all.
  for (const auto& m : kEndToEnd) {
    end_to_end_.push_back({m.name, std::numeric_limits<double>::quiet_NaN(), m.unit});
  }
  for (const auto& m : kPerLayer) per_layer_.push_back({m.name, 0.0, m.unit});
}

void Report::end_to_end(const std::string& name, double value) {
  Metric* m = find(end_to_end_, name);
  if (m == nullptr) throw std::logic_error("unknown end-to-end metric: " + name);
  if (!std::isnan(m->value)) throw std::logic_error("end-to-end metric set twice: " + name);
  m->value = value;
}

void Report::layer(const std::string& name, double value) {
  Metric* m = find(per_layer_, name);
  if (m == nullptr) throw std::logic_error("unknown per-layer metric: " + name);
  m->value = value;
}

void Report::detail(const std::string& name, double value,
                    const std::string& unit) {
  detail_.push_back({name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  checks_.emplace_back(what, ok);
  if (!ok) std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", workload_.c_str(), what.c_str());
}

bool Report::correct() const {
  if (attempted_ == 0) return false;
  for (const auto& m : end_to_end_) {
    if (!std::isfinite(m.value)) return false;
  }
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const auto& c) { return c.second; });
}

void Report::print(bool traced) const {
  for (const auto& m : end_to_end_) {
    std::printf("%s %s %s %s\n", workload_.c_str(), m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str());
  }
  if (traced) {
    for (const auto& m : per_layer_) {
      std::printf("%s %s %s %s\n", workload_.c_str(), m.name.c_str(),
                  json_number(m.value).c_str(), m.unit.c_str());
    }
  }
  const std::vector<Metric>& shown = traced ? per_layer_ : end_to_end_;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              metrics_object(shown).c_str());
  std::fflush(stdout);
}

void Report::write(const RunOptions& o) const {
  std::filesystem::create_directories(o.out_dir);
  const auto path = std::filesystem::path(o.out_dir) / (workload_ + ".json");
  std::ofstream f(path);
  f << "{\"workload\": " << json_string(workload_)
    << ", \"seed\": " << o.seed << ", \"seconds\": " << json_number(o.seconds)
    << ", \"trace\": " << (o.trace ? "true" : "false")
    << ", \"smoke\": " << (o.smoke ? "true" : "false")
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"compiler\": " << json_string(__VERSION__)
    << ",\n \"correct\": " << (correct() ? "true" : "false")
    << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
    << ",\n \"end_to_end\": " << metrics_object(end_to_end_)
    << ",\n \"per_layer\": " << (o.trace ? metrics_object(per_layer_) : "{}")
    << ",\n \"detail\": " << metrics_object(detail_) << ",\n \"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    f << (i > 0 ? ", " : "") << "{\"check\": " << json_string(checks_[i].first)
      << ", \"ok\": " << (checks_[i].second ? "true" : "false") << "}";
  }
  f << "]}\n";
  if (!f) throw std::runtime_error("cannot write " + path.string());
}

bool is_per_layer_metric(const std::string& name) {
  return std::any_of(std::begin(kPerLayer), std::end(kPerLayer),
                     [&](const MetricName& m) { return name == m.name; });
}

double windowed_percentile(const std::vector<double>& at_s, const std::vector<double>& v,
                           double p, double window_s, std::size_t min_samples) {
  std::map<long, std::vector<double>> windows;
  for (std::size_t i = 0; i < v.size(); ++i) {
    windows[static_cast<long>(at_s[i] / window_s)].push_back(v[i]);
  }
  std::vector<double> per_window;
  for (auto& [w, samples] : windows) {
    if (samples.size() >= min_samples) {
      per_window.push_back(willump::common::percentile(std::move(samples), p));
    }
  }
  return per_window.empty() ? willump::common::percentile(v, p)
                            : willump::common::median(std::move(per_window));
}

namespace {

/// A numeric field of /proc/self/status ("VmHWM:", "Threads:", ...).
double proc_status(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field, 0) == 0) return std::stod(line.substr(field.size()));
  }
  return 0.0;
}

}  // namespace

double peak_rss_mb() { return proc_status("VmHWM:") / 1024.0; }  // kB

int live_threads() { return static_cast<int>(proc_status("Threads:")); }

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace e2e
