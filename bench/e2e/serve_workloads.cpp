// Serving workloads: pointwise requests through serving::Server, driven by
// the open-loop generator (latency at a fixed rate) and a fixed-window
// closed loop (capacity).
//
// music-serve -- paper §6.3 remote-lookup serving. Music behind a 2-worker,
//   2-replica Server over remote feature tables with a 128-entry feature
//   cache per IFV; Zipf 1.1 popularity. serving, core/feature_cache and
//   store do most of the work; TF-IDF and cascades are idle.
// mixed-slo -- the same serving layer used differently: a 1-worker Server
//   holding a best-effort cascaded Toxic model (loaded from a WLMP
//   artifact) and a latency-critical Credit model, with an operator thread
//   scraping stats() every 50 ms and hot-swapping Toxic every 2 s.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>

#include "common/stats.hpp"
#include "common/timer.hpp"
#include "compose.hpp"
#include "core/optimizer.hpp"
#include "load.hpp"
#include "models/metrics.hpp"
#include "serialize/artifact.hpp"
#include "serving/server.hpp"
#include "workloads.hpp"
#include "workloads/credit.hpp"
#include "workloads/music.hpp"
#include "workloads/toxic.hpp"

namespace e2e {

using namespace willump;

namespace {

// Offered rates: about 40% (music) and 50-65% (mixed) of the engines' capacity
// measured on a 4-vCPU VM (74-80k and 72-101k requests/s), so the latency
// phase measures service, not queue growth.
constexpr double kMusicQps = 32'000.0;
constexpr double kMixedQps = 48'000.0;
constexpr double kSmokeQps = 4'000.0;
// In-flight requests of the capacity phase: enough to keep every replica's
// batches full. Its requests cycle through kCapacityRequests pre-drawn ones.
constexpr std::size_t kWindow = 256;
constexpr std::size_t kCapacityRequests = 1 << 16;
// Windows of the windowed medians (see windowed_percentile), and the fewest
// samples a latency window needs to count.
constexpr double kStatWindowS = 0.5;
constexpr std::size_t kMinWindowSamples = 100;
// Request spans written to a trace file (all requests count in the metrics).
constexpr std::size_t kTraceRequestSpans = 10'000;
constexpr double kDrainTimeoutS = 30.0;
// Share of the untraced window spent at the fixed rate; the rest measures
// capacity.
constexpr double kLatencyShare = 0.6;

/// One registered model as the load generator sees it.
struct Slice {
  std::string model;
  std::vector<data::Batch> rows;   // one single-row request per test row
  std::vector<double> reference;   // offline predict() of every test row
  double weight = 1.0;             // share of the request stream
  double zipf_s = 0.0;             // row popularity (0 = uniform)
};

Slice make_slice(std::string model, const core::OptimizedPipeline& offline,
                 const core::LabeledData& test, double weight, double zipf_s) {
  Slice s;
  s.model = std::move(model);
  s.reference = offline.predict(test.inputs);
  s.rows.reserve(test.inputs.num_rows());
  for (std::size_t i = 0; i < test.inputs.num_rows(); ++i) {
    s.rows.push_back(test.inputs.row(i));
  }
  s.weight = weight;
  s.zipf_s = zipf_s;
  return s;
}

/// Requests and arrival times of every phase, drawn before any is timed.
struct Schedules {
  std::vector<Arrival> warmup, latency, capacity, traced;
};

Schedules make_schedules(const RunOptions& o, const Plan& plan, double qps,
                         const std::vector<Slice>& slices) {
  common::Rng rng(stream_seed(o, 1));
  std::vector<RowSampler> samplers;
  std::vector<double> weights;
  for (const Slice& s : slices) {
    samplers.emplace_back(s.rows.size(), s.zipf_s, rng);
    weights.push_back(s.weight);
  }
  Schedules out;
  out.warmup = poisson_schedule(qps, plan.warmup_s, weights, samplers, rng);
  out.latency = poisson_schedule(qps, kLatencyShare * plan.measure_s, weights,
                                 samplers, rng);
  out.capacity = draw_requests(kCapacityRequests, weights, samplers, rng);
  if (plan.traced_s > 0.0) {
    out.traced = poisson_schedule(qps, plan.traced_s, weights, samplers, rng);
  }
  return out;
}

/// Outcome counts of one phase's requests.
struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t refused = 0;     // typed overload rejections and expiries
  std::uint64_t errors = 0;
  std::uint64_t mismatches = 0;  // completed, but not bit-identical to offline
  std::uint64_t failed() const { return refused + errors + mismatches; }
};

Tally tally(const Completions& c, std::size_t sent,
            const std::vector<Arrival>& requests, const std::vector<Slice>& slices) {
  Tally t;
  t.sent = sent;
  for (std::size_t i = 0; i < sent; ++i) {
    const Arrival& a = requests[i];
    switch (c.status(i)) {
      case Outcome::kOk:
        if (same_bits(c.prediction(i), slices[a.slice].reference[a.row])) {
          ++t.ok;
        } else {
          ++t.mismatches;
        }
        break;
      case Outcome::kRejected:
        ++t.refused;
        break;
      default:
        ++t.errors;
        break;
    }
  }
  return t;
}

void record(Report& r, const Tally& t, const std::string& phase) {
  r.add_attempted(t.sent);
  r.add_failed(t.failed());
  r.check(t.ok + t.failed() == t.sent,
          phase + ": completions + failures = requests sent");
  r.check(t.mismatches == 0,
          phase + ": every served prediction is bit-identical to offline predict()");
  r.check(t.refused + t.errors == 0, phase + ": no request refused or failed");
}

/// Wait until `sent` requests resolved. On timeout, shut the engine down
/// (which drains it, so no callback outlives the phase's outcome storage) and
/// fail the run.
void await(serving::Server& server, const std::function<std::size_t()>& resolved,
           std::size_t sent) {
  const auto deadline = Clock::now() + from_seconds(kDrainTimeoutS);
  while (resolved() < sent) {
    if (Clock::now() > deadline) {
      server.shutdown();
      throw std::runtime_error("requests unresolved 30 s after their phase ended");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void submit(serving::Server& server, const std::vector<Slice>& slices, const Arrival& a,
            serving::Server::Callback done) {
  const Slice& s = slices[a.slice];
  server.submit(s.model, s.rows[a.row], std::move(done));
}

struct OpenPhase {
  OpenLoopTimes times;
  Tally tally;
  std::vector<std::vector<double>> latency_s;  // per slice, completed requests
  std::vector<std::vector<double>> due_s;      // per slice: when each was due
  std::vector<std::uint64_t> sent;             // per slice
  std::vector<std::uint64_t> within_limit;     // per slice: within the limit
  int threads = 0;                             // process threads while serving
};

/// Drive `schedule` open-loop and collect per-request latency from each
/// request's due time. With a tracer, also time every submit and record
/// request/submit spans for the first kTraceRequestSpans requests.
OpenPhase open_phase(serving::Server& server, const std::vector<Slice>& slices,
                     const std::vector<Arrival>& schedule, bool corrupt,
                     double latency_limit_s, Tracer* tracer) {
  OpenPhase p;
  Completions c(schedule.size());
  try {
    p.times = run_open_loop(schedule, tracer != nullptr, [&](std::size_t i) {
      submit(server, slices, schedule[i], c.callback(i));
    });
    p.threads = live_threads();
    await(server, [&] { return c.resolved(); }, schedule.size());
  } catch (...) {
    server.shutdown();
    throw;
  }
  if (corrupt && !schedule.empty()) c.perturb(0);
  p.tally = tally(c, schedule.size(), schedule, slices);

  const std::size_t n_slices = slices.size();
  p.latency_s.resize(n_slices);
  p.due_s.resize(n_slices);
  p.sent.assign(n_slices, 0);
  p.within_limit.assign(n_slices, 0);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Arrival& a = schedule[i];
    ++p.sent[a.slice];
    if (c.status(i) != Outcome::kOk) continue;
    const auto due = p.times.start + from_seconds(a.due_s);
    const double latency = seconds_between(due, c.done(i));
    p.latency_s[a.slice].push_back(latency);
    p.due_s[a.slice].push_back(a.due_s);
    if (latency <= latency_limit_s) ++p.within_limit[a.slice];
    if (tracer != nullptr && i < kTraceRequestSpans) {
      const auto submitted = due + from_seconds(p.times.late_s[i]);
      const int parent =
          tracer->record({"request", due, c.done(i), -1, i, 1, Lane::kRequest});
      tracer->record({"submit", submitted, submitted + from_seconds(p.times.submit_s[i]),
                      parent, i, 1, Lane::kRequest});
    }
  }
  return p;
}

/// Outcomes of the capacity phase, counted by the completion callbacks
/// themselves: the phase sends an open-ended number of requests, so nothing
/// is stored per request.
class CapacityCounters {
 public:
  CapacityCounters(const std::vector<Slice>& slices, const std::vector<Arrival>& requests,
                   Clock::time_point start, double seconds)
      : slices_(slices), requests_(requests), start_(start),
        per_window_(std::max<std::size_t>(static_cast<std::size_t>(seconds / kStatWindowS), 1)) {}

  /// Callback of the i-th request sent (requests cycle through `requests`).
  serving::Server::Callback callback(std::size_t i) {
    return [this, i](double prediction, std::exception_ptr error) {
      const Outcome outcome = classify(error);
      if (outcome == Outcome::kOk) {
        const Arrival& a = requests_[i % requests_.size()];
        ++(same_bits(prediction, slices_[a.slice].reference[a.row]) ? ok_ : mismatches_);
        const auto w = static_cast<std::size_t>(seconds_between(start_, Clock::now()) / kStatWindowS);
        if (w < per_window_.size()) per_window_[w].fetch_add(1, std::memory_order_relaxed);
      } else {
        ++(outcome == Outcome::kRejected ? refused_ : errors_);
      }
      resolved_.fetch_add(1, std::memory_order_release);
    };
  }
  std::size_t resolved() const { return resolved_.load(std::memory_order_acquire); }

  Tally tally(std::size_t sent) const {
    return {sent, ok_.load(), refused_.load(), errors_.load(), mismatches_.load()};
  }
  /// Completed requests per second in the median kStatWindowS window.
  double median_rate() const {
    std::vector<double> rates;
    for (const auto& n : per_window_) rates.push_back(n.load() / kStatWindowS);
    return common::median(rates);
  }

 private:
  const std::vector<Slice>& slices_;
  const std::vector<Arrival>& requests_;
  const Clock::time_point start_;
  std::vector<std::atomic<std::uint64_t>> per_window_;
  std::atomic<std::uint64_t> ok_{0}, refused_{0}, errors_{0}, mismatches_{0}, resolved_{0};
};

/// Keep kWindow requests in flight for `seconds`; returns the completion
/// rate of the median kStatWindowS window.
double capacity_phase(serving::Server& server, const std::vector<Slice>& slices,
                      const std::vector<Arrival>& requests, double seconds, Report& r) {
  const auto start = Clock::now();
  CapacityCounters counters(slices, requests, start, seconds);
  std::size_t sent = 0;
  try {
    sent = run_window(
        start + from_seconds(seconds), kWindow, [&] { return counters.resolved(); },
        [&](std::size_t i) {
          submit(server, slices, requests[i % requests.size()], counters.callback(i));
        });
    await(server, [&] { return counters.resolved(); }, sent);
  } catch (...) {
    server.shutdown();
    throw;
  }
  record(r, counters.tally(sent), "capacity");
  return counters.median_rate();
}

/// Request latency of one slice: latency_p50_ms and serving.latency_p99_ms
/// as medians over kStatWindowS windows.
void report_latency(const OpenPhase& p, std::uint8_t slice, Report& r) {
  const auto& due = p.due_s[slice];
  const auto& lat = p.latency_s[slice];
  r.end_to_end("latency_p50_ms",
               windowed_percentile(due, lat, 50.0, kStatWindowS, kMinWindowSamples) * 1e3);
  r.layer("serving.latency_p99_ms",
          windowed_percentile(due, lat, 99.0, kStatWindowS, kMinWindowSamples) * 1e3);
  r.detail("latency_p99_ms.whole_phase", common::percentile(lat, 99.0) * 1e3, "ms");
  r.detail("latency_samples", static_cast<double>(lat.size()), "count");
}

/// Serving-layer counters of one phase (ServerStats or ModelStats).
template <class Stats>
void report_serving(const Stats& st, double mean_latency_s, const OpenPhase& p,
                    Report& r) {
  const double exec_us =
      st.batches == 0 ? 0.0 : st.inference_seconds * 1e6 / static_cast<double>(st.batches);
  r.layer("serving.mean_batch_rows", st.mean_batch_rows());
  r.layer("serving.exec_us_per_batch", exec_us);
  r.layer("serving.wait_us_mean", mean_latency_s * 1e6 - exec_us);
  r.layer("bench.generator_late_us_p99", common::percentile(p.times.late_s, 99.0) * 1e6);
  r.detail("threads", p.threads, "count");
  r.check(p.threads <= static_cast<int>(std::thread::hardware_concurrency()),
          "no more threads than cores while serving");
}

/// Replay served traffic through the composed (traced) call: `batches`
/// batches of `batch_rows` rows taken from the slice's requests in
/// `sample`, each checked bit-identical to the offline reference. The first
/// batch also feeds the per-generator probes.
void replay(const core::OptimizedPipeline& p, const Slice& s, std::uint8_t slice,
            const std::vector<Arrival>& sample, double batch_rows, int batches,
            int probe_reps, Tracer& t, std::map<std::string, double>& ops, Report& r) {
  std::vector<std::uint32_t> rows;
  for (const Arrival& a : sample) {
    if (a.slice == slice) rows.push_back(a.row);
  }
  const std::size_t per_batch =
      std::clamp<std::size_t>(static_cast<std::size_t>(batch_rows + 0.5), 1,
                              std::max<std::size_t>(rows.size(), 1));
  std::uint64_t mismatches = 0;
  std::uint64_t done = 0;
  for (int b = 0; b < batches && rows.size() >= per_batch; ++b) {
    const std::size_t first = (static_cast<std::size_t>(b) * per_batch) % (rows.size() - per_batch + 1);
    data::Batch batch = s.rows[rows[first]];
    for (std::size_t j = 1; j < per_batch; ++j) batch.append_rows(s.rows[rows[first + j]]);
    const auto out = composed_predict(p, batch, t, static_cast<std::uint64_t>(b));
    for (std::size_t j = 0; j < per_batch; ++j) {
      if (!same_bits(out[j], s.reference[rows[first + j]])) ++mismatches;
    }
    if (b == 0) {
      for (const auto& [tag, us] : probe_generators(p, batch, probe_reps, t)) ops[tag] += us;
    }
    ++done;
  }
  r.add_attempted(done);
  r.add_failed(mismatches);
  r.check(done > 0 && mismatches == 0,
          s.model + " replay: composed traced predictions are bit-identical to offline predict()");
}

/// Cumulative feature-cache and remote-store counters of a pipeline.
struct LookupCounters {
  double hits = 0, misses = 0, round_trips = 0, wait_ns = 0;
};

LookupCounters lookup_counters(const core::OptimizedPipeline& p,
                               const store::TableRegistry& tables) {
  LookupCounters c;
  if (p.cache() != nullptr) {
    c.hits = static_cast<double>(p.cache()->total_hits());
    c.misses = static_cast<double>(p.cache()->total_misses());
  }
  c.round_trips = static_cast<double>(tables.total_round_trips());
  for (const auto& client : tables.clients()) {
    c.wait_ns += static_cast<double>(client->stats().simulated_wait_nanos.load());
  }
  return c;
}

/// The operator thread of mixed-slo: scrapes Server::stats() every 50 ms and
/// hot-swaps the toxic model from its artifact every `swap_period` (2 s; a
/// smoke run shortens it so its one-second phases still swap), timing both.
class OperatorThread {
 public:
  OperatorThread(serving::Server& server, std::string artifact,
                 Clock::duration swap_period, Tracer* tracer)
      : server_(server), artifact_(std::move(artifact)), swap_period_(swap_period),
        tracer_(tracer), thread_([this] { loop(); }) {}

  static constexpr Clock::duration kStatsPeriod = std::chrono::milliseconds(50);
  ~OperatorThread() { stop(); }
  OperatorThread(const OperatorThread&) = delete;
  OperatorThread& operator=(const OperatorThread&) = delete;

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  // Valid after stop().
  std::vector<double> stats_s, swap_s;
  std::size_t errors = 0;

 private:
  void loop() {
    const auto start = Clock::now();
    auto next_stats = start + kStatsPeriod;
    auto next_swap = start + swap_period_;
    while (!stop_.load()) {
      const auto next = std::min(next_stats, next_swap);
      if (Clock::now() < next) {
        std::this_thread::sleep_for(std::min<Clock::duration>(
            next - Clock::now(), std::chrono::milliseconds(5)));
        continue;
      }
      const bool swap = next == next_swap;
      const auto t0 = Clock::now();
      try {
        if (swap) {
          server_.swap_model("toxic", artifact_);
        } else {
          (void)server_.stats();
        }
      } catch (...) {
        ++errors;
      }
      const auto t1 = Clock::now();
      (swap ? swap_s : stats_s).push_back(seconds_between(t0, t1));
      if (tracer_ != nullptr) {
        tracer_->record({swap ? "serving.swap_model" : "serving.stats", t0, t1, -1,
                         0, 0, Lane::kOperator});
      }
      // Fixed rate; a call that overran its period delays the next one
      // instead of queuing a burst of catch-up calls.
      if (swap) {
        next_swap = std::max(next_swap + swap_period_, t1);
      } else {
        next_stats = std::max(next_stats + kStatsPeriod, t1);
      }
    }
  }

  serving::Server& server_;
  const std::string artifact_;
  const Clock::duration swap_period_;
  Tracer* tracer_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after the members it uses
};

}  // namespace

Report run_music_serve(const RunOptions& o) {
  Report r("music-serve");
  const Plan plan = plan_for(o);
  workloads::MusicConfig cfg;
  cfg.sizes = o.smoke ? workloads::SplitSizes{.train = 600, .valid = 250, .test = 2000}
                      : workloads::SplitSizes{.train = 6000, .valid = 2000, .test = 20000};
  workloads::Workload wl = workloads::make_music(cfg);
  wl.tables->set_network(workloads::default_remote_network());

  core::OptimizeOptions opts;
  opts.feature_cache = true;
  opts.cache_capacity = 128;
  serving::ServerConfig scfg;
  scfg.num_workers = 2;
  serving::ModelConfig mcfg;
  mcfg.max_batch = 32;
  mcfg.max_delay_micros = 0.0;
  mcfg.replicas = 2;
  std::shared_ptr<const core::OptimizedPipeline> pipe;
  std::unique_ptr<serving::Server> server;
  r.end_to_end("setup_s", common::time_median_seconds(plan.setups, [&] {
    server.reset();
    pipe = std::make_shared<const core::OptimizedPipeline>(
        core::WillumpOptimizer::optimize(wl.pipeline, wl.train, wl.valid, opts));
    server = std::make_unique<serving::Server>(scfg);
    server->register_model("music", pipe, mcfg);
  }));

  const std::vector<Slice> slices{make_slice("music", *pipe, wl.test, 1.0, 1.1)};
  // Test-split accuracy of the served model (the served predictions are
  // checked bit-identical to these offline ones). Accuracy over the served
  // Zipf sample would hinge on a handful of hot rows.
  r.end_to_end("quality", models::accuracy(slices[0].reference, wl.test.targets));
  const Schedules sched = make_schedules(o, plan, o.smoke ? kSmokeQps : kMusicQps, slices);

  record(r, open_phase(*server, slices, sched.warmup, false, 0.0, nullptr).tally,
         "warm-up");
  server->reset_stats();
  const LookupCounters before = lookup_counters(*pipe, *wl.tables);
  const OpenPhase lat = open_phase(*server, slices, sched.latency, o.corrupt, 0.0, nullptr);
  const serving::ModelStats st = server->stats("music");
  const LookupCounters after = lookup_counters(*pipe, *wl.tables);
  record(r, lat.tally, "latency");

  const auto& latency = lat.latency_s[0];
  report_latency(lat, 0, r);
  report_serving(st, common::mean(latency), lat, r);
  const double requests = static_cast<double>(std::max<std::uint64_t>(lat.tally.sent, 1));
  const double lookups = (after.hits - before.hits) + (after.misses - before.misses);
  r.layer("core.feature_cache.hit_frac",
          lookups > 0.0 ? (after.hits - before.hits) / lookups : 0.0);
  r.layer("store.round_trips_per_query", (after.round_trips - before.round_trips) / requests);
  r.layer("store.wait_us_per_query", (after.wait_ns - before.wait_ns) / 1e3 / requests);

  server->reset_stats();
  r.end_to_end("rows_per_s", capacity_phase(*server, slices, sched.capacity,
                                          (1.0 - kLatencyShare) * plan.measure_s, r));

  if (o.trace) {
    Tracer tracer(Clock::now());
    const OpenPhase traced = open_phase(*server, slices, sched.traced, false, 0.0, &tracer);
    record(r, traced.tally, "traced");
    r.layer("serving.submit_us_p99", common::percentile(traced.times.submit_s, 99.0) * 1e6);
    r.layer("bench.trace_overhead_frac",
            common::median(traced.latency_s[0]) / common::median(latency) - 1.0);
    std::map<std::string, double> ops;
    replay(*pipe, slices[0], 0, sched.traced, st.mean_batch_rows(), o.smoke ? 5 : 200,
           o.smoke ? 1 : 5, tracer, ops, r);
    report_span_layers(tracer, ops, r);
    tracer.write_chrome(trace_path(o, r));
  }
  server->shutdown();
  r.end_to_end("peak_rss_mb", peak_rss_mb());
  return r;
}

Report run_mixed_slo(const RunOptions& o) {
  Report r("mixed-slo");
  const Plan plan = plan_for(o);
  workloads::ToxicConfig tcfg;
  workloads::CreditConfig ccfg;
  if (o.smoke) {
    tcfg.sizes = smoke_sizes();
    ccfg.sizes = smoke_sizes();
  }
  const workloads::Workload toxic = workloads::make_toxic(tcfg);
  const workloads::Workload credit = workloads::make_credit(ccfg);
  const auto artifact_dir = std::filesystem::path(o.out_dir) / "artifacts";
  std::filesystem::create_directories(artifact_dir);
  const std::string artifact = (artifact_dir / "mixed-slo-toxic.wlmp").string();

  core::OptimizeOptions toxic_opts;
  toxic_opts.cascades = true;
  serving::ServerConfig scfg;
  scfg.num_workers = 1;
  // Load control stays off: on a nearly idle engine it sheds a few percent
  // of best-effort requests, a share that varies up to 2.6x between
  // identical runs.
  serving::ModelConfig toxic_cfg;
  toxic_cfg.slo = serving::SloClass::best_effort();
  toxic_cfg.max_batch = 32;
  toxic_cfg.max_delay_micros = 0.0;
  serving::ModelConfig credit_cfg;
  credit_cfg.slo = serving::SloClass::latency_critical(10'000.0);
  credit_cfg.max_batch = 32;
  credit_cfg.max_delay_micros = 0.0;
  const double critical_limit_s = credit_cfg.slo.deadline_micros * 1e-6;

  core::OptimizedPipeline toxic_pipe;
  std::shared_ptr<const core::OptimizedPipeline> credit_pipe;
  std::unique_ptr<serving::Server> server;
  std::vector<double> load_s;
  r.end_to_end("setup_s", common::time_median_seconds(plan.setups, [&] {
    server.reset();
    toxic_pipe = core::WillumpOptimizer::optimize(toxic.pipeline, toxic.train,
                                                  toxic.valid, toxic_opts);
    serialize::save_pipeline(toxic_pipe, artifact);
    credit_pipe = std::make_shared<const core::OptimizedPipeline>(
        core::WillumpOptimizer::optimize(credit.pipeline, credit.train, credit.valid, {}));
    server = std::make_unique<serving::Server>(scfg);
    const auto t0 = Clock::now();
    server->load_model("toxic", artifact, toxic_cfg);
    load_s.push_back(seconds_between(t0, Clock::now()));
    server->register_model("credit", credit_pipe, credit_cfg);
  }));
  r.layer("serialize.load_ms", common::median(load_s) * 1e3);

  // References come from the in-process pipelines, so the check also covers
  // the artifact round trip behind load_model and every swap.
  const std::vector<Slice> slices{
      make_slice("toxic", toxic_pipe, toxic.test, 0.7, 0.0),
      make_slice("credit", *credit_pipe, credit.test, 0.3, 0.0)};
  constexpr std::uint8_t kToxic = 0, kCredit = 1;
  const Schedules sched = make_schedules(o, plan, o.smoke ? kSmokeQps : kMixedQps, slices);

  record(r, open_phase(*server, slices, sched.warmup, false, critical_limit_s, nullptr).tally,
         "warm-up");
  server->reset_stats();
  std::vector<double> stats_s, swap_s;
  const Clock::duration swap_period =
      o.smoke ? from_seconds(0.2) : from_seconds(2.0);
  const auto collect = [&](OperatorThread& op) {
    op.stop();
    r.check(op.errors == 0, "operator stats()/swap_model calls succeeded");
    stats_s.insert(stats_s.end(), op.stats_s.begin(), op.stats_s.end());
    swap_s.insert(swap_s.end(), op.swap_s.begin(), op.swap_s.end());
  };
  OpenPhase lat;
  serving::ServerStats st;
  double toxic_batch_rows = 0.0, credit_batch_rows = 0.0;
  {
    OperatorThread op(*server, artifact, swap_period, nullptr);
    lat = open_phase(*server, slices, sched.latency, o.corrupt, critical_limit_s, nullptr);
    st = server->stats();
    toxic_batch_rows = server->stats("toxic").mean_batch_rows();
    credit_batch_rows = server->stats("credit").mean_batch_rows();
    collect(op);
  }
  record(r, lat.tally, "latency");
  const auto& critical = lat.latency_s[kCredit];
  report_latency(lat, kCredit, r);
  // Deadline attainment of the critical class; refused or failed requests
  // count as misses.
  r.end_to_end("quality", static_cast<double>(lat.within_limit[kCredit]) /
                              static_cast<double>(std::max<std::uint64_t>(lat.sent[kCredit], 1)));
  const auto& best_effort = lat.latency_s[kToxic];
  r.detail("latency_p50_ms.best_effort", common::percentile(best_effort, 50.0) * 1e3, "ms");
  r.detail("latency_p99_ms.best_effort", common::percentile(best_effort, 99.0) * 1e3, "ms");
  std::vector<double> all_latency = critical;
  all_latency.insert(all_latency.end(), lat.latency_s[kToxic].begin(),
                     lat.latency_s[kToxic].end());
  report_serving(st, common::mean(all_latency), lat, r);

  server->reset_stats();
  {
    OperatorThread op(*server, artifact, swap_period, nullptr);
    r.end_to_end("rows_per_s", capacity_phase(*server, slices, sched.capacity,
                                            (1.0 - kLatencyShare) * plan.measure_s, r));
    collect(op);
  }
  r.layer("serving.stats_snapshot_ms_p50", common::median(stats_s) * 1e3);
  r.layer("serving.swap_ms_p50", common::median(swap_s) * 1e3);
  r.detail("stats_snapshot_samples", static_cast<double>(stats_s.size()), "count");
  r.detail("swap_samples", static_cast<double>(swap_s.size()), "count");

  if (o.trace) {
    Tracer tracer(Clock::now());
    server->reset_stats();
    OpenPhase traced;
    {
      OperatorThread op(*server, artifact, swap_period, &tracer);
      traced = open_phase(*server, slices, sched.traced, false, critical_limit_s, &tracer);
      op.stop();
    }
    record(r, traced.tally, "traced");
    r.layer("serving.submit_us_p99", common::percentile(traced.times.submit_s, 99.0) * 1e6);
    r.layer("bench.trace_overhead_frac",
            common::median(traced.latency_s[kCredit]) / common::median(critical) - 1.0);

    // Cascade short-circuit share of the served toxic rows, from the served
    // pipeline's own counters over the replayed request mix.
    const auto served = server->pipeline_snapshot("toxic");
    const core::CascadeRunStats before = served->run_stats();
    std::map<std::string, double> ops;
    const int batches = o.smoke ? 5 : 200;
    const int reps = o.smoke ? 1 : 5;
    replay(*served, slices[kToxic], kToxic, sched.traced, toxic_batch_rows, batches,
           reps, tracer, ops, r);
    replay(*credit_pipe, slices[kCredit], kCredit, sched.traced, credit_batch_rows,
           batches, reps, tracer, ops, r);
    std::vector<std::uint32_t> rows;
    for (const Arrival& a : sched.traced) {
      if (a.slice == kToxic && rows.size() < 4096) rows.push_back(a.row);
    }
    if (!rows.empty()) {
      data::Batch sample = slices[kToxic].rows[rows.front()];
      for (std::size_t j = 1; j < rows.size(); ++j) {
        sample.append_rows(slices[kToxic].rows[rows[j]]);
      }
      (void)served->predict(sample);
    }
    const core::CascadeRunStats& now = served->run_stats();
    const double predicted = static_cast<double>(now.total_rows - before.total_rows);
    r.layer("core.cascades.short_circuit_frac",
            predicted > 0.0
                ? static_cast<double>(now.short_circuited - before.short_circuited) / predicted
                : 0.0);
    report_span_layers(tracer, ops, r);
    tracer.write_chrome(trace_path(o, r));
  }
  server->shutdown();
  r.end_to_end("peak_rss_mb", peak_rss_mb());
  return r;
}

}  // namespace e2e
