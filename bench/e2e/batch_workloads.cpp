// Batch workloads: one caller in a closed loop over a fixed input batch.
//
// toxic-batch -- paper Fig. 5 batch classification. Cascade-optimized Toxic
//   (string ops + TF-IDF features, linear model): feature computation and
//   the cascade do almost all the work; the serving layer does none.
// price-topk -- paper Table 4 top-K queries. Price with the automatic
//   top-K filter (sparse MLP regression): the only workload running
//   core/topk and the MLP kernels.

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/stats.hpp"
#include "common/timer.hpp"
#include "compose.hpp"
#include "load.hpp"
#include "models/metrics.hpp"
#include "workloads.hpp"
#include "workloads/price.hpp"
#include "workloads/toxic.hpp"

namespace e2e {

using namespace willump;

std::vector<std::size_t> sample_rows(const RunOptions& o, std::size_t pool,
                                     std::size_t count) {
  common::Rng rng(stream_seed(o, 2));
  std::vector<std::size_t> rows = rng.permutation(pool);
  rows.resize(std::min(count, pool));
  return rows;
}

namespace {

bool same_output(const std::vector<double>& a, const std::vector<double>& b) {
  return same_bits(a, b);
}
bool same_output(const std::vector<std::size_t>& a, const std::vector<std::size_t>& b) {
  return a == b;
}
void perturb(std::vector<double>& v) { v.at(0) = std::nextafter(v.at(0), 2.0); }
void perturb(std::vector<std::size_t>& v) { v.at(0) ^= 1; }

/// The pipeline of a batch workload's last set-up, its reference output on
/// the input batch, and its median call time.
template <class Out>
struct LastSetup {
  core::OptimizedPipeline pipe;
  Out reference;
  double per_call_s = 0.0;
};

/// A batch workload's set-ups, one after another. Each optimizes a pipeline
/// (timed), computes its reference output `call(pipe)` and
/// `quality(pipe, reference)` (untimed), then runs `call` back to back for
/// its share of the untraced window after a warm-up, checking every output
/// against the reference (untimed). Sets every end-to-end metric but
/// peak_rss_mb; each is the median over set-ups.
///
/// Every set-up is measured because the optimizer times feature costs and
/// kernel variants, so what it returns, and how fast that runs, varies from
/// one set-up to the next. One untimed optimize comes first: the first in a
/// process pays one-off costs (page faults, lazy initialisation) that skew
/// its time and the feature costs it selects features by.
template <class Out>
LastSetup<Out> run_setups(
    const Plan& plan, const RunOptions& o, Report& r, const workloads::Workload& wl,
    const core::OptimizeOptions& opts, std::size_t rows,
    const std::function<Out(const core::OptimizedPipeline&)>& call,
    const std::function<double(const core::OptimizedPipeline&, const Out&)>& quality) {
  const auto optimize = [&] {
    return core::WillumpOptimizer::optimize(wl.pipeline, wl.train, wl.valid, opts);
  };
  (void)optimize();
  LastSetup<Out> last;
  std::vector<double> setup_s, per_call_s, qualities, all_calls;
  std::uint64_t mismatches = 0;
  for (int s = 0; s < plan.setups; ++s) {
    common::Timer timer;
    last.pipe = optimize();
    setup_s.push_back(timer.elapsed_seconds());
    last.reference = call(last.pipe);
    qualities.push_back(quality(last.pipe, last.reference));

    run_closed_loop(plan.warmup_s / plan.setups, [&](std::size_t) { (void)call(last.pipe); });
    last.pipe.run_stats() = {};
    Out out;
    const auto times = run_closed_loop(
        plan.measure_s / plan.setups, [&](std::size_t) { out = call(last.pipe); },
        [&](std::size_t i) {
          if (o.corrupt && s == 0 && i == 0) perturb(out);
          if (!same_output(out, last.reference)) ++mismatches;
        });
    r.add_attempted(times.size());
    // Medians, not means or tails: neighbouring tenants on a shared VM slow
    // whole seconds of a run by up to 40%, which moved a mean or a p99 by
    // 7-27% from run to run and the median by 4-8%.
    per_call_s.push_back(common::median(times));
    all_calls.insert(all_calls.end(), times.begin(), times.end());
    r.detail("latency_p50_ms.setup" + std::to_string(s), per_call_s.back() * 1e3, "ms");
  }
  r.add_failed(mismatches);
  r.check(mismatches == 0, "every call's output is bit-identical to the reference");
  last.per_call_s = per_call_s.back();
  const double per_call = common::median(per_call_s);
  r.end_to_end("setup_s", common::median(setup_s));
  r.end_to_end("rows_per_s", static_cast<double>(rows) / per_call);
  r.end_to_end("latency_p50_ms", per_call * 1e3);
  r.end_to_end("quality", common::median(qualities));
  r.detail("latency_p99_ms", common::percentile(all_calls, 99.0) * 1e3, "ms");
  r.detail("latency_samples", static_cast<double>(all_calls.size()), "count");
  return last;
}

/// The traced phase: the call composed layer by layer with spans, checked
/// bit-identical to the library call, then one probe per feature generator.
template <class Out>
void trace_batch(const Plan& plan, const RunOptions& o, Report& r,
                 const core::OptimizedPipeline& pipe, const data::Batch& batch,
                 const Out& reference, double untraced_median,
                 const std::function<Out(Tracer&, std::uint64_t)>& traced) {
  Tracer tracer(Clock::now());
  Out out;
  std::uint64_t mismatches = 0;
  const auto times = run_closed_loop(
      plan.traced_s, [&](std::size_t i) { out = traced(tracer, i); },
      [&](std::size_t) {
        if (!same_output(out, reference)) ++mismatches;
      });
  r.add_attempted(times.size());
  r.add_failed(mismatches);
  r.check(mismatches == 0, "composed traced outputs are bit-identical to the library call's");
  const auto ops = probe_generators(pipe, batch, o.smoke ? 1 : 5, tracer);
  report_span_layers(tracer, ops, r);
  r.layer("bench.trace_overhead_frac", common::median(times) / untraced_median - 1.0);
  tracer.write_chrome(trace_path(o, r));
}

/// `all` cut into consecutive batches of at most `rows` rows. Quality is
/// evaluated on the test split in batches of the served batch's size, so it
/// costs no more memory than a served call and leaves peak_rss_mb alone.
std::vector<data::Batch> in_batches(const data::Batch& all, std::size_t rows) {
  std::vector<data::Batch> out;
  for (std::size_t first = 0; first < all.num_rows(); first += rows) {
    std::vector<std::size_t> idx(std::min(rows, all.num_rows() - first));
    std::iota(idx.begin(), idx.end(), first);
    out.push_back(all.select_rows(idx));
  }
  return out;
}

bool valid_top_k(const std::vector<std::size_t>& idx, std::size_t k, std::size_t n) {
  std::vector<std::size_t> sorted = idx;
  std::sort(sorted.begin(), sorted.end());
  return sorted.size() == std::min(k, n) &&
         std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end() &&
         (sorted.empty() || sorted.back() < n);
}

}  // namespace

Report run_toxic_batch(const RunOptions& o) {
  Report r("toxic-batch");
  const Plan plan = plan_for(o);
  // Default train/valid splits; the test split is the pool each run's
  // 1500-row batch is drawn from.
  workloads::ToxicConfig cfg;
  cfg.sizes.test = 6000;
  if (o.smoke) cfg.sizes = {.train = 600, .valid = 250, .test = 500};
  const workloads::Workload wl = workloads::make_toxic(cfg);
  const data::Batch batch =
      wl.test.inputs.select_rows(sample_rows(o, cfg.sizes.test, o.smoke ? 250 : 1500));

  core::OptimizeOptions opts;
  opts.cascades = true;
  // Quality is the accuracy on the whole test split, not on the seed's draw
  // from it, so it moves only when what the optimizer returns does.
  const auto test = in_batches(wl.test.inputs, batch.num_rows());
  std::vector<double> full_accuracy;
  const auto last = run_setups<std::vector<double>>(
      plan, o, r, wl, opts, batch.num_rows(),
      [&](const core::OptimizedPipeline& p) { return p.predict(batch); },
      [&](const core::OptimizedPipeline& p, const std::vector<double>&) {
        std::vector<double> cascaded, full;
        for (const data::Batch& b : test) {
          const auto c = p.predict(b);
          const auto f = p.predict_full(b);
          cascaded.insert(cascaded.end(), c.begin(), c.end());
          full.insert(full.end(), f.begin(), f.end());
        }
        const double accuracy = models::accuracy(cascaded, wl.test.targets);
        full_accuracy.push_back(models::accuracy(full, wl.test.targets));
        r.check(common::accuracy_within_ci95(accuracy, full_accuracy.back(),
                                             wl.test.targets.size()),
                "cascade accuracy is within the 95% CI of the full model's");
        return accuracy;
      });
  r.detail("full_model_accuracy", common::median(full_accuracy), "ratio");
  r.detail("cascade_enabled", last.pipe.cascades_enabled() ? 1.0 : 0.0, "bool");
  r.layer("core.cascades.short_circuit_frac", last.pipe.run_stats().short_circuit_rate());

  if (o.trace) {
    trace_batch<std::vector<double>>(
        plan, o, r, last.pipe, batch, last.reference, last.per_call_s,
        [&](Tracer& t, std::uint64_t i) { return composed_predict(last.pipe, batch, t, i); });
  }
  r.end_to_end("peak_rss_mb", peak_rss_mb());
  return r;
}

Report run_price_topk(const RunOptions& o) {
  Report r("price-topk");
  const Plan plan = plan_for(o);
  // A 2500-row training split keeps MLP training -- most of set-up -- near
  // 3 s. Every query ranks one 8000-row candidate batch drawn from the test
  // split, so K = 100 is small against it as in the paper.
  workloads::PriceConfig cfg;
  cfg.sizes = o.smoke ? workloads::SplitSizes{.train = 600, .valid = 250, .test = 1600}
                      : workloads::SplitSizes{.train = 2500, .valid = 1000, .test = 16000};
  const workloads::Workload wl = workloads::make_price(cfg);
  const data::Batch batch =
      wl.test.inputs.select_rows(sample_rows(o, cfg.sizes.test, cfg.sizes.test / 2));
  constexpr std::size_t kTopK = 100;

  core::OptimizeOptions opts;
  opts.topk_filter = true;
  // Quality is the mean precision@100 over the test split's two halves, not
  // over the seed's draw from it, so it moves only when what the optimizer
  // returns does.
  const std::size_t n = batch.num_rows();
  const auto test = in_batches(wl.test.inputs, n);
  const auto last = run_setups<std::vector<std::size_t>>(
      plan, o, r, wl, opts, n,
      [&](const core::OptimizedPipeline& p) { return p.top_k(batch, kTopK); },
      [&](const core::OptimizedPipeline& p, const std::vector<std::size_t>& reference) {
        bool valid = valid_top_k(reference, kTopK, n);
        std::vector<double> precision;
        for (const data::Batch& b : test) {
          const auto found = p.top_k(b, kTopK);
          valid = valid && valid_top_k(found, kTopK, b.num_rows());
          precision.push_back(models::precision_at_k(
              found, models::top_k_indices(p.predict_full(b), kTopK)));
        }
        r.check(valid, "top-K returns K distinct valid row indices");
        return common::mean(precision);
      });
  r.detail("filter_enabled", last.pipe.cascade().enabled() ? 1.0 : 0.0, "bool");
  const auto& topk = last.pipe.topk_stats();
  r.layer("core.topk.subset_frac",
          topk.batch_size == 0 ? 0.0
                               : static_cast<double>(topk.subset_size) /
                                     static_cast<double>(topk.batch_size));

  if (o.trace) {
    trace_batch<std::vector<std::size_t>>(
        plan, o, r, last.pipe, batch, last.reference, last.per_call_s,
        [&](Tracer& t, std::uint64_t i) {
          return composed_top_k(last.pipe, batch, kTopK, t, i);
        });
  }
  r.end_to_end("peak_rss_mb", peak_rss_mb());
  return r;
}

}  // namespace e2e
