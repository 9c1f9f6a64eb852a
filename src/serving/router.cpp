#include "serving/router.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/hash.hpp"
#include "serialize/artifact.hpp"

namespace willump::serving {

namespace {

/// Ring point of one virtual node: a stable hash of (shard, vnode) so the
/// ring — and therefore every model's placement — is identical across
/// runs, builds, and processes.
std::uint64_t vnode_point(std::size_t shard, std::size_t vnode) {
  return common::hash_combine(common::hash_u64(shard + 1),
                              common::hash_u64(vnode + 0x9E3779B9ULL));
}

}  // namespace

Router::Router(RouterConfig cfg) : cfg_(cfg) {
  const std::size_t n = std::max<std::size_t>(1, cfg_.num_shards);
  const std::size_t vnodes = std::max<std::size_t>(1, cfg_.virtual_nodes);
  shards_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    shards_.push_back(std::make_unique<Server>(cfg_.shard));
  }
  ring_.reserve(n * vnodes);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t v = 0; v < vnodes; ++v) {
      ring_.emplace_back(vnode_point(s, v), s);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

Router::~Router() { shutdown(); }

std::size_t Router::shard_of(std::string_view model) const {
  // First ring point clockwise of the name's hash; wrap to the start. The
  // splitmix finalizer on top of FNV-1a matters: similar short names
  // ("model-1", "model-2") share their FNV high bits and would otherwise
  // all land in one ring gap — the finalizer avalanches them over the
  // whole ring.
  const std::uint64_t h = common::hash_u64(common::fnv1a(model));
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const std::pair<std::uint64_t, std::size_t>& p, std::uint64_t key) {
        return p.first < key;
      });
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

void Router::register_model(std::string name,
                            const core::OptimizedPipeline* pipeline,
                            ModelConfig cfg) {
  if (pipeline == nullptr) {
    throw std::invalid_argument("Router::register_model: null pipeline");
  }
  register_model(std::move(name),
                 std::shared_ptr<const core::OptimizedPipeline>(
                     pipeline, [](const core::OptimizedPipeline*) {}),
                 cfg);
}

void Router::register_model(
    std::string name, std::shared_ptr<const core::OptimizedPipeline> pipeline,
    ModelConfig cfg) {
  const std::size_t shard = shard_of(name);
  std::lock_guard<std::mutex> lock(placement_mu_);
  if (routed_.load(std::memory_order_acquire)) {
    throw std::logic_error(
        "Router::register_model: routing has started; register every model "
        "before the first request");
  }
  if (placement_.count(name) != 0) {
    throw std::invalid_argument("Router::register_model: duplicate model \"" +
                                name + "\"");
  }
  // The shard registers first: its validation (null pipeline, bad SLO
  // class) runs before the placement table is touched, so a rejected
  // registration leaves the router exactly as it was.
  shards_[shard]->register_model(name, std::move(pipeline), cfg);
  placement_.emplace(name, shard);
  names_.push_back(std::move(name));
}

void Router::load_model(std::string name, const std::string& artifact_path,
                        ModelConfig cfg) {
  // Deserialize before touching any table: artifact failures surface as
  // serialize::SerializeError with the fleet untouched.
  auto pipeline = std::make_shared<const core::OptimizedPipeline>(
      serialize::load_pipeline(artifact_path));
  register_model(std::move(name), std::move(pipeline), cfg);
}

void Router::add_replica(
    std::string_view model,
    std::shared_ptr<const core::OptimizedPipeline> pipeline) {
  owner(model).add_replica(model, std::move(pipeline));
}

void Router::add_replica(std::string_view model,
                         const std::string& artifact_path) {
  owner(model).add_replica(model, artifact_path);
}

void Router::add_replica(std::string_view model) {
  owner(model).add_replica(model);
}

void Router::retire_replica(std::string_view model) {
  owner(model).retire_replica(model);
}

std::size_t Router::replica_count(std::string_view model) const {
  return owner(model).replica_count(model);
}

std::size_t Router::draining_replicas(std::string_view model) const {
  return owner(model).draining_replicas(model);
}

void Router::swap_model(std::string_view model,
                        const std::string& artifact_path) {
  owner(model).swap_model(model, artifact_path);
}

void Router::swap_model(
    std::string_view model,
    std::shared_ptr<const core::OptimizedPipeline> pipeline) {
  owner(model).swap_model(model, std::move(pipeline));
}

void Router::swap_replica(std::string_view model, std::size_t replica,
                          const std::string& artifact_path) {
  owner(model).swap_replica(model, replica, artifact_path);
}

void Router::swap_replica(
    std::string_view model, std::size_t replica,
    std::shared_ptr<const core::OptimizedPipeline> pipeline) {
  owner(model).swap_replica(model, replica, std::move(pipeline));
}

std::vector<std::string> Router::model_names() const {
  std::lock_guard<std::mutex> lock(placement_mu_);
  return names_;
}

bool Router::has_model(std::string_view model) const {
  std::lock_guard<std::mutex> lock(placement_mu_);
  return placement_.find(model) != placement_.end();
}

Server& Router::owner(std::string_view model) const {
  // Same freeze discipline as Server's name table: once routing has
  // started the placement table is immutable, so the request path reads
  // it without a lock — and without materializing a std::string (the
  // placement map uses the transparent NameHash).
  auto lookup = [&]() -> const std::size_t* {
    auto it = placement_.find(model);
    return it == placement_.end() ? nullptr : &it->second;
  };
  const std::size_t* shard = nullptr;
  if (routed_.load(std::memory_order_acquire)) {
    shard = lookup();
  } else {
    std::lock_guard<std::mutex> lock(placement_mu_);
    shard = lookup();
  }
  if (shard == nullptr) {
    throw std::invalid_argument("Router: unknown model \"" +
                                std::string(model) + "\"");
  }
  return *shards_[*shard];
}

void Router::freeze_routing() {
  // Publish the frozen placement table before any lock-free owner()
  // lookup can observe routed_ == true (mirrors Server::start_serving).
  if (routed_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(placement_mu_);
  routed_.store(true, std::memory_order_release);
}

std::future<double> Router::submit(std::string_view model, data::Batch row) {
  freeze_routing();
  Server& s = owner(model);
  auto future = s.submit(model, std::move(row));
  // Counted only after the shard accepted it: a rejected request (engine
  // shut down, malformed row) is not routed work, and routed_queries
  // stays reconcilable with the shards' own query counters.
  routed_queries_.fetch_add(1, std::memory_order_relaxed);
  return future;
}

void Router::submit(std::string_view model, data::Batch row,
                    Server::Callback done) {
  if (!done) {
    throw std::invalid_argument("Router::submit: empty completion callback");
  }
  freeze_routing();
  Server& s = owner(model);
  // Forwarded completion: the shard worker that executed the batch invokes
  // this wrapper, which accounts the hop and hands the result to the
  // client callback — the client never learns which shard served it.
  s.submit(model, std::move(row),
           [this, done = std::move(done)](double prediction,
                                          std::exception_ptr error) {
             forwarded_completions_.fetch_add(1, std::memory_order_relaxed);
             if (error != nullptr) {
               forwarded_errors_.fetch_add(1, std::memory_order_relaxed);
               // Typed overload rejections are accounted separately so a
               // fleet dashboard can tell shed load from broken models.
               try {
                 std::rethrow_exception(error);
               } catch (const RejectedError&) {
                 forwarded_rejections_.fetch_add(1, std::memory_order_relaxed);
               } catch (...) {
               }
             }
             done(prediction, error);
           });
  // After the shard accepted it (a rejecting submit throws before any
  // completion can fire, so the counters stay consistent).
  routed_queries_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<double> Router::predict_batch(std::string_view model,
                                          const data::Batch& batch) {
  // Every routed request path freezes the placement table, including the
  // synchronous one (unlike Server::predict_batch, which leaves its
  // registry open for ClipperSim: a router-fronted fleet has no
  // register-between-batches client to support).
  freeze_routing();
  Server& s = owner(model);
  auto preds = s.predict_batch(model, batch);
  routed_queries_.fetch_add(batch.num_rows(), std::memory_order_relaxed);
  return preds;
}

std::vector<double> Router::predict_rows(std::string_view model,
                                         const data::Batch& batch) {
  freeze_routing();
  Server& s = owner(model);
  auto preds = s.predict_rows(model, batch);
  routed_queries_.fetch_add(batch.num_rows(), std::memory_order_relaxed);
  return preds;
}

std::size_t Router::recommended_replicas(std::string_view model) const {
  return owner(model).recommended_replicas(model);
}

ModelStats Router::stats(std::string_view model) const {
  return owner(model).stats(model);
}

RouterStats Router::stats() const {
  RouterStats out;
  out.shards = shards_.size();
  out.routed_queries = routed_queries_.load(std::memory_order_relaxed);
  out.forwarded_completions =
      forwarded_completions_.load(std::memory_order_relaxed);
  out.forwarded_errors = forwarded_errors_.load(std::memory_order_relaxed);
  out.forwarded_rejections =
      forwarded_rejections_.load(std::memory_order_relaxed);
  for (const auto& s : shards_) {
    const ServerStats ss = s->stats();
    out.models += ss.models;
    out.serving.models += ss.models;
    out.serving.queries += ss.queries;
    out.serving.cache_hits += ss.cache_hits;
    out.serving.batches += ss.batches;
    out.serving.rows += ss.rows;
    out.serving.largest_batch =
        std::max(out.serving.largest_batch, ss.largest_batch);
    out.serving.stolen_batches += ss.stolen_batches;
    out.serving.deadline_hits += ss.deadline_hits;
    out.serving.completions += ss.completions;
    out.serving.expired += ss.expired;
    out.serving.shed += ss.shed;
    out.serving.scale_ups += ss.scale_ups;
    out.serving.scale_downs += ss.scale_downs;
    out.serving.draining += ss.draining;
    out.serving.inference_seconds += ss.inference_seconds;
    out.serving.latency_histogram.merge(ss.latency_histogram);
  }
  out.serving.latency = out.serving.latency_histogram.summary();
  out.serving.latency_samples = out.serving.latency_histogram.count();
  return out;
}

void Router::reset_stats() {
  routed_queries_.store(0, std::memory_order_relaxed);
  forwarded_completions_.store(0, std::memory_order_relaxed);
  forwarded_errors_.store(0, std::memory_order_relaxed);
  forwarded_rejections_.store(0, std::memory_order_relaxed);
  for (const auto& s : shards_) s->reset_stats();
}

void Router::shutdown() {
  for (const auto& s : shards_) s->shutdown();
}

}  // namespace willump::serving
