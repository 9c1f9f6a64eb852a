#pragma once

#include <chrono>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>

namespace willump::serving {

/// Why a submitted request was resolved without a prediction. Delivered as
/// a `RejectedError` through the request's future or callback — never as an
/// exception thrown from submit() itself — so overload keeps the engine's
/// exactly-once completion contract: every submit resolves exactly once,
/// as a prediction, a typed rejection, or an expiry.
enum class RejectReason {
  /// The model's bounded queue stayed full for the configured submit wait.
  /// This replaces the old behavior of blocking the producer indefinitely.
  kQueueFull,
  /// The request belongs to a best-effort class and a higher-priority
  /// class's controller is under pressure; the engine sheds it to protect
  /// the higher class's deadline attainment (shed-lowest-class-first).
  kShedBestEffort,
  /// The per-model latency/queue model predicts this request would miss
  /// its deadline anyway (attainment below target beyond the 95% CI);
  /// executing it would waste a replica slot on a doomed request.
  kPredictedMiss,
  /// The request's deadline had already passed when a worker dequeued it;
  /// it was dropped before claiming a replica (dead on arrival).
  kExpired,
};

/// Stable lowercase name of a rejection reason (for logs and bench tables).
std::string_view to_string(RejectReason reason);

/// Typed overload rejection: the error a shed, rejected, or expired
/// request's future/callback delivers. Carries the model name and the
/// RejectReason so drivers can account shed and expired rates separately
/// from real execution errors.
class RejectedError : public std::runtime_error {
 public:
  RejectedError(std::string model, RejectReason reason);

  RejectReason reason() const noexcept { return reason_; }
  const std::string& model() const noexcept { return model_; }

 private:
  std::string model_;
  RejectReason reason_;
};

/// Per-model load-control policy (part of ModelConfig).
///
/// The estimators behind it (LoadController) always run — they are a few
/// EWMA updates per submit/batch — so `Server::recommended_replicas` works
/// for every model. `enabled` gates only the *decisions*: admission
/// rejection (kShedBestEffort / kPredictedMiss) and the workers' expiry
/// drop (kExpired). With it off, deadlines remain pure objectives and
/// every admitted request completes, exactly the legacy semantics.
///
/// Queue-full handling is NOT gated here: submit paths never block on a
/// full queue regardless of this config (see RequestQueue::try_push_for);
/// `submit_wait_micros` only bounds how long a submit may wait for space
/// before the typed kQueueFull rejection.
struct LoadControlConfig {
  /// Turn on admission control (predicted-miss + best-effort shedding) and
  /// the workers' expired-request drop.
  bool enabled = false;
  /// EWMA smoothing factor of the service-time and arrival-rate
  /// estimators, in (0, 1]; larger adapts faster, smaller is steadier.
  double ewma_alpha = 0.2;
  /// Bounded wait for space on a full queue before kQueueFull is returned.
  /// 0 (default) = non-blocking try. Keep this far under a second: the
  /// whole point is that no submit ever blocks behind a saturated model.
  double submit_wait_micros = 0.0;
  /// Deadline-attainment objective the predictions are judged against.
  /// Decisions use the paper's §6.3 statistical criterion — predicted
  /// attainment must fall below this target by more than the 95% binomial
  /// CI at the observed sample size — not a hard threshold.
  double target_attainment = 0.99;
  /// Batches the estimators must observe before predictions act; until
  /// then every request is admitted (cold models never self-shed).
  std::size_t min_observations = 5;
  /// Upper bound of the recommended_replicas search.
  std::size_t max_replicas = 8;
};

/// One coherent read of a LoadController's estimator state (all fields
/// sampled under the same lock). This is the autoscaler's input: the pure
/// AutoscalePolicy (serving/autoscaler.hpp) re-evaluates the steady-state
/// attainment model from a snapshot at hypothetical replica counts, and
/// tests fabricate snapshots directly to pin every decision edge.
struct LoadSnapshot {
  /// Smoothed per-row service time, seconds (0 while cold).
  double service_seconds_per_row = 0.0;
  /// Smoothed arrival rate, rows/second (0 before two arrivals).
  double arrival_qps = 0.0;
  /// Batches the estimators have observed (the cold-start guard's input).
  std::size_t batches = 0;
  /// Rows observed — the CI sample size of the statistical criterion.
  std::size_t rows = 0;
  /// The model's per-query deadline, seconds.
  double deadline_seconds = 0.0;
  /// Attainment objective predictions are judged against.
  double target_attainment = 0.99;
};

/// Online per-model latency/queue model: EWMA service-time and
/// arrival-rate estimators (fed from the same observations that populate
/// ModelStats' latency histogram) turned into deadline-attainment predictions.
///
/// The queueing model is deliberately simple — the statistical-modeling
/// approach for inference serving (Ray et al.; see PAPERS.md), not a full
/// simulator. With per-row service time `s` (seconds), arrival rate
/// `lambda` (rows/s) and `k` replicas:
///
/// - a request arriving with `d` requests queued ahead of it waits
///   roughly `s * (d + 1) / k` for its turn plus `s` to execute;
/// - the steady-state sojourn uses the utilization `rho = lambda * s / k`
///   (an M/M/k-flavored approximation): `W = s + s * rho / (k * (1 - rho))`,
///   diverging as rho -> 1 exactly as a saturated queue does;
/// - attainment is the probability an exponentially distributed sojourn
///   with mean W beats the deadline: `P = 1 - exp(-deadline / W)`.
///
/// Decisions never compare P against the target directly: they ask whether
/// P is statistically below it, via common::accuracy_within_ci95 at the
/// number of rows observed so far — the same CI criterion the paper's §6.3
/// uses for accuracy acceptance. A cold estimator (wide CI) admits
/// everything; confidence, not a constant, is what arms the shed path.
///
/// Thread safety: every method serializes on an internal mutex; updates
/// are a handful of arithmetic ops, far below the cost of the inference
/// they observe.
class LoadController {
 public:
  LoadController(LoadControlConfig cfg, double deadline_micros);

  /// Record one submit arrival (feeds the arrival-rate EWMA).
  void on_arrival(std::chrono::steady_clock::time_point now);

  /// Record one executed batch of `rows` rows taking `seconds` (feeds the
  /// per-row service-time EWMA).
  void on_batch(std::size_t rows, double seconds);

  /// Smoothed per-row service time, seconds (0 before any batch).
  double service_seconds_per_row() const;
  /// Smoothed arrival rate, rows/second (0 before two arrivals).
  double arrival_qps() const;
  /// Batches observed so far.
  std::size_t observations() const;
  /// One coherent snapshot of the estimator state (see LoadSnapshot).
  LoadSnapshot snapshot() const;
  /// True once min_observations batches have been seen.
  bool warmed_up() const;

  /// Predicted submit-to-completion sojourn of a request entering now with
  /// `queue_depth` requests ahead of it and `replicas` execution slots.
  double predicted_sojourn_seconds(std::size_t queue_depth,
                                   std::size_t replicas) const;

  /// Predicted attainment of one request entering at `queue_depth` (the
  /// admission-time view).
  double predicted_attainment(std::size_t queue_depth,
                              std::size_t replicas) const;

  /// Steady-state predicted attainment at `replicas` slots under the
  /// current arrival rate (the replica-sizing view).
  double steady_state_attainment(std::size_t replicas) const;

  /// Admission decision: false when the request is statistically predicted
  /// to miss its deadline (attainment below target beyond the 95% CI).
  /// Always true before warm-up.
  bool admit(std::size_t queue_depth, std::size_t replicas) const;

  /// Pressure signal for cross-class shedding: true when the *steady
  /// state* at the current replica count is statistically predicted to
  /// miss the attainment target — the model cannot keep up even with an
  /// empty queue, so lower classes should get out of its way.
  bool overloaded(std::size_t replicas) const;

  /// Predictive replica sizing: the smallest replica count (<= max of
  /// max_replicas and `current`) whose steady-state predicted attainment
  /// passes the CI criterion against the target; `current` before warm-up.
  /// Both grow (overload) and shrink (idle) fall out of "smallest".
  std::size_t recommended_replicas(std::size_t current) const;

 private:
  double sojourn_locked(std::size_t queue_depth, std::size_t replicas) const;
  double steady_sojourn_locked(std::size_t replicas) const;
  double attainment_of_sojourn(double sojourn_seconds) const;
  bool passes_target_locked(double attainment) const;

  const LoadControlConfig cfg_;
  const double deadline_seconds_;

  mutable std::mutex mu_;
  double service_ewma_ = 0.0;  // seconds per row
  double rate_ewma_ = 0.0;     // arrivals per second
  std::chrono::steady_clock::time_point last_arrival_{};
  bool have_arrival_ = false;
  std::size_t batches_ = 0;
  std::size_t rows_ = 0;  // CI sample size for the statistical criterion
};

}  // namespace willump::serving
