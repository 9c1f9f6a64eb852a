#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/matrix.hpp"
#include "kernels/dispatch.hpp"

namespace willump::serialize {
class Reader;
class Writer;
}

namespace willump::models {

/// Abstract trainable model over feature matrices.
///
/// Classifiers return P(class = 1) from `predict`; the predicted label is
/// `p > 0.5` and the confidence used by Willump's cascades is max(p, 1-p).
/// Regressors return the raw score. Every model exposes per-feature
/// prediction importances, which Willump's cascade optimizer aggregates into
/// per-IFV importances (paper §4.2, stage 1).
class Model {
 public:
  virtual ~Model() = default;

  /// Train on `x` with targets `y` (labels in {0,1} for classifiers).
  virtual void fit(const data::FeatureMatrix& x, std::span<const double> y) = 0;

  /// Per-row probability (classifier) or score (regressor).
  virtual std::vector<double> predict(const data::FeatureMatrix& x) const = 0;

  /// Batched prediction into caller-owned storage (`out.size()` must be
  /// x.rows()). The kernel-backed built-ins override this allocation-free —
  /// it is the serving batch path, where per-request allocations dominate
  /// small-model cost — while the default wraps predict() so user models
  /// keep working unchanged.
  virtual void predict_into(const data::FeatureMatrix& x,
                            std::span<double> out) const {
    const std::vector<double> p = predict(x);
    std::copy(p.begin(), p.end(), out.begin());
  }

  /// Cascade-aware prediction: fill `preds` and mark hard[i] = 1 exactly
  /// when confidence(preds[i]) <= threshold (the rows the cascade must send
  /// to the full model, paper §4.2). hard[i] = 1 permits a PARTIAL value in
  /// preds[i] — the cascade overwrites hard rows, so models may short-
  /// circuit their own evaluation once a row is provably hard (the GBDT
  /// does, via per-tree margin bounds). Defined out of line after
  /// confidence(); default evaluates fully then thresholds.
  virtual void predict_cascade(const data::FeatureMatrix& x, double threshold,
                               std::span<double> preds,
                               std::span<std::uint8_t> hard) const;

  /// Kernel-variant selection used by the batched prediction paths of the
  /// built-in models (ignored by models without kernels). native_config()
  /// unless OptimizeOptions::kernel_config forces another; serialized with
  /// the model so a loaded artifact reproduces the saved arithmetic.
  const kernels::KernelConfig& kernel_config() const { return kcfg_; }
  void set_kernel_config(const kernels::KernelConfig& c) { kcfg_ = c; }

  /// Whether `predict` returns probabilities of the positive class.
  virtual bool is_classifier() const = 0;

  /// Per-feature prediction importances (same length as training columns).
  ///
  /// Strategy follows the paper: linear models report |w_i| * mean|x_i|;
  /// ensembles report importances computed during construction; models with
  /// no native notion (the MLP) report none and callers fall back to a
  /// GBDT proxy (see core::Importance).
  virtual std::vector<double> feature_importances() const = 0;

  /// Untrained copy with identical hyperparameters (used to train the small
  /// model of a cascade from the same model family).
  virtual std::unique_ptr<Model> clone_untrained() const = 0;

  virtual std::string name() const = 0;

  /// Write hyperparameters and trained state so the model registry
  /// (serialize/model_registry.hpp) can rebuild this model under the type
  /// tag name() returns. Built-in models override this; the default keeps
  /// user-defined models compiling until they implement the contract.
  virtual void save(serialize::Writer& w) const {
    (void)w;
    throw std::logic_error("model \"" + name() + "\" is not serializable");
  }

 protected:
  kernels::KernelConfig kcfg_ = kernels::native_config();
};

/// Binary prediction threshold shared across the library.
inline double predicted_label(double proba) { return proba > 0.5 ? 1.0 : 0.0; }

/// Confidence of a binary probabilistic prediction: max(p, 1-p).
inline double confidence(double proba) { return proba > 0.5 ? proba : 1.0 - proba; }

inline void Model::predict_cascade(const data::FeatureMatrix& x,
                                   double threshold, std::span<double> preds,
                                   std::span<std::uint8_t> hard) const {
  predict_into(x, preds);
  for (std::size_t i = 0; i < preds.size(); ++i) {
    hard[i] = confidence(preds[i]) <= threshold ? 1 : 0;
  }
}

}  // namespace willump::models
