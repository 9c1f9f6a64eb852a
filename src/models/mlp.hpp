#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "models/model.hpp"

namespace willump::models {

/// Hyperparameters for the two-layer perceptron.
struct MlpConfig {
  int hidden = 32;
  int epochs = 8;
  double learning_rate = 1e-2;  // Adam step size
  double l2 = 1e-6;
  bool classification = false;  // Price (the paper's NN workload) is regression
  std::uint64_t seed = 5;
};

/// Two-layer perceptron: (dense|sparse) input -> ReLU hidden -> scalar output,
/// trained with Adam. The input layer multiplies CSR rows without
/// densification, which is what makes a TF-IDF-fed NN (the paper's Price
/// benchmark) practical.
///
/// The MLP has no native feature-importance measure; per the paper (§4.2),
/// Willump trains a GBDT proxy on the same features and uses its importances
/// (see core/importance.cpp). `feature_importances()` therefore returns {}.
///
/// Training keeps the first layer row-major (hidden x in), the layout it
/// updates on every step and the one artifacts store. Prediction on CSR
/// rows reads a transposed copy (in x hidden, never serialized) through
/// kernels::sparse_mlp_outputs, so each nonzero reads one contiguous weight
/// row; the sums run in the same order, so the bits are the same.
class Mlp final : public Model {
 public:
  explicit Mlp(MlpConfig cfg = {}) : cfg_(cfg) {}

  void fit(const data::FeatureMatrix& x, std::span<const double> y) override;
  std::vector<double> predict(const data::FeatureMatrix& x) const override;
  void predict_into(const data::FeatureMatrix& x,
                    std::span<double> out) const override;
  bool is_classifier() const override { return cfg_.classification; }
  std::vector<double> feature_importances() const override { return {}; }
  std::unique_ptr<Model> clone_untrained() const override {
    return std::make_unique<Mlp>(cfg_);
  }
  std::string name() const override { return "mlp"; }
  void save(serialize::Writer& w) const override;

  static std::unique_ptr<Mlp> load(serialize::Reader& r);

 private:
  /// Forward pass for one row; fills `hidden_buf` with post-ReLU activations.
  double forward_dense(std::span<const double> row,
                       std::vector<double>& hidden_buf) const;
  double forward_sparse(const data::CsrMatrix::RowView& row,
                        std::vector<double>& hidden_buf) const;
  double output_of(double z) const;
  /// Derives w1t_ from w1_ (after fit, and in load once shapes check out).
  void build_w1t();

  MlpConfig cfg_;
  std::size_t in_dim_ = 0;
  std::vector<double> w1_;   // hidden x in, row-major; what save() writes
  std::vector<double> w1t_;  // in x hidden: w1_ transposed, for CSR predict
  std::vector<double> b1_;   // hidden
  std::vector<double> w2_;   // hidden
  double b2_ = 0.0;
};

}  // namespace willump::models
