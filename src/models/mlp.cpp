#include "models/mlp.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "kernels/gemv.hpp"
#include "kernels/sparse_mlp.hpp"
#include "serialize/buffer.hpp"

namespace willump::models {

namespace {

/// Adam state for one parameter tensor.
struct Adam {
  std::vector<double> m, v;
  double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  int t = 0;
  // Bias corrections 1 - beta^t of the current step, computed once per
  // step instead of once per updated weight.
  double corr1 = 1.0, corr2 = 1.0;

  explicit Adam(std::size_t n) : m(n, 0.0), v(n, 0.0) {}

  void step_begin() {
    ++t;
    corr1 = 1 - std::pow(beta1, t);
    corr2 = 1 - std::pow(beta2, t);
  }

  double update(std::size_t i, double g, double lr) {
    m[i] = beta1 * m[i] + (1 - beta1) * g;
    v[i] = beta2 * v[i] + (1 - beta2) * g * g;
    const double mh = m[i] / corr1;
    const double vh = v[i] / corr2;
    return lr * mh / (std::sqrt(vh) + eps);
  }
};

}  // namespace

double Mlp::output_of(double z) const {
  return cfg_.classification ? 1.0 / (1.0 + std::exp(-z)) : z;
}

double Mlp::forward_dense(std::span<const double> row,
                          std::vector<double>& h) const {
  const auto hidden = static_cast<std::size_t>(cfg_.hidden);
  h.assign(hidden, 0.0);
  for (std::size_t j = 0; j < hidden; ++j) {
    double acc = b1_[j];
    const double* wrow = w1_.data() + j * in_dim_;
    for (std::size_t i = 0; i < row.size(); ++i) acc += wrow[i] * row[i];
    h[j] = acc > 0.0 ? acc : 0.0;
  }
  double z = b2_;
  for (std::size_t j = 0; j < hidden; ++j) z += w2_[j] * h[j];
  return z;
}

double Mlp::forward_sparse(const data::CsrMatrix::RowView& row,
                           std::vector<double>& h) const {
  const auto hidden = static_cast<std::size_t>(cfg_.hidden);
  h.assign(hidden, 0.0);
  for (std::size_t j = 0; j < hidden; ++j) {
    double acc = b1_[j];
    const double* wrow = w1_.data() + j * in_dim_;
    for (std::size_t k = 0; k < row.nnz(); ++k) {
      acc += wrow[static_cast<std::size_t>(row.indices[k])] * row.values[k];
    }
    h[j] = acc > 0.0 ? acc : 0.0;
  }
  double z = b2_;
  for (std::size_t j = 0; j < hidden; ++j) z += w2_[j] * h[j];
  return z;
}

void Mlp::fit(const data::FeatureMatrix& x, std::span<const double> y) {
  const std::size_t n = x.rows();
  in_dim_ = x.cols();
  const auto hidden = static_cast<std::size_t>(cfg_.hidden);

  common::Rng rng(cfg_.seed);
  const double scale = std::sqrt(2.0 / static_cast<double>(in_dim_ + 1));
  w1_.assign(hidden * in_dim_, 0.0);
  for (auto& w : w1_) w = rng.next_gaussian() * scale;
  b1_.assign(hidden, 0.0);
  w2_.assign(hidden, 0.0);
  for (auto& w : w2_) w = rng.next_gaussian() * std::sqrt(2.0 / static_cast<double>(hidden));
  b2_ = 0.0;

  Adam opt_w1(w1_.size()), opt_b1(b1_.size()), opt_w2(w2_.size()), opt_b2(1);

  std::vector<double> h;
  std::vector<double> dh(hidden);

  for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
    auto order = rng.permutation(n);
    for (std::size_t r : order) {
      double z;
      data::CsrMatrix::RowView srow{};
      std::span<const double> drow;
      const bool dense = x.is_dense();
      if (dense) {
        drow = x.dense().row(r);
        z = forward_dense(drow, h);
      } else {
        srow = x.sparse().row(r);
        z = forward_sparse(srow, h);
      }
      const double pred = output_of(z);
      // d(loss)/dz is (pred - y) for both squared loss (identity output,
      // up to a factor of 2 folded into the learning rate) and log loss.
      const double dz = pred - y[r];

      opt_w1.step_begin();
      opt_b1.step_begin();
      opt_w2.step_begin();
      opt_b2.step_begin();

      for (std::size_t j = 0; j < hidden; ++j) {
        dh[j] = h[j] > 0.0 ? dz * w2_[j] : 0.0;
        const double gw2 = dz * h[j] + cfg_.l2 * w2_[j];
        w2_[j] -= opt_w2.update(j, gw2, cfg_.learning_rate);
      }
      b2_ -= opt_b2.update(0, dz, cfg_.learning_rate);

      for (std::size_t j = 0; j < hidden; ++j) {
        if (dh[j] == 0.0) continue;
        double* wrow = w1_.data() + j * in_dim_;
        if (dense) {
          for (std::size_t i = 0; i < drow.size(); ++i) {
            const double g = dh[j] * drow[i] + cfg_.l2 * wrow[i];
            wrow[i] -= opt_w1.update(j * in_dim_ + i, g, cfg_.learning_rate);
          }
        } else {
          for (std::size_t k = 0; k < srow.nnz(); ++k) {
            const auto i = static_cast<std::size_t>(srow.indices[k]);
            const double g = dh[j] * srow.values[k] + cfg_.l2 * wrow[i];
            wrow[i] -= opt_w1.update(j * in_dim_ + i, g, cfg_.learning_rate);
          }
        }
        b1_[j] -= opt_b1.update(j, dh[j], cfg_.learning_rate);
      }
    }
  }
  build_w1t();
}

void Mlp::build_w1t() {
  const auto hidden = static_cast<std::size_t>(cfg_.hidden);
  w1t_.resize(w1_.size());
  for (std::size_t j = 0; j < hidden; ++j) {
    for (std::size_t i = 0; i < in_dim_; ++i) {
      w1t_[i * hidden + j] = w1_[j * in_dim_ + i];
    }
  }
}

std::vector<double> Mlp::predict(const data::FeatureMatrix& x) const {
  std::vector<double> out(x.rows());
  predict_into(x, out);
  return out;
}

void Mlp::predict_into(const data::FeatureMatrix& x,
                       std::span<double> out) const {
  // Checked once per call: a wider CSR input would index past w1t_.
  if (x.cols() != in_dim_) {
    throw std::invalid_argument("Mlp::predict_into: input has " +
                                std::to_string(x.cols()) +
                                " columns, model expects " +
                                std::to_string(in_dim_));
  }
  const std::size_t n = x.rows();
  const auto hidden = static_cast<std::size_t>(cfg_.hidden);
  if (!x.is_dense()) {
    // CSR rows add one contiguous row of the transposed first layer per
    // nonzero, without densification. The path follows the CPU, not
    // kcfg_.dot: every path gives the bits of forward_sparse.
    const auto& m = x.sparse();
    thread_local std::vector<double> hbuf;
    if (hbuf.size() < hidden) hbuf.resize(hidden);
    kernels::sparse_mlp_outputs(kernels::native_sparse_mlp_path(),
                                m.indptr().data(), m.indices().data(),
                                m.values().data(), n, w1t_.data(), b1_.data(),
                                w2_.data(), b2_, hidden, hbuf.data(),
                                out.data());
    for (std::size_t r = 0; r < n; ++r) out[r] = output_of(out[r]);
    return;
  }

  // Blocked GEMM shape: run a block of rows through the hidden layer
  // (each weight row streams once per block), then the output layer over
  // the contiguous activations.
  const auto& m = x.dense();
  const std::size_t stride = m.cols();
  constexpr std::size_t kRows = 32;
  const auto ev = kernels::effective_dot(kcfg_.dot);
  thread_local std::vector<double> h;
  if (h.size() < kRows * hidden) h.resize(kRows * hidden);
  for (std::size_t r0 = 0; r0 < n; r0 += kRows) {
    const std::size_t bsz = std::min(kRows, n - r0);
    kernels::hidden_relu(ev, m.data().data() + r0 * stride, bsz, stride,
                         w1_.data(), b1_.data(), hidden, in_dim_, h.data());
    for (std::size_t b = 0; b < bsz; ++b) {
      const double* hb = h.data() + b * hidden;
      double z;
      if (ev == kernels::DotVariant::Scalar) {
        // Reference order: bias-seeded accumulator (the pre-kernel loop).
        z = b2_;
        for (std::size_t j = 0; j < hidden; ++j) z += w2_[j] * hb[j];
      } else {
        z = b2_ + kernels::dot(ev, w2_.data(), hb, hidden);
      }
      out[r0 + b] = output_of(z);
    }
  }
}

void Mlp::save(serialize::Writer& w) const {
  w.i32(cfg_.hidden);
  w.i32(cfg_.epochs);
  w.f64(cfg_.learning_rate);
  w.f64(cfg_.l2);
  w.u8(cfg_.classification ? 1 : 0);
  w.u64(cfg_.seed);
  w.u64(in_dim_);
  w.doubles(w1_);
  w.doubles(b1_);
  w.doubles(w2_);
  w.f64(b2_);
  kernels::save_kernel_config(w, kcfg_);
}

std::unique_ptr<Mlp> Mlp::load(serialize::Reader& r) {
  MlpConfig cfg;
  cfg.hidden = r.i32();
  cfg.epochs = r.i32();
  cfg.learning_rate = r.f64();
  cfg.l2 = r.f64();
  cfg.classification = r.u8() != 0;
  cfg.seed = r.u64();
  if (cfg.hidden < 0) {
    throw serialize::SerializeError(serialize::ErrorCode::CorruptData,
                                    "mlp hidden size negative");
  }
  auto m = std::make_unique<Mlp>(cfg);
  m->in_dim_ = static_cast<std::size_t>(r.u64());
  m->w1_ = r.doubles();
  m->b1_ = r.doubles();
  m->w2_ = r.doubles();
  m->b2_ = r.f64();
  const auto hidden = static_cast<std::size_t>(cfg.hidden);
  // Shape check by division, not multiplication: hidden * in_dim_ can wrap
  // for absurd in_dim_ values and make an undersized w1_ "match".
  const bool w1_ok = hidden == 0
                         ? m->w1_.empty()
                         : (m->w1_.size() % hidden == 0 &&
                            m->w1_.size() / hidden == m->in_dim_);
  if (!w1_ok || m->b1_.size() != hidden || m->w2_.size() != hidden) {
    throw serialize::SerializeError(serialize::ErrorCode::CorruptData,
                                    "mlp layer shapes inconsistent");
  }
  m->build_w1t();
  m->kcfg_ = kernels::load_kernel_config(r);
  return m;
}

}  // namespace willump::models
