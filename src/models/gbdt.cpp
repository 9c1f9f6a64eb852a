#include "models/gbdt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "serialize/buffer.hpp"
#include "serialize/intern.hpp"

namespace willump::models {

namespace {

double sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

/// Per-feature histogram bin edges built from (sampled) training quantiles.
struct Binner {
  // edges[f] has at most n_bins-1 ascending thresholds; bin = upper_bound.
  std::vector<std::vector<double>> edges;

  static Binner build(const data::DenseMatrix& x, int n_bins, common::Rng& rng) {
    Binner b;
    const std::size_t n = x.rows();
    const std::size_t d = x.cols();
    b.edges.resize(d);
    const std::size_t sample_n = std::min<std::size_t>(n, 4000);
    auto sample_idx = rng.permutation(n);
    sample_idx.resize(sample_n);
    std::vector<double> col;
    col.reserve(sample_n);
    for (std::size_t f = 0; f < d; ++f) {
      col.clear();
      for (std::size_t i : sample_idx) col.push_back(x(i, f));
      std::sort(col.begin(), col.end());
      auto& e = b.edges[f];
      for (int q = 1; q < n_bins; ++q) {
        const std::size_t pos =
            std::min(sample_n - 1, sample_n * static_cast<std::size_t>(q) /
                                       static_cast<std::size_t>(n_bins));
        const double v = col[pos];
        if (e.empty() || v > e.back()) e.push_back(v);
      }
      if (e.empty()) e.push_back(col.empty() ? 0.0 : col[0]);
    }
    return b;
  }

  /// Bin a whole contiguous column at once: out[r] = count of edges e with
  /// !(col[r] < e) — exactly the index std::upper_bound would return per
  /// element (NaN fails every `<` and lands past the last edge in both
  /// formulations). One sequential pass per edge over a contiguous column
  /// auto-vectorizes; the per-element binary search it replaces paid an
  /// unpredictable branch per probe.
  void bin_column(std::size_t f, std::span<const double> col,
                  std::span<std::uint8_t> out) const {
    std::fill(out.begin(), out.end(), std::uint8_t{0});
    for (const double e : edges[f]) {
      for (std::size_t r = 0; r < col.size(); ++r) {
        out[r] = static_cast<std::uint8_t>(out[r] + (col[r] < e ? 0 : 1));
      }
    }
  }

  /// Raw threshold value corresponding to "bin <= b" for feature f.
  double threshold_of(std::size_t f, int b) const { return edges[f][static_cast<std::size_t>(b)]; }

  int bins_of(std::size_t f) const { return static_cast<int>(edges[f].size()) + 1; }
};

struct HistBin {
  double grad = 0.0;
  double hess = 0.0;
  std::int32_t count = 0;
};

struct SplitDecision {
  double gain = 0.0;
  std::int32_t feature = -1;
  int bin = -1;  // go left when binned value <= bin
  double grad_left = 0.0, hess_left = 0.0;
  std::int32_t count_left = 0;
};

}  // namespace

double Tree::predict_row(std::span<const double> row) const {
  std::int32_t node = 0;
  while (nodes_[static_cast<std::size_t>(node)].feature >= 0) {
    const auto& nd = nodes_[static_cast<std::size_t>(node)];
    node = row[static_cast<std::size_t>(nd.feature)] <= nd.threshold ? nd.left
                                                                     : nd.right;
  }
  return nodes_[static_cast<std::size_t>(node)].value;
}

void Gbdt::fit(const data::FeatureMatrix& xin, std::span<const double> y) {
  // GBDT consumes dense tabular features; densify sparse inputs.
  const data::DenseMatrix x = xin.is_dense() ? xin.dense() : xin.sparse().to_dense();
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  trees_.clear();
  gain_importance_.assign(d, 0.0);
  perm_importance_.assign(d, 0.0);

  common::Rng rng(cfg_.seed);
  const Binner binner = Binner::build(x, cfg_.n_bins, rng);

  // Pre-bin all columns (column-major uint8 codes). Each column is gathered
  // into one contiguous buffer so bin_column streams it edge-at-a-time.
  std::vector<std::vector<std::uint8_t>> codes(d, std::vector<std::uint8_t>(n));
  {
    std::vector<double> colbuf(n);
    for (std::size_t f = 0; f < d; ++f) {
      for (std::size_t r = 0; r < n; ++r) colbuf[r] = x(r, f);
      binner.bin_column(f, colbuf, codes[f]);
    }
  }

  // Initial margin.
  double mean_y = 0.0;
  for (double v : y) mean_y += v;
  mean_y /= std::max<std::size_t>(n, 1);
  if (cfg_.classification) {
    const double p = std::clamp(mean_y, 1e-6, 1.0 - 1e-6);
    base_score_ = std::log(p / (1.0 - p));
  } else {
    base_score_ = mean_y;
  }

  std::vector<double> margin(n, base_score_);
  std::vector<double> grad(n), hess(n);
  std::vector<std::size_t> all_rows(n);
  for (std::size_t i = 0; i < n; ++i) all_rows[i] = i;

  for (int t = 0; t < cfg_.n_trees; ++t) {
    // Gradients/hessians of the loss at the current margin.
    for (std::size_t i = 0; i < n; ++i) {
      if (cfg_.classification) {
        const double p = sigmoid(margin[i]);
        grad[i] = p - y[i];
        hess[i] = std::max(p * (1.0 - p), 1e-6);
      } else {
        grad[i] = margin[i] - y[i];
        hess[i] = 1.0;
      }
    }

    std::vector<std::size_t> rows;
    if (cfg_.subsample < 1.0) {
      rows.reserve(static_cast<std::size_t>(static_cast<double>(n) * cfg_.subsample));
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.next_double() < cfg_.subsample) rows.push_back(i);
      }
      if (rows.empty()) rows = all_rows;
    } else {
      rows = all_rows;
    }

    Tree tree;
    auto& nodes = tree.nodes();
    nodes.push_back({});

    // Frontier of (node index, rows) pairs grown breadth-first.
    struct Work {
      std::int32_t node;
      std::vector<std::size_t> rows;
      int depth;
    };
    std::vector<Work> frontier;
    frontier.push_back({0, std::move(rows), 0});

    while (!frontier.empty()) {
      Work w = std::move(frontier.back());
      frontier.pop_back();

      double gsum = 0.0, hsum = 0.0;
      for (std::size_t r : w.rows) {
        gsum += grad[r];
        hsum += hess[r];
      }
      const double leaf_value = -gsum / (hsum + cfg_.lambda);

      auto make_leaf = [&]() {
        nodes[static_cast<std::size_t>(w.node)].feature = -1;
        nodes[static_cast<std::size_t>(w.node)].value =
            cfg_.learning_rate * leaf_value;
      };

      if (w.depth >= cfg_.max_depth ||
          w.rows.size() < 2 * static_cast<std::size_t>(cfg_.min_samples_leaf)) {
        make_leaf();
        continue;
      }

      // Histogram split search over all features.
      SplitDecision best;
      const double parent_score = gsum * gsum / (hsum + cfg_.lambda);
      std::vector<HistBin> hist;
      for (std::size_t f = 0; f < d; ++f) {
        const int nb = binner.bins_of(f);
        hist.assign(static_cast<std::size_t>(nb), {});
        const auto& code_f = codes[f];
        for (std::size_t r : w.rows) {
          auto& hb = hist[code_f[r]];
          hb.grad += grad[r];
          hb.hess += hess[r];
          ++hb.count;
        }
        double gl = 0.0, hl = 0.0;
        std::int32_t cl = 0;
        for (int b = 0; b + 1 < nb; ++b) {
          gl += hist[static_cast<std::size_t>(b)].grad;
          hl += hist[static_cast<std::size_t>(b)].hess;
          cl += hist[static_cast<std::size_t>(b)].count;
          const std::int32_t cr = static_cast<std::int32_t>(w.rows.size()) - cl;
          if (cl < cfg_.min_samples_leaf || cr < cfg_.min_samples_leaf) continue;
          const double gr = gsum - gl;
          const double hr = hsum - hl;
          const double gain = gl * gl / (hl + cfg_.lambda) +
                              gr * gr / (hr + cfg_.lambda) - parent_score;
          if (gain > best.gain) {
            best = {gain, static_cast<std::int32_t>(f), b, gl, hl, cl};
          }
        }
      }

      if (best.feature < 0 || best.gain < 1e-9) {
        make_leaf();
        continue;
      }

      gain_importance_[static_cast<std::size_t>(best.feature)] += best.gain;

      // Partition rows by the chosen split.
      std::vector<std::size_t> left_rows, right_rows;
      left_rows.reserve(static_cast<std::size_t>(best.count_left));
      right_rows.reserve(w.rows.size() - static_cast<std::size_t>(best.count_left));
      const auto& code_f = codes[static_cast<std::size_t>(best.feature)];
      for (std::size_t r : w.rows) {
        if (code_f[r] <= best.bin) {
          left_rows.push_back(r);
        } else {
          right_rows.push_back(r);
        }
      }

      const std::int32_t left_id = static_cast<std::int32_t>(nodes.size());
      const std::int32_t right_id = left_id + 1;
      nodes.push_back({});
      nodes.push_back({});
      // Note: take the reference only after both push_backs (reallocation).
      TreeNode& nd = nodes[static_cast<std::size_t>(w.node)];
      nd.feature = best.feature;
      nd.threshold =
          binner.threshold_of(static_cast<std::size_t>(best.feature), best.bin);
      nd.left = left_id;
      nd.right = right_id;
      frontier.push_back({left_id, std::move(left_rows), w.depth + 1});
      frontier.push_back({right_id, std::move(right_rows), w.depth + 1});
    }

    // Update margins with the new tree.
    for (std::size_t i = 0; i < n; ++i) {
      margin[i] += tree.predict_row(x.row(i));
    }
    trees_.push_back(std::move(tree));
  }

  if (cfg_.permutation_rows > 0) {
    compute_permutation_importance(x, y);
  } else {
    perm_importance_ = gain_importance_;
  }

  rebuild_forest();
}

void Gbdt::rebuild_forest() {
  auto forest = std::make_shared<kernels::FlatForest>();
  forest->reset(base_score_);
  std::vector<std::int32_t> feature, left, right;
  std::vector<double> threshold, value;
  for (const auto& tree : trees_) {
    const auto& nodes = tree.nodes();
    feature.clear();
    threshold.clear();
    left.clear();
    right.clear();
    value.clear();
    feature.reserve(nodes.size());
    threshold.reserve(nodes.size());
    left.reserve(nodes.size());
    right.reserve(nodes.size());
    value.reserve(nodes.size());
    for (const auto& nd : nodes) {
      feature.push_back(nd.feature);
      threshold.push_back(nd.threshold);
      left.push_back(nd.left);
      right.push_back(nd.right);
      value.push_back(nd.value);
    }
    forest->add_tree(feature, threshold, left, right, value);
  }
  forest->finalize();
  forest_ = std::move(forest);
}

double Gbdt::predict_margin_row(std::span<const double> row) const {
  double m = base_score_;
  for (const auto& t : trees_) m += t.predict_row(row);
  return m;
}

std::vector<double> Gbdt::predict(const data::FeatureMatrix& xin) const {
  std::vector<double> out(xin.rows());
  predict_into(xin, out);
  return out;
}

void Gbdt::margins_block(const double* x, std::size_t rows, std::size_t stride,
                         double* out) const {
  forest_->margins(kcfg_.tree, kcfg_.tree_block, x, rows, stride, out);
}

void Gbdt::predict_into(const data::FeatureMatrix& xin,
                        std::span<double> out) const {
  const std::size_t n = xin.rows();
  if (forest_ == nullptr || forest_->num_trees() != trees_.size()) {
    // Forest not rebuilt (shouldn't happen via fit/load): row-wise fallback.
    const data::DenseMatrix x =
        xin.is_dense() ? xin.dense() : xin.sparse().to_dense();
    for (std::size_t r = 0; r < n; ++r) out[r] = predict_margin_row(x.row(r));
  } else if (xin.is_dense()) {
    const auto& x = xin.dense();
    margins_block(x.data().data(), n, x.cols(), out.data());
  } else if (static_cast<std::size_t>(xin.cols()) >= kcfg_.sparse_cutoff) {
    // Wide-sparse inputs (TF-IDF tails): traverse the CSR rows directly.
    // Each tree probes O(depth) columns by binary search over a row's
    // entries, so skipping the densify/re-zero sweep over all columns wins
    // once the matrix is wide (the column-count rule of kDefaultSparseCutoff).
    const auto& s = xin.sparse();
    forest_->margins_csr(s.indptr().data(), s.indices().data(),
                         s.values().data(), n, out.data());
  } else {
    // Densify kMaxTreeBlock rows at a time into reused thread-local scratch
    // (scatter entries, run the block kernel, scatter zeros back), instead
    // of materializing the whole matrix per call as to_dense() did.
    const auto& s = xin.sparse();
    const std::size_t d = static_cast<std::size_t>(s.cols());
    const auto indptr = s.indptr();
    const auto indices = s.indices();
    const auto values = s.values();
    constexpr std::size_t kBlock = kernels::kMaxTreeBlock;
    thread_local std::vector<double> scratch;  // invariant: all zeros between calls
    if (scratch.size() < kBlock * d) scratch.assign(kBlock * d, 0.0);
    for (std::size_t r0 = 0; r0 < n; r0 += kBlock) {
      const std::size_t bsz = std::min(kBlock, n - r0);
      for (std::size_t b = 0; b < bsz; ++b) {
        for (std::size_t k = indptr[r0 + b]; k < indptr[r0 + b + 1]; ++k) {
          scratch[b * d + static_cast<std::size_t>(indices[k])] = values[k];
        }
      }
      margins_block(scratch.data(), bsz, d, out.data() + r0);
      for (std::size_t b = 0; b < bsz; ++b) {
        for (std::size_t k = indptr[r0 + b]; k < indptr[r0 + b + 1]; ++k) {
          scratch[b * d + static_cast<std::size_t>(indices[k])] = 0.0;
        }
      }
    }
  }
  if (cfg_.classification) {
    for (std::size_t r = 0; r < n; ++r) out[r] = sigmoid(out[r]);
  }
}

void Gbdt::predict_cascade(const data::FeatureMatrix& xin, double threshold,
                           std::span<double> preds,
                           std::span<std::uint8_t> hard) const {
  if (!cfg_.classification || forest_ == nullptr ||
      forest_->num_trees() != trees_.size() || !xin.is_dense()) {
    Model::predict_cascade(xin, threshold, preds, hard);
    return;
  }
  // hard ⟺ max(p, 1-p) <= t ⟺ |margin| <= logit(t). threshold 1.0 gives
  // bound = +inf: every row is provably hard before the first tree.
  const double bound =
      threshold >= 1.0 ? std::numeric_limits<double>::infinity()
                       : std::log(threshold / (1.0 - threshold));
  const auto& x = xin.dense();
  const std::size_t n = xin.rows();
  forest_->cascade_margins(kcfg_.tree_block, x.data().data(), n, x.cols(),
                           bound, preds.data(), hard.data());
  for (std::size_t i = 0; i < n; ++i) {
    // Hard rows carry sigmoid of a partial margin (callers overwrite them);
    // completed rows get the same sigmoid-confidence test the row-wise
    // cascade applies, so knife-edge rows match it bit-for-bit.
    preds[i] = sigmoid(preds[i]);
    if (!hard[i]) hard[i] = confidence(preds[i]) <= threshold ? 1 : 0;
  }
}

void Gbdt::compute_permutation_importance(const data::DenseMatrix& x,
                                          std::span<const double> y) {
  common::Rng rng(cfg_.seed + 1);
  const std::size_t n = std::min(x.rows(), cfg_.permutation_rows);
  auto sample = rng.permutation(x.rows());
  sample.resize(n);

  auto loss_of = [&](const data::DenseMatrix& m) {
    double loss = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double margin = predict_margin_row(m.row(i));
      const double target = y[sample[i]];
      if (cfg_.classification) {
        const double p = std::clamp(sigmoid(margin), 1e-9, 1.0 - 1e-9);
        loss += -(target * std::log(p) + (1.0 - target) * std::log(1.0 - p));
      } else {
        loss += (margin - target) * (margin - target);
      }
    }
    return loss / static_cast<double>(n);
  };

  data::DenseMatrix sub = x.select_rows(sample);
  const double base_loss = loss_of(sub);

  std::vector<double> saved(n);
  auto perm = rng.permutation(n);
  for (std::size_t f = 0; f < x.cols(); ++f) {
    for (std::size_t i = 0; i < n; ++i) saved[i] = sub(i, f);
    rng.shuffle(perm);
    for (std::size_t i = 0; i < n; ++i) sub(i, f) = saved[perm[i]];
    perm_importance_[f] = std::max(0.0, loss_of(sub) - base_loss);
    for (std::size_t i = 0; i < n; ++i) sub(i, f) = saved[i];
  }
}

std::vector<double> Gbdt::feature_importances() const {
  if (cfg_.permutation_rows > 0) return perm_importance_;
  return gain_importance_;
}

void Gbdt::save(serialize::Writer& w) const {
  w.i32(cfg_.n_trees);
  w.i32(cfg_.max_depth);
  w.f64(cfg_.learning_rate);
  w.i32(cfg_.min_samples_leaf);
  w.i32(cfg_.n_bins);
  w.f64(cfg_.lambda);
  w.f64(cfg_.subsample);
  w.u8(cfg_.classification ? 1 : 0);
  w.u64(cfg_.seed);
  w.u64(cfg_.permutation_rows);
  w.f64(base_score_);
  w.u64(trees_.size());
  for (const auto& tree : trees_) {
    const auto& nodes = tree.nodes();
    w.u64(nodes.size());
    for (const auto& n : nodes) {
      w.i32(n.feature);
      w.f64(n.threshold);
      w.i32(n.left);
      w.i32(n.right);
      w.f64(n.value);
    }
  }
  w.doubles(gain_importance_);
  w.doubles(perm_importance_);
  kernels::save_kernel_config(w, kcfg_);
}

std::unique_ptr<Gbdt> Gbdt::load(serialize::Reader& r) {
  const std::size_t wire_start = r.position();
  GbdtConfig cfg;
  cfg.n_trees = r.i32();
  cfg.max_depth = r.i32();
  cfg.learning_rate = r.f64();
  cfg.min_samples_leaf = r.i32();
  cfg.n_bins = r.i32();
  cfg.lambda = r.f64();
  cfg.subsample = r.f64();
  cfg.classification = r.u8() != 0;
  cfg.seed = r.u64();
  cfg.permutation_rows = static_cast<std::size_t>(r.u64());
  auto m = std::make_unique<Gbdt>(cfg);
  m->base_score_ = r.f64();
  const std::uint64_t n_trees = r.length(8, "gbdt trees");
  m->trees_.resize(static_cast<std::size_t>(n_trees));
  std::int32_t max_feature = -1;
  for (auto& tree : m->trees_) {
    const std::uint64_t n_nodes = r.length(28, "gbdt tree nodes");
    if (n_nodes == 0) {
      throw serialize::SerializeError(serialize::ErrorCode::CorruptData,
                                      "gbdt tree has no nodes");
    }
    auto& nodes = tree.nodes();
    nodes.resize(static_cast<std::size_t>(n_nodes));
    const auto count = static_cast<std::int32_t>(n_nodes);
    for (std::int32_t i = 0; i < count; ++i) {
      auto& n = nodes[static_cast<std::size_t>(i)];
      n.feature = r.i32();
      n.threshold = r.f64();
      n.left = r.i32();
      n.right = r.i32();
      n.value = r.f64();
      // predict_row walks child indices unchecked; an out-of-range child
      // would read out of bounds, and a back/self edge would loop forever.
      // Trees are built root-first, so children of a valid tree always sit
      // at strictly larger indices — enforce exactly that.
      if (n.feature >= 0 &&
          (n.left <= i || n.right <= i || n.left >= count || n.right >= count)) {
        throw serialize::SerializeError(serialize::ErrorCode::CorruptData,
                                        "gbdt tree node indices invalid");
      }
      max_feature = std::max(max_feature, n.feature);
    }
  }
  m->gain_importance_ = r.doubles();
  m->perm_importance_ = r.doubles();
  // Split features index into predict-time rows; the per-feature gain
  // vector recorded at fit time carries the training width to check
  // against. fit() always sizes it, so trees with internal nodes but no
  // recorded width are themselves corrupt — don't let an emptied vector
  // disable the bound check.
  if (max_feature >= 0 &&
      max_feature >= static_cast<std::int32_t>(m->gain_importance_.size())) {
    throw serialize::SerializeError(serialize::ErrorCode::CorruptData,
                                    "gbdt split feature exceeds training width");
  }
  // The flat forest derives purely from the bytes read so far (trees +
  // base score); the kernel config that follows is per-artifact tuning and
  // stays private. Snapshot the window before reading it.
  const auto forest_bytes = r.window(wire_start);
  m->kcfg_ = kernels::load_kernel_config(r);
  m->rebuild_forest();
  m->forest_ = serialize::InternPool::instance().intern<kernels::FlatForest>(
      "forest", forest_bytes, std::move(m->forest_));
  return m;
}

}  // namespace willump::models
