#include "nn/trainer.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "linalg/gemm.h"

namespace mlqr {

namespace {

/// Rows per gradient shard. The shard partition is a pure function of the
/// minibatch size — never of the worker count — so the per-shard partial
/// gradients and their fixed-order reduction make training bit-identical
/// for any MLQR_THREADS / TrainerConfig::threads setting.
constexpr std::size_t kGradShardRows = 16;

/// Minibatch rows (the last minibatch of an epoch may be shorter).
constexpr std::size_t kBatchRows = 64;

/// Resolves a TrainerConfig::threads-style worker budget.
std::size_t resolve_workers(std::size_t threads) {
  return threads > 0 ? std::min(threads, kMaxWorkerThreads)
                     : parallel_thread_count();
}

/// Per-worker forward/backward scratch, reused across minibatches.
struct ShardScratch {
  std::vector<std::vector<float>> zs;    ///< Pre-activations per layer.
  std::vector<std::vector<float>> acts;  ///< Post-ReLU activations per layer.
  std::vector<float> delta;
  std::vector<float> next_delta;
};

struct ShardResult {
  double loss = 0.0;
  double weight = 0.0;
};

/// Forward + backward over rows [r0, r0+rows) of the gathered minibatch.
/// Writes this shard's gradient into `grad` (overwritten, not accumulated),
/// one flat vector in the layer order [w0, b0, w1, b1, ...] of
/// Mlp::parameter_count() floats, and returns its loss/weight contribution.
ShardResult run_gradient_shard(const Mlp& model, const float* bx,
                               const int* by, const float* sample_w,
                               float batch_w, std::size_t r0, std::size_t rows,
                               ShardScratch& ss, std::span<float> grad) {
  const auto& layers = model.layers();
  const std::size_t in_dim = model.input_size();
  const std::size_t out_dim = model.output_size();
  ss.zs.resize(layers.size());
  ss.acts.resize(layers.size());

  // ---- Forward pass, caching pre- and post-activations per layer. ----
  const float* prev = bx + r0 * in_dim;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const DenseLayer& layer = layers[l];
    std::vector<float>& z = ss.zs[l];
    z.resize(rows * layer.out);
    sgemm_abt_bias(rows, layer.out, layer.in, prev, layer.w.data(),
                   layer.b.data(), z.data());
    std::vector<float>& a = ss.acts[l];
    a = z;
    if (l + 1 < layers.size())
      for (float& v : a) v = std::max(v, 0.0f);
    prev = a.data();
  }

  // ---- Loss and output gradient (softmax CE, weighted). ----
  ShardResult res;
  ss.delta = ss.acts.back();  // Will become dL/dZ_last for this shard.
  for (std::size_t i = 0; i < rows; ++i) {
    float* row = ss.delta.data() + i * out_dim;
    const float peak = *std::max_element(row, row + out_dim);
    float total = 0.0f;
    for (std::size_t c = 0; c < out_dim; ++c) {
      row[c] = std::exp(row[c] - peak);
      total += row[c];
    }
    const float inv = 1.0f / total;
    const int y = by[r0 + i];
    const float sw = sample_w[r0 + i];
    const float p_true = row[y] * inv;
    res.loss += static_cast<double>(sw) * -std::log(std::max(p_true, 1e-12f));
    res.weight += sw;
    const float scale = sw / batch_w;
    for (std::size_t c = 0; c < out_dim; ++c) row[c] *= inv * scale;
    row[y] -= scale;
  }

  // ---- Backward pass: gradient only, no parameter updates. ----
  // The last layer comes first, so the flat layout fills from its end.
  std::size_t off = grad.size();
  for (std::size_t li = layers.size(); li > 0; --li) {
    const std::size_t l = li - 1;
    const DenseLayer& layer = layers[l];
    const float* a_prev = l == 0 ? bx + r0 * in_dim : ss.acts[l - 1].data();

    off -= layer.b.size();
    float* db = grad.data() + off;
    std::fill_n(db, layer.out, 0.0f);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < layer.out; ++c)
        db[c] += ss.delta[r * layer.out + c];
    off -= layer.w.size();
    // dW = delta^T * A_prev  (out x in).
    sgemm_atb(layer.out, layer.in, rows, ss.delta.data(), a_prev,
              grad.data() + off);

    if (l > 0) {
      // dA_prev = delta * W (rows x in), then ReLU mask via z of layer l-1.
      ss.next_delta.resize(rows * layer.in);
      sgemm_ab(rows, layer.in, layer.out, ss.delta.data(), layer.w.data(),
               ss.next_delta.data());
      const std::vector<float>& z_prev = ss.zs[l - 1];
      for (std::size_t i = 0; i < ss.next_delta.size(); ++i)
        if (z_prev[i] <= 0.0f) ss.next_delta[i] = 0.0f;
      std::swap(ss.delta, ss.next_delta);
    }
  }
  return res;
}

/// AdamW over flat moment vectors laid out like the shard gradients. beta1
/// 0.9, beta2 0.999 and eps 1e-8 are fixed; the weight decay is decoupled,
/// acting on the weights directly instead of through the adaptive
/// normalization, so its strength does not depend on the gradient scale.
class AdamW {
 public:
  explicit AdamW(std::size_t n_params)
      : m_(n_params, 0.0f), v_(n_params, 0.0f) {}

  /// One update of `model` from the reduced gradient `grad`. Bias
  /// correction uses the post-increment step count.
  void step(Mlp& model, std::span<const float> grad, float learning_rate,
            float weight_decay) {
    ++step_;
    const float bias1 = 1.0f - std::pow(kBeta1, static_cast<float>(step_));
    const float bias2 = 1.0f - std::pow(kBeta2, static_cast<float>(step_));
    const float decay = learning_rate * weight_decay;
    std::size_t i = 0;
    for (DenseLayer& layer : model.mutable_layers())
      for (std::vector<float>* param : {&layer.w, &layer.b})
        for (float& p : *param) {
          const float g = grad[i];
          m_[i] = kBeta1 * m_[i] + (1.0f - kBeta1) * g;
          v_[i] = kBeta2 * v_[i] + (1.0f - kBeta2) * g * g;
          const float mhat = m_[i] / bias1;
          const float vhat = v_[i] / bias2;
          p -= learning_rate * mhat / (std::sqrt(vhat) + kEps) + decay * p;
          ++i;
        }
  }

 private:
  static constexpr float kBeta1 = 0.9f;
  static constexpr float kBeta2 = 0.999f;
  static constexpr float kEps = 1e-8f;

  long step_ = 0;
  std::vector<float> m_, v_;
};

}  // namespace

std::vector<float> inverse_frequency_weights(std::span<const int> labels,
                                             std::size_t n_classes) {
  std::vector<std::size_t> counts(n_classes, 0);
  for (int l : labels) {
    MLQR_CHECK(l >= 0 && static_cast<std::size_t>(l) < n_classes);
    ++counts[l];
  }
  std::size_t present = 0;
  for (std::size_t c : counts)
    if (c > 0) ++present;
  MLQR_CHECK(present > 0);
  std::vector<float> weights(n_classes, 0.0f);
  const double total = static_cast<double>(labels.size());
  for (std::size_t c = 0; c < n_classes; ++c)
    if (counts[c] > 0)
      weights[c] = static_cast<float>(
          total / (static_cast<double>(present) *
                   static_cast<double>(counts[c])));
  return weights;
}

double evaluate_balanced_accuracy(const Mlp& model,
                                  std::span<const float> features,
                                  std::span<const int> labels,
                                  std::size_t threads) {
  MLQR_CHECK(!labels.empty());
  const std::size_t in = model.input_size();
  const std::size_t k = model.output_size();
  MLQR_CHECK(features.size() == labels.size() * in);
  const std::size_t workers = resolve_workers(threads);
  std::vector<std::size_t> hits(workers * k, 0), totals(workers * k, 0);
  parallel_for_slots(
      0, labels.size(), workers,
      [&](std::size_t slot, std::size_t lo, std::size_t hi) {
        std::vector<float> logits, scratch;
        std::size_t* slot_hits = hits.data() + slot * k;
        std::size_t* slot_totals = totals.data() + slot * k;
        for (std::size_t s = lo; s < hi; ++s) {
          const int truth = labels[s];
          MLQR_CHECK(truth >= 0 && static_cast<std::size_t>(truth) < k);
          ++slot_totals[truth];
          if (model.predict_reusing(features.subspan(s * in, in), logits,
                                    scratch) == truth)
            ++slot_hits[truth];
        }
      });
  double acc = 0.0;
  std::size_t present = 0;
  for (std::size_t c = 0; c < k; ++c) {
    std::size_t class_hits = 0, class_totals = 0;
    for (std::size_t w = 0; w < workers; ++w) {
      class_hits += hits[w * k + c];
      class_totals += totals[w * k + c];
    }
    if (class_totals == 0) continue;
    acc += static_cast<double>(class_hits) / static_cast<double>(class_totals);
    ++present;
  }
  MLQR_CHECK(present > 0);
  return acc / static_cast<double>(present);
}

TrainHistory train_classifier(Mlp& model, std::span<const float> features,
                              std::span<const int> labels,
                              const TrainerConfig& cfg) {
  const std::size_t in_dim = model.input_size();
  const std::size_t out_dim = model.output_size();
  MLQR_CHECK(!labels.empty());
  MLQR_CHECK_MSG(features.size() == labels.size() * in_dim,
                 "feature matrix shape mismatch");
  if (!cfg.class_weights.empty())
    MLQR_CHECK(cfg.class_weights.size() == out_dim);
  for (int l : labels)
    MLQR_CHECK_MSG(l >= 0 && static_cast<std::size_t>(l) < out_dim,
                   "label " << l << " out of range for " << out_dim
                            << " classes");

  Rng rng(cfg.seed);

  // Train/validation split.
  std::vector<std::size_t> order = rng.permutation(labels.size());
  std::size_t n_val = cfg.validation_fraction > 0.0f
                          ? static_cast<std::size_t>(
                                cfg.validation_fraction *
                                static_cast<double>(labels.size()))
                          : 0;
  if (n_val < 8) n_val = 0;  // Too small to be a useful signal.
  const std::size_t n_train = labels.size() - n_val;
  MLQR_CHECK(n_train >= 1);

  std::vector<float> val_x(n_val * in_dim);
  std::vector<int> val_y(n_val);
  for (std::size_t i = 0; i < n_val; ++i) {
    const std::size_t s = order[n_train + i];
    std::copy_n(features.data() + s * in_dim, in_dim,
                val_x.data() + i * in_dim);
    val_y[i] = labels[s];
  }

  TrainHistory history;
  std::vector<DenseLayer> best_weights;
  double best_val = -1.0;

  std::vector<std::size_t> train_idx(order.begin(), order.begin() + n_train);
  const std::size_t batch = std::min(kBatchRows, n_train);
  const std::size_t max_shards = (batch + kGradShardRows - 1) / kGradShardRows;
  const std::size_t workers = resolve_workers(cfg.threads);

  // Reusable buffers: the gathered minibatch, one flat gradient per shard
  // (filled in parallel, reduced in shard order into shard 0's) and
  // per-worker forward/backward scratch.
  std::vector<float> bx(batch * in_dim);
  std::vector<int> by(batch);
  std::vector<float> sample_w(batch);
  const std::size_t n_params = model.parameter_count();
  std::vector<float> shard_grads(max_shards * n_params);
  std::vector<ShardResult> shard_res(max_shards);
  std::vector<ShardScratch> scratch(workers);
  AdamW opt(n_params);

  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    // Shuffle training order each epoch.
    for (std::size_t i = n_train; i > 1; --i)
      std::swap(train_idx[i - 1], train_idx[rng.uniform_index(i)]);

    double epoch_loss = 0.0;
    double epoch_weight = 0.0;

    for (std::size_t start = 0; start < n_train; start += batch) {
      const std::size_t b = std::min(batch, n_train - start);
      float batch_w = 0.0f;
      for (std::size_t i = 0; i < b; ++i) {
        const std::size_t s = train_idx[start + i];
        std::copy_n(features.data() + s * in_dim, in_dim,
                    bx.data() + i * in_dim);
        by[i] = labels[s];
        sample_w[i] = cfg.class_weights.empty()
                          ? 1.0f
                          : cfg.class_weights[by[i]];
        batch_w += sample_w[i];
      }
      if (batch_w <= 0.0f) continue;  // Every sample in a zero-weight class.

      // Fan the fixed-size gradient shards out across the worker budget;
      // each shard's partial is a pure function of the minibatch, so the
      // shard→worker assignment cannot change the result.
      const std::size_t n_shards = (b + kGradShardRows - 1) / kGradShardRows;
      parallel_for_slots(
          0, n_shards, workers,
          [&](std::size_t slot, std::size_t lo, std::size_t hi) {
            for (std::size_t si = lo; si < hi; ++si) {
              const std::size_t r0 = si * kGradShardRows;
              const std::size_t rows = std::min(kGradShardRows, b - r0);
              shard_res[si] = run_gradient_shard(
                  model, bx.data(), by.data(), sample_w.data(), batch_w, r0,
                  rows, scratch[slot],
                  std::span<float>(shard_grads).subspan(si * n_params,
                                                         n_params));
            }
          });

      // Fixed shard-order reduction into shard 0's gradient, then one
      // AdamW step on the total.
      const std::span<float> total(shard_grads.data(), n_params);
      for (std::size_t si = 0; si < n_shards; ++si) {
        const float* g = shard_grads.data() + si * n_params;
        if (si > 0)
          for (std::size_t i = 0; i < n_params; ++i) total[i] += g[i];
        epoch_loss += shard_res[si].loss;
        epoch_weight += shard_res[si].weight;
      }
      opt.step(model, total, cfg.learning_rate, cfg.weight_decay);
    }

    history.train_loss.push_back(
        epoch_weight > 0.0 ? epoch_loss / epoch_weight : 0.0);

    if (n_val > 0) {
      const double acc =
          evaluate_balanced_accuracy(model, val_x, val_y, cfg.threads);
      history.val_accuracy.push_back(acc);
      if (acc > best_val) {
        best_val = acc;
        best_weights = model.layers();
        history.best_epoch = epoch;
      }
    }
  }

  if (!best_weights.empty()) model.mutable_layers() = std::move(best_weights);
  return history;
}

}  // namespace mlqr
