#include "nn/optimizer.h"

#include <cmath>
#include <cstdint>
#include <istream>
#include <ostream>

#include "common/error.h"
#include "common/serialize.h"

namespace mlqr {

void GradientBuffers::match(const Mlp& model) {
  const auto& layers = model.layers();
  dw.resize(layers.size());
  db.resize(layers.size());
  for (std::size_t l = 0; l < layers.size(); ++l) {
    dw[l].resize(layers[l].w.size());
    db[l].resize(layers[l].b.size());
  }
}

void GradientBuffers::add(const GradientBuffers& other) {
  MLQR_CHECK(dw.size() == other.dw.size() && db.size() == other.db.size());
  for (std::size_t l = 0; l < dw.size(); ++l) {
    MLQR_CHECK(dw[l].size() == other.dw[l].size() &&
               db[l].size() == other.db[l].size());
    for (std::size_t i = 0; i < dw[l].size(); ++i) dw[l][i] += other.dw[l][i];
    for (std::size_t i = 0; i < db[l].size(); ++i) db[l][i] += other.db[l][i];
  }
}

namespace {

constexpr float kBeta1 = 0.9f;
constexpr float kBeta2 = 0.999f;
constexpr float kEps = 1e-8f;

void adamw_update(std::span<float> param, std::span<const float> grad,
                  std::vector<float>& m, std::vector<float>& v,
                  float learning_rate, float weight_decay, float bias1,
                  float bias2) {
  // AdamW: decoupled weight decay — the decay acts directly on the weights
  // instead of through the adaptive gradient normalization, so its
  // strength is predictable regardless of gradient scale.
  const float decay = learning_rate * weight_decay;
  for (std::size_t i = 0; i < param.size(); ++i) {
    const float g = grad[i];
    m[i] = kBeta1 * m[i] + (1.0f - kBeta1) * g;
    v[i] = kBeta2 * v[i] + (1.0f - kBeta2) * g * g;
    const float mhat = m[i] / bias1;
    const float vhat = v[i] / bias2;
    param[i] -=
        learning_rate * mhat / (std::sqrt(vhat) + kEps) + decay * param[i];
  }
}

}  // namespace

void AdamWOptimizer::reset(const Mlp& model) {
  step_ = 0;
  mw_.clear();
  vw_.clear();
  mb_.clear();
  vb_.clear();
  for (const DenseLayer& l : model.layers()) {
    mw_.emplace_back(l.w.size(), 0.0f);
    vw_.emplace_back(l.w.size(), 0.0f);
    mb_.emplace_back(l.b.size(), 0.0f);
    vb_.emplace_back(l.b.size(), 0.0f);
  }
}

bool AdamWOptimizer::matches(const Mlp& model) const {
  const auto& layers = model.layers();
  if (mw_.size() != layers.size()) return false;
  for (std::size_t l = 0; l < layers.size(); ++l)
    if (mw_[l].size() != layers[l].w.size() ||
        mb_[l].size() != layers[l].b.size())
      return false;
  return true;
}

void AdamWOptimizer::step(Mlp& model, const GradientBuffers& grads,
                          float learning_rate, float weight_decay) {
  MLQR_CHECK_MSG(matches(model), "optimizer state does not match the model");
  MLQR_CHECK(grads.dw.size() == mw_.size());
  ++step_;
  const float bias1 = 1.0f - std::pow(kBeta1, static_cast<float>(step_));
  const float bias2 = 1.0f - std::pow(kBeta2, static_cast<float>(step_));
  auto& layers = model.mutable_layers();
  for (std::size_t l = 0; l < layers.size(); ++l) {
    adamw_update(layers[l].w, grads.dw[l], mw_[l], vw_[l], learning_rate,
                 weight_decay, bias1, bias2);
    adamw_update(layers[l].b, grads.db[l], mb_[l], vb_[l], learning_rate,
                 weight_decay, bias1, bias2);
  }
}

void AdamWOptimizer::save(std::ostream& os) const {
  io::write_u64(os, static_cast<std::uint64_t>(step_));
  io::write_u64(os, mw_.size());
  for (std::size_t l = 0; l < mw_.size(); ++l) {
    io::write_u64(os, mw_[l].size());
    io::write_u64(os, mb_[l].size());
    for (float x : mw_[l]) io::write_f32(os, x);
    for (float x : vw_[l]) io::write_f32(os, x);
    for (float x : mb_[l]) io::write_f32(os, x);
    for (float x : vb_[l]) io::write_f32(os, x);
  }
}

AdamWOptimizer AdamWOptimizer::load(std::istream& is) {
  AdamWOptimizer opt;
  opt.step_ = static_cast<long>(io::read_u64(is));
  MLQR_CHECK_MSG(opt.step_ >= 0, "corrupt optimizer state: negative step");
  const std::size_t n_layers = io::read_count(is, 4096);
  for (std::size_t l = 0; l < n_layers; ++l) {
    const std::size_t nw = io::read_count(is);
    const std::size_t nb = io::read_count(is);
    opt.mw_.emplace_back(nw);
    opt.vw_.emplace_back(nw);
    opt.mb_.emplace_back(nb);
    opt.vb_.emplace_back(nb);
    for (float& x : opt.mw_.back()) x = io::read_f32(is);
    for (float& x : opt.vw_.back()) x = io::read_f32(is);
    for (float& x : opt.mb_.back()) x = io::read_f32(is);
    for (float& x : opt.vb_.back()) x = io::read_f32(is);
  }
  return opt;
}

}  // namespace mlqr
