#include "dsp/demodulator.h"

#include <cmath>
#include <numbers>

#include "common/error.h"
#include "common/serialize.h"

namespace mlqr {

Demodulator::Demodulator(const ChipProfile& chip) {
  tone_step_.reserve(chip.num_qubits());
  tone_angle_.reserve(chip.num_qubits());
  for (const auto& q : chip.qubits) {
    const double omega =
        2.0 * std::numbers::pi * q.if_freq_mhz * 1e-3 * chip.dt_ns();
    tone_step_.push_back(std::polar(1.0, -omega));
    tone_angle_.push_back(-omega);
  }
}

void Demodulator::save(std::ostream& os) const {
  io::write_vec_f64(os, tone_angle_);
}

Demodulator Demodulator::load(std::istream& is) {
  Demodulator demod;
  demod.tone_angle_ = io::read_vec_f64(is);
  MLQR_CHECK_MSG(!demod.tone_angle_.empty(),
                 "corrupt demodulator: zero channels");
  demod.tone_step_.reserve(demod.tone_angle_.size());
  for (double angle : demod.tone_angle_)
    demod.tone_step_.push_back(std::polar(1.0, angle));
  return demod;
}

Complexd Demodulator::lo_phase(std::size_t qubit, std::size_t t) const {
  MLQR_CHECK(qubit < tone_angle_.size());
  return std::polar(1.0, tone_angle_[qubit] * static_cast<double>(t));
}

BasebandTrace Demodulator::demodulate(const IqTrace& trace, std::size_t qubit,
                                      std::size_t max_samples) const {
  BasebandTrace out;
  demodulate_into(trace, qubit, max_samples, out);
  return out;
}

void Demodulator::demodulate_into(const IqTrace& trace, std::size_t qubit,
                                  std::size_t max_samples,
                                  BasebandTrace& out) const {
  MLQR_CHECK_MSG(qubit < tone_step_.size(),
                 "qubit index " << qubit << " out of range");
  trace.check_consistent();
  std::size_t n = trace.size();
  if (max_samples != 0) n = std::min(n, max_samples);

  out.resize(n);
  // Local oscillator phase. Advancing purely by the `lo *= step` recurrence
  // accumulates O(n*eps) magnitude/phase error over long traces, so the
  // phasor is re-anchored to the exact polar form every kLoResyncInterval
  // samples; in between the (cheap) recurrence is bit-reproducible.
  constexpr std::size_t kLoResyncInterval = 64;
  const double angle = tone_angle_[qubit];
  const Complexd step = tone_step_[qubit];
  Complexd lo{1.0, 0.0};
  for (std::size_t t = 0; t < n; ++t) {
    if (t % kLoResyncInterval == 0)
      lo = std::polar(1.0, angle * static_cast<double>(t));
    out[t] = trace.sample(t) * lo;
    lo *= step;
  }
}

}  // namespace mlqr
