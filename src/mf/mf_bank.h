// Per-qubit banks of qubit/relaxation/excitation matched filters and the
// chip-level feature extractor (paper Fig 4(a)-(b), Table III).
//
// Filter layout per qubit (fixed order so downstream models can rely on
// feature indices):
//   QMF  0:|0>vs|1>   1:|0>vs|2>   2:|1>vs|2>
//   RMF  3:1->0       4:2->0       5:2->1
//   EMF  6:0->1       7:0->2       8:1->2
// The QMF group is always on; RMF and EMF can be disabled (HERQULES uses
// QMF+RMF; the Table V "NN" ablation uses QMF only), which shrinks the
// feature vector accordingly.
#pragma once

#include <array>
#include <cstddef>
#include <iosfwd>
#include <span>
#include <utility>
#include <vector>

#include "mf/error_miner.h"
#include "mf/matched_filter.h"
#include "sim/iq.h"

namespace mlqr {

/// Which error-filter groups a bank trains/applies next to the QMF group.
struct MfBankConfig {
  bool use_rmf = true;
  bool use_emf = true;

  std::size_t filters_per_qubit() const {
    return 3u + (use_rmf ? 3u : 0u) + (use_emf ? 3u : 0u);
  }
};

/// Trained filter bank for a single qubit.
class QubitMfBank {
 public:
  /// Trains from that qubit's baseband traces and 3-level start-of-readout
  /// labels. Requires at least one trace for every level (a single trace
  /// yields a noisy but well-defined kernel — the CI-scale scarce-|2> case).
  static QubitMfBank train(std::span<const BasebandTrace> traces,
                           std::span<const int> labels,
                           std::size_t n_samples, const MfBankConfig& cfg);

  /// Trains on the listed rows of `traces` only (labels[s] belongs to
  /// traces[s]), reading them in place. With ascending `rows` the filters
  /// are bit-identical to a bank trained on a copy of those traces: every
  /// class is walked in the same order. mined() then names rows of
  /// `traces`.
  static QubitMfBank train(std::span<const BasebandTrace> traces,
                           std::span<const int> labels,
                           std::span<const std::size_t> rows,
                           std::size_t n_samples, const MfBankConfig& cfg);

  /// Applies every enabled filter; output size = cfg.filters_per_qubit().
  void features(const BasebandTrace& trace, std::vector<float>& out) const;

  std::size_t feature_count() const { return filters_.size(); }
  const MfBankConfig& config() const { return cfg_; }

  /// Mined-trace counts (diagnostics; paper reports 487..17,642 leakage
  /// traces across qubits).
  const MinedErrorTraces& mined() const { return mined_; }

  /// Filter accessor for inspection/tests (index per the layout above,
  /// compacted over enabled groups).
  const MatchedFilter& filter(std::size_t i) const { return filters_.at(i); }

  /// Binary little-endian persistence (calibration snapshot leaf): config,
  /// every trained filter, and the mined-trace diagnostics round-trip;
  /// features() on a reloaded bank is bit-identical to the original. The
  /// config keeps slots for the retired use_qmf, miner and kernel fields:
  /// save writes their constants, and load throws on any other value.
  void save(std::ostream& os) const;
  static QubitMfBank load(std::istream& is);

 private:
  MfBankConfig cfg_;
  std::vector<MatchedFilter> filters_;
  MinedErrorTraces mined_;
};

/// Folds cross_fit_features splits each level into.
inline constexpr std::size_t kCrossFitFolds = 2;

/// Cross-fitted feature extraction: every trace's filter scores are
/// computed with a bank trained on the *other* folds, so a trace's own
/// noise never appears inside the kernels that score it. Without this, the
/// handful of mined |2> traces both define the rare-state kernels and get
/// scored by them — their scores inflate by ~|noise|^2/n and a downstream
/// classifier learns thresholds fresh traces never reach.
/// Each fold's bank reads its fit rows of `traces` in place (no copies),
/// and the folds train concurrently on the shared thread pool; the result
/// is independent of the pool size.
/// Returns row-major (traces.size() x cfg.filters_per_qubit()).
std::vector<float> cross_fit_features(std::span<const BasebandTrace> traces,
                                      std::span<const int> labels,
                                      std::size_t n_samples,
                                      const MfBankConfig& cfg);

/// All qubits' banks + shot-level feature assembly ("MF Data (9x5)" ->
/// "Merged Data (45x1)" in Fig 4).
class ChipMfBank {
 public:
  ChipMfBank() = default;
  /// Takes per-qubit banks that were each trained with `cfg` (load checks
  /// that a stream's banks match its config).
  ChipMfBank(const MfBankConfig& cfg, std::vector<QubitMfBank> banks)
      : cfg_(cfg), banks_(std::move(banks)) {}

  std::size_t num_qubits() const { return banks_.size(); }
  std::size_t features_per_qubit() const { return cfg_.filters_per_qubit(); }
  std::size_t total_features() const {
    return num_qubits() * features_per_qubit();
  }
  const MfBankConfig& config() const { return cfg_; }

  /// Concatenated features for one shot (all qubits), appended to `out`.
  void features(const std::vector<BasebandTrace>& per_qubit_baseband,
                std::vector<float>& out) const;

  const QubitMfBank& bank(std::size_t q) const { return banks_.at(q); }

  /// Binary little-endian persistence of the whole chip-level bank. load
  /// rejects a bank whose filter count disagrees with the chip's config.
  void save(std::ostream& os) const;
  static ChipMfBank load(std::istream& is);

 private:
  MfBankConfig cfg_;
  std::vector<QubitMfBank> banks_;
};

}  // namespace mlqr
