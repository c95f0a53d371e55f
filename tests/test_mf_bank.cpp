#include "mf/mf_bank.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>

#include "common/error.h"
#include "common/rng.h"
#include "discrim/training.h"
#include "readout/dataset.h"
#include "sim/resonator.h"

namespace mlqr {
namespace {

struct BankFixture {
  QubitProfile qubit;
  std::vector<BasebandTrace> traces;
  std::vector<int> labels;
  Rng rng{23};

  explicit BankFixture(int n_leaked = 40) {
    qubit.alpha[0] = {1.0, 0.0};
    qubit.alpha[1] = {-0.5, 0.9};
    qubit.alpha[2] = {-0.5, -0.9};
    qubit.resonator_tau_ns = 60.0;
    add(0, 300);
    add(1, 300);
    add(2, n_leaked);
  }

  void add(int level, int count) {
    for (int i = 0; i < count; ++i) {
      LevelTrajectory traj;
      traj.initial_level = level;
      BasebandTrace env = synthesize_envelope(qubit, traj, 300, 2.0);
      for (auto& z : env)
        z += Complexd{rng.normal(0.0, 0.3), rng.normal(0.0, 0.3)};
      traces.push_back(std::move(env));
      labels.push_back(level);
    }
  }
};

TEST(MfBank, FullConfigYieldsNineFilters) {
  BankFixture fx;
  MfBankConfig cfg;
  const QubitMfBank bank = QubitMfBank::train(fx.traces, fx.labels, 300, cfg);
  EXPECT_EQ(bank.feature_count(), 9u);
  std::vector<float> feats;
  bank.features(fx.traces[0], feats);
  EXPECT_EQ(feats.size(), 9u);
}

TEST(MfBank, GroupTogglesShrinkFeatureVector) {
  BankFixture fx;
  MfBankConfig cfg;
  cfg.use_emf = false;
  EXPECT_EQ(cfg.filters_per_qubit(), 6u);
  const QubitMfBank bank = QubitMfBank::train(fx.traces, fx.labels, 300, cfg);
  EXPECT_EQ(bank.feature_count(), 6u);

  MfBankConfig qmf_only;
  qmf_only.use_rmf = false;
  qmf_only.use_emf = false;
  EXPECT_EQ(qmf_only.filters_per_qubit(), 3u);
}

TEST(MfBank, QmfScoresSeparateLevels) {
  BankFixture fx;
  MfBankConfig cfg;
  const QubitMfBank bank = QubitMfBank::train(fx.traces, fx.labels, 300, cfg);

  // QMF(0,1) is filter 0: level 0 traces score negative, level 1 positive.
  double mean0 = 0.0, mean1 = 0.0;
  int n0 = 0, n1 = 0;
  std::vector<float> feats;
  for (std::size_t s = 0; s < fx.traces.size(); ++s) {
    feats.clear();
    bank.features(fx.traces[s], feats);
    if (fx.labels[s] == 0) {
      mean0 += feats[0];
      ++n0;
    } else if (fx.labels[s] == 1) {
      mean1 += feats[0];
      ++n1;
    }
  }
  EXPECT_LT(mean0 / n0, -0.3);
  EXPECT_GT(mean1 / n1, 0.3);
}

TEST(MfBank, MissingLevelThrows) {
  BankFixture fx;
  // Relabel all level-2 traces as level 1.
  for (auto& l : fx.labels)
    if (l == 2) l = 1;
  MfBankConfig cfg;
  EXPECT_THROW(QubitMfBank::train(fx.traces, fx.labels, 300, cfg), Error);
}

/// A small two-qubit dataset, generated once for the chip-bank tests.
const ReadoutDataset& two_qubit_dataset() {
  static const ReadoutDataset ds = [] {
    DatasetConfig cfg;
    cfg.chip = ChipProfile::test_two_qubit();
    cfg.shots_per_basis_state = 120;
    cfg.seed = 20260807;
    return generate_dataset(cfg);
  }();
  return ds;
}

FilterFeatures two_qubit_features(const MfBankConfig& cfg) {
  const ReadoutDataset& ds = two_qubit_dataset();
  return train_filter_features(ds.shots, ds.training_labels, ds.train_idx,
                               Demodulator(ds.chip), ds.chip.n_samples, cfg);
}

template <class Saved>
std::string saved_bytes(const Saved& s) {
  std::ostringstream os;
  s.save(os);
  return os.str();
}

TEST(MfBank, ChipBankConcatenatesQubits) {
  const ReadoutDataset& ds = two_qubit_dataset();
  const FilterFeatures ff = two_qubit_features(MfBankConfig{});
  const ChipMfBank& chip = ff.bank;
  EXPECT_EQ(chip.num_qubits(), 2u);
  EXPECT_EQ(chip.total_features(), 18u);
  EXPECT_EQ(ff.normalizer.dim(), 18u);
  EXPECT_EQ(ff.train.size(), ds.train_idx.size() * 18u);
  ASSERT_EQ(ff.labels.size(), 2u);
  EXPECT_EQ(ff.labels[1].back(),
            ds.training_labels[ds.train_idx.back() * 2 + 1]);

  // Each qubit's block of the merged vector is that qubit's own bank.
  const Demodulator demod(ds.chip);
  const IqTrace& trace = ds.shots.traces[ds.train_idx.front()];
  const std::vector<BasebandTrace> baseband{
      demod.demodulate(trace, 0, ds.chip.n_samples),
      demod.demodulate(trace, 1, ds.chip.n_samples)};
  std::vector<float> feats, second;
  chip.features(baseband, feats);
  chip.bank(1).features(baseband[1], second);
  ASSERT_EQ(feats.size(), 18u);
  EXPECT_TRUE(std::equal(second.begin(), second.end(), feats.begin() + 9));
}

TEST(MfBank, LoadRejectsBankOffTheChipLayout) {
  // A chip bank whose config asks for 6 filters per qubit, with its first
  // qubit's bank swapped for a 9-filter one that is valid on its own.
  const ChipMfBank chip = two_qubit_features([] {
    MfBankConfig no_emf;
    no_emf.use_emf = false;
    return no_emf;
  }()).bank;
  std::string wire = saved_bytes(chip);
  {
    std::istringstream is(wire);
    EXPECT_EQ(ChipMfBank::load(is).total_features(), 12u);
  }
  const BankFixture fx;
  const std::string six = saved_bytes(chip.bank(0));
  const std::size_t at = wire.find(six);
  ASSERT_NE(at, std::string::npos);
  wire.replace(at, six.size(),
               saved_bytes(QubitMfBank::train(fx.traces, fx.labels, 300,
                                              MfBankConfig{})));
  std::istringstream is(wire);
  try {
    ChipMfBank::load(is);
    ADD_FAILURE() << "a 9-filter bank loaded under a 6-filter config";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("filter layout"), std::string::npos)
        << e.what();
  }
}

TEST(MfBank, CrossFitFeaturesMatchShape) {
  BankFixture fx;
  MfBankConfig cfg;
  const std::vector<float> xfit =
      cross_fit_features(fx.traces, fx.labels, 300, cfg);
  EXPECT_EQ(xfit.size(), fx.traces.size() * 9u);
  for (float v : xfit) EXPECT_TRUE(std::isfinite(v));
}

TEST(MfBank, CrossFitScoresAgreeWithFullBankOnAverage) {
  BankFixture fx;
  MfBankConfig cfg;
  const QubitMfBank bank = QubitMfBank::train(fx.traces, fx.labels, 300, cfg);
  const std::vector<float> xfit =
      cross_fit_features(fx.traces, fx.labels, 300, cfg);

  // Mean QMF(0,1) score per level should agree between the two paths for
  // the abundant computational levels (cross-fitting matters for |2>).
  double full0 = 0.0, xf0 = 0.0;
  int n = 0;
  std::vector<float> feats;
  for (std::size_t s = 0; s < fx.traces.size(); ++s) {
    if (fx.labels[s] != 0) continue;
    feats.clear();
    bank.features(fx.traces[s], feats);
    full0 += feats[0];
    xf0 += xfit[s * 9];
    ++n;
  }
  EXPECT_NEAR(full0 / n, xf0 / n, 0.1);
}

TEST(MfBank, RowViewTrainMatchesCopiedRows) {
  // A bank trained in place on listed rows equals one trained on a copy of
  // those traces: the same filters bit for bit, and mined sets that name the
  // same traces (rows of the full set instead of positions in the copy).
  const BankFixture fx;
  std::vector<std::size_t> rows;
  std::vector<BasebandTrace> copy;
  std::vector<int> copy_labels;
  for (std::size_t s = 0; s < fx.traces.size(); ++s)
    if (s % 3 != 1) {
      rows.push_back(s);
      copy.push_back(fx.traces[s]);
      copy_labels.push_back(fx.labels[s]);
    }
  const MfBankConfig cfg;
  const QubitMfBank view =
      QubitMfBank::train(fx.traces, fx.labels, rows, 300, cfg);
  const QubitMfBank copied = QubitMfBank::train(copy, copy_labels, 300, cfg);
  ASSERT_EQ(view.feature_count(), copied.feature_count());
  auto bytes = [](const MatchedFilter& f) {
    std::ostringstream os;
    f.save(os);
    return os.str();
  };
  for (std::size_t i = 0; i < view.feature_count(); ++i)
    EXPECT_EQ(bytes(view.filter(i)), bytes(copied.filter(i))) << "filter " << i;
  auto as_rows = [&](const std::vector<std::size_t>& positions) {
    std::vector<std::size_t> out;
    for (std::size_t j : positions) out.push_back(rows[j]);
    return out;
  };
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(view.mined().relaxation[p], as_rows(copied.mined().relaxation[p]));
    EXPECT_EQ(view.mined().excitation[p], as_rows(copied.mined().excitation[p]));
  }
  for (int l = 0; l < kNumLevels; ++l)
    EXPECT_EQ(view.mined().clean[l], as_rows(copied.mined().clean[l]));
}

/// cross_fit_features as it was written before the folds read their fit
/// rows in place: each fold's complement is copied out and a bank is trained
/// on the copy.
std::vector<float> copied_fold_features(std::span<const BasebandTrace> traces,
                                        std::span<const int> labels,
                                        std::size_t n_samples,
                                        const MfBankConfig& cfg) {
  constexpr std::size_t kNoFold = static_cast<std::size_t>(-1);
  const std::size_t per_q = cfg.filters_per_qubit();
  std::array<std::size_t, kNumLevels> level_count{};
  for (int l : labels) ++level_count[l];
  std::vector<std::size_t> fold(traces.size(), kNoFold);
  std::array<std::size_t, kNumLevels> counter{};
  for (std::size_t s = 0; s < traces.size(); ++s)
    if (level_count[labels[s]] >= 2 * kCrossFitFolds)
      fold[s] = counter[labels[s]]++ % kCrossFitFolds;

  std::vector<float> features(traces.size() * per_q, 0.0f);
  std::vector<float> row;
  for (std::size_t f = 0; f < kCrossFitFolds; ++f) {
    std::vector<BasebandTrace> fit_traces;
    std::vector<int> fit_labels;
    for (std::size_t s = 0; s < traces.size(); ++s) {
      if (fold[s] == f) continue;
      fit_traces.push_back(traces[s]);
      fit_labels.push_back(labels[s]);
    }
    const QubitMfBank bank =
        QubitMfBank::train(fit_traces, fit_labels, n_samples, cfg);
    for (std::size_t s = 0; s < traces.size(); ++s) {
      if (fold[s] != f && !(f == 0 && fold[s] == kNoFold)) continue;
      row.clear();
      bank.features(traces[s], row);
      std::copy(row.begin(), row.end(), features.begin() + s * per_q);
    }
  }
  return features;
}

TEST(MfBank, CrossFitMatchesCopiedFolds) {
  // Abundant |2> (every level split into folds), then |2> below
  // 2 * kCrossFitFolds traces, whose traces are pinned into every fold's fit
  // set and scored by the fold-0 bank.
  const BankFixture abundant;
  const BankFixture scarce(2 * kCrossFitFolds - 1);
  MfBankConfig no_emf;
  no_emf.use_emf = false;
  for (const BankFixture* fx : {&abundant, &scarce})
    for (const MfBankConfig& cfg : {MfBankConfig{}, no_emf}) {
      const std::vector<float> got =
          cross_fit_features(fx->traces, fx->labels, 300, cfg);
      const std::vector<float> want =
          copied_fold_features(fx->traces, fx->labels, 300, cfg);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
                0);
    }
}

}  // namespace
}  // namespace mlqr
