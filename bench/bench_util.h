// Shared helpers for the table/figure benches: standard dataset sizing,
// per-qubit fidelity rows, paper-vs-measured table assembly, and the
// machine-readable BENCH_*.json perf records that track the throughput
// trajectory across commits.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/env.h"
#include "common/error.h"
#include "common/simd.h"
#include "common/table.h"
#include "discrim/metrics.h"
#include "pipeline/snapshot.h"
#include "readout/experiment.h"

namespace mlqr::bench {

/// Commit the binary was configured from (CMake bakes MLQR_GIT_SHA into
/// every bench target); "unknown" outside a git checkout.
inline const char* build_git_sha() {
#ifdef MLQR_GIT_SHA
  return MLQR_GIT_SHA;
#else
  return "unknown";
#endif
}

/// One machine-readable perf record: BENCH_<name>.json in the working
/// directory — a flat `context` object (git sha, the compile-time float
/// SIMD tier and the runtime-picked integer tier, knob values)
/// plus one flat object per swept configuration. Values are scalars only,
/// so downstream tooling can load the series with nothing but a JSON
/// parser and a group-by.
class BenchReport {
 public:
  using Scalar = std::variant<std::string, double, std::int64_t, bool>;
  using Fields = std::vector<std::pair<std::string, Scalar>>;

  explicit BenchReport(std::string name) : name_(std::move(name)) {
    context("bench", name_);
    context("git_sha", std::string(build_git_sha()));
    context("simd_tier", std::string(simd::tier()));
    context("simd_int_tier", std::string(simd::int_tier()));
    context("fast_mode", fast_mode());
  }

  void context(const std::string& key, Scalar value) {
    context_.emplace_back(key, std::move(value));
  }

  void add_row(Fields row) { rows_.push_back(std::move(row)); }

  /// Writes BENCH_<name>.json; returns the filename.
  std::string save() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream os(path);
    os << "{\n  \"context\": " << object(context_, /*multiline=*/true)
       << ",\n  \"rows\": [";
    for (std::size_t r = 0; r < rows_.size(); ++r)
      os << (r == 0 ? "\n" : ",\n") << "    "
         << object(rows_[r], /*multiline=*/false);
    os << "\n  ]\n}\n";
    os.flush();  // Surface late write errors before the good() check.
    MLQR_CHECK_MSG(os.good(), "failed to write " << path);
    return path;
  }

 private:
  static std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  static std::string scalar(const Scalar& v) {
    std::ostringstream os;
    if (const auto* s = std::get_if<std::string>(&v)) {
      os << '"' << escape(*s) << '"';
    } else if (const auto* d = std::get_if<double>(&v)) {
      // Round-trippable precision; JSON has no inf/nan, so non-finite
      // degrades to null rather than corrupting the record.
      if (std::isfinite(*d))
        os << std::setprecision(std::numeric_limits<double>::max_digits10)
           << *d;
      else
        os << "null";
    } else if (const auto* i = std::get_if<std::int64_t>(&v)) {
      os << *i;
    } else {
      os << (std::get<bool>(v) ? "true" : "false");
    }
    return os.str();
  }

  static std::string object(const Fields& fields, bool multiline) {
    std::ostringstream os;
    os << "{";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) os << ",";
      os << (multiline ? "\n    " : i > 0 ? " " : "");
      os << "\"" << escape(fields[i].first) << "\": " << scalar(fields[i].second);
    }
    if (multiline && !fields.empty()) os << "\n  ";
    os << "}";
    return os.str();
  }

  std::string name_;
  Fields context_;
  std::vector<Fields> rows_;
};

/// The proposed float (and optionally int16) serving backends for a
/// throughput bench, with MLQR_SNAPSHOT support: when the env var is set
/// (a path prefix), ${MLQR_SNAPSHOT}.float.snap / .int16.snap are loaded
/// via pipeline/snapshot.h instead of retraining — a bench or serving
/// restart then starts in seconds. Missing snapshot files are trained
/// once and written to those paths, so the first run seeds the cache.
/// Without MLQR_SNAPSHOT the bench trains fresh, as before. The struct
/// owns whichever representation (trained or loaded) backs the
/// EngineBackends, so keep it alive while serving.
struct ServingBackends {
  /// Owning backends (BackendSnapshot::backend() semantics): safe to copy
  /// around and to hand to swap_shard; the snapshots below are the
  /// canonical owners either way (trained results are wrapped in one).
  EngineBackend float_backend;
  EngineBackend int16_backend;  ///< Only when requested.
  EngineBackend int8_backend;   ///< Only when requested.
  BackendSnapshot float_snap;
  BackendSnapshot int16_snap;
  BackendSnapshot int8_snap;
};

inline ServingBackends make_serving_backends(const ReadoutDataset& ds,
                                             const ProposedConfig& pcfg,
                                             bool want_int16,
                                             const char* tag,
                                             bool want_int8 = false) {
  ServingBackends sb;
  const char* prefix = std::getenv("MLQR_SNAPSHOT");
  const bool use_snapshots = prefix && *prefix;
  std::string float_path, int16_path, int8_path;
  if (use_snapshots) {
    float_path = prefix;
    float_path += ".float.snap";
    int16_path = prefix;
    int16_path += ".int16.snap";
    int8_path = prefix;
    int8_path += ".int8.snap";
  }
  const auto exists = [](const std::string& p) {
    return !p.empty() && std::ifstream(p, std::ios::binary).good();
  };
  const auto check_loaded = [&](const BackendSnapshot& snap,
                                const std::string& path, SnapshotKind kind) {
    MLQR_CHECK_MSG(snap.kind() == kind,
                   "snapshot " << path << " holds a \"" << snap.name()
                       << "\" backend — wrong kind for this path (renamed "
                       << "file?)");
    MLQR_CHECK_MSG(snap.num_qubits() == ds.chip.num_qubits(),
                   "snapshot " << path << " serves " << snap.num_qubits()
                               << " qubits, dataset has "
                               << ds.chip.num_qubits());
  };

  if (use_snapshots && exists(float_path) &&
      (!want_int16 || exists(int16_path)) &&
      (!want_int8 || exists(int8_path))) {
    std::cout << '[' << tag << "] MLQR_SNAPSHOT=" << prefix
              << ": loading calibration instead of retraining...\n";
    sb.float_snap = load_backend_file(float_path);
    check_loaded(sb.float_snap, float_path, SnapshotKind::kFloat);
    sb.float_backend = sb.float_snap.backend();
    if (want_int16) {
      sb.int16_snap = load_backend_file(int16_path);
      check_loaded(sb.int16_snap, int16_path, SnapshotKind::kInt16);
      sb.int16_backend = sb.int16_snap.backend();
    }
    if (want_int8) {
      sb.int8_snap = load_backend_file(int8_path);
      check_loaded(sb.int8_snap, int8_path, SnapshotKind::kInt8);
      sb.int8_backend = sb.int8_snap.backend();
    }
    return sb;
  }

  std::cout << '[' << tag << "] training proposed discriminator...\n";
  sb.float_snap = BackendSnapshot::wrap(ProposedDiscriminator::train(
      ds.shots, ds.training_labels, ds.train_idx, ds.chip, pcfg));
  sb.float_backend = sb.float_snap.backend();
  if (want_int16) {
    std::cout << '[' << tag << "] calibrating int16 backend...\n";
    sb.int16_snap =
        BackendSnapshot::wrap(QuantizedProposedDiscriminator::quantize(
            *sb.float_snap.as<ProposedDiscriminator>(), ds.shots,
            ds.train_idx));
    sb.int16_backend = sb.int16_snap.backend();
  }
  if (want_int8) {
    std::cout << '[' << tag << "] calibrating int8 backend...\n";
    sb.int8_snap =
        BackendSnapshot::wrap(Quantized8ProposedDiscriminator::quantize(
            *sb.float_snap.as<ProposedDiscriminator>(), ds.shots,
            ds.train_idx));
    sb.int8_backend = sb.int8_snap.backend();
  }
  if (use_snapshots) {
    save_backend_file(float_path, sb.float_snap);
    if (want_int16) save_backend_file(int16_path, sb.int16_snap);
    if (want_int8) save_backend_file(int8_path, sb.int8_snap);
    std::cout << '[' << tag << "] saved calibration snapshot(s) under prefix "
              << prefix << " (next run loads instead of training)\n";
  }
  return sb;
}

/// Standard dataset sizing for the table benches. Full runs use 400 shots
/// per basis state (12.8k shots); MLQR_FAST shrinks via
/// SuiteConfig::apply_fast_mode, and MLQR_SHOTS overrides explicitly.
inline std::size_t default_shots_per_state() {
  return static_cast<std::size_t>(env_int("MLQR_SHOTS", 400));
}

/// Adds a per-qubit fidelity row: name, F1..F5, F5Q.
inline void add_fidelity_row(Table& table, const std::string& name,
                             const FidelityReport& report) {
  std::vector<std::string> row{name};
  for (std::size_t q = 0; q < report.per_qubit.size(); ++q)
    row.push_back(Table::num(report.qubit_fidelity(q)));
  row.push_back(Table::num(report.geometric_mean_fidelity()));
  table.add_row(std::move(row));
}

/// Adds a reference row quoting the paper's published numbers.
inline void add_paper_row(Table& table, const std::string& name,
                          const std::vector<double>& values) {
  std::vector<std::string> row{name + " (paper)"};
  for (double v : values) row.push_back(Table::num(v));
  table.add_row(std::move(row));
}

inline std::vector<std::string> fidelity_header(std::size_t n_qubits) {
  std::vector<std::string> h{"Design"};
  for (std::size_t q = 1; q <= n_qubits; ++q)
    h.push_back("Qubit " + std::to_string(q));
  h.push_back("F5Q");
  return h;
}

}  // namespace mlqr::bench
