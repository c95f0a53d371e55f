// The compile-time contract every discriminator design implements.
//
// The repo used to special-case each design: five make_backend overloads,
// two snapshot codecs, and per-type glue in every bench. ReadoutBackend is
// the single abstraction instead — any type with a scratch-aware
// classify_into, a qubit count, and a name plugs into the engines
// (batching, thread fan-out, streaming shards, hot swap) for free, and
// SnapshotableBackend extends the contract with binary persistence so the
// snapshot registry (pipeline/snapshot.h) can save and reload it by kind.
// The concepts are checked where templates are instantiated, so a design
// missing a method fails at compile time with the requirement named,
// instead of deep inside an overload set.
#pragma once

#include <concepts>
#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>

#include "discrim/inference_scratch.h"
#include "sim/iq.h"

namespace mlqr {

/// A trained shot discriminator the engines can serve: classifies one
/// multiplexed trace into per-qubit levels using caller-provided scratch
/// (no allocation on the hot path). classify_into must be const and pure
/// per shot — the engines rely on that for bit-identical labels across
/// batch size, thread count, and shard count.
template <typename D>
concept ReadoutBackend =
    requires(const D& d, const IqTrace& trace, InferenceScratch& scratch,
             std::span<int> out) {
      { d.classify_into(trace, scratch, out) } -> std::same_as<void>;
      { d.num_qubits() } -> std::convertible_to<std::size_t>;
      { d.name() } -> std::convertible_to<std::string>;
    };

/// A ReadoutBackend that can additionally classify a contiguous shot range
/// as one batch: per-shot feature extraction gathered into a tile, the MLP
/// stage run over the whole tile in shot lanes (one kernel call per layer
/// output row), labels scattered back through labels_at. The contract is
/// strict bit-identity with classify_into on every shot — batching is a
/// pure execution-schedule change, which is what lets EngineCore pick the
/// path per group without affecting results. Designs without a batch
/// formulation (LDA/QDA) simply don't satisfy this and are served
/// per-shot.
template <typename D>
concept BatchedReadoutBackend =
    ReadoutBackend<D> &&
    requires(const D& d, std::size_t lo, std::size_t hi,
             const ShotFrameAt& frame_at, InferenceScratch& scratch,
             const ShotLabelsAt& labels_at) {
      {
        d.classify_batch_into(lo, hi, frame_at, scratch, labels_at)
      } -> std::same_as<void>;
    };

/// A ReadoutBackend that can report how confident it is in a shot's
/// labels: classify_scored_into writes the same labels classify_into
/// would (strict bit-identity — scoring is a read-only side channel, never
/// an alternative decision rule) and returns a confidence in (0, 1],
/// typically the mean softmax probability of the winning class across the
/// per-qubit heads. The streaming engine's drift monitors sample this on
/// live traffic: a calibration that has drifted away from the device keeps
/// emitting labels, but its confidence distribution sags well before
/// ground truth is available to prove the labels wrong.
template <typename D>
concept ScoredReadoutBackend =
    ReadoutBackend<D> &&
    requires(const D& d, const IqTrace& trace, InferenceScratch& scratch,
             std::span<int> out) {
      {
        d.classify_scored_into(trace, scratch, out)
      } -> std::convertible_to<float>;
    };

/// A ReadoutBackend that also round-trips through the binary snapshot
/// format: save(os) writes the payload its static load reads back
/// bit-identically, and samples_used() reports the trace window so the
/// snapshot header can carry it. load takes the stream plus whatever the
/// snapshot kind fixes (JointHeadDiscriminator's source), so the codec
/// registry row, not this concept, names the call. Every shipped design
/// satisfies this (static_asserted in tests/test_backend_trait.cpp), which
/// is what lets save_backend/load_backend dispatch purely on the snapshot
/// kind byte.
template <typename D>
concept SnapshotableBackend =
    ReadoutBackend<D> && requires(const D& d, std::ostream& os) {
      { d.samples_used() } -> std::convertible_to<std::size_t>;
      { d.save(os) } -> std::same_as<void>;
    };

}  // namespace mlqr
