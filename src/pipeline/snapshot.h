// Versioned binary calibration snapshots: a trained discriminator's full
// inference state, persisted so a deployment never retrains just to serve.
//
// Frequency-multiplexed readout chains are recalibrated continuously as
// the device drifts; the snapshot layer is the hand-off between the
// (slow, offline) calibration pipeline and the (always-on) serving path:
//
//   train/quantize  ->  save_backend(os, d)   ->  bytes on disk
//   bytes on disk   ->  load_backend(is)      ->  BackendSnapshot
//   snapshot.backend()                        ->  owning EngineBackend
//   StreamingEngine::swap_shard(shard, b)     ->  hot recalibration
//
// Format (everything little-endian, see common/serialize.h):
//
//   magic   8 bytes  "MLQRSNAP"
//   version u32      kSnapshotVersion (hard error on mismatch — no silent
//                    cross-version decoding)
//   kind    u8       SnapshotKind: which SnapshotTraits-registered
//                    discriminator type the payload holds
//   n_qubits u64     chip/channel metadata, checked against
//   n_samples u64    the decoded payload on load
//   name    string   backend name recorded at save time, checked against
//                    the decoded payload's name() on load
//   payload          the discriminator's own save() stream
//
// Any SnapshotableBackend (pipeline/backend_trait.h) with a SnapshotTraits
// specialization participates: save_backend<D> stamps the header with the
// kind the trait reads off the instance, and load_backend dispatches the
// kind byte through the codec registry (snapshot.cpp) to the matching
// loader. One class may own several kinds: JointHeadDiscriminator is kFnn
// over raw I/Q and kHerqules over filter scores, and each row loads it
// with its source. Adding a design = one trait specialization + one
// registry row per kind; the engines never change.
//
// Guarantees: floats travel as exact IEEE-754 bit patterns, so a loaded
// backend classifies bit-identically to the instance that was saved
// (pinned by tests/test_snapshot.cpp and tests/test_backend_trait.cpp).
// Loads hard-error on magic, version, truncation, oversized counts, and
// any header/payload or cross-component inconsistency — a corrupt or
// hostile snapshot never half-loads, crashes, or over-allocates
// (tests/test_snapshot_fuzz.cpp drives the corruption corpus).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <typeinfo>
#include <utility>

#include "common/error.h"
#include "discrim/gaussian_discriminator.h"
#include "discrim/joint_head.h"
#include "discrim/proposed.h"
#include "discrim/quantized_proposed.h"
#include "pipeline/backend_trait.h"
#include "pipeline/readout_engine.h"

namespace mlqr {

/// Discriminator family a snapshot carries — the on-disk kind byte. Values
/// are part of the format; never renumber, only append. The wire values are
/// pinned in tools/snapshot_kinds.manifest and the static-analysis CI job
/// (tools/lint_invariants.py) fails on any non-append edit — register a new
/// kind in both places in the same change.
enum class SnapshotKind : std::uint8_t {
  kFloat = 0,     ///< ProposedDiscriminator (fused float path).
  kInt16 = 1,     ///< QuantizedProposedDiscriminator (integer datapath).
  kFnn = 2,       ///< JointHeadDiscriminator over raw I/Q (FNN).
  kHerqules = 3,  ///< JointHeadDiscriminator over filter scores (HERQULES).
  kGaussian = 4,  ///< GaussianShotDiscriminator (LDA/QDA baselines).
  kInt8 = 5,      ///< Quantized8ProposedDiscriminator (int8 datapath).
  // 6 is the next free value (see the manifest).
};

inline constexpr std::uint32_t kSnapshotVersion = 1;

/// Maps a trained discriminator to its on-disk kind byte: a static
/// kind(d). Specialize to register a new design with the snapshot layer
/// (and add its rows to the codec registry in snapshot.cpp so load_backend
/// can dispatch to it).
template <typename D>
struct SnapshotTraits;

/// The trait of a design whose every instance has one kind.
template <SnapshotKind K>
struct FixedSnapshotKind {
  static constexpr SnapshotKind kind(const auto&) { return K; }
};

template <>
struct SnapshotTraits<ProposedDiscriminator>
    : FixedSnapshotKind<SnapshotKind::kFloat> {};
template <>
struct SnapshotTraits<QuantizedProposedDiscriminator>
    : FixedSnapshotKind<SnapshotKind::kInt16> {};
template <>
struct SnapshotTraits<GaussianShotDiscriminator>
    : FixedSnapshotKind<SnapshotKind::kGaussian> {};
template <>
struct SnapshotTraits<Quantized8ProposedDiscriminator>
    : FixedSnapshotKind<SnapshotKind::kInt8> {};
template <>
struct SnapshotTraits<JointHeadDiscriminator> {
  static SnapshotKind kind(const JointHeadDiscriminator& d) {
    return d.source() == JointHeadSource::kRawIq ? SnapshotKind::kFnn
                                                 : SnapshotKind::kHerqules;
  }
};

/// A SnapshotableBackend that is also registered with the kind registry —
/// what save_backend and BackendSnapshot::wrap accept.
template <typename D>
concept RegisteredSnapshotBackend =
    SnapshotableBackend<D> && requires(const D& d) {
      { SnapshotTraits<D>::kind(d) } -> std::convertible_to<SnapshotKind>;
    };

/// Serializes a trained discriminator with the snapshot header; the kind
/// byte comes from the type's SnapshotTraits registration.
template <RegisteredSnapshotBackend D>
void save_backend(std::ostream& os, const D& d);

/// A loaded (or wrapped) snapshot: owns the reconstructed discriminator
/// behind a type-erased shared_ptr and mints EngineBackends that share
/// that ownership — unlike make_backend(), a snapshot backend keeps its
/// discriminator alive for as long as any copy of the backend exists, so
/// it can outlive the snapshot and ride through swap_shard.
class BackendSnapshot {
 public:
  BackendSnapshot() = default;

  /// Takes ownership of a trained discriminator of any registered type.
  template <RegisteredSnapshotBackend D>
  static BackendSnapshot wrap(D d) {
    auto p = std::make_shared<const D>(std::move(d));
    BackendSnapshot snap;
    snap.kind_ = SnapshotTraits<D>::kind(*p);
    snap.name_ = p->name();
    snap.n_qubits_ = p->num_qubits();
    snap.n_samples_ = p->samples_used();
    snap.type_ = &typeid(D);
    snap.backend_ = bind_backend<D>(p);
    snap.save_ = [](std::ostream& os, const void* raw) {
      save_backend(os, *static_cast<const D*>(raw));
    };
    snap.payload_ = std::move(p);
    return snap;
  }

  bool valid() const { return static_cast<bool>(payload_); }
  SnapshotKind kind() const { return kind_; }
  const std::string& name() const { return name_; }
  std::size_t num_qubits() const { return n_qubits_; }
  std::size_t num_samples() const { return n_samples_; }

  /// The owned discriminator, if it is a D; nullptr otherwise. The
  /// returned pointer shares ownership and may outlive the snapshot.
  template <typename D>
  std::shared_ptr<const D> as() const {
    if (!payload_ || !type_ || *type_ != typeid(D)) return nullptr;
    return std::static_pointer_cast<const D>(payload_);
  }

  /// Owning backend over the loaded discriminator (see above).
  EngineBackend backend() const {
    MLQR_CHECK_MSG(valid(), "empty snapshot has no backend");
    return backend_;
  }

  /// Re-serializes the owned discriminator, header included — byte-wise
  /// what save_backend on the original instance wrote.
  void save(std::ostream& os) const {
    MLQR_CHECK_MSG(valid(), "cannot save an empty snapshot");
    save_(os, payload_.get());
  }

 private:
  SnapshotKind kind_ = SnapshotKind::kFloat;
  std::string name_;
  std::size_t n_qubits_ = 0;
  std::size_t n_samples_ = 0;
  const std::type_info* type_ = nullptr;
  std::shared_ptr<const void> payload_;
  EngineBackend backend_;
  void (*save_)(std::ostream&, const void*) = nullptr;
};

/// Deserializes any registered kind; throws mlqr::Error on bad magic,
/// version mismatch, unknown kind, truncation, oversized counts, or any
/// header/payload inconsistency.
BackendSnapshot load_backend(std::istream& is);

/// File conveniences (binary mode; throw mlqr::Error on I/O failure).
template <RegisteredSnapshotBackend D>
void save_backend_file(const std::string& path, const D& d);
void save_backend_file(const std::string& path, const BackendSnapshot& snap);
BackendSnapshot load_backend_file(const std::string& path);

namespace detail {

/// Non-template halves of the save templates (defined in snapshot.cpp).
void write_snapshot_header(std::ostream& os, SnapshotKind kind,
                           std::size_t n_qubits, std::size_t n_samples,
                           const std::string& name);
void check_snapshot_stream(std::ostream& os);
void write_snapshot_file(const std::string& path,
                         const std::function<void(std::ostream&)>& writer);

}  // namespace detail

template <RegisteredSnapshotBackend D>
void save_backend(std::ostream& os, const D& d) {
  detail::write_snapshot_header(os, SnapshotTraits<D>::kind(d),
                                d.num_qubits(), d.samples_used(), d.name());
  d.save(os);
  detail::check_snapshot_stream(os);
}

template <RegisteredSnapshotBackend D>
void save_backend_file(const std::string& path, const D& d) {
  detail::write_snapshot_file(
      path, [&d](std::ostream& os) { save_backend(os, d); });
}

}  // namespace mlqr
