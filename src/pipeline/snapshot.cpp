#include "pipeline/snapshot.h"

#include <array>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/serialize.h"

namespace mlqr {

namespace {

constexpr std::array<char, 8> kMagic{'M', 'L', 'Q', 'R', 'S', 'N', 'A', 'P'};

struct Header {
  SnapshotKind kind;
  std::size_t n_qubits;
  std::size_t n_samples;
  std::string name;
};

Header read_header(std::istream& is) {
  std::array<char, 8> magic{};
  io::read_bytes(is, magic.data(), magic.size());
  MLQR_CHECK_MSG(magic == kMagic,
                 "not a calibration snapshot (bad magic; expected MLQRSNAP)");
  const std::uint32_t version = io::read_u32(is);
  MLQR_CHECK_MSG(version == kSnapshotVersion,
                 "snapshot version " << version << " unsupported (this build "
                     << "reads version " << kSnapshotVersion << ')');
  const std::uint8_t kind = io::read_u8(is);
  MLQR_CHECK_MSG(kind <= static_cast<std::uint8_t>(SnapshotKind::kInt8),
                 "unknown snapshot kind " << static_cast<int>(kind));
  Header h;
  h.kind = static_cast<SnapshotKind>(kind);
  h.n_qubits = io::read_count(is, 4096);
  h.n_samples = io::read_count(is);
  h.name = io::read_string(is);
  return h;
}

// The codec registry: one row per SnapshotKind, indexed by the kind byte.
// load_backend dispatches through here, so registering a design is one
// SnapshotTraits specialization plus one row per kind — no engine or
// call-site edits. A row's `args` are what its kind fixes beyond the
// stream (the joint head's source).
struct Codec {
  SnapshotKind kind;
  BackendSnapshot (*load)(std::istream&);
};

template <RegisteredSnapshotBackend D, auto... args>
BackendSnapshot load_as(std::istream& is) {
  return BackendSnapshot::wrap(D::load(is, args...));
}

constexpr std::array<Codec, 6> kCodecs{{
    {SnapshotKind::kFloat, &load_as<ProposedDiscriminator>},
    {SnapshotKind::kInt16, &load_as<QuantizedProposedDiscriminator>},
    {SnapshotKind::kFnn,
     &load_as<JointHeadDiscriminator, JointHeadSource::kRawIq>},
    {SnapshotKind::kHerqules,
     &load_as<JointHeadDiscriminator, JointHeadSource::kFilters>},
    {SnapshotKind::kGaussian, &load_as<GaussianShotDiscriminator>},
    {SnapshotKind::kInt8, &load_as<Quantized8ProposedDiscriminator>},
}};

}  // namespace

namespace detail {

void write_snapshot_header(std::ostream& os, SnapshotKind kind,
                           std::size_t n_qubits, std::size_t n_samples,
                           const std::string& name) {
  os.write(kMagic.data(), kMagic.size());
  io::write_u32(os, kSnapshotVersion);
  io::write_u8(os, static_cast<std::uint8_t>(kind));
  io::write_u64(os, n_qubits);
  io::write_u64(os, n_samples);
  io::write_string(os, name);
}

void check_snapshot_stream(std::ostream& os) {
  MLQR_CHECK_MSG(os.good(), "snapshot write failed");
}

void write_snapshot_file(const std::string& path,
                         const std::function<void(std::ostream&)>& writer) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  MLQR_CHECK_MSG(os.good(), "cannot open snapshot file for writing: " << path);
  writer(os);
  os.flush();
  MLQR_CHECK_MSG(os.good(), "failed to write snapshot file: " << path);
}

}  // namespace detail

BackendSnapshot load_backend(std::istream& is) {
  const Header h = read_header(is);
  const auto idx = static_cast<std::size_t>(h.kind);
  MLQR_CHECK_MSG(idx < kCodecs.size() && kCodecs[idx].kind == h.kind,
                 "no codec for snapshot kind " << static_cast<int>(idx));
  BackendSnapshot snap = kCodecs[idx].load(is);
  // The payload re-derives its own geometry and identity; the header must
  // agree with all of it, or the stream was stitched together from parts.
  MLQR_CHECK_MSG(
      snap.num_qubits() == h.n_qubits && snap.num_samples() == h.n_samples,
      "snapshot header (" << h.n_qubits << " qubits, " << h.n_samples
          << " samples) disagrees with payload (" << snap.num_qubits()
          << " qubits, " << snap.num_samples() << " samples)");
  MLQR_CHECK_MSG(snap.name() == h.name,
                 "snapshot header names \"" << h.name
                     << "\" but the payload decodes as \"" << snap.name()
                     << '"');
  return snap;
}

void save_backend_file(const std::string& path, const BackendSnapshot& snap) {
  detail::write_snapshot_file(path,
                              [&snap](std::ostream& os) { snap.save(os); });
}

BackendSnapshot load_backend_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  MLQR_CHECK_MSG(is.good(), "cannot open snapshot file: " << path);
  return load_backend(is);
}

}  // namespace mlqr
