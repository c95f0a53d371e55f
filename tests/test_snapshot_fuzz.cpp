// Deterministic corruption corpus for load_backend: every registered
// snapshot kind is saved once, then systematically mutated — truncation at
// every boundary, header bit flips, random payload bit flips, oversized
// count surgery, kind-byte grafts, bad magic/version, random garbage. The
// contract under test: a hostile stream either decodes into a fully
// serviceable snapshot (benign flip in weight data) or throws mlqr::Error
// — it never crashes, hangs, over-allocates, or escapes with any other
// exception type. The sanitizer CI job runs this file under ASan/UBSan;
// fuzz/fuzz_load_backend.cpp drives the same entry point coverage-guided.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "pipeline/snapshot.h"
#include "readout/dataset.h"

namespace mlqr {
namespace {

/// One valid serialized snapshot per registered kind (both Gaussian
/// flavours), trained once on a tiny two-qubit dataset. Fidelity is
/// irrelevant here — only the byte layout matters.
struct Corpus {
  struct Entry {
    std::string label;
    std::string bytes;
  };
  std::vector<Entry> entries;

  static const Corpus& get() {
    static const Corpus corpus = [] {
      DatasetConfig dcfg;
      dcfg.chip = ChipProfile::test_two_qubit();
      dcfg.shots_per_basis_state = 120;
      dcfg.seed = 20260806;
      const ReadoutDataset ds = generate_dataset(dcfg);

      Corpus c;
      const auto add = [&c](const std::string& label, const auto& d) {
        std::stringstream ss;
        save_backend(ss, d);
        c.entries.push_back({label, ss.str()});
      };

      ProposedConfig pcfg;
      pcfg.trainer.epochs = 1;
      const ProposedDiscriminator proposed = ProposedDiscriminator::train(
          ds.shots, ds.training_labels, ds.train_idx, ds.chip, pcfg);
      add("float", proposed);
      add("int16", QuantizedProposedDiscriminator::quantize(proposed, ds.shots,
                                                            ds.train_idx));
      add("int8", Quantized8ProposedDiscriminator::quantize(proposed, ds.shots,
                                                            ds.train_idx));
      JointHeadConfig fcfg = JointHeadConfig::fnn();
      fcfg.trainer.epochs = 1;
      fcfg.hidden = {16};
      add("fnn", JointHeadDiscriminator::train(ds.shots, ds.training_labels,
                                               ds.train_idx, ds.chip, fcfg));
      JointHeadConfig hcfg = JointHeadConfig::herqules();
      hcfg.trainer.epochs = 1;
      hcfg.hidden = {16};
      add("herqules",
          JointHeadDiscriminator::train(ds.shots, ds.training_labels,
                                        ds.train_idx, ds.chip, hcfg));
      add("lda", GaussianShotDiscriminator::train(
                     ds.shots, ds.training_labels, ds.train_idx, ds.chip,
                     GaussianKind::kLda));
      add("qda", GaussianShotDiscriminator::train(
                     ds.shots, ds.training_labels, ds.train_idx, ds.chip,
                     GaussianKind::kQda));
      return c;
    }();
    return corpus;
  }
};

/// Fixed header prefix: magic(8) + version(4) + kind(1) + n_qubits(8) +
/// n_samples(8) = 29 bytes, then the u64-length-prefixed name string.
constexpr std::size_t kKindOffset = 12;
constexpr std::size_t kQubitsOffset = 13;
constexpr std::size_t kSamplesOffset = 21;
constexpr std::size_t kNameOffset = 29;

std::size_t header_size(const std::string& bytes) {
  // Name length is a little-endian u64 at kNameOffset.
  std::uint64_t len = 0;
  for (int i = 7; i >= 0; --i)
    len = (len << 8) |
          static_cast<std::uint8_t>(bytes[kNameOffset + std::size_t(i)]);
  return kNameOffset + 8 + static_cast<std::size_t>(len);
}

enum class Outcome { kLoaded, kError };

/// Feeds a mutated stream to load_backend. Returns how it ended; any
/// exception that is not mlqr::Error propagates and fails the test — that
/// is the crash/UB detector (together with the sanitizers in CI).
Outcome try_load(const std::string& bytes) {
  std::stringstream ss(bytes);
  try {
    const BackendSnapshot snap = load_backend(ss);
    // A mutant that decodes must be fully serviceable, not half-loaded.
    EXPECT_TRUE(snap.valid());
    EXPECT_TRUE(snap.backend().valid());
    return Outcome::kLoaded;
  } catch (const Error&) {
    return Outcome::kError;
  }
}

/// Every prefix length for small streams; for big ones, every early
/// offset, a prime stride through the middle, and the whole tail — the
/// boundaries that matter (field edges, final bytes) stay exhaustively
/// covered without a quadratic read bill.
std::vector<std::size_t> truncation_points(std::size_t size) {
  std::vector<std::size_t> pts;
  if (size <= 32768) {
    for (std::size_t i = 0; i < size; ++i) pts.push_back(i);
    return pts;
  }
  for (std::size_t i = 0; i < 1024; ++i) pts.push_back(i);
  for (std::size_t i = 1024; i + 256 < size; i += 211) pts.push_back(i);
  for (std::size_t i = size - 256; i < size; ++i) pts.push_back(i);
  return pts;
}

TEST(SnapshotFuzz, TruncationAtEveryBoundaryErrors) {
  for (const auto& e : Corpus::get().entries) {
    for (std::size_t cut : truncation_points(e.bytes.size()))
      ASSERT_EQ(try_load(e.bytes.substr(0, cut)), Outcome::kError)
          << e.label << " truncated to " << cut << " of " << e.bytes.size()
          << " bytes";
  }
}

TEST(SnapshotFuzz, EveryHeaderBitFlipErrors) {
  // The header is fully cross-checked against the payload (kind via the
  // codec + name equality, geometry via num_qubits/num_samples), so every
  // single-bit header mutation must be rejected.
  for (const auto& e : Corpus::get().entries) {
    const std::size_t header = header_size(e.bytes);
    for (std::size_t byte = 0; byte < header; ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string m = e.bytes;
        m[byte] = static_cast<char>(m[byte] ^ (1 << bit));
        ASSERT_EQ(try_load(m), Outcome::kError)
            << e.label << " header byte " << byte << " bit " << bit;
      }
    }
  }
}

TEST(SnapshotFuzz, RandomPayloadBitFlipsNeverCrash) {
  // Payload flips may be benign (a weight bit) or fatal (a count, a dim, a
  // kernel code) — both are fine; anything else (crash, non-Error throw,
  // half-loaded snapshot) fails. Seeded, so the corpus is reproducible.
  std::mt19937 rng(0x5eed5a1u);
  std::size_t errors = 0;
  for (const auto& e : Corpus::get().entries) {
    const std::size_t header = header_size(e.bytes);
    ASSERT_GT(e.bytes.size(), header);
    std::uniform_int_distribution<std::size_t> pick_byte(
        header, e.bytes.size() - 1);
    std::uniform_int_distribution<int> pick_bit(0, 7);
    for (int trial = 0; trial < 150; ++trial) {
      std::string m = e.bytes;
      const std::size_t byte = pick_byte(rng);
      m[byte] = static_cast<char>(m[byte] ^ (1 << pick_bit(rng)));
      errors += try_load(m) == Outcome::kError;
    }
  }
  // Deterministic given the seed. Kinds whose payload is mostly raw float
  // weight data absorb most single-bit flips benignly (a slightly
  // different but well-formed model); across the whole corpus, though,
  // plenty of flips land on structural fields and the validators fire.
  EXPECT_GT(errors, 0u);
}

TEST(SnapshotFuzz, OversizedCountsErrorInsteadOfAllocating) {
  // A hostile 2^60 in any count field must be rejected by the
  // remaining-bytes bound in io::read_count before any allocation — an
  // Error, never a bad_alloc/OOM kill.
  const auto put_u64 = [](std::string& s, std::size_t off, std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      s[off + std::size_t(i)] = static_cast<char>((v >> (8 * i)) & 0xff);
  };
  for (const auto& e : Corpus::get().entries) {
    for (const std::uint64_t huge :
         {std::uint64_t{1} << 60, ~std::uint64_t{0}}) {
      std::string m = e.bytes;
      put_u64(m, kQubitsOffset, huge);
      EXPECT_EQ(try_load(m), Outcome::kError) << e.label << " n_qubits";
      m = e.bytes;
      put_u64(m, kSamplesOffset, huge);
      EXPECT_EQ(try_load(m), Outcome::kError) << e.label << " n_samples";
      m = e.bytes;
      // Name length smashed to a huge count: read_string must bound
      // against the remaining stream before allocating.
      put_u64(m, kNameOffset, huge);
      EXPECT_EQ(try_load(m), Outcome::kError) << e.label << " name length";
      m = e.bytes;
      put_u64(m, header_size(e.bytes), huge);
      EXPECT_EQ(try_load(m), Outcome::kError)
          << e.label << " first payload word";
    }
  }
}

TEST(SnapshotFuzz, KindByteGraftsAndUnknownKindsError) {
  // A valid payload under a different (valid) kind byte must be rejected
  // by the codec's payload parse or the header/payload cross-checks; kind
  // bytes beyond the registry are rejected outright.
  for (const auto& e : Corpus::get().entries) {
    for (int kind = 0; kind <= 5; ++kind) {
      if (kind == static_cast<int>(e.bytes[kKindOffset])) continue;
      std::string m = e.bytes;
      m[kKindOffset] = static_cast<char>(kind);
      EXPECT_EQ(try_load(m), Outcome::kError)
          << e.label << " regraded to kind " << kind;
    }
    std::string m = e.bytes;
    m[kKindOffset] = '\x7f';
    EXPECT_EQ(try_load(m), Outcome::kError) << e.label << " kind 127";
  }
}

TEST(SnapshotFuzz, BadMagicVersionAndGarbageError) {
  const std::string& base = Corpus::get().entries.front().bytes;

  std::string wrong_magic = base;
  wrong_magic[0] = 'X';
  EXPECT_EQ(try_load(wrong_magic), Outcome::kError);

  for (const std::uint32_t version : {0u, 2u, 0xffffffffu}) {
    std::string m = base;
    for (int i = 0; i < 4; ++i)
      m[8 + std::size_t(i)] = static_cast<char>((version >> (8 * i)) & 0xff);
    EXPECT_EQ(try_load(m), Outcome::kError) << "version " << version;
  }

  EXPECT_EQ(try_load(""), Outcome::kError);
  EXPECT_EQ(try_load("MLQRSNAP"), Outcome::kError);

  // Random garbage streams: no valid magic, so all must error — the point
  // is that none of them crash or hang on the way to that error.
  std::mt19937 rng(0xbadc0deu);
  std::uniform_int_distribution<std::size_t> pick_len(0, 2048);
  std::uniform_int_distribution<int> pick_byte(0, 255);
  for (int trial = 0; trial < 64; ++trial) {
    std::string garbage(pick_len(rng), '\0');
    for (char& c : garbage) c = static_cast<char>(pick_byte(rng));
    EXPECT_EQ(try_load(garbage), Outcome::kError) << "garbage trial " << trial;
  }
}

}  // namespace
}  // namespace mlqr
