#!/usr/bin/env python3
"""Repo-invariant lints that neither the compiler nor clang-tidy can express.

Eight checks, all cheap enough for every CI run and every pre-commit:

  1. snapshot-kinds: the SnapshotKind enum in src/pipeline/snapshot.h is an
     on-disk format registry. Its wire values are pinned in
     tools/snapshot_kinds.manifest; this lint fails if an existing entry was
     renumbered, renamed, or removed (append-only contract), or if a new
     enum entry was not added to the manifest, or if anything claims a
     reserved value.

  2. nondeterminism: src/ must stay bit-reproducible. Calls to rand(),
     std::random_device, wall-clock time sources (time(), gettimeofday,
     system_clock) are banned outside src/common/timer.h (which owns the
     steady-clock wrappers). Seeded mlqr RNGs and steady_clock are fine.

  3. pipeline-rng: the serving path (src/pipeline/) must classify
     deterministically — even the seeded mlqr Rng is off-limits there,
     except in fault_injection.{h,cpp}, which is the one sanctioned
     seeded-randomness site (its fault schedules are pure functions of
     (seed, call index)). The wall-clock/random_device ban from check 2
     still applies to those files.

  4. pure-parts: the streaming engine's policy parts — the circuit breaker
     (src/pipeline/shard_breaker.*) and the drift monitor
     (src/pipeline/drift_monitor.*) — are single-threaded values driven
     under the engine's lock with `now` passed in, so tests can drive them
     with injected times. They may not read a clock (`::now(`), take a lock
     (Mutex, MutexLock, CondVar, std::mutex, std::condition_variable), or
     draw from an Rng.

  5. isa-dispatch: intrinsics headers (`<emmintrin.h>`, `<xmmintrin.h>`,
     `<immintrin.h>`, `<x86intrin.h>`, any other `<*intrin.h>`,
     `<arm_neon.h>`) and per-function ISA overrides
     (`__attribute__((target...` / `[[gnu::target...`) appear only in the
     runtime-dispatched tiers, src/common/simd_tier_*, whose objects are
     checked to export nothing outside their own namespace; the CPU-feature
     probe (`__builtin_cpu_supports`) appears only in src/common/simd.cpp,
     which picks the tier. Anywhere else, instruction-set code would reach
     callers no dispatch guards (or, at the baseline ISA, grow a second
     kernel system beside the table), and an inline function compiled with
     wider flags could be handed by the linker to a baseline caller.

  6. no-test-only-module: every header under src/ is included by something
     that ships — another file in src/ (not the header's own .cpp), or a
     file in bench/, examples/, perfbench/ or fuzz/. A header only tests
     include is a module nothing serves: delete it, or wire it into a
     caller in the same change.

  7. documented-knobs: every `MLQR_*` environment variable that code in
     src/, bench/, examples/ or fuzz/ reads (a `getenv("MLQR_...")` or
     `env_*("MLQR_...", ...)` call with a literal name) has a row in the
     knob table of README.md. tests/ may read scratch variables of its own.

  8. settable-fields: every data member of a `struct *Config` / `struct
     *Params` under src/ is assigned (`.name =`, `->name =`, a compound
     assignment or a designated initializer) by some file in src/, bench/,
     examples/, perfbench/ or fuzz/ other than its declaring header. A
     field only tests set is a knob no caller turns: make it a constant at
     its point of use. A snapshot load restoring the field
     (`x.name = io::read_*(...)`) is no setter: it replays what a caller
     once set. SETTABLE_FIELD_ALLOWLIST names the fields kept on purpose,
     each with its reason. Known blind spots: the check matches names, so
     a field that shares its name with a field some caller does assign
     (e.g. ProposedConfig::duration_ns covers the baselines' old
     duration_ns) escapes it, and so does a field a caller assigns only
     its default value, sets only through positional aggregate
     initialization, or that a load restores through a local variable.

Exit status: 0 = all invariants hold, 1 = violation (details on stderr),
2 = usage / environment error. `--self-test` proves the checks can fail by
running them against deliberately broken copies in a temp dir.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
SNAPSHOT_HEADER = pathlib.Path("src/pipeline/snapshot.h")
MANIFEST = pathlib.Path("tools/snapshot_kinds.manifest")

# ---------------------------------------------------------------------------
# Check 1: snapshot kind registry is append-only against the manifest.
# ---------------------------------------------------------------------------

ENUM_RE = re.compile(
    r"enum\s+class\s+SnapshotKind\s*:\s*std::uint8_t\s*\{(?P<body>.*?)\}\s*;",
    re.DOTALL,
)
ENUMERATOR_RE = re.compile(r"^\s*(?P<name>k\w+)\s*=\s*(?P<value>\d+)\s*,")


def parse_enum(header_text: str) -> dict[str, int]:
    m = ENUM_RE.search(header_text)
    if m is None:
        raise SystemExit(
            f"error: no `enum class SnapshotKind : std::uint8_t` found in "
            f"{SNAPSHOT_HEADER} — if the registry moved, update "
            f"tools/lint_invariants.py alongside it"
        )
    kinds: dict[str, int] = {}
    for line in m.group("body").splitlines():
        em = ENUMERATOR_RE.match(line)
        if em:
            kinds[em.group("name")] = int(em.group("value"))
    if not kinds:
        raise SystemExit(
            f"error: SnapshotKind in {SNAPSHOT_HEADER} has no `kName = N,` "
            f"enumerators the lint can parse (explicit values are required: "
            f"they are wire bytes)"
        )
    return kinds


def parse_manifest(manifest_text: str) -> tuple[dict[str, int], set[int]]:
    pinned: dict[str, int] = {}
    reserved: set[int] = set()
    for lineno, raw in enumerate(manifest_text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.fullmatch(r"(?P<name>\w+)\s*=\s*(?P<value>\d+)", line)
        if m is None:
            raise SystemExit(
                f"error: {MANIFEST}:{lineno}: unparseable line {raw!r} "
                f"(want `name = value`)"
            )
        name, value = m.group("name"), int(m.group("value"))
        if name == "reserved":
            reserved.add(value)
        else:
            pinned[name] = value
    return pinned, reserved


def check_snapshot_kinds(root: pathlib.Path) -> list[str]:
    kinds = parse_enum((root / SNAPSHOT_HEADER).read_text(encoding="utf-8"))
    pinned, reserved = parse_manifest(
        (root / MANIFEST).read_text(encoding="utf-8")
    )
    errors = []
    for name, value in pinned.items():
        if name not in kinds:
            errors.append(
                f"{SNAPSHOT_HEADER}: pinned snapshot kind {name} = {value} "
                f"was removed or renamed — wire values are append-only"
            )
        elif kinds[name] != value:
            errors.append(
                f"{SNAPSHOT_HEADER}: snapshot kind {name} renumbered "
                f"{value} -> {kinds[name]} — existing snapshots on disk "
                f"would load as the wrong design"
            )
    for name, value in kinds.items():
        if name in pinned:
            continue
        if value in reserved:
            errors.append(
                f"{SNAPSHOT_HEADER}: new snapshot kind {name} claims "
                f"reserved value {value} (see {MANIFEST} for what it is "
                f"being held for)"
            )
        elif value in pinned.values():
            errors.append(
                f"{SNAPSHOT_HEADER}: new snapshot kind {name} reuses wire "
                f"value {value}, already pinned to another kind"
            )
        else:
            errors.append(
                f"{SNAPSHOT_HEADER}: snapshot kind {name} = {value} is not "
                f"in {MANIFEST} — append it there in the same change to pin "
                f"the wire value"
            )
    return errors


# ---------------------------------------------------------------------------
# Check 2: no nondeterminism escapes in src/.
# ---------------------------------------------------------------------------

# Each entry: (human label, regex matched against comment-stripped code).
NONDET_PATTERNS = [
    ("rand()/srand()", re.compile(r"\b(?:std::)?s?rand\s*\(")),
    ("std::random_device", re.compile(r"\brandom_device\b")),
    ("wall-clock time()", re.compile(r"(?<![\w:.>])time\s*\(\s*(?:NULL|nullptr|0|&)")),
    ("gettimeofday()", re.compile(r"\bgettimeofday\s*\(")),
    ("clock()", re.compile(r"(?<![\w:.>])clock\s*\(\s*\)")),
    ("std::chrono::system_clock", re.compile(r"\bsystem_clock\b")),
]

# timer.h owns the clock wrappers (steady_clock only, but it is the one
# place allowed to name clock types at all).
NONDET_EXEMPT = {pathlib.Path("src/common/timer.h")}

LINE_COMMENT_RE = re.compile(r"//.*$")
BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)
STRING_RE = re.compile(r'"(?:\\.|[^"\\])*"')


def strip_comments(text: str) -> str:
    """Blank out comments and string literals, preserving line numbers."""

    def blank(m: re.Match[str]) -> str:
        return re.sub(r"[^\n]", " ", m.group(0))

    text = BLOCK_COMMENT_RE.sub(blank, text)
    text = STRING_RE.sub(blank, text)
    return "\n".join(LINE_COMMENT_RE.sub("", ln) for ln in text.splitlines())


def check_nondeterminism(root: pathlib.Path) -> list[str]:
    errors = []
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in {".h", ".cpp", ".inc"}:
            continue
        rel = path.relative_to(root)
        if rel in NONDET_EXEMPT:
            continue
        code = strip_comments(path.read_text(encoding="utf-8"))
        for lineno, line in enumerate(code.splitlines(), 1):
            for label, pattern in NONDET_PATTERNS:
                if pattern.search(line):
                    errors.append(
                        f"{rel}:{lineno}: {label} — src/ must stay "
                        f"bit-reproducible; use a seeded mlqr RNG, or "
                        f"steady_clock via common/timer.h for durations"
                    )
    return errors


# ---------------------------------------------------------------------------
# Check 3: no RNG on the serving path outside the fault-injection harness.
# ---------------------------------------------------------------------------

# The one place under src/pipeline/ allowed to draw (seeded) random numbers.
PIPELINE_RNG_EXEMPT = {
    pathlib.Path("src/pipeline/fault_injection.h"),
    pathlib.Path("src/pipeline/fault_injection.cpp"),
}

# Rng as a token; include directives are quoted strings, already blanked by
# strip_comments, so this fires on actual uses, not on `#include`.
PIPELINE_RNG_RE = re.compile(r"\bRng\b")


def check_pipeline_rng(root: pathlib.Path) -> list[str]:
    errors = []
    for path in sorted((root / "src" / "pipeline").rglob("*")):
        if path.suffix not in {".h", ".cpp"}:
            continue
        rel = path.relative_to(root)
        if rel in PIPELINE_RNG_EXEMPT:
            continue
        code = strip_comments(path.read_text(encoding="utf-8"))
        for lineno, line in enumerate(code.splitlines(), 1):
            if PIPELINE_RNG_RE.search(line):
                errors.append(
                    f"{rel}:{lineno}: Rng on the serving path — "
                    f"src/pipeline/ must classify deterministically; only "
                    f"fault_injection.{{h,cpp}} may draw seeded randomness"
                )
    return errors


# ---------------------------------------------------------------------------
# Check 4: the engine's pure policy parts read no clock, take no lock, and
# draw no random numbers.
# ---------------------------------------------------------------------------

PURE_PART_GLOBS = ("shard_breaker.*", "drift_monitor.*")

PURE_PART_PATTERNS = [
    ("a clock read (::now())", re.compile(r"::now\s*\(")),
    (
        "a lock",
        re.compile(r"\b(?:Mutex|MutexLock|CondVar|mutex|condition_variable)\b"),
    ),
    ("an Rng", PIPELINE_RNG_RE),
]


def check_pure_parts(root: pathlib.Path) -> list[str]:
    errors = []
    pipeline = root / "src" / "pipeline"
    paths = sorted({p for g in PURE_PART_GLOBS for p in pipeline.glob(g)})
    for path in paths:
        if path.suffix not in {".h", ".cpp"}:
            continue
        rel = path.relative_to(root)
        code = strip_comments(path.read_text(encoding="utf-8"))
        for lineno, line in enumerate(code.splitlines(), 1):
            for label, pattern in PURE_PART_PATTERNS:
                if pattern.search(line):
                    errors.append(
                        f"{rel}:{lineno}: {label} in a pure policy part — "
                        f"take `now` as a parameter and let the engine's "
                        f"lock serialize calls"
                    )
    return errors


# ---------------------------------------------------------------------------
# Check 5: instruction-set code stays inside the dispatched SIMD tiers.
# ---------------------------------------------------------------------------

# Every C++ source tree of the repository.
ISA_SCAN_DIRS = ("src", "tests", "bench", "examples", "fuzz", "perfbench")
ISA_SUFFIXES = {".h", ".hpp", ".cpp", ".cc", ".inc"}


def in_tier(rel: pathlib.Path) -> bool:
    """src/common/simd_tier_*: the tier objects and their shared body."""
    return rel.parent == pathlib.Path("src/common") and rel.name.startswith(
        "simd_tier_"
    )


def in_picker(rel: pathlib.Path) -> bool:
    return rel == pathlib.Path("src/common/simd.cpp")


# (what, pattern, where it may appear, that place in words)
ISA_PATTERNS = [
    ("a CPU-feature probe (__builtin_cpu_supports)",
     re.compile(r"\b__builtin_cpu_supports\b"), in_picker,
     "src/common/simd.cpp — tier selection lives there"),
    ("a per-function ISA override (target attribute)",
     re.compile(r"__attribute__\s*\(\(\s*(?:__)?target(?:_clones)?\b|"
                r"\[\[\s*gnu::target(?:_clones)?\b"), in_tier,
     "src/common/simd_tier_* — put the kernel in a dispatched tier "
     "(src/common/simd_tier_kernels.inc)"),
    ("an intrinsics header (<*intrin.h> / <arm_neon.h>)",
     re.compile(r"#\s*include\s*<(?:\w*intrin|arm_neon)\.h>"), in_tier,
     "src/common/simd_tier_* — put the kernel in a dispatched tier "
     "(src/common/simd_tier_kernels.inc)"),
]


def check_isa_dispatch(root: pathlib.Path) -> list[str]:
    errors = []
    for top in ISA_SCAN_DIRS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in ISA_SUFFIXES or not path.is_file():
                continue
            rel = path.relative_to(root)
            code = strip_comments(path.read_text(encoding="utf-8"))
            for lineno, line in enumerate(code.splitlines(), 1):
                for label, pattern, allowed, home in ISA_PATTERNS:
                    if pattern.search(line) and not allowed(rel):
                        errors.append(
                            f"{rel}:{lineno}: {label} outside {home}"
                        )
    return errors


# ---------------------------------------------------------------------------
# Check 6: every src/ header has a caller that is not a test.
# ---------------------------------------------------------------------------

# Trees whose includes count as a caller; tests/ is deliberately absent.
SERVING_DIRS = ("src", "bench", "examples", "perfbench", "fuzz")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def quoted_includes(path: pathlib.Path) -> list[str]:
    """`#include "..."` targets of a file, ignoring commented-out lines."""
    text = BLOCK_COMMENT_RE.sub("", path.read_text(encoding="utf-8"))
    text = "\n".join(
        ln for ln in text.splitlines() if not ln.lstrip().startswith("//")
    )
    return INCLUDE_RE.findall(text)


def check_test_only_modules(root: pathlib.Path) -> list[str]:
    src = root / "src"
    headers = {p.resolve() for p in src.rglob("*.h")}
    included: set[pathlib.Path] = set()
    for top in SERVING_DIRS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in ISA_SUFFIXES or not path.is_file():
                continue
            for target in quoted_includes(path):
                for base in (src, path.parent):
                    hit = (base / target).resolve()
                    if hit not in headers:
                        continue
                    # A header's own .cpp (or the header itself) is no caller.
                    if path.resolve() in (hit, hit.with_suffix(".cpp")):
                        continue
                    included.add(hit)
    return [
        f"{h.relative_to(root.resolve())}: included by no file in "
        f"{', '.join(d + '/' for d in SERVING_DIRS)} (its own .cpp does not "
        f"count) — a module only tests reach; delete it or give it a caller"
        for h in sorted(headers - included)
    ]


# ---------------------------------------------------------------------------
# Check 7: every MLQR_* environment variable the code reads is documented.
# ---------------------------------------------------------------------------

README = pathlib.Path("README.md")
KNOB_SCAN_DIRS = ("src", "bench", "examples", "fuzz")
# Strings and char literals are kept, comments blanked (newlines survive).
TOKEN_RE = re.compile(
    r'"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'|//[^\n]*|/\*.*?\*/',
    re.DOTALL,
)
ENV_READ_RE = re.compile(r'\b(?:getenv|env_\w+)\s*\(\s*"(?P<name>MLQR_\w+)"')
KNOB_ROW_RE = re.compile(r"^\|\s*`(?P<name>MLQR_\w+)")


def blank_comments(text: str) -> str:
    def keep_strings(m: re.Match[str]) -> str:
        tok = m.group(0)
        return tok if tok[0] in "\"'" else re.sub(r"[^\n]", " ", tok)

    return TOKEN_RE.sub(keep_strings, text)


def documented_knobs(readme_text: str) -> set[str]:
    """Environment variables named in the first cell of the knob table."""
    lines = readme_text.splitlines()
    try:
        start = next(i for i, ln in enumerate(lines)
                     if re.match(r"^\|\s*Knob\s*\|", ln))
    except StopIteration:
        raise SystemExit(
            f"error: no `| Knob | Effect |` table in {README} — if the "
            f"knob table moved, update tools/lint_invariants.py alongside it"
        )
    names = set()
    for ln in lines[start + 1:]:
        if not ln.startswith("|"):
            break
        m = KNOB_ROW_RE.match(ln)
        if m:
            names.add(m.group("name"))
    return names


def check_documented_knobs(root: pathlib.Path) -> list[str]:
    documented = documented_knobs((root / README).read_text(encoding="utf-8"))
    errors = []
    for top in KNOB_SCAN_DIRS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in ISA_SUFFIXES or not path.is_file():
                continue
            code = blank_comments(path.read_text(encoding="utf-8"))
            for m in ENV_READ_RE.finditer(code):
                if m.group("name") in documented:
                    continue
                lineno = code.count("\n", 0, m.start()) + 1
                errors.append(
                    f"{path.relative_to(root)}:{lineno}: reads environment "
                    f"variable {m.group('name')}, which has no row in the "
                    f"knob table of {README} — document it there, or delete "
                    f"the read"
                )
    return errors


# ---------------------------------------------------------------------------
# Check 8: every Config / Params field is set by something that ships.
# ---------------------------------------------------------------------------

# Assignments in SERVING_DIRS count as a caller setting a field (tests/ is
# deliberately absent, as in check 6); a load path's `= io::read_*(` does
# not.
CONFIG_NAME = r"\w+(?:Config|Params)"
CONFIG_STRUCT_RE = re.compile(rf"\bstruct\s+(?P<name>{CONFIG_NAME})\s*\{{")
MEMBER_RE = re.compile(
    r"^(?P<type>[\w:<>,\s*&]+?)\s*\b(?P<name>[A-Za-z_]\w*)\s*"
    r"(?:=.*|\{\})?$",
    re.DOTALL,
)
NOT_A_MEMBER_RE = re.compile(
    r"^(?:static|using|friend|typedef|struct|class|enum|union|template)\b"
)

# "Struct::field": why the field stays although no caller sets it.
SETTABLE_FIELD_ALLOWLIST = {
    "FnnConfig::balance_classes":
        "the baseline joint-class weighting study (ROADMAP item 1) needs "
        "the weighting off as its second value",
    "FnnConfig::class_weight_cap":
        "the same weighting study varies the cap",
    "HerqulesConfig::balance_classes":
        "the same weighting study, on the HERQULES baseline",
    "HerqulesConfig::class_weight_cap":
        "the same weighting study varies the cap",
    # Snapshot wire fields: each is written and read back by a calibration
    # payload, and the checked-in fuzz/corpus is pinned byte-identical.
    "MfBankConfig::min_error_traces": "on the MF-bank snapshot wire",
    "MfBankConfig::kernel_smooth_window": "on the MF-bank snapshot wire",
    "ErrorMinerConfig::early_fraction": "on the MF-bank snapshot wire",
    "ErrorMinerConfig::late_fraction": "on the MF-bank snapshot wire",
    "ErrorMinerConfig::margin": "on the MF-bank snapshot wire",
    "QuantizationConfig::max_calibration_shots":
        "on the quantized designs' snapshot wire",
}


def past_block(text: str, i: int) -> int:
    """Index just past the `}` closing the block whose `{` precedes i."""
    depth = 1
    while i < len(text) and depth:
        depth += {"{": 1, "}": -1}.get(text[i], 0)
        i += 1
    return i


def struct_fields(body: str) -> list[tuple[str, str]]:
    """(type, name) of each data member declared directly in a struct body."""
    fields, stmt, i = [], "", 0
    while i < len(body):
        c = body[i]
        if c == "{":
            i = past_block(body, i + 1)
            if ")" in stmt:  # A member function or constructor body.
                stmt = ""
            else:            # A brace initializer or a nested type.
                stmt += "{}"
            continue
        if c == ";":
            decl = re.sub(r"^\s*(?:public|private|protected)\s*:", "",
                          stmt).strip()
            head = decl.split("=", 1)[0]
            m = MEMBER_RE.match(decl)
            if m and "(" not in head and not NOT_A_MEMBER_RE.match(decl):
                fields.append((m.group("type").strip(), m.group("name")))
            stmt = ""
        else:
            stmt += c
        i += 1
    return fields


def config_fields(root: pathlib.Path) -> list[tuple[pathlib.Path, str, str]]:
    """(declaring header, struct, field) for every Config / Params field. A
    member that is itself a Config / Params struct (ProposedConfig::trainer)
    is no knob of its own: callers set its fields, which are checked."""
    out, nested = [], set()
    for path in sorted((root / "src").rglob("*.h")):
        code = strip_comments(path.read_text(encoding="utf-8"))
        for m in CONFIG_STRUCT_RE.finditer(code):
            body = code[m.end():past_block(code, m.end()) - 1]
            for ftype, field in struct_fields(body):
                if re.fullmatch(CONFIG_NAME, ftype.split("::")[-1]):
                    nested.add((m.group("name"), field))
                out.append((path.relative_to(root), m.group("name"), field))
    return [f for f in out if (f[1], f[2]) not in nested]


def check_settable_fields(root: pathlib.Path) -> list[str]:
    fields = config_fields(root)
    sources = []
    for top in SERVING_DIRS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix in ISA_SUFFIXES and path.is_file():
                sources.append((path.relative_to(root),
                                strip_comments(path.read_text(
                                    encoding="utf-8"))))
    errors = []
    for header, struct, field in fields:
        if f"{struct}::{field}" in SETTABLE_FIELD_ALLOWLIST:
            continue
        assign = re.compile(
            rf"(?:\.|->)\s*{field}\s*(?:[-+*/%|&^]|<<|>>)?=(?!=)"
            r"(?!\s*(?:io::)?read_\w*\s*\()")
        if any(rel != header and assign.search(code)
               for rel, code in sources):
            continue
        errors.append(
            f"{header}: {struct}::{field} is set by no file in "
            f"{', '.join(d + '/' for d in SERVING_DIRS)} (its declaring "
            f"header does not count) — a knob only tests turn; make it a "
            f"constant at its point of use, or allowlist it with a reason"
        )
    return errors


# ---------------------------------------------------------------------------
# Driver + self-test.
# ---------------------------------------------------------------------------


def run_checks(root: pathlib.Path) -> int:
    errors = (
        check_snapshot_kinds(root)
        + check_nondeterminism(root)
        + check_pipeline_rng(root)
        + check_pure_parts(root)
        + check_isa_dispatch(root)
        + check_test_only_modules(root)
        + check_documented_knobs(root)
        + check_settable_fields(root)
    )
    for e in errors:
        print(f"lint_invariants: {e}", file=sys.stderr)
    if not errors:
        print("lint_invariants: all invariants hold")
    return 1 if errors else 0


def self_test() -> int:
    """Tamper with scratch copies and assert every mutation is caught."""
    header = (REPO / SNAPSHOT_HEADER).read_text(encoding="utf-8")
    mutations = {
        "renumbered kind": header.replace("kFnn = 2,", "kFnn = 9,"),
        "removed kind": header.replace("kGaussian = 4,", ""),
        "renamed kind": header.replace("kHerqules = 3,", "kHercules = 3,"),
        "reserved value claimed": header.replace(
            "kInt8 = 5,", "kInt8 = 5,\n  kShadow = 6,"
        ),
        "unpinned new kind": header.replace(
            "kInt8 = 5,", "kInt8 = 5,\n  kShadow = 7,"
        ),
    }
    failures = []
    with tempfile.TemporaryDirectory(prefix="lint_selftest_") as tmp:
        root = pathlib.Path(tmp)
        (root / SNAPSHOT_HEADER).parent.mkdir(parents=True)
        (root / MANIFEST).parent.mkdir(parents=True)
        (root / MANIFEST).write_text(
            (REPO / MANIFEST).read_text(encoding="utf-8"), encoding="utf-8"
        )
        src_common = root / "src" / "common"
        src_common.mkdir(parents=True, exist_ok=True)

        # Baseline: pristine copies must pass.
        (root / SNAPSHOT_HEADER).write_text(header, encoding="utf-8")
        if check_snapshot_kinds(root) or check_nondeterminism(root):
            failures.append("pristine copy failed the checks")

        for label, mutated in mutations.items():
            assert mutated != header, f"mutation {label!r} was a no-op"
            (root / SNAPSHOT_HEADER).write_text(mutated, encoding="utf-8")
            if not check_snapshot_kinds(root):
                failures.append(f"mutation not caught: {label}")
        (root / SNAPSHOT_HEADER).write_text(header, encoding="utf-8")

        nondet_snippets = {
            "rand()": "int f() { return rand(); }\n",
            "std::random_device": "#include <random>\nstd::random_device rd;\n",
            "system_clock": "auto t = std::chrono::system_clock::now();\n",
            "time(nullptr)": "long f() { return time(nullptr); }\n",
        }
        probe = src_common / "selftest_probe.cpp"
        for label, snippet in nondet_snippets.items():
            probe.write_text(snippet, encoding="utf-8")
            if not check_nondeterminism(root):
                failures.append(f"nondeterminism not caught: {label}")
        # Commented-out occurrences must NOT fire.
        probe.write_text("// rand() is banned here\n", encoding="utf-8")
        if check_nondeterminism(root):
            failures.append("false positive on a comment mentioning rand()")
        # The timer.h exemption must hold.
        probe.unlink()
        (src_common / "timer.h").write_text(
            "auto t = std::chrono::system_clock::now();\n", encoding="utf-8"
        )
        if check_nondeterminism(root):
            failures.append("timer.h exemption not honoured")
        (src_common / "timer.h").unlink()

        # Check 3: Rng anywhere else under src/pipeline/ must be caught...
        pipeline_probe = root / "src" / "pipeline" / "selftest_probe.cpp"
        pipeline_probe.write_text(
            "#include \"common/rng.h\"\nmlqr::Rng rng(42);\n",
            encoding="utf-8",
        )
        if not check_pipeline_rng(root):
            failures.append("pipeline Rng use not caught")
        # ...while comments, the include string itself, and identifiers that
        # merely contain the letters must not fire...
        pipeline_probe.write_text(
            "#include \"common/rng.h\"\n"
            "// Rng is banned here\n"
            "int seeded_RngLike_count = 0;\n",
            encoding="utf-8",
        )
        if check_pipeline_rng(root):
            failures.append("false positive: comment/include/substring Rng")
        pipeline_probe.unlink()
        # ...the recalibration controller is explicitly NOT exempt (the
        # retrain/hot-swap loop must stay a pure function of its inputs —
        # this pins that the exemption set gained no new entries)...
        recal_probe = root / "src" / "pipeline" / "recalibration.cpp"
        recal_probe.write_text("mlqr::Rng rng(42);\n", encoding="utf-8")
        if not check_pipeline_rng(root):
            failures.append("pipeline Rng in recalibration.cpp not caught")
        recal_probe.unlink()
        # ...and fault_injection.{h,cpp} stay the sanctioned site.
        for name in ("fault_injection.h", "fault_injection.cpp"):
            (root / "src" / "pipeline" / name).write_text(
                "mlqr::Rng rng(42);\n", encoding="utf-8"
            )
        if check_pipeline_rng(root):
            failures.append("fault_injection exemption not honoured")
        for name in ("fault_injection.h", "fault_injection.cpp"):
            (root / "src" / "pipeline" / name).unlink()

        # Check 4: an injected clock read, lock or Rng in a pure part must be
        # caught...
        pure_snippets = {
            "Clock::now()": "auto t = Clock::now();\n",
            "std::chrono::steady_clock::now ()":
                "auto t = std::chrono::steady_clock::now ();\n",
            "MutexLock": "void f(Mutex& m) { MutexLock lock(m); }\n",
            "std::mutex": "std::mutex m;\n",
            "Rng": "mlqr::Rng rng(7);\n",
        }
        for name in ("shard_breaker.cpp", "drift_monitor.h"):
            pure_probe = root / "src" / "pipeline" / name
            for label, snippet in pure_snippets.items():
                pure_probe.write_text(snippet, encoding="utf-8")
                if not check_pure_parts(root):
                    failures.append(f"pure-part {label} in {name} not caught")
            pure_probe.unlink()
        # ...while a comment naming now(), a `now` parameter and member
        # names that merely contain the words must not fire.
        pure_probe = root / "src" / "pipeline" / "shard_breaker.h"
        pure_probe.write_text(
            "// The engine calls Clock::now() and holds its Mutex.\n"
            "void record(bool failed, Clock::time_point now);\n"
            "int mutex_count = 0; int known_ = 0;\n",
            encoding="utf-8",
        )
        if check_pure_parts(root):
            failures.append("false positive: comment mentioning now()")
        pure_probe.unlink()

        # Check 5: instruction-set code outside the dispatched tiers must
        # be caught in any source tree, the SIMD header and the tier picker
        # included...
        probe_snippet = (
            "bool f() { return __builtin_cpu_supports(\"avx2\"); }\n")
        isa_snippets = {
            "__attribute__((target))":
                "__attribute__((target(\"avx2\"))) int f() { return 1; }\n",
            "[[gnu::target]]": "[[gnu::target(\"avx512f\")]] int f();\n",
            "<emmintrin.h>": "#include <emmintrin.h>\n",
            "<xmmintrin.h>": "#include <xmmintrin.h>\n",
            "<immintrin.h>": "#include <immintrin.h>\n",
            "<x86intrin.h>": "#  include <x86intrin.h>\n",
            "<arm_neon.h>": "#include <arm_neon.h>\n",
        }
        for where in ("src/dsp/selftest_probe.cpp",
                      "src/nn/selftest_probe.cpp",
                      "tests/selftest_probe.cpp",
                      "src/common/selftest_probe.h",
                      "src/common/simd.h",
                      "src/common/simd.cpp"):
            isa_probe = root / where
            isa_probe.parent.mkdir(parents=True, exist_ok=True)
            for label, snippet in isa_snippets.items():
                isa_probe.write_text(snippet, encoding="utf-8")
                if not check_isa_dispatch(root):
                    failures.append(f"isa-dispatch {label} in {where} "
                                    f"not caught")
            isa_probe.unlink()
        for where in ("src/dsp/selftest_probe.cpp", "src/common/simd.h",
                      "src/common/simd_tier_avx2.cpp"):
            isa_probe = root / where
            isa_probe.write_text(probe_snippet, encoding="utf-8")
            if not check_isa_dispatch(root):
                failures.append(f"isa-dispatch __builtin_cpu_supports in "
                                f"{where} not caught")
            isa_probe.unlink()
        # ...while the tiers, the picker's probe and comments naming both
        # stay legal.
        for name in ("simd_tier_avx2.cpp", "simd_tier_kernels.inc"):
            (src_common / name).write_text(
                "".join(isa_snippets.values()), encoding="utf-8"
            )
        (src_common / "simd.cpp").write_text(probe_snippet, encoding="utf-8")
        benign = root / "src" / "nn" / "selftest_probe.cpp"
        benign.write_text(
            "// __builtin_cpu_supports and <emmintrin.h> live in simd*.\n"
            "int retarget_count = 0;\n",
            encoding="utf-8",
        )
        if check_isa_dispatch(root):
            failures.append("false positive: the tiers, the picker's probe "
                            "or comments")
        benign.unlink()

    # Check 6 gets a tree of its own: a header only its .cpp and a test
    # include must be caught...
    with tempfile.TemporaryDirectory(prefix="lint_selftest_") as tmp:
        root = pathlib.Path(tmp)
        for d in ("src/dsp", "src/nn", "tests", "bench"):
            (root / d).mkdir(parents=True)
        (root / "src/dsp/orphan.h").write_text("#pragma once\n",
                                               encoding="utf-8")
        (root / "src/dsp/orphan.cpp").write_text(
            '#include "dsp/orphan.h"\n', encoding="utf-8")
        (root / "tests/test_orphan.cpp").write_text(
            '#include "dsp/orphan.h"\n', encoding="utf-8")
        (root / "bench/table.cpp").write_text(
            '// #include "dsp/orphan.h"\n/* #include "dsp/orphan.h" */\n',
            encoding="utf-8")
        if not check_test_only_modules(root):
            failures.append("test-only header (own .cpp, a test and a "
                            "commented-out include) not caught")
        # ...while a bench include and a src include by path each count as
        # a caller...
        for caller, target in (("bench/table.cpp", "dsp/orphan.h"),
                               ("src/nn/user.cpp", "dsp/orphan.h")):
            (root / caller).write_text(f'#include "{target}"\n',
                                       encoding="utf-8")
            if check_test_only_modules(root):
                failures.append(f"false positive: {caller} includes "
                                f"{target}")
            (root / caller).unlink()
        # ...and so does a same-directory include from a served header.
        (root / "bench/table.cpp").write_text('#include "dsp/user.h"\n',
                                              encoding="utf-8")
        (root / "src/dsp/user.h").write_text('#include "orphan.h"\n',
                                             encoding="utf-8")
        if check_test_only_modules(root):
            failures.append("false positive: header reached through a "
                            "served header")

    # Check 7 gets a tree of its own: an undocumented read must be caught
    # in every scanned tree and through either reader...
    with tempfile.TemporaryDirectory(prefix="lint_selftest_") as tmp:
        root = pathlib.Path(tmp)
        for d in ("src/common", "bench", "examples", "fuzz", "tests"):
            (root / d).mkdir(parents=True)
        (root / README).write_text(
            "| Knob | Effect |\n| --- | --- |\n"
            "| `MLQR_FAST=1` | CI scale |\n"
            "| `-DMLQR_NATIVE=ON` | native build |\n\n"
            "Prose naming `MLQR_LATER` documents nothing.\n",
            encoding="utf-8",
        )
        undocumented = {
            "src/common/probe.cpp": 'auto v = std::getenv("MLQR_LATER");\n',
            "bench/probe.cpp": 'int n = env_int("MLQR_LATER", 4);\n',
            "examples/probe.h": 'bool b = env_int(\n    "MLQR_NATIVE", 0);\n',
            "fuzz/probe.cpp": 'const char* v = getenv("MLQR_LATER");\n',
        }
        for where, snippet in undocumented.items():
            (root / where).write_text(snippet, encoding="utf-8")
            if not check_documented_knobs(root):
                failures.append(f"undocumented env read in {where} not "
                                f"caught")
            (root / where).unlink()
        # ...while a documented read, reads in comments or tests/, and a
        # string that merely names a variable must not fire.
        (root / "src/common/probe.cpp").write_text(
            'bool fast = std::getenv("MLQR_FAST") != nullptr;\n'
            '// std::getenv("MLQR_LATER") once lived here.\n'
            '/* env_int("MLQR_LATER", 0) */\n'
            'const char* hint = "set MLQR_LATER";\n',
            encoding="utf-8",
        )
        (root / "tests/test_probe.cpp").write_text(
            'int v = env_int("MLQR_TEST_ONLY", 1);\n', encoding="utf-8"
        )
        if check_documented_knobs(root):
            failures.append("false positive: documented read, comment, "
                            "test or plain string")

    # Check 8 gets a tree of its own: the parser must find exactly the data
    # members (not member functions, constructors, static helpers or a
    # nested Config member)...
    with tempfile.TemporaryDirectory(prefix="lint_selftest_") as tmp:
        root = pathlib.Path(tmp)
        for d in ("src/x", "src/y", "bench", "examples", "perfbench", "fuzz",
                  "tests"):
            (root / d).mkdir(parents=True)
        (root / "src/x/foo.h").write_text(
            "struct BarConfig {\n  double c = 0.0;  ///< Doc; not a { brace.\n};\n"
            "struct FooConfig {\n"
            "  /// The `a` knob.\n  int a = 1;\n"
            "  std::vector<std::size_t> b{1, 2};\n"
            "  BarConfig bar;\n"
            "  static FooConfig preset() {\n"
            "    FooConfig f;\n    f.b = {3};\n    return f;\n  }\n"
            "  FooConfig() { a = 2; }\n"
            "  std::size_t width() const;\n"
            "};\n",
            encoding="utf-8",
        )
        found = {(st, f) for _, st, f in config_fields(root)}
        want = {("BarConfig", "c"), ("FooConfig", "a"), ("FooConfig", "b")}
        if found != want:
            failures.append(f"settable-fields parser found {sorted(found)}, "
                            f"want {sorted(want)}")
        # ...a field set only by tests, only by its declaring header, only
        # by a load restoring it, or only in a comparison, comment or
        # string must be caught...
        setters = {
            "bench/probe.cpp": "void f(FooConfig& f) { f.a = 3; }\n",
            "fuzz/probe.cpp": "void g(FooConfig* f) { f->bar.c += 1.0; }\n",
        }
        for where, text in setters.items():
            (root / where).write_text(text, encoding="utf-8")
        unset_b = {
            "a test": ("tests/test_probe.cpp", "void t(FooConfig& f) "
                       "{ f.b = {}; }\n"),
            "a snapshot load": ("src/y/load.cpp", "void l(FooConfig& f) "
                                "{ f.b = io::read_vec(is); }\n"),
            "a comparison, comment or string": (
                "examples/probe.cpp",
                "bool e(const FooConfig& f) { return f.b == f.b; }\n"
                "// f.b = {4};\nconst char* s = \"f.b = {4}\";\n"),
        }
        for label, (where, text) in unset_b.items():
            (root / where).write_text(text, encoding="utf-8")
            errors = check_settable_fields(root)
            if len(errors) != 1 or "FooConfig::b " not in errors[0]:
                failures.append(f"field set only by {label} (or by its "
                                f"declaring header) not caught: {errors}")
            (root / where).unlink()
        # ...while a plain, arrow, nested, compound or designated-
        # initializer write anywhere that ships sets the field...
        (root / "perfbench/probe.cpp").write_text(
            "FooConfig h() { return FooConfig{.b = {}}; }\n", encoding="utf-8")
        if check_settable_fields(root):
            failures.append("false positive: designated initializer")
        (root / "perfbench/probe.cpp").unlink()
        (root / "src/y/use.cpp").write_text(
            "void u(FooConfig& f) { f.b = {}; }\n", encoding="utf-8")
        if check_settable_fields(root):
            failures.append("false positive: write from another src/ file")
        (root / "src/y/use.cpp").unlink()
        # ...and an allowlisted field stays legal.
        SETTABLE_FIELD_ALLOWLIST["FooConfig::b"] = "self-test"
        try:
            if check_settable_fields(root):
                failures.append("settable-field allowlist not honoured")
        finally:
            del SETTABLE_FIELD_ALLOWLIST["FooConfig::b"]

    for f in failures:
        print(f"lint_invariants --self-test: FAIL: {f}", file=sys.stderr)
    if not failures:
        print(
            f"lint_invariants --self-test: ok "
            f"({len(mutations)} registry mutations, "
            f"{len(nondet_snippets)} nondeterminism probes, and the "
            f"pipeline-rng, pure-part, isa-dispatch, test-only-module, "
            f"documented-knob and settable-field probes all caught)"
        )
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=REPO,
        help="repo root to lint (default: the checkout containing this script)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify the lints fail on deliberately broken inputs, then exit",
    )
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not (args.root / SNAPSHOT_HEADER).is_file():
        print(f"error: {args.root} does not look like the repo root", file=sys.stderr)
        return 2
    return run_checks(args.root)


if __name__ == "__main__":
    sys.exit(main())
