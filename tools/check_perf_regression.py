#!/usr/bin/env python3
"""Per-tier perf-regression gate over the BENCH_*.json bench reports.

The benches (bench/pipeline_throughput, bench/streaming_throughput) write
machine-readable reports: a flat `context` object (git sha, SIMD tier,
knobs) plus one flat row per swept configuration.  This script compares a
fresh set of those reports against the checked-in per-tier baseline
(tools/perf_baseline.json) and fails when any gated row slipped by more
than the threshold (default 15%) — shots/sec falling or p99 latency
rising.

Baselines are recorded per SIMD tier: an sse2 run is never compared
against avx512-vnni numbers.  The tier key is the compile-time float tier
(`context.simd_tier`), joined as "<simd_tier>/<simd_int_tier>" with the
runtime-picked integer tier when the report carries one (the integer
kernels follow the host, not the build flags, so one binary measures
different code on different machines).  Reports from a tier the baseline
has no entry for are skipped with a warning, so a new microarchitecture
cannot fail CI before a baseline exists for it.

Absolute shots/sec depends on the machine, so by default the gate first
estimates a per-metric machine-speed factor — the *median* of
current/baseline ratios across all rows of the report — divides the
fresh values by it, and gates the result.  A uniformly slower CI host
moves every row and the median together and passes; a regression in one
(or a few) configurations barely moves the median and fails.  The
median's breakdown point is the known limit: a code change that slows
the *majority* of rows by the same factor is indistinguishable from a
slower machine and passes normalized gating — layer `--absolute` (raw
values, no factor) on a dedicated same-machine runner to close that
hole.

Usage:
  # Gate fresh reports against the checked-in baseline:
  python3 tools/check_perf_regression.py BENCH_pipeline_throughput.json ...

  # Refresh the baseline for the tier(s) the reports were measured on:
  python3 tools/check_perf_regression.py --update-baseline BENCH_*.json

  # Prove the gate trips on injected regressions (run in CI before use):
  python3 tools/check_perf_regression.py --self-test

Exit status: 0 = pass (or nothing gateable), 1 = regression, 2 = usage.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys

DEFAULT_BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "perf_baseline.json")
DEFAULT_THRESHOLD = 0.15

# Tier keys a default (non-native) x86 build reports on AVX2 and AVX-512
# VNNI hosts: the float tier is fixed at SSE2 by the build, the integer
# tier follows the host.  The checked-in baseline must cover every one of
# them for both benches, or the CI gate would skip on that runner class
# (the self-test checks it).
DEFAULT_BUILD_TIERS = ("sse2/avx2", "sse2/avx512-vnni")

# Per-bench gating schema.  `key` names the row fields that identify a
# configuration; `higher_better` / `lower_better` name the gated metrics;
# `gate_context` must match the report context for its rows to be gated
# at all (streaming soak runs, for example, are load tests, not perf
# baselines).
SCHEMAS = {
    "pipeline_throughput": {
        "key": ("backend", "mode", "batch", "workers"),
        "higher_better": ("shots_per_sec",),
        "lower_better": ("p99_us",),
        "gate_context": {},
    },
    "streaming_throughput": {
        "key": ("shards", "load_fraction", "target_rate_zero"),
        "higher_better": ("achieved_rate",),
        "lower_better": ("p99_us",),
        "gate_context": {"mode": "grid"},
    },
}


def _derive_fields(bench, row):
    """Adds schema-level derived key fields to a raw report row."""
    row = dict(row)
    if bench == "streaming_throughput":
        # The unpaced row reuses load_fraction=1.0; only target_rate==0
        # distinguishes it from the paced frac=1.0 row.
        row["target_rate_zero"] = row.get("target_rate", 0.0) == 0.0
    return row


def load_report(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if "context" not in doc or "rows" not in doc:
        raise ValueError(f"{path}: not a BENCH report (no context/rows)")
    return doc


def tier_key(ctx):
    """The baseline table a report belongs to: the float tier, plus the
    integer tier when the report records one ("sse2/avx512-vnni")."""
    tier = ctx.get("simd_tier")
    if not tier:
        return None
    int_tier = ctx.get("simd_int_tier")
    return f"{tier}/{int_tier}" if int_tier else tier


def report_to_entry(doc):
    """Reduces a BENCH report to the (bench, tier, keyed rows) the gate
    needs, or None when the report is not gateable under its schema."""
    ctx = doc["context"]
    bench = ctx.get("bench")
    schema = SCHEMAS.get(bench)
    if schema is None:
        return None
    for k, v in schema["gate_context"].items():
        if ctx.get(k) != v:
            return None
    tier = tier_key(ctx)
    if not tier:
        return None
    rows = {}
    for raw in doc["rows"]:
        row = _derive_fields(bench, raw)
        key = tuple(row.get(k) for k in schema["key"])
        metrics = {}
        for m in schema["higher_better"] + schema["lower_better"]:
            v = row.get(m)
            if isinstance(v, (int, float)) and math.isfinite(v):
                metrics[m] = float(v)
        rows[key] = metrics
    return {"bench": bench, "tier": tier, "rows": rows,
            "fast_mode": bool(ctx.get("fast_mode", False))}


def key_str(schema, key):
    return ", ".join(f"{n}={v}" for n, v in zip(schema["key"], key))


def _machine_factors(schema, baseline_rows, current_rows):
    """Per-metric median of current/baseline ratios across all shared
    rows — the machine-speed estimate normalized gating divides out."""
    factors = {}
    for metric in schema["higher_better"] + schema["lower_better"]:
        ratios = []
        for key, base_metrics in baseline_rows.items():
            base_v = base_metrics.get(metric)
            cur_v = current_rows.get(key, {}).get(metric)
            if base_v and cur_v and base_v > 0 and cur_v > 0:
                ratios.append(cur_v / base_v)
        if ratios:
            ratios.sort()
            mid = len(ratios) // 2
            factors[metric] = ratios[mid] if len(ratios) % 2 else \
                (ratios[mid - 1] + ratios[mid]) / 2.0
        else:
            factors[metric] = 1.0
    return factors


def compare_entry(entry, baseline_rows, threshold, absolute, out):
    """Gates one report against its baseline rows.  Returns failure count."""
    bench = entry["bench"]
    schema = SCHEMAS[bench]
    failures = 0

    def fail(msg):
        nonlocal failures
        failures += 1
        out(f"  FAIL [{bench}/{entry['tier']}] {msg}")

    factors = {m: 1.0 for m in schema["higher_better"] + schema["lower_better"]} \
        if absolute else _machine_factors(schema, baseline_rows, entry["rows"])

    for key, base_metrics in baseline_rows.items():
        cur_metrics = entry["rows"].get(key)
        if cur_metrics is None:
            fail(f"row missing from fresh report: {key_str(schema, key)}")
            continue
        for metric, base_v in base_metrics.items():
            cur_v = cur_metrics.get(metric)
            if cur_v is None:
                fail(f"metric {metric} missing: {key_str(schema, key)}")
                continue
            if base_v <= 0 or factors[metric] <= 0:
                continue
            cur_cmp = cur_v / factors[metric]
            higher_better = metric in schema["higher_better"]
            change = (cur_cmp - base_v) / base_v
            regressed = change < -threshold if higher_better \
                else change > threshold
            if regressed:
                norm = "" if absolute else \
                    f" (machine factor {factors[metric]:.3f} divided out)"
                fail(f"{key_str(schema, key)}: {metric} "
                     f"{'fell' if higher_better else 'rose'} "
                     f"{abs(change) * 100.0:.1f}%{norm} "
                     f"({base_v:.4g} -> {cur_cmp:.4g}, limit "
                     f"{threshold * 100.0:.0f}%)")
    return failures


def run_gate(report_paths, baseline_path, threshold, absolute, out=print):
    try:
        with open(baseline_path, "r", encoding="utf-8") as f:
            baseline = json.load(f)
    except FileNotFoundError:
        out(f"[perf-gate] WARN: no baseline at {baseline_path}; skipping "
            "(run --update-baseline to create one)")
        return 0

    failures = 0
    gated = 0
    for path in report_paths:
        entry = report_to_entry(load_report(path))
        if entry is None:
            out(f"[perf-gate] skip {path}: not a gateable report")
            continue
        tier_table = baseline.get("tiers", {}).get(entry["tier"])
        if tier_table is None or entry["bench"] not in tier_table:
            out(f"[perf-gate] WARN: no {entry['bench']} baseline for tier "
                f"'{entry['tier']}'; skipping {path} "
                "(refresh with --update-baseline on this machine class)")
            continue
        base = tier_table[entry["bench"]]
        if base.get("fast_mode") != entry["fast_mode"]:
            out(f"[perf-gate] WARN: fast_mode mismatch for {path} "
                f"(baseline {base.get('fast_mode')}, report "
                f"{entry['fast_mode']}); skipping")
            continue
        gated += 1
        baseline_rows = {tuple(r["key"]): r["metrics"]
                         for r in base["rows"]}
        n = compare_entry(entry, baseline_rows, threshold, absolute, out)
        if n == 0:
            out(f"[perf-gate] PASS {path} ({entry['bench']}, tier "
                f"{entry['tier']}, {len(baseline_rows)} gated rows)")
        failures += n
    if gated == 0:
        out("[perf-gate] WARN: nothing was gated")
    return 1 if failures else 0


def update_baseline(report_paths, baseline_path, out=print):
    try:
        with open(baseline_path, "r", encoding="utf-8") as f:
            baseline = json.load(f)
    except FileNotFoundError:
        baseline = {"comment": [
            "Per-SIMD-tier perf baseline for tools/check_perf_regression.py.",
            "Refresh with: python3 tools/check_perf_regression.py "
            "--update-baseline BENCH_*.json",
            "Keys are (row key fields, metrics) per bench; see the script "
            "for the gating schema."], "tiers": {}}

    updated = 0
    for path in report_paths:
        entry = report_to_entry(load_report(path))
        if entry is None:
            out(f"[perf-gate] skip {path}: not a gateable report")
            continue
        rows = [{"key": list(k), "metrics": m}
                for k, m in sorted(entry["rows"].items(),
                                   key=lambda kv: str(kv[0]))]
        baseline.setdefault("tiers", {}).setdefault(entry["tier"], {})[
            entry["bench"]] = {"fast_mode": entry["fast_mode"], "rows": rows}
        out(f"[perf-gate] baseline[{entry['tier']}][{entry['bench']}] <- "
            f"{len(rows)} rows from {path}")
        updated += 1
    if not updated:
        out("[perf-gate] no gateable reports; baseline unchanged")
        return 2
    with open(baseline_path, "w", encoding="utf-8") as f:
        json.dump(baseline, f, indent=1, sort_keys=True)
        f.write("\n")
    out(f"[perf-gate] wrote {baseline_path}")
    return 0


# ---- self-test ------------------------------------------------------------

def _synthetic_report(tier="sse2", scale=1.0, mutate=None, int_tier=None):
    """A small but structurally faithful pipeline_throughput report.
    `scale` models machine speed (multiplies every rate, divides every
    latency); `mutate(rows)` injects a targeted regression."""
    rows = []
    for backend in ("OURS", "OURS-INT16", "OURS-INT8"):
        for mode in ("per-shot", "batched"):
            for batch in (1, 64):
                for workers in (1, 4):
                    base = 50_000.0 * (1.5 if "INT" in backend else 1.0)
                    base *= 1.8 if mode == "batched" and batch >= 64 else 1.0
                    base *= workers
                    rows.append({
                        "backend": backend, "mode": mode, "batch": batch,
                        "workers": workers,
                        "shots_per_sec": base * scale,
                        "p50_us": 40.0 / scale, "p99_us": 90.0 / scale,
                    })
    if mutate:
        mutate(rows)
    ctx = {"bench": "pipeline_throughput", "git_sha": "selftest",
           "simd_tier": tier, "fast_mode": True}
    if int_tier:
        ctx["simd_int_tier"] = int_tier
    return {"context": ctx, "rows": rows}


def self_test(out=print):
    import tempfile

    def write(doc, d, name):
        path = os.path.join(d, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def pick(rows, backend, mode, batch, workers):
        for r in rows:
            if (r["backend"], r["mode"], r["batch"], r["workers"]) == \
                    (backend, mode, batch, workers):
                return r
        raise AssertionError("self-test row lookup failed")

    quiet = lambda *a, **k: None
    checks = []

    with tempfile.TemporaryDirectory() as d:
        base_path = write({}, d, "unused.json")
        os.remove(base_path)
        baseline_path = os.path.join(d, "baseline.json")
        ref = write(_synthetic_report(), d, "ref.json")
        assert update_baseline([ref], baseline_path, out=quiet) == 0

        def gate(doc, absolute=False):
            path = write(doc, d, "cur.json")
            return run_gate([path], baseline_path, DEFAULT_THRESHOLD,
                            absolute, out=quiet)

        # Identical run passes.
        checks.append(("identical run passes",
                       gate(_synthetic_report()) == 0))
        # A uniformly 2x-slower machine passes under normalization...
        checks.append(("uniformly slower machine passes (normalized)",
                       gate(_synthetic_report(scale=0.5)) == 0))
        # ...and fails in --absolute mode.
        checks.append(("uniformly slower machine fails (--absolute)",
                       gate(_synthetic_report(scale=0.5),
                            absolute=True) == 1))

        # Injected 20% throughput drop on one batched row fails.
        def drop_tput(rows):
            pick(rows, "OURS-INT8", "batched", 64, 4)["shots_per_sec"] *= 0.80
        checks.append(("20% shots/s drop fails",
                       gate(_synthetic_report(mutate=drop_tput)) == 1))

        # Injected 20% p99 rise fails.
        def raise_p99(rows):
            pick(rows, "OURS", "batched", 64, 1)["p99_us"] *= 1.20
        checks.append(("20% p99 rise fails",
                       gate(_synthetic_report(mutate=raise_p99)) == 1))

        # A slowdown confined to the glue-path row (everything else at
        # full speed) barely moves the median and still fails.
        def slow_ref(rows):
            pick(rows, "OURS", "per-shot", 1, 1)["shots_per_sec"] *= 0.5
        checks.append(("single-row slowdown fails",
                       gate(_synthetic_report(mutate=slow_ref)) == 1))

        # A 10% drop stays inside the 15% band.
        def small_drop(rows):
            pick(rows, "OURS-INT16", "per-shot", 64, 4)["shots_per_sec"] *= 0.9
        checks.append(("10% drop passes",
                       gate(_synthetic_report(mutate=small_drop)) == 0))

        # A configuration vanishing from the fresh report fails (silent
        # coverage loss must not read as a pass).
        def drop_row(rows):
            rows.remove(pick(rows, "OURS-INT8", "batched", 64, 4))
        checks.append(("missing row fails",
                       gate(_synthetic_report(mutate=drop_row)) == 1))

        # Unknown tier skips with a warning, not a failure.
        checks.append(("unknown tier skips",
                       gate(_synthetic_report(tier="riscv-rvv")) == 0))

        # Reports that record their integer tier key on both tiers: a
        # regression gates against the matching integer tier's baseline,
        # and is never compared with another integer tier's numbers (nor
        # with the float-tier-only entry).
        ref_int = write(_synthetic_report(int_tier="avx2"), d, "ref_int.json")
        assert update_baseline([ref_int], baseline_path, out=quiet) == 0
        with open(baseline_path, "r", encoding="utf-8") as f:
            tiers = set(json.load(f)["tiers"])
        checks.append(("integer tier recorded as its own key",
                       tiers == {"sse2", "sse2/avx2"}))
        checks.append(("same integer tier, 20% drop fails",
                       gate(_synthetic_report(mutate=drop_tput,
                                              int_tier="avx2")) == 1))
        checks.append(("same integer tier, identical run passes",
                       gate(_synthetic_report(int_tier="avx2")) == 0))
        def halve_integer_rows(rows):
            for r in rows:
                if r["backend"] != "OURS":
                    r["shots_per_sec"] *= 0.5
        halved = _synthetic_report(int_tier="avx512-vnni",
                                   mutate=halve_integer_rows)
        checks.append(("other integer tier skips",
                       gate(halved, absolute=True) == 0))
        checks.append(("float-tier-only report still gates",
                       gate(_synthetic_report(mutate=drop_tput)) == 1))

        # fast_mode mismatch skips (full-scale rows vs CI-scale baseline
        # measure different work).
        full = _synthetic_report()
        full["context"]["fast_mode"] = False
        checks.append(("fast_mode mismatch skips", gate(full) == 0))

    # The checked-in baseline gates a default build on every integer tier
    # it can pick on an AVX2-or-better runner.
    with open(DEFAULT_BASELINE, "r", encoding="utf-8") as f:
        checked_in = json.load(f).get("tiers", {})
    for tier in DEFAULT_BUILD_TIERS:
        checks.append((f"checked-in baseline covers {tier}",
                       all(b in checked_in.get(tier, {}) for b in SCHEMAS)))

    ok = all(passed for _, passed in checks)
    for name, passed in checks:
        out(f"[perf-gate self-test] {'ok' if passed else 'FAIL'}: {name}")
    out(f"[perf-gate self-test] {'PASS' if ok else 'FAIL'} "
        f"({sum(p for _, p in checks)}/{len(checks)})")
    return 0 if ok else 1


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("reports", nargs="*", help="BENCH_*.json files to gate")
    ap.add_argument("--baseline", default=DEFAULT_BASELINE)
    ap.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                    help="fractional slip that fails the gate (default 0.15)")
    ap.add_argument("--absolute", action="store_true",
                    help="gate raw values instead of reference-normalized "
                         "ratios (same-machine A/B runs)")
    ap.add_argument("--update-baseline", action="store_true",
                    help="record the reports as the new baseline for their "
                         "tier instead of gating")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the gate trips on injected regressions")
    args = ap.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.reports:
        ap.print_usage()
        print("error: no BENCH reports given", file=sys.stderr)
        return 2
    if args.update_baseline:
        return update_baseline(args.reports, args.baseline)
    return run_gate(args.reports, args.baseline, args.threshold,
                    args.absolute)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
