#!/usr/bin/env python3
"""Checks the benchmark definition and runs the benchmark's own tests.

    python3 perfbench/test_bench.py

- BENCHMARK.json has the required shape and limits;
- every metric it lists is one perfbench emits, with the same unit and
  kind, and perfbench emits nothing it does not list (so every run's
  result names every metric with its unit);
- the statistics tests (perfbench_stats_test) pass.
"""
import json
import os
import re
import subprocess
import sys

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_definition(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}, sorted(bench)
    assert 1 <= len(bench["command"]) <= 32
    assert all(len(a) <= 200 and not a.startswith("/") and ".." not in a
               for a in bench["command"])
    assert 1 <= len(bench["paths"]) <= 16
    assert all(PATH.match(p) and ".." not in p for p in bench["paths"])
    assert isinstance(bench["run_seconds"], int)
    assert 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"])
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert len(json.dumps(bench)) <= 64 * 1024


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_definition(bench)

    out_dir = run.build_dir()
    if not run.build(out_dir, ("perfbench", "perfbench_stats_test")):
        print("build failed", file=sys.stderr)
        return 1
    listed = subprocess.run([os.path.join(out_dir, "perfbench"), "--list-metrics"],
                            capture_output=True, text=True, check=True).stdout
    emitted = {tuple(line.split()) for line in listed.splitlines()}
    declared = {(m["name"], m["unit"], "end_to_end") for m in bench["end_to_end"]}
    declared |= {(m["name"], m["unit"], "per_layer") for m in bench["per_layer"]}
    if emitted != declared:
        print("only in BENCHMARK.json:", sorted(declared - emitted), file=sys.stderr)
        print("only in perfbench:", sorted(emitted - declared), file=sys.stderr)
        return 1
    stats = subprocess.run([os.path.join(out_dir, "perfbench_stats_test")])
    if stats.returncode:
        return stats.returncode
    print("perfbench definition and metric table agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
