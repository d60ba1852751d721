#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload in BENCHMARK.json for one second, untraced and traced,
and checks the result line: it parses, has exactly the expected keys, every
metric name is valid and listed in BENCHMARK.json with its unit, every value
is a finite number (end-to-end values positive), and the correctness gates
ran and passed. Then checks that the command fails, without printing a
result, in a directory that holds only BENCHMARK.json and the benchmark.

Run from the repository root:

    python3 benchmark/selftest.py
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
GATES = re.compile(r"^gates: (\d+) operation\(s\) checked$", re.M)
TIMEOUT_S = 900


def run(command, cwd, workload, trace):
    args = command + ["--workload", workload, "--seed", "7", "--seconds", "1",
                      "--trace", str(trace)]
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def check_result(spec, workload, trace, proc):
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr[-3000:]}"
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, where
    assert doc["correct"] is True and doc["failed"] == 0, f"{where}: {proc.stderr[-3000:]}"
    assert isinstance(doc["attempted"], int) and doc["attempted"] >= 1, where
    checked = [int(n) for n in GATES.findall(proc.stderr)]
    assert checked and checked[-1] >= 1, f"{where}: the correctness gates did not run"
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(doc["metrics"]) == set(wanted), f"{where}: {sorted(doc['metrics'])}"
    for name, metric in doc["metrics"].items():
        assert NAME.match(name), f"{where}: bad metric name {name!r}"
        assert set(metric) == {"value", "unit"}, f"{where}: {name}"
        assert metric["unit"] == wanted[name], f"{where}: {name} unit {metric['unit']}"
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{where}: {name}={value}"
        assert trace or value > 0, f"{where}: end-to-end {name} is {value}"
    print(f"ok  {where}: attempted {doc['attempted']}, {len(doc['metrics'])} metrics")


def check_bare_directory(spec, root):
    """The command must fail, printing no result, without the program's sources."""
    bare = os.path.join(os.environ.get("CARGO_TARGET_DIR", "target"), "perfbench-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(root, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("target"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                             "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "the benchmark succeeded without the program's sources"
    assert '"correct"' not in proc.stdout, "the benchmark printed a result without sources"
    print("ok  bare directory: exit", proc.returncode)


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, workload["name"], trace,
                         run(spec["command"], root, workload["name"], trace))
    check_bare_directory(spec, root)
    print("selftest passed")


if __name__ == "__main__":
    sys.exit(main())
