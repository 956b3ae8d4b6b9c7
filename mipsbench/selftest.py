"""Smoke self-test of the benchmark, at a small grid scale.

Run from the root of a checkout (takes about two minutes, most of it
Spark start-up):

    python3 mipsbench/selftest.py

It checks that

* every workload, untraced and traced, exits 0 and prints every metric
  ``BENCHMARK.json`` names, with its unit, and no failed call;
* the spans of a traced run nest: each lies inside its parent, in the
  same call;
* the vectorised exactness gate accepts and rejects the same answers as
  ``repro.validate.assert_valid_topk``;
* outside a checkout (only ``BENCHMARK.json`` and ``mipsbench/``) the
  benchmark exits non-zero without printing a result.

The file name keeps it out of pytest's ``test_*.py``/``bench_*.py``
collection.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join("mipsbench", "out")


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {msg}")


def run_bench(workload: str, trace: int, cwd: str = ".") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "mipsbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.1"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_output(spec: dict, workload: str, trace: int) -> None:
    proc = run_bench(workload, trace)
    check(proc.returncode == 0, f"{workload} trace={trace} exit {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{workload}: {result}")
    check(any("failed_frac = 0.0000 ratio" in line for line in lines), f"{workload}: failed_frac line")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    check(set(result["metrics"]) == {m["name"] for m in wanted}, f"{workload} metric names")
    for m in wanted:
        got = result["metrics"][m["name"]]
        check(got["unit"] == m["unit"], f"{m['name']} unit {got['unit']} != {m['unit']}")
        check(isinstance(got["value"], float), f"{m['name']} value {got['value']!r}")
        check(any(line.startswith(f"{m['name']} = ") and line.endswith(f" {m['unit']}") for line in lines),
              f"{m['name']} not printed with its unit")
    if trace:
        check_spans_nest(os.path.join(OUT, f"spans-{workload}-s3-trace1.json"))
    print(f"ok  {workload} trace={trace}: {result['attempted']} calls")


def check_spans_nest(path: str) -> None:
    with open(path) as fh:
        spans = json.load(fh)["spans"]
    check(len(spans) > 0, "no spans recorded")
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        check(s["call"] is not None and s["start"] <= s["end"], f"span {s}")
        if s["parent"] is None:
            check(s["name"] == "call", f"root span {s['name']} is not a call")
            continue
        p = by_id[s["parent"]]
        check(p["call"] == s["call"], f"span {s['id']} and parent in different calls")
        check(p["start"] <= s["start"] and s["end"] <= p["end"], f"span {s['id']} outside its parent")


def check_gate_matches_validate() -> None:
    sys.path.insert(0, os.path.abspath("src"))
    sys.path.insert(0, HERE)

    from exactness import bad_rows
    from repro.indexes.base import TopK
    from repro.indexes.brute_force import BlockedMM
    from repro.mf.models import tiny_model
    from repro.validate import assert_valid_topk

    model = tiny_model(m=30, n=20, f=5, seed=7)
    good = BlockedMM(model).query_all(4)
    excluded = [i for i in range(model.n) if i not in good.ids[5]]
    corruptions = {
        "good": lambda ids, sc: None,
        "ranks swapped": lambda ids, sc: (ids[3].__setitem__(slice(0, 2), ids[3, [1, 0]]),
                                          sc[3].__setitem__(slice(0, 2), sc[3, [1, 0]])),
        "excluded item": lambda ids, sc: ids[5].__setitem__(3, excluded[0]),
        "duplicate id": lambda ids, sc: ids[7].__setitem__(1, ids[7, 0]),
        "score off": lambda ids, sc: sc[2].__setitem__(0, sc[2, 0] + 1e-3),
        "id out of range": lambda ids, sc: ids[0].__setitem__(0, model.n),
    }
    for name, corrupt in corruptions.items():
        ids, sc = good.ids.copy(), good.scores.copy()
        corrupt(ids, sc)
        try:
            assert_valid_topk(model, TopK(ids=ids, scores=sc), 4)
            valid = True
        except AssertionError:
            valid = False
        gate = bad_rows(model.users, model.items, ids, sc, 4) == 0
        check(gate == valid, f"gate says {gate}, assert_valid_topk says {valid} for {name!r}")
        check(valid == (name == "good"), f"{name!r} not {'accepted' if name == 'good' else 'rejected'}")
    print(f"ok  exactness gate agrees with assert_valid_topk on {len(corruptions)} answers")


def check_fails_outside_checkout() -> None:
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, "mipsbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("batch-mm", 0, cwd=bare)
    shutil.rmtree(bare)
    check(proc.returncode != 0, "exit code 0 outside a checkout")
    check(not proc.stdout.strip(), f"printed a result outside a checkout: {proc.stdout!r}")
    print("ok  exits non-zero outside a checkout")


def main() -> None:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    check_gate_matches_validate()
    check_fails_outside_checkout()
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_output(spec, w["name"], trace)
    print("selftest passed")


if __name__ == "__main__":
    main()
