"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload untraced at a tiny size and then one tiny traced run.
It checks that every op passes its check, that the metric names and units
are those of BENCHMARK.json, that bench/mapping.json covers every metric
and agrees with the harness on where each per-layer metric is measured,
and that a wrong expected verdict raises fail_ratio above 0.  Exits 0 when
all of that holds; takes about half a minute.
"""

from __future__ import annotations

import json
import math
import sys

import run

# a wrong expected verdict for the first op of each workload
WRONG = {
    "solve": ("Unsat", None),  # complete on(8) is Sat
    "enumerate": 10,           # on(6) has 9 completions
    "ordered": False,          # the (6,3,2) arrow holds
    "cli": "H4",               # classify4 of c4 says C4
}


def check_metrics(result: dict, declared: list) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(units):
        raise AssertionError(f"metric names {sorted(got)} != {sorted(units)}")
    for name, entry in got.items():
        if entry["unit"] != units[name]:
            raise AssertionError(f"{name}: unit {entry['unit']} != {units[name]}")
        if not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
            raise AssertionError(f"{name}: value {entry['value']!r}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise AssertionError("attempted must be a positive whole number")


def check_mapping(spec: dict, mapping: dict) -> None:
    for section in ("end_to_end", "per_layer"):
        missing = {m["name"] for m in spec[section]} - set(mapping[section])
        if missing:
            raise AssertionError(f"bench/mapping.json lacks {section} {sorted(missing)}")
    for name, (workload, _fn) in run.PASS_METRICS.items():
        if mapping["per_layer"][name]["measured_on"] != workload:
            raise AssertionError(f"{name} is measured on {workload}, mapping says otherwise")
    if set(mapping["workloads"]) - {"verify"} != set(run.WORKLOADS):
        raise AssertionError("bench/mapping.json does not list the workloads")


def main() -> int:
    if not run.have_sources():
        print("error: run from a checkout with src/htour and BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    import workloads as wl

    spec = json.loads(run.SPEC.read_text())
    check_mapping(spec, json.loads((run.ROOT / "bench" / "mapping.json").read_text()))
    for name in run.WORKLOADS:
        result, record = run.run(name, seed=1, seconds=0, trace=False, tiny=True)
        check_metrics(result, spec["end_to_end"])
        if not result["correct"] or record["fail_ratio"] != 0:
            raise AssertionError(f"{name}: {record['errors']}")

        original = wl.SETUPS[name]

        def wrong_setup(*args, original=original, name=name):
            workload = original(*args)
            workload.ops[0].expect = WRONG[name]
            return workload

        wl.SETUPS[name] = wrong_setup
        try:
            result, record = run.run(name, seed=1, seconds=0, trace=False, tiny=True)
        finally:
            wl.SETUPS[name] = original
        if result["correct"] or not record["fail_ratio"] > 0:
            raise AssertionError(f"{name}: a wrong expected verdict went unnoticed")
        print(f"{name}: ok", flush=True)

    result, record = run.run("solve", seed=1, seconds=0, trace=True, tiny=True)
    check_metrics(result, spec["per_layer"])
    if not result["correct"]:
        raise AssertionError(f"traced: {record['errors']}")
    print("traced: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
