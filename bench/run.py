"""Benchmark harness for htour, stdlib only.

    python3 bench/run.py --workload solve --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout: the package is imported from the
checkout's `src`, and files are written only under its `.bench_out`.

Untraced (--trace 0): set up the workload SETUP_REPEATS times, then run
passes over its fixed op list as one closed loop, without threads, until
--seconds have gone by.  Every op's output is checked outside the timed
region.  The last line of stdout is the result: correct, attempted, failed
and the end-to-end metrics.  The line before it is the run record: seed,
pass samples, host drift, errors.

Traced (--trace 1): for each of the four workloads in turn, alternate
untraced and traced passes for a quarter of --seconds, plus the in-process
probes of the cli workload.  Each per-layer metric is taken from the
workload bench/mapping.json names for it, whatever --workload says.  The
spans go to .bench_out/trace-seed<seed>.json.

The host is shared and nothing on it is pinned or tuned.  Its speed drifts
by up to 1.5x within minutes, so a fixed pure-Python loop runs after every
op and around every set-up, and the end-to-end times are scaled to the
speed at which that loop takes CALIB_REF_S.  The record keeps the loop's
seconds as host.calib_s, the raw times, and the load average at start and
end.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".bench_out"
WORKLOADS = ("solve", "enumerate", "ordered", "cli")
SETUP_REPEATS = 5
IMPORT_PAIRS = 5
PROBE_REPEATS = 3
INDEX_SIZES = (37, 49)  # vertices of bn(20) and bn(26)
TINY_INDEX_SIZES = (11, 13)
CALIB_REF_S = 0.005  # calibration seconds that reported times are scaled to
MIN_TAIL_PASSES = 20  # below this no percentile >= p50 has 10 passes beyond it


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop; tracks the speed that the
    shared host gives this process at the moment."""
    start = perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i % 7
    return perf_counter() - start


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it, as
    (value, level, samples beyond).  With fewer than MIN_TAIL_PASSES samples
    that percentile would sit below the median, so the maximum stands in."""
    s = sorted(samples)
    n = len(s)
    if n < MIN_TAIL_PASSES:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


class Outcome:
    """Operations attempted and failed, with the first few errors."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.child_rss = 0

    def record(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{label}: {error}")


def _check(op, result, tracer, verified: dict) -> str | None:
    # an output equal to one already checked in this run is correct; the
    # traced run checks every output, because the checks are timed there
    if not tracer.enabled and op.label in verified and verified[op.label] == result:
        return None
    try:
        error = op.check(op.expect, result, tracer)
    except Exception as exc:  # a malformed output fails its check
        error = f"check raised {exc!r}"
    if error is None and not tracer.enabled:
        verified[op.label] = result
    return error


def run_pass(ops, tracer, verified: dict, outcome: Outcome, calib: list) -> tuple:
    """One pass over the ops; returns each op's seconds scaled to the
    reference host speed, and the raw seconds.  A calibration runs after
    every op and is appended to `calib`; the scale comes from the median of
    the pass's calibrations and the one before it, which follows the drift
    from pass to pass without the jitter of a single loop."""
    first = len(calib) - 1
    raw = []
    for op in ops:
        tracer.new_op(op.label)
        with tracer.span("harness.op"):
            start = perf_counter()
            try:
                result = op.run(tracer)
                error = None
            except Exception as exc:
                result, error = None, f"raised {exc!r}"
            seconds = perf_counter() - start
        calib.append(calibrate())
        raw.append(seconds)
        with tracer.span("harness.check"):
            if error is None:
                error = _check(op, result, tracer, verified)
        outcome.child_rss = max(outcome.child_rss, getattr(result, "maxrss_bytes", 0))
        outcome.record(op.label, error)
    scale = CALIB_REF_S / statistics.median(calib[first:])
    return [t * scale for t in raw], raw


def run_once(workload, outcome: Outcome) -> None:
    for label, check in workload.once:
        try:
            error = check()
        except Exception as exc:
            error = f"raised {exc!r}"
        outcome.record(label, error)


def reimport() -> None:
    """Import htour and its cli afresh.  The fresh modules are dropped
    again, so the workloads keep using the ones loaded first."""
    loaded = {k: m for k, m in sys.modules.items() if k.partition(".")[0] == "htour"}
    for k in loaded:
        del sys.modules[k]
    importlib.import_module("htour.cli")
    for k in [k for k in sys.modules if k.partition(".")[0] == "htour"]:
        del sys.modules[k]
    sys.modules.update(loaded)


def setup(wl, name: str, seed: int, workdir: Path, tiny: bool, tracer):
    wl.clear_index_caches()
    return wl.SETUPS[name](random.Random(seed), workdir, tiny, tracer)


def host_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_start": list(os.getloadavg()),
        "pinned_or_tuned": False,
    }


def run_untraced(wl, name, seed, seconds, tiny, workdir, record) -> tuple:
    from tracing import NULL_TRACER

    # a set-up is scaled to the reference host speed by the calibration
    # loops just before and after it; run_pass scales the passes
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        start = perf_counter()
        reimport()
        workload = setup(wl, name, seed, workdir, tiny, NULL_TRACER)
        raw_setups.append(perf_counter() - start)
        setups.append(raw_setups[-1] * 2 * CALIB_REF_S / (before + calibrate()))
    outcome = Outcome()
    run_once(workload, outcome)
    verified: dict = {}
    passes, raw_passes, calib = [], [], [calibrate()]
    deadline = perf_counter() + seconds
    while True:
        times, raw = run_pass(workload.ops, NULL_TRACER, verified, outcome, calib)
        passes.append(times)
        raw_passes.append(raw)
        if perf_counter() >= deadline:
            break

    pass_s = [sum(times) for times in passes]
    # each op's median over the passes; the invoke_s percentiles are taken
    # over these, because the ops of a pass differ in size by up to 1000x
    # and percentiles of the pooled samples fall between their clusters
    op_s = [statistics.median(times[i] for times in passes) for i in range(len(workload.ops))]
    tail_s, tail_level, tail_beyond = tail(pass_s)
    if name == "cli":
        peak = outcome.child_rss
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s.p50": statistics.median(pass_s),
        "pass_s.tail": tail_s,
        "peak_rss_mb": peak / 2**20,
        "invoke_s.p50": statistics.median(op_s),
        "invoke_s.p90": p90(op_s),
    }
    labels = [op.label for op in workload.ops]
    record.update({
        "passes": len(passes),
        "pass_s": pass_s,
        "pass_s.tail": {"level": tail_level, "beyond": tail_beyond, "samples": len(pass_s)},
        "setup_s": setups,
        "raw_setup_s": raw_setups,
        "raw_pass_s": [sum(times) for times in raw_passes],
        "raw_op_s.p50": {label: statistics.median(times[i] for times in raw_passes)
                         for i, label in enumerate(labels)},
        "op_s.p50": dict(zip(labels, op_s)),
        "host.calib_s": {"p50": statistics.median(calib), "samples": calib},
    })
    return metrics, outcome


# -- traced run ----------------------------------------------------------------


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


# per-layer metrics measured on every traced pass: name -> (workload, value
# from the pass's summed span seconds and counts)
PASS_METRICS = {
    "completion.propagate_s": ("solve", lambda d: d["completion.propagate"]),
    "completion.forced": ("solve", lambda d: d["completion.forced"]),
    "completion.search_s": ("solve", lambda d: d["completion.search_s"]),
    "completion.nodes": ("solve", lambda d: d["completion.nodes"]),
    "completion.conflicts": ("solve", lambda d: d["completion.conflicts"]),
    "completion.nodes_per_s": (
        "solve", lambda d: _div(d["completion.nodes"], d["completion.complete"])),
    "completion.minimal_s": ("solve", lambda d: d["completion.minimal"]),
    "completion.deletion_solves": ("solve", lambda d: d["completion.deletion_solves"]),
    "core.induced_s": ("solve", lambda d: d["core.induced"]),
    "classify.class_member_s": ("enumerate", lambda d: d["classify.class_member"]),
    "completion.enumerate_s": ("enumerate", lambda d: d["completion.enumerate"]),
    "completion.completions": ("enumerate", lambda d: d["completion.completions"]),
    "completion.s_per_completion": (
        "enumerate", lambda d: _div(d["completion.enumerate"], d["completion.completions"])),
    "core.hat_unhat_s": ("ordered", lambda d: d["core.hat_unhat"]),
    "ramsey.embeddings_s": ("ordered", lambda d: d["ramsey.embeddings"]),
    "ramsey.embeddings": ("ordered", lambda d: d["ramsey.embeddings.count"]),
    "ramsey.copies": ("ordered", lambda d: d["ramsey.copies"]),
    "ramsey.arrow_s.plain": ("ordered", lambda d: d["ramsey.arrow.plain"]),
    "ramsey.arrow_s.prune": ("ordered", lambda d: d["ramsey.arrow.prune"]),
    "ramsey.arrow_s.c3": ("ordered", lambda d: d["ramsey.arrow.c3"]),
    "ramsey.colorings_per_s": (
        "ordered", lambda d: _div(d["ramsey.held_colorings"], d["ramsey.held_s"])),
    "cli.report_bytes": ("cli", lambda d: d["cli.report_bytes"]),
}

# the layers predicted to dominate each workload, among the
# layer seconds measured on it
PREDICTED = {
    "solve": ("completion.search_s",),
    "enumerate": ("classify.class_member_s", "completion.enumerate_s"),
    "ordered": ("ramsey.arrow_s.plain",),
    "cli": ("core.index_build", "cli.import"),
}
LAYER_SECONDS = {
    "solve": ("completion.search_s", "completion.propagate_s", "completion.minimal_s",
              "core.induced_s", "classify.class_member_s"),
    "enumerate": ("completion.enumerate_s", "classify.class_member_s"),
    "ordered": ("ramsey.arrow_s.plain", "ramsey.arrow_s.prune", "ramsey.arrow_s.c3",
                "ramsey.embeddings_s", "ramsey.orders_s", "core.hat_unhat_s"),
}


def _pass_values(tracer, first: int) -> dict:
    d: dict = defaultdict(float, tracer.durations(first))
    d.update(tracer.take_counts())
    return d


def _layer_values(name: str, d: dict) -> dict:
    out = {metric: fn(d) for metric, (w, fn) in PASS_METRICS.items() if w == name}
    if name == "solve":
        out["classify.class_member_s"] = d["classify.class_member"]
    if name == "ordered":
        out["ramsey.orders_s"] = d["ramsey.orders"]
    return out


def _dominance(name: str, seconds: dict) -> dict:
    predicted = sum(seconds[k] for k in PREDICTED[name])
    others = {k: v for k, v in seconds.items() if k not in PREDICTED[name]}
    total = sum(seconds.values())
    return {
        "predicted": list(PREDICTED[name]),
        "layer_seconds": seconds,
        "predicted_share": predicted / total if total else 0.0,
        "largest_other": max(others, key=others.get) if others else None,
        "holds": all(predicted > v for v in others.values()),
    }


def cli_probes(wl, workload, tracer, tiny: bool, env: dict, workdir: Path) -> tuple:
    """The in-process and start-up probes behind the cli layer metrics."""
    first = len(tracer.spans)
    index_s = 0.0
    peak = 0
    for n in TINY_INDEX_SIZES if tiny else INDEX_SIZES:
        wl.clear_index_caches()
        with tracer.span("core.index_build.cold"):
            wl.build_index(n)
        index_s += tracer.last("core.index_build.cold")
        wl.clear_index_caches()
        tracemalloc.start()
        wl.build_index(n)
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    wl.clear_index_caches()

    bare, imported = [], []
    for _ in range(IMPORT_PAIRS):
        for argv, samples in (([sys.executable, "-c", "pass"], bare),
                              ([sys.executable, "-c", "import htour.cli"], imported)):
            res = wl.run_child(argv, workdir, env)
            if res.returncode != 0:
                raise RuntimeError(f"{argv} exited {res.returncode}")
            samples.append(res.seconds)
    import_s = statistics.median(imported) - statistics.median(bare)

    index_total = overhead = 0.0
    htfile_bytes = 0
    for call in workload.calls:
        tracer.new_op("probe " + call.label)
        with tracer.span("harness.probe"):
            i, o, nbytes = wl.probe_call(call, tracer, PROBE_REPEATS)
        index_total += i
        overhead += o
        htfile_bytes += nbytes
    d = tracer.durations(first)
    parse_s = d.get("htfile.parse", 0.0)
    emit_s = d.get("htfile.emit", 0.0) / PROBE_REPEATS
    calls = len(workload.calls)
    # one pass of the calls, split by layer: the library seconds are those
    # of one repeat, htfile's are part of the cli overhead
    attribution = {
        "cli.interpreter": calls * statistics.median(bare),
        "cli.import": calls * import_s,
        "core.index_build": index_total,
        "classify": d.get("classify", 0.0) / PROBE_REPEATS,
        "completion": d.get("completion", 0.0) / PROBE_REPEATS,
        "htfile": parse_s + emit_s,
        "cli.rest": overhead - parse_s - emit_s,
    }
    metrics = {
        "core.index_build_s": index_s,
        "core.index_peak_bytes": peak,
        "htfile.parse_s": parse_s,
        "htfile.emit_s": emit_s,
        "htfile.bytes": htfile_bytes,
        "cli.import_s": import_s,
        "cli.overhead_s": overhead,
    }
    return metrics, attribution


def run_traced(wl, seed, seconds, tiny, workdir, record) -> tuple:
    from tracing import NULL_TRACER, Tracer

    outcome = Outcome()
    per_layer: dict = {}
    gen_s = 0.0
    summary = {}
    traces = []
    budget = seconds / len(WORKLOADS)
    calib = [calibrate()]
    for name in WORKLOADS:
        tracer = Tracer(name)
        traces.append(tracer)
        tracer.new_op("setup")
        with tracer.span("harness.setup"):
            workload = setup(wl, name, seed, workdir, tiny, tracer)
        gen_s += tracer.durations().get("families.gen", 0.0)
        run_once(workload, outcome)
        verified: dict = {}
        plain, traced, traced_raw, values = [], [], [], []
        op_times = []
        deadline = perf_counter() + budget
        while not traced or perf_counter() < deadline:
            times, _ = run_pass(workload.ops, NULL_TRACER, verified, outcome, calib)
            plain.append(sum(times))
            op_times.append(times)
            first = len(tracer.spans)
            tracer.take_counts()
            times, raw = run_pass(workload.ops, tracer, verified, outcome, calib)
            traced.append(sum(times))
            traced_raw.append(sum(raw))
            op_times.append(times)
            values.append(_layer_values(name, _pass_values(tracer, first)))
        layers = {k: statistics.median(v[k] for v in values) for k in values[0]}
        overhead = statistics.median(traced) / statistics.median(plain)
        per_layer[f"trace.overhead.{name}"] = overhead
        entry = {
            "pass_s.p50.untraced": statistics.median(plain),
            "pass_s.p50.traced": statistics.median(traced),
            "overhead_ratio": overhead,
            "traced_passes": len(traced),
        }
        if name == "cli":
            env = wl.child_env(SRC)
            probe_metrics, attribution = cli_probes(wl, workload, tracer, tiny, env, workdir)
            per_layer.update(probe_metrics)
            labels = [op.label for op in workload.ops]
            j1, j2 = (next(i for i, label in enumerate(labels) if label.endswith(f"--jobs {j}"))
                      for j in (1, 2))
            per_layer["cli.jobs2_ratio"] = (statistics.median(t[j2] for t in op_times)
                                            / statistics.median(t[j1] for t in op_times))
            entry["dominance"] = _dominance(name, attribution)
            # process creation and teardown, mostly
            entry["unattributed_s"] = statistics.median(traced_raw) - sum(attribution.values())
        else:
            entry["dominance"] = _dominance(
                name, {k: layers[k] for k in LAYER_SECONDS[name]})
        if name == "enumerate":
            # share of enumeration time the per-completion re-check costs
            entry["recheck_share"] = (layers["classify.class_member_s"]
                                      / layers["completion.enumerate_s"])
        entry["self_s"] = tracer.self_times()
        per_layer.update({metric: layers[metric] for metric, (w, _fn) in PASS_METRICS.items()
                          if w == name})
        summary[name] = entry
    per_layer["families.gen_s"] = gen_s

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-seed{seed}.json"
    keys = ("name", "start", "end", "parent", "op")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump([{"workload": t.workload, "ops": t.op_labels,
                    "spans": [dict(zip(keys, s)) for s in t.spans]} for t in traces], fh)
    record.update({"workloads": summary, "trace_file": str(trace_path.relative_to(ROOT)),
                   "host.calib_s": {"p50": statistics.median(calib), "samples": calib}})
    return per_layer, outcome


# -- entry point -------------------------------------------------------------


def have_sources() -> bool:
    return (SRC / "htour" / "__init__.py").is_file() and SPEC.is_file()


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple:
    """One run; returns (result line dict, run record dict)."""
    import workloads as wl  # imports htour from SRC
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "mode": "traced" if trace else "untraced", "host": host_info()}
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        if trace:
            metrics, outcome = run_traced(wl, seed, seconds, tiny, workdir, record)
        else:
            metrics, outcome = run_untraced(wl, name, seed, seconds, tiny, workdir, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["host"]["loadavg_end"] = list(os.getloadavg())
    record.update({"attempted": outcome.attempted, "failed": outcome.failed,
                   "fail_ratio": outcome.failed / outcome.attempted,
                   "errors": outcome.errors})
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[section]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match {section} {sorted(units)}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not have_sources():
        print(f"error: no htour sources under {SRC} or no {SPEC.name}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
