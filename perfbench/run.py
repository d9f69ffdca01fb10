"""Single-process benchmark of cdiffkit.

    python3 perfbench/run.py --workload power-maps --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One run builds the workload's fields and tables at least SETUP_REPEATS
times from a cold cache, then repeats whole rounds of the workload's
operations until --seconds have passed, then checks every result against
independent computations.  Times are scaled to a nominal machine speed (see
reference_seconds).  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones, from
spans recorded around the library calls, and the spans are written to
.perfbench-out/.

`--workload all` runs each workload in its own process, one after another,
and reports every workload's metrics under "<workload>.<metric>".
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import Tracer, round_metrics, setup_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 3      # at least this many cold set-ups per run ...
SETUP_MIN_S = 1.0      # ... and more while they add up to less than this

# Machine speed.  On the 2-vCPU host this benchmark was written on, every
# computation runs 20-50% slower for stretches of tens of seconds to minutes,
# interpreter and numpy code alike (their 10 s means correlate at 0.98).  A
# fixed computation that never touches cdiffkit is timed between the timed
# calls, and each round's and each set-up phase's times are scaled to the
# speed at which that computation takes REFERENCE_NOMINAL_S (about its median
# on that host).
REFERENCE_NOMINAL_S = 0.002
_REFERENCE_TABLE = np.arange(1 << 16, dtype=np.int64) * 40503 % (1 << 16)


def reference_seconds():
    """Median of five timings of a fixed Python loop plus a numpy gather
    and histogram over a 512 KB table."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i
        np.bincount(_REFERENCE_TABLE[_REFERENCE_TABLE[: 1 << 15]], minlength=1 << 16)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def speed_scale(references):
    """Factor taking times measured alongside these reference timings to
    the nominal speed."""
    return REFERENCE_NOMINAL_S / statistics.mean(references)


def import_program():
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "cdiffkit" / "__init__.py").is_file() or not (tests / "oracles.py").is_file():
        sys.exit("perfbench: src/cdiffkit and tests/oracles.py not found; "
                 "run from a cdiffkit checkout")
    sys.path[:0] = [str(HERE), str(src), str(tests)]
    import cdiffkit
    if Path(cdiffkit.__file__).resolve().parent != src / "cdiffkit":
        sys.exit(f"perfbench: imported cdiffkit from {cdiffkit.__file__}, not from {src}")


def timed_setup(workload):
    """Build the workload's fields and tables with build_field's cache cleared."""
    from cdiffkit import field
    field._build_cached.cache_clear()
    gc.collect()
    t0 = time.perf_counter()
    tables = workload.build()
    return time.perf_counter() - t0, tables


def run_round(ops):
    """One call of every operation, with the reference timed before the
    first and after each: (seconds per operation, reference seconds,
    results, errors)."""
    seconds, results, errors = {}, {}, {}
    gc.collect()
    references = [reference_seconds()]
    for op in ops:
        t0 = time.perf_counter()
        try:
            results[op.key] = op.call()
        except Exception as exc:    # a failed operation is counted, not fatal
            errors[op.key] = f"{type(exc).__name__}: {exc}"
        seconds[op.key] = time.perf_counter() - t0
        references.append(reference_seconds())
    return seconds, references, results, errors


def round_seconds(rounds):
    """Typical time of one round: the sum over operations of each one's
    median time across the rounds, so that a stall in one call of one round
    does not move the figure."""
    return sum(statistics.median(r[key] for r in rounds) for key in rounds[0])


def per_element_ns(fn, q, batches=5, min_batch_s=0.05):
    """Median ns per element of fn() on q-vectors."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - t0 >= min_batch_s:
            break
        reps *= 2
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / reps / q * 1e9


def field_micro(workload, seed):
    from cdiffkit import field
    spec = field.build_field(*workload.largest)
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, spec.q, spec.q).astype(np.int32)
    ys = rng.integers(0, spec.q, spec.q).astype(np.int32)
    c = int(rng.integers(2, spec.q))
    return {"field.add_ns": per_element_ns(lambda: spec.add_arrays(xs, ys), spec.q),
            "field.scale_ns": per_element_ns(lambda: spec.scale_array(c, xs), spec.q)}


@dataclass
class Round:
    nominal: dict       # seconds per operation, scaled to nominal speed
    measured: dict      # seconds per operation as measured
    errors: dict        # operation key -> exception text
    differs: set        # keys whose result differs from round 0's
    tracer: Tracer | None


def run_rounds(ops, seconds, trace):
    """Whole rounds until `seconds` have passed; with `trace`, untraced and
    traced rounds alternate and there are at least two.  Returns the rounds
    and round 0's results, the only ones kept."""
    rounds, first = [], None
    start = time.perf_counter()
    while (not rounds or time.perf_counter() - start < seconds
           or (trace and len(rounds) < 2)):
        tracer = Tracer() if trace and len(rounds) % 2 == 1 else None
        with tracer or contextlib.nullcontext():
            measured, references, results, errors = run_round(ops)
        if first is None:
            first = results
        differs = set() if results is first else {
            op.key for op in ops if results.get(op.key) != first.get(op.key)}
        del results
        scale = speed_scale(references)
        rounds.append(Round({k: v * scale for k, v in measured.items()}, measured,
                            errors, differs, tracer))
    return rounds, first


def check_rounds(workload, tables, checker, ops, rounds, first):
    """Check round 0's results; an operation fails in a round when its check
    failed, it raised, or its result differs from round 0's.  Returns
    (problems per operation key, notes, failed count over all rounds)."""
    notes = []
    problems = {op.key: [] for op in ops}
    try:
        for key, found in workload.check(tables, first, checker, notes).items():
            problems[key] += found
        for key, found in workload.threads_check(tables, first).items():
            problems[key] += found
    except Exception as exc:    # a check that crashes fails every operation
        for op in ops:
            problems[op.key].append(f"check raised {type(exc).__name__}: {exc}")
    failed = 0
    for i, r in enumerate(rounds):
        for op in ops:
            if op.key in r.errors or op.key in r.differs:
                problems[op.key].append(f"round {i}: {r.errors.get(op.key, 'result differs')}")
            failed += bool(problems[op.key])
    return problems, notes, failed


def run_workload(name, seed, seconds, trace):
    from workloads import WORKLOADS, Checker

    workload = WORKLOADS[name](seed)
    checker = Checker()
    if trace:
        with Tracer() as timed:
            timed_setup(workload)
        with Tracer(memory=True) as memory:
            _, tables = timed_setup(workload)
    else:
        setup_times, setup_references = [], [reference_seconds()]
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
            tables = None   # the previous set-up's tables are not kept alive
            elapsed, tables = timed_setup(workload)
            setup_times.append(elapsed)
            setup_references.append(reference_seconds())
    workload.prepare(tables, checker)
    ops = workload.ops(tables)
    rounds, first = run_rounds(ops, seconds, trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    check_start = time.perf_counter()
    problems, notes, failed = check_rounds(workload, tables, checker, ops, rounds, first)
    print(f"round seconds as measured {[round(sum(r.measured.values()), 3) for r in rounds]}, "
          f"at nominal speed {[round(sum(r.nominal.values()), 3) for r in rounds]}; "
          f"checks {time.perf_counter() - check_start:.1f} s", file=sys.stderr)
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    for key, found in problems.items():
        for msg in found:
            print(f"FAILED {name} {key}: {msg}", file=sys.stderr)

    untraced = [r for r in rounds if r.tracer is None]
    if trace:
        traced = [r for r in rounds if r.tracer is not None]
        per_round = [round_metrics(r.tracer.spans) for r in traced]
        metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        metrics.update(setup_metrics(timed.spans, memory.spans))
        metrics.update(field_micro(workload, seed))
        metrics["trace.overhead_s"] = (round_seconds([r.nominal for r in traced])
                                       - round_seconds([r.nominal for r in untraced]))
        write_trace(name, seed, timed.spans, memory.spans, [r.tracer.spans for r in traced])
    else:
        metrics = {"wall_s": round_seconds([r.nominal for r in untraced]),
                   "setup_s": statistics.median(setup_times) * speed_scale(setup_references),
                   "peak_rss_mb": peak_rss_mb}
        print(f"{name} as measured: wall_s {round_seconds([r.measured for r in untraced])} s, "
              f"setup_s {statistics.median(setup_times)} s")
    return {"correct": failed == 0, "attempted": len(rounds) * len(ops),
            "failed": failed, "metrics": metrics, "rounds": len(rounds)}


def write_trace(name, seed, setup, setup_memory, rounds):
    OUT.mkdir(exist_ok=True)
    blob = {"workload": name, "seed": seed,
            "setup": [s.to_json_dict() for s in setup],
            "setup_memory": [s.to_json_dict() for s in setup_memory],
            "rounds": [[s.to_json_dict() for s in r] for r in rounds]}
    (OUT / f"trace-{name}-seed{seed}.json").write_text(json.dumps(blob))


UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "field.build_s": "s", "field.build_peak_mb": "MB", "field.table_mb": "MB",
         "field.add_ns": "ns", "field.scale_ns": "ns", "functions.build_s": "s",
         "cdiff.calls": "count", "cdiff.c_values": "count", "cdiff.elements": "count",
         "cdiff.self_s": "s", "cdiff.ns_per_element": "ns", "cdiff.uniformity_s": "s",
         "cdiff.spectrum_s": "s", "cdiff.dual_max_s": "s", "walsh.self_s": "s",
         "walsh.walsh_table_s": "s", "walsh.pcn_s": "s", "walsh.pcn_large_s": "s",
         "walsh.apcn_s": "s", "walsh.convolution_s": "s", "walsh.derivative_s": "s",
         "theorems.self_s": "s", "theorems.verdicts": "count", "trace.overhead_s": "s"}


def run_all(args):
    """Each workload in a fresh process, one after another."""
    from workloads import WORKLOADS
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_program()
    from workloads import WORKLOADS
    if args.workload != "all" and args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    if args.workload == "all":
        out = run_all(args)
    else:
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        for metric, value in res["metrics"].items():
            print(f"{args.workload} {metric} = {value} {UNITS[metric]}")
        print(f"{args.workload} operations: {res['attempted']} attempted in "
              f"{res['rounds']} rounds, {res['failed']} failed")
        out = {k: res[k] for k in ("correct", "attempted", "failed")}
        out["metrics"] = {k: {"value": v, "unit": UNITS[k]}
                          for k, v in res["metrics"].items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
