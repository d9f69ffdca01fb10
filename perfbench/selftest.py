"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py [--seed N]

For every workload: the same seed regenerates identical inputs and the next
seed different ones; one round's results pass the checks; and every result,
perturbed in turn (a uniformity value off by one, a witness moved, a Walsh
side off by one), is rejected by its own check.  Exits 1 on any miss.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from run import import_program, run_round, timed_setup


def perturbations(result):
    """kind -> a copy of the result that its check must reject."""
    from cdiffkit import CyclotomicInt, SpectrumReport, UniformityResult, WalshTable
    if isinstance(result, dict):                 # dual_convention_max
        return {"value": {k: (v + 1, w) for k, (v, w) in result.items()},
                "witness": {k: (v, w[:2] + (w[2] + 1,)) for k, (v, w) in result.items()}}
    if isinstance(result, UniformityResult):
        return {"value": replace(result, value=result.value + 1),
                "witness": replace(result, witness_b=result.witness_b + 1)}
    if isinstance(result, SpectrumReport):
        return {kind: replace(result, results=(bad,) + result.results[1:])
                for kind, bad in perturbations(result.results[0]).items()}
    if isinstance(result, list):                 # theorems.verify verdicts
        v = result[0]
        moved = dict(v.witness, b=v.witness["b"] + 1)
        return {"value": [replace(v, observed=v.observed + 1)] + result[1:],
                "witness": [replace(v, witness=moved)] + result[1:]}
    if isinstance(result, tuple):                # (lhs, rhs) or (count, walsh side)
        return {"value": (result[0] + 1, result[1]),
                "walsh side": (result[0], result[1] + 1)}
    if isinstance(result, int):                  # pcn sum, derivative statistic
        return {"walsh side": result + 1}
    if isinstance(result, WalshTable):
        z = result.entries[1][1]
        bumped = CyclotomicInt(z.p, (z.coeffs[0] + 1,) + z.coeffs[1:])
        row = result.entries[1][:1] + (bumped,) + result.entries[1][2:]
        return {"walsh side": replace(result, entries=result.entries[:1] + (row,)
                                      + result.entries[2:])}
    raise TypeError(f"no perturbation for {type(result).__name__}")


def selftest_workload(cls, seed):
    from workloads import Checker
    misses = []
    checker = Checker()
    same, again, other = cls(seed), cls(seed), cls(seed + 1)
    _, tables = timed_setup(same)
    for w in (same, again, other):
        w.prepare(tables, checker)
    if same.inputs() != again.inputs():
        misses.append("the same seed gave different inputs")
    if same.inputs() == other.inputs():
        misses.append("two seeds gave identical inputs")
    ops = same.ops(tables)
    _, _, results, errors = run_round(ops)
    misses += [f"{key} raised {err}" for key, err in errors.items()]
    clean = same.check(tables, results, checker, [])
    misses += [f"{key}: {p}" for key, found in clean.items() for p in found]
    tried = 0
    for op in ops:
        for kind, bad in perturbations(results[op.key]).items():
            tried += 1
            found = same.check(tables, {**results, op.key: bad}, checker, [])
            if not found.get(op.key):
                misses.append(f"{op.key}: {kind} perturbation not rejected")
    return misses, tried


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    import_program()
    from workloads import WORKLOADS
    total = 0
    for name, cls in WORKLOADS.items():
        misses, tried = selftest_workload(cls, args.seed)
        print(f"{name}: {tried} perturbations, {len(misses)} misses")
        for m in misses:
            print(f"  MISS {m}")
        total += len(misses)
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
