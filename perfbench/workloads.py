"""The four benchmark workloads: seeded inputs, set-up, operations, checks.

An operation is one checked library call.  Every call goes through a module
attribute (`cdiff.spectrum`, `theorems.verify`, ...) so that the tracer's
rebinding sees it.  Checks compare each result with counts made by
`independent.py` and `tests/oracles.py`; they never read cdiffkit's tables.
A `Refuted` verdict is a result: its check asks only that the status agrees
with an independent evaluation of the claim.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles
from cdiffkit import cdiff, field, functions, reference_data, theorems
from cdiffkit.cdiff import AConvention
from independent import (IndependentField, difference_power_sum, full_scan,
                         power_map_scan, walsh_coefficients)

# the package namespace binds `walsh` to the transform function, not the module
walsh = importlib.import_module("cdiffkit.walsh")
INCLUDE = AConvention.INCLUDE_A_ZERO


@dataclass
class Op:
    key: str
    call: Callable[[], Any]


class Workload:
    """Inputs drawn from a seed; `build` is the timed set-up, `ops` the
    operations of one round, `check` maps each operation key to its problems."""

    name: str
    largest: tuple      # (p, n) of the largest field, for the field micro-timings

    def prepare(self, tables, checker):
        """Derive the inputs that need field arithmetic, after set-up."""

    def threads_check(self, tables, results):
        """Checks that start worker processes; run after the timed rounds."""
        return {}


class Checker:
    """Independent fields per (p, n) and memoized independent counts, built
    lazily outside the timed region; a second check of the same results (as
    the self-test makes) reuses them."""

    def __init__(self):
        self._fields = {}
        self._memo = {}

    def field(self, spec) -> IndependentField:
        key = (spec.p, spec.n, tuple(spec.modulus))
        if key not in self._fields:
            self._fields[key] = IndependentField(spec.p, spec.n, spec.modulus).use_add_table()
        return self._fields[key]

    def memo(self, fn, *args):
        key = (fn.__name__,) + tuple(
            a.tobytes() if isinstance(a, np.ndarray) else
            tuple(a) if isinstance(a, list) else a for a in args)
        if key not in self._memo:
            self._memo[key] = fn(*args)
        return self._memo[key]


# ---------------------------------------------------------------------------
# comparisons shared by the workloads
# ---------------------------------------------------------------------------

def compare(problems, label, got, want):
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def check_table(problems, F, want):
    if not np.array_equal(np.asarray(F.values, dtype=np.int64), want):
        problems.append("function table differs from the independent evaluation")


def expected_dual(scans):
    """dual_convention_max's contract from per-c scans, in c order: the
    first c reaching each maximum wins; c = 1 counts only a != 0."""
    best = {"include-zero": (0, None), "nonzero": (0, None)}
    for c, scan in scans:
        v_all, w_all, _ = scan.best(True)
        v_nz, w_nz, _ = scan.best(False)
        inc = v_all if c != 1 else v_nz
        inc_w = w_all if c != 1 else w_nz
        if inc > best["include-zero"][0]:
            best["include-zero"] = (inc, (c,) + inc_w)
        if v_nz > best["nonzero"][0]:
            best["nonzero"] = (v_nz, (c,) + w_nz)
    return best


def check_dual(problems, got, scans):
    want = expected_dual(scans)
    for conv in ("include-zero", "nonzero"):
        compare(problems, conv, tuple(got[conv]), want[conv])


def check_uniformity(problems, res, scan):
    """An include-zero UniformityResult, the convention of every call here."""
    value, (a, b), sols = scan.best(True)
    compare(problems, f"c={res.c} value", res.value, value)
    compare(problems, f"c={res.c} witness", (res.witness_a, res.witness_b), (a, b))
    compare(problems, f"c={res.c} solutions", tuple(res.solutions), sols)


def check_spectrum(problems, rep, scans):
    compare(problems, "c order", [r.c for r in rep.results], [c for c, _ in scans])
    for r, (_, scan) in zip(rep.results, scans):
        check_uniformity(problems, r, scan)
    compare(problems, "overall_max", rep.overall_max,
            max(scan.best(True)[0] for _, scan in scans))


def check_witness_dict(problems, w, scan):
    """A verdict's include-zero witness {"c", "a", "b", "solutions"}."""
    value, (a, b), sols = scan.best(True)
    compare(problems, f"c={w['c']} witness", (w["a"], w["b"]), (a, b))
    compare(problems, f"c={w['c']} solutions", tuple(w["solutions"]), sols)
    return value


def verdict_status(observed, predicted):
    return "Confirmed" if observed == predicted else "Refuted"


# ---------------------------------------------------------------------------
# power-maps
# ---------------------------------------------------------------------------

class PowerMaps(Workload):
    """Table 1, seeded power maps and the T6/T7/T8 claims."""

    name = "power-maps"
    largest = (2, 9)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.d_binary = int(rng.integers(2, 255))            # x^d over GF(2^8)
        self.d_ternary = int(rng.integers(2, 242))           # x^d over GF(3^5)
        self.c_ternary = sorted(int(c) for c in rng.choice(np.arange(2, 243), 16,
                                                           replace=False))

    def inputs(self):
        return {"d_binary": self.d_binary, "d_ternary": self.d_ternary,
                "c_ternary": self.c_ternary}

    def build(self):
        specs = {pn: field.build_field(*pn) for pn in
                 [(2, n) for n in range(1, 10)] + [(3, 5), (7, 3)]}
        t = {}
        for n in range(1, 9):
            for d in (5, 13):
                t["table1", n, d] = functions.from_monomial(specs[2, n], d)
        t["binary"] = functions.from_monomial(specs[2, 8], self.d_binary)
        t["ternary"] = functions.from_monomial(specs[3, 5], self.d_ternary)
        # the T7/T8 functions; verify builds its own copy inside each round
        for pn in [(2, n) for n in range(3, 10)] + [(7, 3)]:
            t["inverse", pn] = functions.inverse_table(specs[pn])
        return t

    def ops(self, t):
        ops = []
        for n in range(1, 9):
            for d in (5, 13):
                F = t["table1", n, d]
                ops.append(Op(f"table1/n={n}/x^{d}",
                              lambda F=F: cdiff.dual_convention_max(F, "nonzero")))
        for key in ("binary", "ternary"):
            F = t[key]
            ops.append(Op(f"seeded/{key}/x^{F.origin['d']}",
                          lambda F=F: cdiff.dual_convention_max(F, "nonzero")))
        F = t["ternary"]
        ops.append(Op("seeded/ternary/spectrum",
                      lambda F=F: cdiff.spectrum(F, self.c_ternary, INCLUDE)))
        for n in range(2, 9):
            ops.append(Op(f"T6/n={n}", lambda n=n: theorems.verify("T6", {"n": n})))
        for n in range(3, 10):
            ops.append(Op(f"T7/n={n}", lambda n=n: theorems.verify("T7", {"n": n})))
        ops.append(Op("T8/p=7,n=3", lambda: theorems.verify("T8", {"p": 7, "n": 3})))
        return ops

    def check(self, t, results, checker, notes):
        out = {}
        published = {row["n"]: row for row in reference_data.TABLE1["rows"]}
        for n in range(1, 9):
            for d, column in ((5, "gold"), (13, "kasami")):
                key = f"table1/n={n}/x^{d}"
                out[key] = p = []
                dual = self._check_power_dual(p, t["table1", n, d], d, results[key], checker)
                if dual["nonzero"][0] != published[n][column]:
                    notes.append(f"{key}: computed {dual['nonzero'][0]}, published "
                                 f"{published[n][column]} (reported, not a failure)")
        for key, d in (("binary", self.d_binary), ("ternary", self.d_ternary)):
            k = f"seeded/{key}/x^{t[key].origin['d']}"
            out[k] = []
            self._check_power_dual(out[k], t[key], d, results[k], checker)
        F = t["ternary"]
        ind = checker.field(F.spec)
        own = ind.power_map(self.d_ternary)
        out["seeded/ternary/spectrum"] = p = []
        check_spectrum(p, results["seeded/ternary/spectrum"],
                       [(c, checker.memo(power_map_scan, ind, own, c))
                        for c in self.c_ternary])
        for n in range(2, 9):
            key = f"T6/n={n}"
            out[key] = self._check_t6(n, results[key], checker)
        for n in range(3, 10):
            key = f"T7/n={n}"
            out[key] = self._check_inverse(results[key], checker, t["inverse", (2, n)],
                                           self._t7_closed_form)
        out["T8/p=7,n=3"] = self._check_inverse(results["T8/p=7,n=3"], checker,
                                                t["inverse", (7, 3)], self._t8_closed_form)
        return out

    @staticmethod
    def _check_power_dual(problems, F, d, got, checker):
        ind = checker.field(F.spec)
        own = ind.power_map(d)
        check_table(problems, F, own)
        scans = [(c, checker.memo(power_map_scan, ind, own, c)) for c in range(1, ind.q)]
        check_dual(problems, got, scans)
        return expected_dual(scans)

    @staticmethod
    def _check_t6(n, verdicts, checker):
        problems = []
        ind = checker.field(field.build_field(2, n))
        own = ind.power_map(3)
        scans = [(c, checker.memo(power_map_scan, ind, own, c)) for c in range(1, ind.q)]
        want = expected_dual(scans)
        compare(problems, "verdict count", len(verdicts), 1)
        v = verdicts[0]
        closed = 2 if n == 2 else 3
        compare(problems, "observed", v.observed, want["nonzero"][0])
        compare(problems, "witness", (v.witness["c"], v.witness["a"], v.witness["b"]),
                want["nonzero"][1])
        compare(problems, "include-zero", v.witness["observed_include_zero"],
                want["include-zero"][0])
        compare(problems, "predicted", v.predicted, str(closed))
        compare(problems, "status", v.status, verdict_status(v.observed, closed))
        return problems

    @staticmethod
    def _t7_closed_form(ind, tr, c):
        if c == 0:
            return 1
        return 2 if tr[c] == 1 and tr[int(ind.inv(c))] == 1 else 3

    @staticmethod
    def _t8_closed_form(ind, tr, c):
        if c == 0:
            return 1
        four = 4 % ind.p
        if c in (four, int(ind.inv(four))):
            return 2
        d1 = int(ind.sub(ind.mul(c, c), ind.mul(four, c)))
        d2 = int(ind.sub(1, ind.mul(four, c)))
        return 3 if ind.is_square(d1) or ind.is_square(d2) else 2

    @staticmethod
    def _check_inverse(verdicts, checker, inverse, closed_form):
        problems = []
        ind = checker.field(inverse.spec)
        own = ind.power_map(ind.q - 2)
        check_table(problems, inverse, own)
        tr = ind.trace_all()
        compare(problems, "c order", [v.params["c"] for v in verdicts],
                [c for c in range(ind.q) if c != 1])
        for v in verdicts:
            c = v.params["c"]
            scan = checker.memo(power_map_scan, ind, own, c)
            value = check_witness_dict(problems, v.witness, scan)
            compare(problems, f"c={c} observed", v.observed, value)
            closed = closed_form(ind, tr, c)
            compare(problems, f"c={c} predicted", v.predicted, str(closed))
            compare(problems, f"c={c} status", v.status, verdict_status(v.observed, closed))
        return problems


# ---------------------------------------------------------------------------
# deca-trinomials
# ---------------------------------------------------------------------------

DECA = (("minus", 1), ("plus", -1))   # x^10 - u x^6 - u^2 x^2 with u = +-1


class DecaTrinomials(Workload):
    """Table 2 rows n = 1, 2, 3, 5 in full and n = 7 on seeded Frobenius orbits."""

    name = "deca-trinomials"
    largest = (3, 7)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        # one element per function whose Frobenius orbit is the n = 7 c-set
        self.orbit_seed = {name: int(rng.integers(3, 3 ** 7)) for name, _ in DECA}
        self.orbits = None

    def inputs(self):
        return {"orbit_seed": self.orbit_seed, "orbits": self.orbits}

    def build(self):
        t = {}
        for n in (1, 2, 3, 5, 7):
            spec = field.build_field(3, n)
            for name, u in DECA:
                t[n, name] = theorems.deca_trinomial(spec, u % 3)
        return t

    def prepare(self, t, checker):
        """Orbits {c, c^3, c^9, ...} of the seeded elements, outside the
        prime field so that each has 7 members, from our own arithmetic."""
        ind = checker.field(t[7, "minus"].spec)
        self.orbits = {}
        for name, _ in DECA:
            c = self.orbit_seed[name]
            orbit = {c}
            for _ in range(6):
                c = int(ind.frobenius(c))
                orbit.add(c)
            self.orbits[name] = sorted(orbit)

    def ops(self, t):
        ops = []
        for n in (1, 2, 3, 5):
            for name, _ in DECA:
                F = t[n, name]
                ops.append(Op(f"table2/n={n}/{name}",
                              lambda F=F: cdiff.dual_convention_max(F, "exclude_0_1")))
        for name, _ in DECA:
            F = t[3, name]
            ops.append(Op(f"spectrum/n=3/{name}",
                          lambda F=F: cdiff.spectrum(F, "exclude_0_1", INCLUDE)))
        for name, _ in DECA:
            F, cs = t[7, name], self.orbits[name]
            ops.append(Op(f"n=7/{name}/dual",
                          lambda F=F, cs=cs: cdiff.dual_convention_max(F, cs)))
            ops.append(Op(f"n=7/{name}/spectrum",
                          lambda F=F, cs=cs: cdiff.spectrum(F, cs, INCLUDE)))
        return ops

    @staticmethod
    def own_values(ind, u):
        u = u % 3
        return ind.sub(ind.sub(ind.power_map(10), ind.mul(u, ind.power_map(6))),
                       ind.mul(u * u % 3, ind.power_map(2)))

    def check(self, t, results, checker, notes):
        out = {}
        published = {row["n"]: row for row in reference_data.TABLE2["rows"]}
        for n in (1, 2, 3, 5, 7):
            for name, u in DECA:
                F = t[n, name]
                ind = checker.field(F.spec)
                own = self.own_values(ind, u)
                cs = self.orbits[name] if n == 7 else range(2, ind.q)
                scans = [(c, checker.memo(full_scan, ind, own, c)) for c in cs]
                table_problems = []
                check_table(table_problems, F, own)
                if n <= 3:
                    table_problems += self._brute(checker, ind, own, scans)
                if n < 7:
                    key = f"table2/n={n}/{name}"
                    out[key] = p = list(table_problems)
                    check_dual(p, results[key], scans)
                    got = results[key]
                    want = published[n][name]
                    if want not in (got["include-zero"][0], got["nonzero"][0]):
                        notes.append(f"{key}: computed {got['include-zero'][0]}/"
                                     f"{got['nonzero'][0]} (include-zero/nonzero), "
                                     f"published {want} (reported, not a failure)")
                if n == 3:
                    key = f"spectrum/n=3/{name}"
                    out[key] = p = list(table_problems)
                    check_spectrum(p, results[key], scans)
                if n == 7:
                    key = f"n=7/{name}/dual"
                    out[key] = p = list(table_problems)
                    check_dual(p, results[key], scans)
                    key = f"n=7/{name}/spectrum"
                    out[key] = p = list(table_problems)
                    rep = results[key]
                    check_spectrum(p, rep, scans)
                    if len({r.value for r in rep.results}) != 1:
                        p.append("per-c values differ within one Frobenius orbit")
                    compare(p, "dual include-zero vs spectrum",
                            results[f"n=7/{name}/dual"]["include-zero"][0],
                            rep.overall_max)
        return out

    @staticmethod
    def _brute(checker, ind, own, scans):
        """Every per-c value against oracles.brute_uniformity (SlowField)."""
        problems = []
        values = [int(v) for v in own]
        for c, scan in scans:
            for include in (True, False):
                want = checker.memo(oracles.brute_uniformity, ind.slow, values, c, include)
                compare(problems, f"c={c} brute include_a0={include}",
                        scan.best(include)[0], want)
        return problems

    def threads_check(self, t, results):
        """The n = 3 spectrum again with two worker processes; it must be identical."""
        F = t[3, "minus"]
        again = cdiff.spectrum(F, "exclude_0_1", INCLUDE, threads=2)
        if again != results["spectrum/n=3/minus"]:
            return {"spectrum/n=3/minus": ["threads=2 result differs from threads=1"]}
        return {}


# ---------------------------------------------------------------------------
# random-tables
# ---------------------------------------------------------------------------

class RandomTables(Workload):
    """Seeded random value tables on both sides of PAIR_TABLE_BOUND."""

    name = "random-tables"
    largest = (3, 8)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.values = {(2, 12): rng.integers(0, 2 ** 12, 2 ** 12),
                       (3, 8): rng.integers(0, 3 ** 8, 3 ** 8)}
        self.cs = {(2, 12): sorted(int(c) for c in rng.choice(np.arange(2, 2 ** 12), 2,
                                                              replace=False)),
                   (3, 8): [int(rng.integers(2, 3 ** 8))]}

    def inputs(self):
        return {"values": {f"{p}^{n}": v.tolist() for (p, n), v in self.values.items()},
                "cs": {f"{p}^{n}": c for (p, n), c in self.cs.items()}}

    def build(self):
        return {pn: functions.raw_table(field.build_field(*pn), v)
                for pn, v in self.values.items()}

    def ops(self, t):
        return [Op(f"GF({p}^{n})/spectrum",
                   lambda F=t[p, n], cs=self.cs[p, n]: cdiff.spectrum(F, cs, INCLUDE))
                for (p, n) in self.values]

    def check(self, t, results, checker, notes):
        out = {}
        for (p, n), values in self.values.items():
            key = f"GF({p}^{n})/spectrum"
            out[key] = problems = []
            F = t[p, n]
            check_table(problems, F, values)
            rep = results[key]
            ind = checker.field(F.spec)
            if (p, n) == (2, 12):
                # full recount, x + a computed as x XOR a
                check_spectrum(problems, rep, [(c, checker.memo(full_scan, ind, values, c))
                                               for c in self.cs[p, n]])
                continue
            # q = 6561: recount the witness row with our own digit arithmetic
            compare(problems, "c order", [r.c for r in rep.results], self.cs[p, n])
            for r in rep.results:
                if r.witness_a == 0 and r.c == 1:
                    problems.append("a = 0 witness for c = 1")
                value, b, sols = ind.row_witness(values, r.c, r.witness_a)
                compare(problems, f"c={r.c} row max", r.value, value)
                compare(problems, f"c={r.c} witness b", r.witness_b, b)
                compare(problems, f"c={r.c} solutions", tuple(r.solutions), sols)
        return out


# ---------------------------------------------------------------------------
# walsh-characterizations
# ---------------------------------------------------------------------------

class WalshCharacterizations(Workload):
    """The exact Walsh statistics on both sides of pcn_power_sum's q = 256 switch."""

    name = "walsh-characterizations"
    largest = (7, 3)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)

        def c_in(q):
            return int(rng.integers(2, q))

        self.pcn = [("x2@27", c_in(27)), ("lin@9", c_in(9)), ("xd@256", c_in(256)),
                    ("lin@343", 5)]
        self.stats = [("x2@81", c_in(81)), ("xd@64", c_in(64)), ("lin@25", c_in(25))]
        self.shift = {key: int(rng.integers(1, q)) for key, q in
                      (("x2@81", 81), ("xd@64", 64), ("lin@25", 25))}
        self.d = {"xd@256": int(rng.integers(3, 255)), "xd@64": int(rng.integers(3, 63))}
        self.coef = {"lin@9": int(rng.integers(1, 9)), "lin@25": int(rng.integers(1, 25)),
                     "lin@343": 2}

    def inputs(self):
        return {"pcn": self.pcn, "stats": self.stats, "shift": self.shift,
                "d": self.d, "coef": self.coef}

    # key -> (p, n, kind); linear maps A x^p are PcN for every c != 1
    FUNCTIONS = {"x2@27": (3, 3, "square"), "lin@9": (3, 2, "linear"),
                 "xd@256": (2, 8, "power"), "lin@343": (7, 3, "linear"),
                 "x2@343": (7, 3, "square"), "x2@81": (3, 4, "square"),
                 "xd@64": (2, 6, "power"), "lin@25": (5, 2, "linear")}

    def build(self):
        t = {}
        for key, (p, n, kind) in self.FUNCTIONS.items():
            spec = field.build_field(p, n)
            if kind == "square":
                t[key] = functions.from_monomial(spec, 2)
            elif kind == "power":
                t[key] = functions.from_monomial(spec, self.d[key])
            else:
                t[key] = functions.from_polynomial(spec, {p: self.coef[key]})
        return t

    def own_values(self, ind, key):
        _, _, kind = self.FUNCTIONS[key]
        if kind == "square":
            return ind.power_map(2)
        if kind == "power":
            return ind.power_map(self.d[key])
        return ind.mul(self.coef[key], ind.power_map(ind.p))

    def ops(self, t):
        ops = []
        for key, c in self.pcn:
            F = t[key]
            ops.append(Op(f"pcn/{key}/c={c}", lambda F=F, c=c: walsh.pcn_power_sum(F, c)))
            ops.append(Op(f"uniformity/{key}/c={c}",
                          lambda F=F, c=c: cdiff.uniformity(F, c, INCLUDE)))
        F = t["x2@343"]
        ops.append(Op("walsh_table/x2@343", lambda F=F: walsh.walsh_table(F)))
        for key, c in self.stats:
            F, a = t[key], self.shift[key]
            ops.append(Op(f"uniformity/{key}/c={c}",
                          lambda F=F, c=c: cdiff.uniformity(F, c, INCLUDE)))
            ops.append(Op(f"apcn/{key}/c={c}",
                          lambda F=F, c=c: walsh.apcn_statistic(F, c, size_guard=None)))
            for delta in (1, 2):
                ops.append(Op(f"convolution/{key}/c={c}/delta={delta}",
                              lambda F=F, c=c, delta=delta:
                              walsh.convolution_statistic(F, c, delta)))
            ops.append(Op(f"derivative/{key}/c={c}/a={a}",
                          lambda F=F, c=c, a=a:
                          walsh.derivative_walsh_statistic(F, c, a, 2)))
        return ops

    def check(self, t, results, checker, notes):
        out = {}
        for key, c in self.pcn + self.stats:
            F = t[key]
            ind = checker.field(F.spec)
            own = self.own_values(ind, key)
            q = ind.q
            scan = checker.memo(full_scan, ind, own, c)
            unif = scan.best(True)[0]
            table_problems = []
            check_table(table_problems, F, own)
            k = f"uniformity/{key}/c={c}"
            out[k] = p = list(table_problems)
            check_uniformity(p, results[k], scan)
            s1 = checker.memo(difference_power_sum, ind, own, c, 1)
            if (key, c) in self.pcn:
                k = f"pcn/{key}/c={c}"
                out[k] = p = list(table_problems)
                got = results[k]
                compare(p, "q^2 * sum N^2", got, q * q * s1)
                if got < q ** 4 or (got == q ** 4) != (unif == 1):
                    p.append(f"pcn {got} vs p^(4n) {q ** 4} with uniformity {unif}")
                if q <= 27:
                    compare(p, "brute_pcn_sum", got,
                            checker.memo(oracles.brute_pcn_sum, ind.slow,
                                         [int(v) for v in own], c))
                continue
            s2 = checker.memo(difference_power_sum, ind, own, c, 2)
            k = f"apcn/{key}/c={c}"
            out[k] = p = list(table_problems)
            lhs, rhs = results[k]
            compare(p, "lhs = q^4 * sum N^3", lhs, q ** 4 * s2)
            compare(p, "rhs = 3 q^2 S - 2 q^6", rhs, 3 * q ** 4 * s1 - 2 * q ** 6)
            if lhs < rhs or (lhs == rhs) != (unif <= 2):
                p.append(f"apcn {lhs} vs {rhs} with uniformity {unif}")
            for delta, want in ((1, q * q * -1 + s1), (2, q * q * 2 - 3 * s1 + s2)):
                k = f"convolution/{key}/c={c}/delta={delta}"
                out[k] = p = list(table_problems)
                count, walsh_side = results[k]
                compare(p, "count side", count, want)
                compare(p, "walsh side", walsh_side, count)
                if (count == 0) != (unif <= delta):
                    p.append(f"count side {count} with uniformity {unif}")
            a = self.shift[key]
            k = f"derivative/{key}/c={c}/a={a}"
            out[k] = p = list(table_problems)
            compare(p, "brute_derivative_statistic", results[k],
                    checker.memo(oracles.brute_derivative_statistic, ind.slow,
                                 [int(v) for v in own], c, a, 2))
        k = "walsh_table/x2@343"
        out[k] = p = []
        W = results[k]
        ind = checker.field(W.spec)
        got = np.array([[z.coeffs for z in row] for row in W.entries], dtype=np.int64)
        want = checker.memo(walsh_coefficients, ind, self.own_values(ind, "x2@343"))
        if not np.array_equal(got, want):
            p.append("Walsh table differs from the independent character sums")
        return out


WORKLOADS = {w.name: w for w in
             (PowerMaps, DecaTrinomials, RandomTables, WalshCharacterizations)}
