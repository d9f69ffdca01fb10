"""Machine checks of the named claims T0..T9 against brute-force sweeps.

Every claim is judged by comparing its predicted uniformity (or bound)
with the value cdiff.uniformity computes by exhaustive counting; no claim
is scored by re-deriving its own algebra.  Refutations are first-class
outcomes carrying a concrete witness, not test failures: the suite's job
is to report where desk-scale truth and a stated condition diverge.

Claim register (conventions pinned per claim; "include-zero" admits a = 0
for c != 1):

T0  classical perfect nonlinearity (c = 1) of the four standard families:
    x^2; x^(p^k+1) iff n/gcd(k,n) odd; the ternary x^10 - u x^6 - u^2 x^2
    family (iff n = 2 or n odd for u = +-1, if n odd for general u);
    x^((3^k+1)/2) iff gcd(k,n) = 1 and n odd.
T1  nonconstant affine functions A x + B and A x^(p^k) + B are PcN for
    every c != 1.
T2  x^2 is APcN for every c != 1 (odd characteristic).
T3  x^(p^k+1) is never PcN for c != 1; when (1-c)^(p^k-1) = 1 and
    n/gcd(n,k) is even the uniformity is at least p^g + 1, g = gcd(n,k).
T4  x^((3^k+1)/2) at c = -1: the stated condition (n/gcd(n,k) odd) and the
    permutation-polynomial criterion gcd((3^k+1)/2, 3^(2n)-1) = 1 are both
    checked; they are known to disagree on some (k, n).
T5  x^10 - u x^6 - u^2 x^2 over GF(3^n) has uniformity >= 2 for all c != 1.
T6  x^3 over GF(2^n): max uniformity over c != 0 (a != 0) is 2 for n = 2
    and 3 for n >= 3.
T7  inverse map, even characteristic: 1 for c = 0; 2 iff
    Tr(c) = Tr(1/c) = 1; else 3.
T8  inverse map, odd characteristic: 1 for c = 0; 2 for c in {4, 1/4};
    3 when c*c - 4c or 1 - 4c is a square (c not in {0, 4, 1/4});
    2 when both are non-squares.
T9  shared-solution consistency: x0 solves both the (c1, b1) and (c2, b2)
    difference equations iff F(x0) = (b1 - b2)/(c2 - c1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from .cdiff import AConvention, cross_solution_check, dual_convention_max, spectrum, uniformity
from .errors import UnknownClaim
from .field import build_field, is_prime
from .functions import (FunctionTable, _from_descriptor, from_monomial, from_polynomial,
                        inverse_table, raw_table)
from .numth import chebyshev_is_permutation
from .parallel import parallel_map

INCLUDE = AConvention.INCLUDE_A_ZERO
NONZERO = AConvention.NONZERO_ONLY

CLAIM_IDS = tuple(f"T{i}" for i in range(10))


@dataclass(frozen=True)
class ClaimVerdict:
    claim: str
    params: dict
    predicted: str
    observed: int | None
    status: str           # Confirmed | BoundHolds | Refuted | NotApplicable
    convention: str
    witness: dict = dataclass_field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "params": self.params,
            "predicted": self.predicted,
            "observed": self.observed,
            "status": self.status,
            "a_convention": self.convention,
            "witness": self.witness,
        }


def _witness(res) -> dict:
    return {"c": res.c, "a": res.witness_a, "b": res.witness_b,
            "solutions": list(res.solutions)}


def _equality_verdict(claim, params, conv, predicted, res) -> ClaimVerdict:
    status = "Confirmed" if res.value == predicted else "Refuted"
    return ClaimVerdict(claim, params, str(predicted), res.value, status,
                        conv.value, _witness(res))


def _bound_verdict(claim, params, conv, bound, res) -> ClaimVerdict:
    status = "BoundHolds" if res.value >= bound else "Refuted"
    return ClaimVerdict(claim, params, f">={bound}", res.value, status,
                        conv.value, _witness(res))


def _iff_verdicts(claim, params, conv, prop, res, predictions) -> list:
    """Verdicts on "F is prop iff predicted", where F is prop iff
    res.value == 1.  predictions is [(variant, predicted), ...]: variant
    None adds no "variant" key to params, and predicted None makes no
    claim."""
    out = []
    for variant, predicted in predictions:
        if predicted is None:
            text, status = "no claim", "NotApplicable"
        else:
            text = prop if predicted else f"not {prop}"
            status = "Confirmed" if predicted == (res.value == 1) else "Refuted"
        out.append(ClaimVerdict(
            claim, params if variant is None else {**params, "variant": variant},
            text, res.value, status, conv.value, _witness(res)))
    return out


def _c_not_1_results(F) -> list:
    """Uniformity results at every c != 1, a = 0 admitted, in c order."""
    return spectrum(F, [c for c in range(F.spec.q) if c != 1], INCLUDE).results


def deca_trinomial(spec, u: int) -> FunctionTable:
    """x^10 - u x^6 - u^2 x^2 over GF(3^n), exponents reduced to the field."""
    return _from_descriptor(spec, {"terms": [
        [10, 1], [6, spec.neg(u)], [2, spec.neg(spec.mul(u, u))]]})


# ---------------------------------------------------------------------------
# per-claim verify
# ---------------------------------------------------------------------------

def _t0(params):
    p, n = params["p"], params["n"]
    spec = build_field(p, n)
    family = params["family"]
    if family == "square":
        F = from_monomial(spec, 2)
        predictions = [(None, True)]
    elif family == "gold":
        k = params["k"]
        F = from_monomial(spec, p ** k + 1)
        predictions = [(None, (n // math.gcd(k, n)) % 2 == 1)]
    elif family == "ding_yuan":
        u = params["u"]
        F = deca_trinomial(spec, u)
        if u in (1, spec.neg(1)):
            predictions = [(None, n == 2 or n % 2 == 1)]
        else:
            predictions = [(None, True if n % 2 == 1 else None)]
    elif family == "coulter_matthews":
        # the stated condition (gcd(k,n) = 1 and n odd) is desk-refutable,
        # e.g. at (k,n) = (2,3); both it and the classical condition
        # (k odd and gcd(k,n) = 1) are judged, like the two T4 variants
        k = params["k"]
        F = from_monomial(spec, (3 ** k + 1) // 2)
        predictions = [("stated", math.gcd(k, n) == 1 and n % 2 == 1),
                       ("classical", k % 2 == 1 and math.gcd(k, n) == 1)]
    else:
        raise UnknownClaim(f"unknown T0 family {family!r}")
    return _iff_verdicts("T0", params, NONZERO, "PN", uniformity(F, 1, NONZERO),
                         predictions)


def _t1(params):
    p, n = params["p"], params["n"]
    spec = build_field(p, n)
    A, B, k = params["A"], params["B"], params.get("k", 0)
    if A == 0:
        raise ValueError("A must be nonzero for an affine bijection")
    kk = k % n
    F = from_polynomial(spec, {(p ** kk if kk else 1): A, 0: B})
    worst = max(_c_not_1_results(F), key=lambda r: r.value)   # first maximum in c order
    return [_equality_verdict("T1", params, INCLUDE, 1, worst)]


def _t2(params):
    p, n = params["p"], params["n"]
    spec = build_field(p, n)
    F = from_monomial(spec, 2)
    return [
        _equality_verdict("T2", {"p": p, "n": n, "c": r.c}, INCLUDE, 2, r)
        for r in _c_not_1_results(F)
    ]


def _t3(params):
    p, k, n = params["p"], params["k"], params["n"]
    spec = build_field(p, n)
    F = from_monomial(spec, p ** k + 1)
    g = math.gcd(n, k)
    m = n // g
    out = []
    for r in _c_not_1_results(F):
        qualifying = (spec.pow(spec.sub(1, r.c), p ** k - 1) == 1) and m % 2 == 0
        bound = p ** g + 1 if qualifying else 2
        out.append(_bound_verdict(
            "T3", {"p": p, "k": k, "n": n, "c": r.c, "qualifying": qualifying},
            INCLUDE, bound, r))
    return out


def _t4(params):
    k, n = params["k"], params["n"]
    spec = build_field(3, n)
    d = (3 ** k + 1) // 2
    F = from_monomial(spec, d)
    res = uniformity(F, spec.neg(1), INCLUDE)
    return _iff_verdicts("T4", {"k": k, "n": n, "d": d}, INCLUDE, "PcN", res, [
        ("stated", (n // math.gcd(n, k)) % 2 == 1),
        ("gcd_criterion", chebyshev_is_permutation(3, n, d))])


def _t5(params):
    n, u = params["n"], params["u"]
    spec = build_field(3, n)
    F = deca_trinomial(spec, u)
    worst = min(_c_not_1_results(F), key=lambda r: r.value)   # first minimum in c order
    status = "BoundHolds" if worst.value >= 2 else "Refuted"
    return [ClaimVerdict("T5", params, ">=2 for all c != 1", worst.value,
                         status, INCLUDE.value, _witness(worst))]


def _t6(params):
    n = params["n"]
    spec = build_field(2, n)
    F = from_monomial(spec, 3)
    best = dual_convention_max(F, "nonzero")
    observed, wit = best["nonzero"]
    predicted = 2 if n == 2 else 3
    status = "Confirmed" if observed == predicted else "Refuted"
    witness = {"c": wit[0], "a": wit[1], "b": wit[2],
               "observed_include_zero": best["include-zero"][0]}
    return [ClaimVerdict("T6", params, str(predicted), observed, status,
                         NONZERO.value, witness)]


def _t7(params):
    n = params["n"]
    spec = build_field(2, n)
    F = inverse_table(spec)
    out = []
    for r in _c_not_1_results(F):
        if r.c == 0:
            predicted = 1
        elif spec.trace_abs(r.c) == 1 and spec.trace_abs(spec.inv(r.c)) == 1:
            predicted = 2
        else:
            predicted = 3
        out.append(_equality_verdict("T7", {"n": n, "c": r.c}, INCLUDE,
                                     predicted, r))
    return out


def inverse_odd_case(spec, c: int) -> tuple:
    """(case label, predicted uniformity) from the four-way classification."""
    if c == 0:
        return "c=0", 1
    four = 4 % spec.p
    inv4 = spec.inv(four)
    if c in (four, inv4):
        return "c in {4, 1/4}", 2
    d1 = spec.sub(spec.mul(c, c), spec.mul(four, c))
    d2 = spec.sub(1, spec.mul(four, c))
    if spec.is_square(d1) or spec.is_square(d2):
        return "some discriminant a square", 3
    return "both discriminants non-squares", 2


def _t8(params):
    p, n = params["p"], params["n"]
    spec = build_field(p, n)
    F = inverse_table(spec)
    out = []
    for r in _c_not_1_results(F):
        label, predicted = inverse_odd_case(spec, r.c)
        v = _equality_verdict("T8", {"p": p, "n": n, "c": r.c, "case": label},
                              INCLUDE, predicted, r)
        if (p, n, r.c) == (3, 2, spec.neg(1)):
            v = replace(v, witness={**v.witness, "noted_instance": "p=3, n=2, c=-1"})
        out.append(v)
    return out


def _t9(params):
    p, n = params["p"], params["n"]
    spec = build_field(p, n)
    kind = params.get("function", "square")
    if kind == "square":
        F = from_monomial(spec, 2)
    elif kind == "cube":
        F = from_monomial(spec, 3)
    elif kind == "inverse":
        F = inverse_table(spec)
    else:
        rng = np.random.default_rng(params.get("seed", 0))
        F = raw_table(spec, rng.integers(0, spec.q, spec.q))
    disagreements = []
    checked = 0
    for a in range(spec.q):
        for c1 in range(1, spec.q):
            for c2 in range(1, spec.q):
                if c1 == c2:
                    continue
                for b1 in range(spec.q):
                    for b2 in range(spec.q):
                        for (x0, pred, act) in cross_solution_check(
                                F, a, b1, b2, c1, c2):
                            checked += 1
                            if pred != act:
                                disagreements.append(
                                    (a, b1, b2, c1, c2, x0, pred, act))
    status = "Confirmed" if not disagreements else "Refuted"
    return [ClaimVerdict("T9", {**params, "pairs_checked": checked},
                         "prediction = membership", None, status,
                         INCLUDE.value,
                         {"disagreements": disagreements[:5]})]


_CLAIMS = {
    "T0": _t0, "T1": _t1, "T2": _t2, "T3": _t3, "T4": _t4,
    "T5": _t5, "T6": _t6, "T7": _t7, "T8": _t8, "T9": _t9,
}


def verify(claim_id: str, params: dict) -> list:
    """Run one claim instance; returns its ClaimVerdict list."""
    if claim_id not in _CLAIMS:
        raise UnknownClaim(f"claim {claim_id!r} not in {CLAIM_IDS}")
    return _CLAIMS[claim_id](dict(params))


# ---------------------------------------------------------------------------
# parameter grids
# ---------------------------------------------------------------------------

def _odd_prime_powers(limit):
    out = []
    for p in range(3, limit + 1, 2):
        if not is_prime(p):
            continue
        n = 1
        while p ** n <= limit:
            out.append((p, n))
            n += 1
    return sorted(out, key=lambda t: t[0] ** t[1])


def grid(claim_id: str, preset: str = "acceptance") -> list:
    """Parameter instances for a sweep; 'acceptance' presets match the
    sizes the release gate runs, 'small' is a quick spot check."""
    small = preset == "small"
    if claim_id == "T0":
        out = []
        fields = [(3, n) for n in range(1, 3 if small else 6)]
        if not small:
            fields += [pn for pn in _odd_prime_powers(125) if pn[0] != 3]
        for (p, n) in fields:
            out.append({"p": p, "n": n, "family": "square"})
            for k in range(1, n + 1):
                out.append({"p": p, "n": n, "family": "gold", "k": k})
            if p == 3:
                for k in range(1, n + 1):
                    out.append({"p": p, "n": n, "family": "coulter_matthews", "k": k})
                spec = build_field(3, n)
                us = (1, spec.neg(1)) if (small or n > 3) else range(1, spec.q)
                for u in us:
                    out.append({"p": p, "n": n, "family": "ding_yuan", "u": int(u)})
        return out
    if claim_id == "T1":
        fields = [(2, 3), (3, 2)] if small else [(2, 3), (2, 4), (3, 2), (5, 1), (3, 3)]
        out = []
        for (p, n) in fields:
            spec = build_field(p, n)
            picks = [(1, 0, 0), (1, 1, 0), (spec.q - 1, 2, 0)]
            if n > 1:
                picks += [(2, 5 % spec.q, 1), (spec.q - 2, 1, 1)]
            for (A, B, k) in picks:
                if A == 0:
                    continue
                out.append({"p": p, "n": n, "A": A, "B": B, "k": k})
        return out
    if claim_id == "T2":
        limit = 27 if small else 343
        return [{"p": p, "n": n} for (p, n) in _odd_prime_powers(limit)]
    if claim_id == "T3":
        if small:
            return [{"p": 3, "k": 1, "n": 2}]
        return [{"p": 2, "k": 2, "n": 4}, {"p": 3, "k": 1, "n": 2},
                {"p": 3, "k": 1, "n": 4}, {"p": 2, "k": 2, "n": 8}]
    if claim_id == "T4":
        top = 3 if small else 5
        return [{"k": k, "n": n} for n in range(1, top + 1) for k in range(1, n + 1)]
    if claim_id == "T5":
        top = 2 if small else 4
        out = []
        for n in range(1, top + 1):
            q = 3 ** n
            for u in range(q):
                out.append({"n": n, "u": u})
        return out
    if claim_id == "T6":
        return [{"n": n} for n in range(2, 5 if small else 9)]
    if claim_id == "T7":
        return [{"n": n} for n in range(3, 6 if small else 11)]
    if claim_id == "T8":
        if small:
            return [{"p": 7, "n": 1}, {"p": 3, "n": 2}]
        return [{"p": 3, "n": 2}, {"p": 3, "n": 3}, {"p": 5, "n": 2},
                {"p": 7, "n": 1}, {"p": 7, "n": 2}, {"p": 13, "n": 1}]
    if claim_id == "T9":
        if small:
            return [{"p": 3, "n": 1, "function": "square"}]
        return [{"p": 2, "n": 3, "function": "cube"},
                {"p": 2, "n": 3, "function": "inverse"},
                {"p": 3, "n": 2, "function": "square"},
                {"p": 3, "n": 2, "function": "raw", "seed": 7}]
    raise UnknownClaim(f"claim {claim_id!r} not in {CLAIM_IDS}")


def sweep(claim_id: str, preset: str = "acceptance", threads: int = 1):
    """All verdicts for a claim over a preset grid, in grid order."""
    verdict_lists = parallel_map(verify, claim_id, grid(claim_id, preset), threads)
    return [v for lst in verdict_lists for v in lst]


def summarize(verdicts) -> dict:
    counts = {}
    for v in verdicts:
        counts[v.status] = counts.get(v.status, 0) + 1
    return counts
