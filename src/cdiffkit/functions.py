"""Functions F: GF(p^n) -> GF(p^n) as fully tabulated value vectors.

The table is the single source of truth for evaluation; the origin
descriptor (monomial exponent, polynomial coefficients, inverse, raw) is
metadata carried along for reports and serialization.  A table owns a
read-only copy of its integer values, so its symmetry record (Λ and, from
the first Walsh query, M), found from them once, holds for its lifetime.
"""

from __future__ import annotations

import functools
import json
import logging
import math
from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

import numpy as np

from .errors import (
    EmptyPolynomial,
    FieldMismatch,
    InvalidExponent,
    RankOutOfRange,
    SchemaViolation,
)
from .field import FieldSpec, _integer, _prime_factors

_logger = logging.getLogger("cdiffkit")


def _stabilizer(spec: FieldSpec, values):
    """(m, μ): the multiplicative stabilizer Λ = {λ != 0 : F(λx) = μ_λ F(x)
    for every x} of F is <g^m>, g the field's generator, and μ = μ_(g^m).

    λ -> μ_λ is a homomorphism when F != 0, so M = {μ_λ} = <μ>.  F = 0 is
    stabilized by every λ with every μ; μ = g^m there, so M = Λ.

    Λ is cyclic, so it is found in O(q) per test: for each prime r of
    q - 1, λ = g^((q-1)/r^k) lies in Λ for k = 1, 2, ... up to the r-part
    of |Λ|.  A test takes μ = F(λx0)/F(x0) at the first x0 with F(x0) != 0
    and compares the whole table.  It reads the values only, never the
    origin descriptor.
    """
    q = spec.q
    nonzero = np.flatnonzero(values)
    if not len(nonzero):
        return 1, spec.primitive_rank
    x, x0 = np.arange(q), int(nonzero[0])
    inv0 = int(spec._inv[values[x0]])

    def multiplier(lam_x):   # μ_λ, from λx over every x
        return spec.mul(int(values[lam_x[x0]]), inv0)

    def stabilizes(k):   # λ = g^k
        lam_x = spec.mul_gen_power(x, k)
        return np.array_equal(values[lam_x], spec.scale_array(multiplier(lam_x), values))

    order = 1
    for r in _prime_factors(q - 1):
        s = r
        while (q - 1) % s == 0 and stabilizes((q - 1) // s):
            order, s = order * r, s * r
    m = (q - 1) // order
    return m, multiplier(spec.mul_gen_power(x, m))


class ColumnMap(NamedTuple):   # the columns of F's Walsh arrays (see Symmetry.columns)
    cols: np.ndarray    # 0, then the smallest rank of each coset of M, ascending
    index: np.ndarray   # index[v]: the position in cols of v's representative r
    shift: np.ndarray   # shift[v]: the log of λ^-1, for v = r μ_λ


@dataclass(frozen=True)
class Symmetry:
    """F's multiplicative stabilizer Λ = {λ != 0 : F(λx) = μ_λ F(x) for
    every x} and its multipliers M = {μ_λ}, the one record the sweep, the
    count side and the Walsh side read.  Putting x = λy gives F(x + λa) -
    c*F(x) = μ_λ (F(y + a) - c*F(y)), so n_F(λa, μ_λ b, c) = n_F(a, b, c)
    for every c: the rows of a coset aΛ share their maximum and their
    histogram, and the smallest row attaining a maximum is a coset minimum."""

    spec: FieldSpec
    m: int                 # Λ = <g^m>, g the field's generator
    mu: int                # μ_(g^m), which generates M = {μ_λ} when F != 0
    order: int             # |Λ| = (q - 1) / m, the rows per coset
    rows: np.ndarray       # 0, then the smallest rank of each coset aΛ, ascending
    coset_min: np.ndarray  # coset_min[a]: the smallest rank of aΛ; coset_min[0] = 0
    frobenius: bool        # n > 1 and F(x^p) = F(x)^p for every x

    @classmethod
    def of(cls, spec: FieldSpec, m: int, mu: int, frobenius: bool) -> "Symmetry":
        """The record of Λ = <g^m> with μ = μ_(g^m): its cosets from spec."""
        return cls(spec, m, mu, (spec.q - 1) // m, *spec.cosets(m), frobenius)

    @functools.cached_property
    def images(self) -> np.ndarray:
        """images[k, neg, j] = coset_min[±frob^k(rows[j])], minus when neg, for
        k < n when frobenius holds and k = 0 otherwise: row rows[j] of c
        read in c's orbit (see cdiff._c_orbits).  Built on first use."""
        spec = self.spec
        a = np.array([self.rows, spec._neg[self.rows]])
        out = np.empty((spec.n if self.frobenius else 1, *a.shape), dtype=self.coset_min.dtype)
        for k in range(len(out)):
            out[k] = self.coset_min[a]
            a = spec._frob[a]
        return out

    @functools.cached_property
    def columns(self) -> ColumnMap:
        """The columns of F's Walsh arrays, built on first Walsh use.  x = λy
        gives W_F(λu, μ_λ v) = W_F(u, v), and so G(λu, μ_λ v) = G(u, v) for
        G(u, v) = W(u, v) conj(W(u, cv)): column 0 and one column r per coset
        rM fix the array, column r μ_λ being column r read at row λ^-1 u."""
        spec = self.spec
        q, m = spec.q, self.m                  # Λ = <g^m>
        e = spec.log(self.mu)                  # μ = g^e generates M = <g^gcd(e, q - 1)>
        cols = spec.cosets(math.gcd(e, q - 1))[0]
        # λ = g^(m k) has μ_λ = μ^k, so v = r μ^k covers each nonzero v once
        k = np.arange((q - 1) // (len(cols) - 1))[:, None]
        v = spec.mul_gen_power(cols[1:], e * k % (q - 1))
        index, shift = np.zeros((2, q), dtype=np.intp)
        index[v] = np.arange(1, len(cols))
        shift[v] = (-m * k) % (q - 1)
        return ColumnMap(cols, index, shift)


def _symmetry(spec: FieldSpec, values) -> Symmetry:
    """F's symmetry record, from the values only: the one stabilizer search
    and the Frobenius test.  Power maps A*x^d have Λ = GF(q)^* and rows 0
    and 1; F = 0 has Λ = GF(q)^* too.  Logs one DEBUG record."""
    m, mu = _stabilizer(spec, values)
    frobenius = spec.n > 1 and np.array_equal(values[spec._frob], spec._frob[values])
    sym = Symmetry.of(spec, m, mu, frobenius)
    _logger.debug("symmetry over GF(%d^%d): |stabilizer| %d, rows %d of %d, frobenius %s",
                  spec.p, spec.n, sym.order, len(sym.rows), spec.q, "yes" if frobenius else "no")
    return sym


@dataclass(frozen=True)
class FunctionTable:
    spec: FieldSpec
    values: np.ndarray
    origin: dict = dataclass_field(default_factory=lambda: {"kind": "raw"})

    def __post_init__(self):
        vals = np.asarray(self.values)   # a float or bool dtype would be truncated
        if not np.issubdtype(vals.dtype, np.integer):
            raise RankOutOfRange("value ranks must be integers")
        # a copy: a view of the caller's array would change with it
        vals = np.array(vals, dtype=np.int32)
        if vals.shape != (self.spec.q,):
            raise SchemaViolation(
                f"value vector must have exactly q = {self.spec.q} entries, "
                f"got {vals.shape}")
        if vals.size and (vals.min() < 0 or vals.max() >= self.spec.q):
            raise RankOutOfRange("value ranks must lie in [0, q)")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @functools.cached_property
    def symmetry(self) -> Symmetry:
        """F's symmetry record (see Symmetry), found on first use and kept
        with the table, whose values cannot change."""
        return _symmetry(self.spec, self.values)

    def __call__(self, x: int) -> int:
        return int(self.values[x])

    def __getitem__(self, x: int) -> int:
        return int(self.values[x])

    def is_permutation(self) -> bool:
        return len(np.unique(self.values)) == self.spec.q

    def __eq__(self, other):
        return (isinstance(other, FunctionTable)
                and self.spec == other.spec
                and np.array_equal(self.values, other.values))

    def describe(self) -> str:
        o = self.origin
        if o["kind"] == "monomial":
            return f"x^{o['d']}"
        if o["kind"] == "polynomial":
            terms = [f"{c}*x^{e}" for e, c in sorted(o["coeffs"].items(), reverse=True)]
            return " + ".join(terms)
        if o["kind"] == "inverse":
            return "x^(q-2)"
        return "raw table"


def from_monomial(spec: FieldSpec, d: int) -> FunctionTable:
    """Table of x^d with 0^d = 0.

    The exponent is stored reduced mod q-1; a reduced exponent of 0 is kept
    as q-1 (x^(q-1) and x^0 differ at x = 0, and the nonzero part is what
    the reduction preserves).  d = 0 itself is rejected.
    """
    d = _integer(d, "monomial exponent", InvalidExponent)
    if d < 1:
        raise InvalidExponent(f"monomial exponent must be >= 1, got {d}")
    d_red = _reduced_exponent(spec.q, d)
    return FunctionTable(spec, spec.pow_all(d_red), {"kind": "monomial", "d": d_red})


def _reduced_exponent(q: int, e: int) -> int:
    """e >= 1 reduced mod q-1, with 0 kept as q-1; 1 when q = 2."""
    return (e % (q - 1) or q - 1) if q > 2 else 1


def from_polynomial(spec: FieldSpec, coeffs: dict) -> FunctionTable:
    """Table of sum a_e x^e for a coefficient map {exponent: rank}.

    Exponent 0 contributes the constant a_0 everywhere (including x = 0);
    negative coefficients are accepted as prime-subfield constants and
    reduced mod p.
    """
    if not coeffs:
        raise EmptyPolynomial("no coefficients given")
    q = spec.q
    norm = {}
    for e, c in coeffs.items():
        e = _integer(e, "exponent", InvalidExponent)
        if not 0 <= e <= q - 1:
            raise InvalidExponent(f"exponent {e} outside [0, q-1]")
        c = _integer(c, "coefficient rank", RankOutOfRange)
        c = c % spec.p if c < 0 else c
        if not 0 <= c < q:
            raise RankOutOfRange(f"coefficient rank {c} outside [0, q)")
        if c:
            norm[e] = spec.add(norm.get(e, 0), c) if e in norm else c
    acc = np.zeros(q, dtype=np.int32)
    for e, c in sorted(norm.items()):
        term = np.full(q, c, dtype=np.int32) if e == 0 else spec.scale_array(c, spec.pow_all(e))
        acc = spec.add_arrays(acc, term)
    return FunctionTable(spec, acc,
                         {"kind": "polynomial", "coeffs": dict(sorted(norm.items()))})


def _from_descriptor(spec: FieldSpec, desc: dict) -> FunctionTable:
    """The function a reference descriptor names: {"monomial": d} or
    {"terms": [[e, c], ...]}.  Term exponents e >= 1 reduce as in
    from_monomial, negative coefficients are prime-field constants, and
    terms whose exponents meet are added in the field."""
    if "monomial" in desc:
        return from_monomial(spec, desc["monomial"])
    return from_polynomial(spec, _added_terms(spec, (
        (_reduced_exponent(spec.q, e) if e >= 1 else 0, c) for e, c in desc["terms"])))


def _added_terms(spec: FieldSpec, terms) -> dict:
    """{e: the field sum of the c paired with e} over (e, c) pairs, a
    negative c read as the prime-field constant c mod p."""
    coeffs = {}
    for e, c in terms:
        c = c % spec.p if c < 0 else c
        coeffs[e] = spec.add(coeffs[e], c) if e in coeffs else c
    return coeffs


def inverse_table(spec: FieldSpec) -> FunctionTable:
    """The inverse map x -> x^(q-2) with 0 -> 0."""
    return FunctionTable(spec, spec._inv, {"kind": "inverse"})


def raw_table(spec: FieldSpec, values) -> FunctionTable:
    return FunctionTable(spec, values, {"kind": "raw"})


# ---------------------------------------------------------------------------
# JSON persistence
# ---------------------------------------------------------------------------

def table_to_json_dict(table: FunctionTable) -> dict:
    origin = dict(table.origin)
    if origin["kind"] == "polynomial":
        origin["coeffs"] = {str(e): int(c) for e, c in origin["coeffs"].items()}
    return {
        "field": table.spec.to_json_dict(),
        "origin": origin,
        "values": [int(v) for v in table.values],
    }


def table_from_json_dict(blob: dict, spec: FieldSpec | None = None) -> FunctionTable:
    if not isinstance(blob, dict):
        raise SchemaViolation(f"a table is a JSON object, got {type(blob).__name__}")
    for key in ("field", "origin", "values"):
        if key not in blob:
            raise SchemaViolation(f"missing top-level key {key!r}")
    file_spec = FieldSpec.from_json_dict(blob["field"])
    if spec is not None and spec != file_spec:
        raise FieldMismatch(
            f"file field {file_spec!r} does not match expected {spec!r}")
    spec = file_spec
    values = blob["values"]
    if not isinstance(values, list) or len(values) != spec.q:
        raise SchemaViolation(
            f"values must be a list of exactly q = {spec.q} ranks")
    values = [_integer(v, "value rank") for v in values]
    if any(v < 0 or v >= spec.q for v in values):
        raise RankOutOfRange("value rank outside [0, q)")
    origin = blob["origin"]
    if not isinstance(origin, dict) or origin.get("kind") not in (
            "monomial", "polynomial", "inverse", "raw"):
        raise SchemaViolation(f"bad origin descriptor: {origin!r}")
    origin = dict(origin)
    if origin["kind"] == "polynomial":
        coeffs = origin.get("coeffs")
        if not isinstance(coeffs, dict):
            raise SchemaViolation(f"polynomial origin without coeffs: {origin!r}")
        try:
            origin["coeffs"] = {int(e): _integer(c, "coefficient")
                                for e, c in coeffs.items()}
        except ValueError as exc:
            raise SchemaViolation(f"malformed coeffs exponent: {exc}") from exc
    if origin["kind"] == "monomial":
        origin["d"] = _integer(origin.get("d"), "monomial exponent d")
    return FunctionTable(spec, values, origin)


def save_table(table: FunctionTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table_to_json_dict(table), fh)
        fh.write("\n")


def load_table(path, spec: FieldSpec | None = None) -> FunctionTable:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            blob = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaViolation(f"not valid JSON: {exc}") from exc
    return table_from_json_dict(blob, spec)
