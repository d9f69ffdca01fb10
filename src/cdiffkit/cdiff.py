"""c-derivatives, difference distribution tables and c-differential uniformity.

The c-derivative of F at shift a is the map x -> F(x + a) - c*F(x).  Its
difference counts over (a, b) drive everything else here: uniformity,
PcN/APcN classification, and full spectra over sets of c values.

Two admissible ranges for the shift a are supported and must be chosen
explicitly (AConvention): INCLUDE_A_ZERO admits a = 0 whenever c != 1
(the a = 0 row measures how far F is from a permutation), NONZERO_ONLY
never does.  Every report records the convention that produced it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCs, SizeGuardExceeded, WitnessMismatch
from .field import FieldSpec
from .functions import FunctionTable
from .parallel import parallel_map

DDT_DENSE_BOUND = 4096   # materialize the dense q x q count matrix up to this q
BLOCK_ELEMENTS = 2 ** 16   # elements per block of rows: its intermediates stay in cache
_MAX_BLOCK_ROWS = 128      # more rows per block read slower at q <= 512


class AConvention(enum.Enum):
    """Admissible shifts a in the uniformity maximum."""

    INCLUDE_A_ZERO = "include-zero"   # all a when c != 1, nonzero a when c = 1
    NONZERO_ONLY = "nonzero"          # nonzero a for every c

    def admits_zero_shift(self, c: int) -> bool:
        return self is AConvention.INCLUDE_A_ZERO and c != 1


@dataclass(frozen=True)
class UniformityResult:
    c: int
    value: int
    witness_a: int
    witness_b: int
    solutions: tuple
    convention: AConvention

    @property
    def classification(self) -> str:
        return {1: "PcN", 2: "APcN"}.get(self.value, "higher")

    def to_json_dict(self) -> dict:
        return {
            "c_rank": self.c,
            "uniformity": self.value,
            "witness_a": self.witness_a,
            "witness_b": self.witness_b,
            "solutions": list(self.solutions),
            "classification": self.classification,
        }


@dataclass(frozen=True)
class SpectrumReport:
    field: dict
    origin: dict
    convention: str
    c_set: str
    results: tuple  # of UniformityResult
    overall_max: int | None

    def to_json_dict(self) -> dict:
        return {
            "field": self.field,
            "origin": self.origin,
            "a_convention": self.convention,
            "c_set": self.c_set,
            "overall_max": self.overall_max,
            "results": [r.to_json_dict() for r in self.results],
        }

    def to_csv(self) -> str:
        lines = ["c_rank,uniformity,witness_a,witness_b,classification"]
        for r in self.results:
            lines.append(f"{r.c},{r.value},{r.witness_a},{r.witness_b},{r.classification}")
        return "\n".join(lines) + "\n"


def derivative_rows(spec: FieldSpec, values, c: int, a_list) -> np.ndarray:
    """The c-derivative kernel: row i of the result is
    x -> F(x + a_list[i]) - c*F(x) over all ranks x, for F given by values."""
    ncf = spec.neg_array(spec.scale_array(c, values))
    return spec.add_arrays(values[spec.add_rows(a_list)], ncf[np.newaxis, :])


def _count_blocks(spec: FieldSpec, values, c: int, rows: int):
    """Histograms of the derivative rows a < rows, a block at a time: yields
    (a_list, counts) with counts[i, b] the number of solutions x of
    F(x + a_list[i]) - c*F(x) = b.

    A block holds at most _MAX_BLOCK_ROWS rows and at most
    max(q, BLOCK_ELEMENTS) elements, so its int64 intermediates stay in
    cache; the counts do not depend on the block size.
    """
    q = spec.q
    chunk = min(_MAX_BLOCK_ROWS, max(1, BLOCK_ELEMENTS // q))
    for start in range(0, rows, chunk):
        a_list = np.arange(start, min(start + chunk, rows))
        block = derivative_rows(spec, values, c, a_list)
        offsets = (np.arange(len(a_list), dtype=np.int64) * q)[:, None]
        yield a_list, np.bincount((block.astype(np.int64) + offsets).ravel(),
                                  minlength=block.size).reshape(block.shape)


def c_derivative(F: FunctionTable, c: int, a: int) -> FunctionTable:
    """Table of x -> F(x + a) - c*F(x)."""
    return FunctionTable(F.spec, derivative_rows(F.spec, F.values, c, [a])[0],
                         {"kind": "raw"})


def ddt_c(F: FunctionTable, c: int) -> np.ndarray:
    """Dense difference distribution table: entry (a, b) counts solutions x
    of F(x + a) - c*F(x) = b.  Guarded to q <= DDT_DENSE_BOUND."""
    spec = F.spec
    q = spec.q
    if q > DDT_DENSE_BOUND:
        raise SizeGuardExceeded(
            f"dense DDT needs q <= {DDT_DENSE_BOUND}; q = {q}. "
            "Use uniformity()/spectrum(), which stream per-a histograms.")
    out = np.zeros((q, q), dtype=np.int32)
    for a_list, counts in _count_blocks(spec, F.values, c, q):
        out[a_list] = counts
    return out


def _shift_rows(spec: FieldSpec, values) -> int:
    """The shortcut over rows, for _sweep: how many leading shift rows
    a = 0, 1, ... decide every per-c maximum and its witness.

    For F = A*x^d (A != 0, d >= 1) and a != 0, substituting x = a*y gives
    F(x + a) - c*F(x) = a^d (F(y + 1) - c*F(y)), so row a is row 1 with b
    relabelled by b -> b / a^d: every nonzero row has row 1's maximum, and
    the lexicographically smallest witness over a != 0 lies in row 1.  Rows
    0 and 1 then suffice.  The test reads the values only, in O(q) (the
    origin descriptor of a loaded table is not evidence): A = F(1) and
    d = log(F(g)/A) for the primitive element g, a reduced d of 0 being
    q - 1.  Every other function scans all q rows.
    """
    q = spec.q
    if q <= 2:
        return q
    A = int(values[1])
    Fg = int(values[spec.primitive_rank])
    if A == 0 or Fg == 0:
        return q
    d = (int(spec._log[Fg]) - int(spec._log[A])) % (q - 1) or q - 1
    if np.array_equal(values, spec.scale_array(A, spec.pow_all(d))):
        return 2
    return q


def _row_maxima(spec: FieldSpec, values, c: int, rows: int):
    """One pass over the shifts a < rows for a fixed c: the maximum of each
    row's histogram over b, and the smallest b attaining it."""
    maxima, first_b = [], []
    for _, counts in _count_blocks(spec, values, c, rows):
        b = counts.argmax(axis=1)
        maxima.append(counts[np.arange(len(b)), b])
        first_b.append(b)
    return np.concatenate(maxima), np.concatenate(first_b)


def _orbit_representatives(spec: FieldSpec, values, cs) -> dict:
    """The shortcut over c, for _sweep: maps each requested c (cs
    ascending, and so the keys) to (r, k), where c = r^(p^k) and r is the
    c whose scan decides it.

    If F commutes with Frobenius, F(x^p) = F(x)^p for every x, then raising
    F(x + a) - c*F(x) = b to the p-th power gives
    n_F(a, b, c) = n_F(a^p, b^p, c^p): row a of the c-DDT has the maximum
    of row a^p of the c^p-DDT, and both maxima (over all a and over
    a != 0) are constant on each Frobenius orbit of c.  Each requested c is
    then represented by the smallest requested c on its orbit.  The test
    reads the values only, in O(q); it needs n > 1 and at least two values
    of c.  Otherwise every c represents itself.
    """
    frob = spec._frob
    if (spec.n == 1 or len(cs) < 2
            or not np.array_equal(values[frob], frob[values])):
        return {c: (c, 0) for c in cs}
    requested = set(cs)
    rep = {}
    for c in cs:
        if c in rep:
            continue
        x, k = c, 0
        while True:
            if x in requested:
                rep[x] = (c, k)
            x, k = int(frob[x]), k + 1
            if x == c:
                break
    return {c: rep[c] for c in cs}


def _solutions(spec: FieldSpec, values, c: int, a: int, b: int):
    d = derivative_rows(spec, values, c, [a])[0]
    return tuple(int(x) for x in np.nonzero(d == b)[0])


def _scan(state, c: int):
    """The scan record of one c over the shifts a < rows: for a >= 0 and
    for a >= 1, (the maximum, rows attaining it ascending, the smallest b
    attaining it in the first row attaining it).

    _result reads only min(frob^k(rows)) for k < n, so when more than n
    rows attain the maximum the record keeps just the row giving each of
    those n minima: a record holds at most n rows."""
    spec, values, rows = state
    row_max, first_b = _row_maxima(spec, values, c, rows)
    record = []
    for lo in (0, 1):
        best = int(row_max[lo:].max())
        top = lo + np.nonzero(row_max[lo:] == best)[0]
        b = int(first_b[top[0]])
        if len(top) > spec.n:
            keep, image = np.zeros(len(top), dtype=bool), top
            for _ in range(spec.n):
                keep[image.argmin()] = True
                image = spec._frob[image]
            top = top[keep]
        record.append((best, top, b))
    return tuple(record)


def _sweep(F: FunctionTable, c_filter, threads: int):
    """The one dispatch point of every uniformity query.

    Resolves the c-set, picks the c values to scan (_orbit_representatives)
    and the rows a < rows that decide each scan (_shift_rows), and scans
    each representative once, in one parallel map.  Returns the map
    {c: (r, k)} over the c-set ascending, and {r: scan record} (see _scan).
    """
    spec, values = F.spec, F.values
    rep = _orbit_representatives(spec, values, admissible_c(spec, c_filter))
    scanned = [c for c, (r, _) in rep.items() if r == c]
    records = parallel_map(_scan, (spec, values, _shift_rows(spec, values)),
                           scanned, threads)
    return rep, dict(zip(scanned, records))


def _result(spec: FieldSpec, values, conv: AConvention, c: int, k: int,
            record) -> UniformityResult:
    """The result for c = r^(p^k) from the scan record of r; k = 0 means c
    was scanned itself.

    Row a of r has the maximum of row a^(p^k) of c, so c's witness row is
    the smallest image of a row attaining r's maximum: the row a scan of c
    would find first.  That row is recounted.  Its maximum must be the
    scanned value and, when k = 0, its smallest b the kernel's; otherwise
    WitnessMismatch is raised.
    """
    value, rows, b = record[0 if conv.admits_zero_shift(c) else 1]
    for _ in range(k):
        rows = spec._frob[rows]
    a = int(rows.min())
    d = derivative_rows(spec, values, c, [a])[0]
    counts = np.bincount(d, minlength=spec.q)
    top = int(counts.argmax())
    if counts[top] != value or (k == 0 and top != b):
        first = f", first at b = {b}" if k == 0 else ""
        raise WitnessMismatch(
            f"c = {c}: the scan gives maximum {value} in row {a}{first}; a "
            f"recount gives {counts[top]}, first at b = {top}")
    return UniformityResult(c, value, a, top,
                            tuple(int(x) for x in np.nonzero(d == top)[0]), conv)


def uniformity(F: FunctionTable, c: int, conv: AConvention) -> UniformityResult:
    """Maximum difference count over the convention's admissible (a, b),
    with the lexicographically smallest witness and its solution set: the
    one result of a one-c spectrum."""
    return spectrum(F, [c], conv).results[0]


def admissible_c(spec: FieldSpec, c_filter) -> list:
    """Resolve a c-set descriptor: 'all', 'nonzero', 'exclude_0_1' or an
    explicit iterable of ranks."""
    if isinstance(c_filter, str):
        if c_filter == "all":
            return list(range(spec.q))
        if c_filter == "nonzero":
            return list(range(1, spec.q))
        if c_filter in ("exclude_0_1", "no01"):
            return [c for c in range(spec.q) if c not in (0, 1)]
        raise ValueError(f"unknown c filter {c_filter!r}")
    cs = sorted({int(c) for c in c_filter})
    for c in cs:
        if not 0 <= c < spec.q:
            raise ValueError(f"c rank {c} outside [0, q)")
    return cs


def spectrum(F: FunctionTable, c_filter, conv: AConvention,
             threads: int = 1) -> SpectrumReport:
    """Per-c uniformity over a set of c values, plus the overall maximum.

    One sweep (see _sweep) scans the orbit representatives only, over the
    rows that decide them.  Every c's witness row comes from its
    representative's scan record (see _result) and is recounted, so a
    wrong value raises WitnessMismatch.  With threads > 1 the
    representatives are distributed over worker processes (fork start
    method); results are merged in c order, so the report is identical for
    every thread count.
    """
    spec = F.spec
    rep, records = _sweep(F, c_filter, threads)
    results = tuple(_result(spec, F.values, conv, c, k, records[r])
                    for c, (r, k) in rep.items())
    c_desc = c_filter if isinstance(c_filter, str) else ",".join(map(str, rep))
    return SpectrumReport(
        field=spec.to_json_dict(),
        origin=dict(F.origin),
        convention=conv.value,
        c_set=c_desc,
        results=results,
        overall_max=max((r.value for r in results), default=None),
    )


def dual_convention_max(F: FunctionTable, c_filter, threads: int = 1):
    """Overall maxima under both conventions in a single sweep.

    Returns {"include-zero": (max, witness), "nonzero": (max, witness)} over
    the given c-set, where each witness is (c, a, b) and (0, None) stands
    for an empty c-set.  The sweep (see _sweep) scans the orbit
    representatives only; values are constant on an orbit, so the first c
    in ascending order that reaches each maximum is the smallest requested
    member of its orbit.  Its witness is recounted as in spectrum, so a
    wrong value raises WitnessMismatch.
    """
    _, records = _sweep(F, c_filter, threads)
    best = {}
    for conv in AConvention:
        if not records:
            best[conv.value] = (0, None)
            continue
        r = max(records, key=lambda r: records[r][0 if conv.admits_zero_shift(r) else 1][0])
        res = _result(F.spec, F.values, conv, r, 0, records[r])
        best[conv.value] = (res.value, (r, res.witness_a, res.witness_b))
    return best


def cross_solution_check(F: FunctionTable, a: int, b1: int, b2: int,
                         c1: int, c2: int) -> list:
    """For every x0 solving F(x0+a) - c1*F(x0) = b1, compare
    'x0 also solves the (c2, b2) equation' against
    'F(x0) = (b1 - b2)/(c2 - c1)'; the two must agree.

    Returns [(x0, predicted, actual), ...].
    """
    if c1 == c2 or c1 == 0 or c2 == 0:
        raise DegenerateCs("need two distinct nonzero c values")
    spec = F.spec
    sols = _solutions(spec, F.values, c1, a, b1)
    ratio = spec.mul(spec.sub(b1, b2), spec.inv(spec.sub(c2, c1)))
    out = []
    for x0 in sols:
        actual = spec.sub(F[spec.add(x0, a)], spec.mul(c2, F[x0])) == b2
        predicted = F[x0] == ratio
        out.append((x0, predicted, actual))
    return out
