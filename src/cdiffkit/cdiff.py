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
_A_CHUNK = 128           # rows per vectorized block of the derivative kernel


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
            "results": [
                {
                    "c_rank": r.c,
                    "uniformity": r.value,
                    "witness_a": r.witness_a,
                    "witness_b": r.witness_b,
                    "solutions": list(r.solutions),
                    "classification": r.classification,
                }
                for r in self.results
            ],
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
    if spec._add is not None:
        shifted = values[spec._add[a_list]]
    else:
        shifted = values[np.stack([spec.add_row(int(a)) for a in a_list])]
    return spec.add_arrays(shifted, ncf[np.newaxis, :])


def _count_blocks(spec: FieldSpec, values, c: int, rows: int):
    """Histograms of the derivative rows a < rows, a block at a time: yields
    (a_list, counts) with counts[i, b] the number of solutions x of
    F(x + a_list[i]) - c*F(x) = b."""
    q = spec.q
    for start in range(0, rows, _A_CHUNK):
        a_list = np.arange(start, min(start + _A_CHUNK, rows))
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
    """The kernel's dispatch point: how many leading shift rows a = 0, 1, ...
    decide every per-c maximum and its witness.

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
    if spec._log is None or q <= 2:
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


def _maximal_rows(row_max):
    """(max over all a, the rows attaining it, max over a != 0, the rows
    a != 0 attaining it), rows ascending."""
    best_all = int(row_max.max())
    best_nz = int(row_max[1:].max())
    return (best_all, np.nonzero(row_max == best_all)[0],
            best_nz, 1 + np.nonzero(row_max[1:] == best_nz)[0])


def _scan_c(spec: FieldSpec, values, c: int, rows: int):
    """The per-c maxima over the shifts a < rows.

    Returns (max over those a, witness, max over those a != 0, witness),
    each witness being the lexicographically smallest (a, b) attaining the
    maximum.  rows = q is the generic all-shifts scan.
    """
    row_max, first_b = _row_maxima(spec, values, c, rows)
    best_all, top_all, best_nz, top_nz = _maximal_rows(row_max)
    a_all, a_nz = int(top_all[0]), int(top_nz[0])
    return (best_all, (a_all, int(first_b[a_all])),
            best_nz, (a_nz, int(first_b[a_nz])))


def _orbit_representatives(spec: FieldSpec, values, cs) -> dict:
    """The dispatch point over c: maps each requested c (cs ascending, and
    so the keys) to (r, k), where c = r^(p^k) and r is the c whose scan
    decides it.

    If F commutes with Frobenius, F(x^p) = F(x)^p for every x, then raising
    F(x + a) - c*F(x) = b to the p-th power gives
    n_F(a, b, c) = n_F(a^p, b^p, c^p): row a of the c-DDT has the maximum
    of row a^p of the c^p-DDT, and both maxima (over all a and over
    a != 0) are constant on each Frobenius orbit of c.  Each requested c is
    then represented by the smallest requested c on its orbit.  The test
    reads the values only, in O(q); it needs the Frobenius table, n > 1 and
    at least two values of c.  Otherwise every c represents itself.
    """
    frob = spec._frob
    if (frob is None or spec.n == 1 or len(cs) < 2
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


def _witness_solutions(spec: FieldSpec, values, c: int, value: int,
                       a: int, b: int):
    """Solution set of the witness (a, b), after recounting row a directly:
    its maximum must be value and b the smallest b attaining it."""
    d = derivative_rows(spec, values, c, [a])[0]
    counts = np.bincount(d, minlength=spec.q)
    if counts.max() != value or int(np.argmax(counts)) != b:
        raise WitnessMismatch(
            f"c = {c}: kernel reports {value} at (a, b) = ({a}, {b}), but row "
            f"{a} has maximum {counts.max()} first attained at b = "
            f"{int(np.argmax(counts))}")
    return tuple(int(x) for x in np.nonzero(d == b)[0])


def _admissible_max(conv: AConvention, c: int, top):
    """(value, rows attaining it) from _maximal_rows under the convention."""
    return top[:2] if conv.admits_zero_shift(c) else top[2:]


def _uniformity_at(state, item):
    """(result for c, the rows attaining c's maxima if keep, else None) for
    item = (c, keep)."""
    spec, values, conv, rows = state
    c, keep = item
    row_max, first_b = _row_maxima(spec, values, c, rows)
    top = _maximal_rows(row_max)
    value, top_rows = _admissible_max(conv, c, top)
    a = int(top_rows[0])
    b = int(first_b[a])
    sols = _witness_solutions(spec, values, c, value, a, b)
    return UniformityResult(c, value, a, b, sols, conv), (top if keep else None)


def _orbit_image(state, c: int, k: int, top) -> UniformityResult:
    """The result for c = r^(p^k) from the rows attaining r's maxima.

    Row a of r has the maximum of row a^(p^k) of c, so c's witness row is
    the smallest image of a row that attains r's maximum; its smallest b
    is found by counting that one row.
    """
    spec, values, conv, _ = state
    value, top_rows = _admissible_max(conv, c, top)
    for _ in range(k):
        top_rows = spec._frob[top_rows]
    a = int(top_rows.min())
    row = derivative_rows(spec, values, c, [a])[0]
    b = int(np.argmax(np.bincount(row, minlength=spec.q)))
    sols = _witness_solutions(spec, values, c, value, a, b)
    return UniformityResult(c, value, a, b, sols, conv)


def _both_conventions_at(state, c: int):
    spec, values, _, rows = state
    return (c,) + _scan_c(spec, values, c, rows)


def _kernel_state(F: FunctionTable, conv):
    return (F.spec, F.values, conv, _shift_rows(F.spec, F.values))


def uniformity(F: FunctionTable, c: int, conv: AConvention) -> UniformityResult:
    """Maximum difference count over the convention's admissible (a, b),
    with the lexicographically smallest witness and its solution set."""
    return _uniformity_at(_kernel_state(F, conv), (c, False))[0]


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

    Only the orbit representatives (see _orbit_representatives) are
    scanned.  Every other c takes its witness row from the rows attaining
    its representative's maximum, mapped through Frobenius: that is the
    lexicographically smallest witness a scan of c would find.  Its
    smallest b and solution set are counted from that one row.  With
    threads > 1 the representatives are distributed over worker processes
    (fork start method); results are merged in c order, so the report is
    identical for every thread count.
    """
    spec = F.spec
    cs = admissible_c(spec, c_filter)
    state = _kernel_state(F, conv)
    rep = _orbit_representatives(spec, F.values, cs)
    shared = {r for r, k in rep.values() if k}
    firsts = [c for c, (r, _) in rep.items() if r == c]
    done = dict(zip(firsts, parallel_map(_uniformity_at, state,
                                         [(c, c in shared) for c in firsts], threads)))
    results = tuple(done[c][0] if r == c else _orbit_image(state, c, k, done[r][1])
                    for c, (r, k) in rep.items())
    c_desc = c_filter if isinstance(c_filter, str) else ",".join(map(str, cs))
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
    the given c-set, where each witness is (c, a, b).  Only the orbit
    representatives (see _orbit_representatives) are scanned: values are
    constant on an orbit, so the first c in ascending order that reaches
    each maximum is the smallest requested member of its orbit.
    """
    cs = admissible_c(F.spec, c_filter)
    rep = _orbit_representatives(F.spec, F.values, cs)
    rows = parallel_map(_both_conventions_at, _kernel_state(F, None),
                        [c for c, (r, _) in rep.items() if r == c], threads)
    best = {"include-zero": (0, None), "nonzero": (0, None)}
    for (c, best_all, wit_all, best_nz, wit_nz) in rows:
        if c != 1 and best_all > best["include-zero"][0]:
            best["include-zero"] = (best_all, (c,) + wit_all)
        if c == 1 and best_nz > best["include-zero"][0]:
            best["include-zero"] = (best_nz, (c,) + wit_nz)
        if best_nz > best["nonzero"][0]:
            best["nonzero"] = (best_nz, (c,) + wit_nz)
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
