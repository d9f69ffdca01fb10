"""c-derivatives, difference distribution tables and c-differential uniformity.

The c-derivative of F at shift a is the map x -> F(x + a) - c*F(x).  Its
difference counts over (a, b) drive everything else here: uniformity,
PcN/APcN classification, and full spectra over sets of c values.

Two admissible ranges for the shift a are supported and must be chosen
explicitly (AConvention): INCLUDE_A_ZERO admits a = 0 whenever c != 1
(the a = 0 row measures how far F is from a permutation), NONZERO_ONLY
never does.  Every report records the convention that produced it.

Every uniformity query goes through one sweep (_sweep), which applies two
proved identities: rows a and λa share their maximum for λ in the
multiplicative stabilizer Λ of F, and c shares its maxima with 1/c (and
with c^p when F commutes with Frobenius).  So the sweep scans row 0 and one
row per coset aΛ, for one c per orbit (_c_orbits), and reads every other
c's witness from its representative's entry in one WitnessTable.  It scans
the representatives in groups, one kernel pass over each group's c-major
(c, a) rows (_scan), and the kernel takes one c per row.  Λ and the
Frobenius test are held in one record per table (FunctionTable.symmetry),
which every query reads.
Every witness row is then recounted in numpy by one function (_results), a
block of (c, a) rows at a time, so a wrong scan raises WitnessMismatch.
"""

from __future__ import annotations

import ctypes
import enum
import functools
import itertools
import logging
import os
import subprocess
import sysconfig
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DegenerateCs, SizeGuardExceeded, WitnessMismatch
from .field import FieldSpec, _integer
from .functions import FunctionTable
from .parallel import parallel_map

DDT_DENSE_BOUND = 4096   # materialize the dense q x q count matrix up to this q
BLOCK_ELEMENTS = 2 ** 16   # elements per block of rows: its intermediates stay in cache
_MAX_BLOCK_ROWS = 128      # more rows per block read slower at q <= 512
# a recount row carries int64 ranks and counts beside its int32 rows; 128
# rows a block lift the peak RSS of a q = 512 spectrum by about 1.6 MB
_MAX_RECOUNT_ROWS = 32

# the compiled row scan (see _kernel)
_KERNEL_SOURCE = Path(__file__).with_name("_scan.c")
_KERNEL_DIR = Path(__file__).with_name("__pycache__")
_COMPILE = ("cc", "-O3", "-shared", "-fPIC")
_COMPILE_TIMEOUT_S = 120

_logger = logging.getLogger("cdiffkit")


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


def derivative_rows(spec: FieldSpec, values, c, a_list) -> np.ndarray:
    """The c-derivative in numpy: row i of the result is
    x -> F(x + a_list[i]) - c_i*F(x) over all ranks x, for F given by
    values, where c_i is c for a rank c and c[i] for an array of one rank
    per row."""
    if np.ndim(c):
        c = np.asarray(c)
        _check_ranks("c", c, spec.q)
        ncf = spec.mul_arrays(values, spec.neg_array(c)[:, np.newaxis])   # (-c) F(x)
    else:
        ncf = spec.neg_array(spec.scale_array(c, values))
    return spec.add_arrays(np.take(values, spec.add_rows(a_list)), ncf)


def _block_rows(q: int, max_rows: int) -> int:
    """Rows per block of q-entry rows: at most max_rows, and at most
    BLOCK_ELEMENTS elements unless one row is longer."""
    return min(max_rows, max(1, BLOCK_ELEMENTS // q))


def _count_blocks(spec: FieldSpec, values, c, rows):
    """Histograms of the derivative rows a in rows (an array of shifts), a
    block at a time: yields (a_list, counts) with counts[i, b] the number of
    solutions x of F(x + a_list[i]) - c_i*F(x) = b, where c_i is c for a
    rank c and c[i] for an array of one rank per row (as derivative_rows).

    The one place that picks a kernel: the compiled one when _kernel
    loaded it, else this numpy body, the fallback and the tests' reference.
    The C loop indexes without checks, so values (q ranks), rows and a
    per-row c (ranks) are checked first, on either path.  The compiled
    kernel reads each row's -cF from a stack built once per call, one table
    per run of equal c in rows' order, so a caller passing c-major (c, a)
    rows holds one table per c; a rank c builds one table and no per-row
    array.  For odd p with n > 1, F and each -cF table are one packed word
    per rank, formed with one np.take from _split_tables, which also holds
    the HI and LO tables at the words' width (see _scan.c).  A block is a
    new array of at most _MAX_BLOCK_ROWS rows and max(q, BLOCK_ELEMENTS)
    elements, so its intermediates stay in cache; the counts do not depend
    on its size.
    """
    q = spec.q
    values, rows = np.asarray(values), np.asarray(rows)
    if values.shape != (q,):
        raise ValueError(f"values must hold q = {q} ranks, not shape {values.shape}")
    _check_ranks("values", values, q)
    _check_ranks("rows", rows, q)
    per_row = not isinstance(c, (int, np.integer))
    if per_row:
        c = np.asarray(c)
        _check_ranks("c", c, q)
        if c.shape != rows.shape:
            raise ValueError(f"c must hold one rank per row, not shape {c.shape}")
    chunk = _block_rows(q, _MAX_BLOCK_ROWS)
    starts = range(0, len(rows), chunk)
    kernel = _kernel()
    if kernel is None:
        for start in starts:
            a_list = rows[start:start + chunk]
            block = derivative_rows(spec, values, c[start:start + chunk] if per_row else c,
                                    a_list)
            offsets = (np.arange(len(a_list), dtype=np.int64) * q)[:, None]
            yield a_list, np.bincount((block.astype(np.int64) + offsets).ravel(),
                                      minlength=block.size).reshape(block.shape)
        return
    if per_row:
        first = np.ones(len(c), dtype=bool)
        first[1:] = c[1:] != c[:-1]           # the rows that start a run of one c
        slot = np.cumsum(first, dtype=np.int32)
        slot -= 1                             # each row's table in the stack
        ncf = spec.mul_arrays(values, spec.neg_array(c[first])[:, np.newaxis])
    else:
        slot, ncf = None, spec.scale_array(spec.neg(c), values)
    if spec._split:
        # one packed word per rank on either side (see _scan.c)
        split = _split_tables(spec)
        fv, fw = np.take(split.pack_v, values), np.take(split.pack_w, ncf)
        layout = (spec._split, split.shift, *split.addresses)
    else:
        fv, fw = (np.ascontiguousarray(t, dtype=np.int32) for t in (values, ncf))
        layout = (0, 0, None, None)   # the p = 2 and n = 1 loops read no table
    shifts = np.ascontiguousarray(rows, dtype=np.int64)
    # addresses taken once per call: ndpointer conversions per block cost
    # more than a small block
    fixed = (q, spec.p, *layout, fv.ctypes.data, fw.ctypes.data)
    at_rows = shifts.ctypes.data
    at_slot = None if slot is None else slot.ctypes.data
    for start in starts:
        a_list = rows[start:start + chunk]
        counts = np.empty((len(a_list), q), dtype=np.int32)
        kernel(*fixed, None if slot is None else at_slot + start * slot.itemsize,
               at_rows + start * shifts.itemsize, len(a_list), counts.ctypes.data)
        yield a_list, counts


class _SplitTables(NamedTuple):
    """What the compiled kernel reads of an odd-p, n > 1 field (see
    _scan.c): the shift S of the packed words' high half, the HI and LO
    digit-sum tables at S's width, and the packing of a rank on each side
    of the addition."""

    shift: int
    hi: np.ndarray
    lo: np.ndarray
    pack_v: np.ndarray   # F's side: h*m + l -> (h * (q/m)) << S | l*m
    pack_w: np.ndarray   # -cF's side: h*m + l -> h << S | l
    addresses: tuple     # of hi and lo, taken once


@functools.lru_cache(maxsize=32)   # as many fields as build_field keeps
def _split_tables(spec: FieldSpec) -> _SplitTables:
    """The kernel's tables of an odd-p, n > 1 field, read-only and built on
    the compiled path's first use of the field, never by build_field.  The
    width follows from m alone: 16 bits when m^2 <= 2^16, which bounds
    every offset and, since q <= m^2, every HI entry; 32 bits (the field's
    own int32 tables) else."""
    q, m = spec.q, spec._split
    shift = 16 if m * m <= 1 << 16 else 32
    word, entry = (np.uint32, np.uint16) if shift == 16 else (np.uint64, np.int32)
    h, l = np.divmod(np.arange(q, dtype=word), word(m))
    pack_w = h << shift | l
    h *= q // m
    l *= m
    pack_v = h << shift | l
    hi, lo = (np.asarray(t, dtype=entry) for t in (spec._hi, spec._lo))
    for t in (hi, lo, pack_v, pack_w):
        t.setflags(write=False)
    return _SplitTables(shift, hi, lo, pack_v, pack_w, (hi.ctypes.data, lo.ctypes.data))


def c_derivative(F: FunctionTable, c: int, a: int) -> FunctionTable:
    """Table of x -> F(x + a) - c*F(x)."""
    F.spec._check(a)
    return FunctionTable(F.spec, derivative_rows(F.spec, F.values, c, [a])[0],
                         {"kind": "raw"})


def ddt_c(F: FunctionTable, c: int) -> np.ndarray:
    """Dense difference distribution table: entry (a, b) counts solutions x
    of F(x + a) - c*F(x) = b.  Guarded to q <= DDT_DENSE_BOUND.  Logs one
    DEBUG record on the "cdiffkit" logger with the rows scanned and the
    kernel path (see _kernel_name)."""
    spec = F.spec
    q = spec.q
    if q > DDT_DENSE_BOUND:
        raise SizeGuardExceeded(
            f"dense DDT needs q <= {DDT_DENSE_BOUND}; q = {q}. "
            "Use uniformity()/spectrum(), which stream per-a histograms.")
    _logger.debug("ddt over GF(%d^%d): rows scanned %d, kernel %s",
                  spec.p, spec.n, q, _kernel_name(spec))
    out = np.empty((q, q), dtype=np.int32)
    for a_list, counts in _count_blocks(spec, F.values, c, np.arange(q)):
        out[a_list] = counts
    return out


@functools.cache
def _kernel():
    """The compiled histogram kernel (cdiff_row_counts in _scan.c) as a
    ctypes function, or None when it cannot be built or loaded.

    The library is compiled on first use with `cc -O3 -shared -fPIC` into
    the package's __pycache__, named by a CRC-32 of the source, the command
    and the platform, so later processes load it without compiling; a fresh
    build removes the libraries built from other sources.  The
    compiler writes a temporary file that is renamed into place, so a
    concurrent build never loads a partial library.  A missing compiler, a
    failed or timed-out compile and an unwritable directory all give None,
    and _count_blocks runs its numpy body.  Resolved once per process:
    _sweep calls it before forking its workers, which inherit the result.
    """
    try:
        # a checksum tells builds apart; hashlib would load OpenSSL (3.5 MB RSS)
        key = zlib.crc32(b"\0".join([_KERNEL_SOURCE.read_bytes(), " ".join(_COMPILE).encode(),
                                      sysconfig.get_platform().encode()]))
        path = _KERNEL_DIR / f"_scan-{key:08x}.so"
        if not path.exists():
            _KERNEL_DIR.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=_KERNEL_DIR)
            os.close(fd)
            try:
                subprocess.run([*_COMPILE, str(_KERNEL_SOURCE), "-o", tmp],
                               check=True, capture_output=True,
                               timeout=_COMPILE_TIMEOUT_S)
                os.chmod(tmp, 0o755)   # mkstemp made it private to this user
                os.replace(tmp, path)
            finally:
                Path(tmp).unlink(missing_ok=True)
            # libraries built from older sources; a loaded one stays mapped
            for stale in _KERNEL_DIR.glob("_scan-*.so"):
                if stale != path:
                    stale.unlink(missing_ok=True)
        fn = ctypes.CDLL(str(path)).cdiff_row_counts
    except (OSError, subprocess.SubprocessError):
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    fn.argtypes = [i64, i64, i64, i64, ptr, ptr, ptr, ptr, ptr, ptr, i64, ptr]
    fn.restype = None
    return fn


def _kernel_name(spec: FieldSpec) -> str:
    """The kernel path _count_blocks takes over spec, for DEBUG records: C
    (with the width of its tables for odd p, n > 1) or numpy."""
    if _kernel() is None:
        return "numpy"
    return f"C, {_split_tables(spec).shift}-bit tables" if spec._split else "C"


def _check_ranks(name: str, arr: np.ndarray, q: int):
    if arr.ndim != 1 or arr.dtype.kind not in "iu" or (
            arr.size and (arr.min() < 0 or arr.max() >= q)):
        raise ValueError(f"{name} must be a 1-d array of ranks in [0, {q})")


def _row_maxima(spec: FieldSpec, values, c, rows):
    """One pass over the shifts a in rows, with c a rank or one rank per
    row: the maximum of each row's histogram over b, and the smallest b
    attaining it, reduced in numpy from the blocks of _count_blocks
    (whichever kernel made them)."""
    maxima, first_b = np.empty(len(rows), dtype=np.int32), np.empty(len(rows), dtype=np.intp)
    start = 0
    for a_list, counts in _count_blocks(spec, values, c, rows):
        end = start + len(a_list)
        b = counts.argmax(axis=1, out=first_b[start:end])
        maxima[start:end] = counts[np.arange(len(b)), b]
        start = end
    return maxima, first_b


def _c_orbits(F: FunctionTable, cs):
    """The c values that decide every maximum over the requested cs
    (ascending): c -> (r, k, neg) with c = (r^(p^k))^(-1 if neg else 1),
    where r is the smallest requested c on c's orbit under c -> 1/c, and
    under Frobenius c -> c^p when F commutes with it (F.symmetry.frobenius).
    Putting y = x + a in F(x + a) - c*F(x) = b gives n_F(a, b, c) =
    n_F(-a, -b/c, 1/c) for every F and c != 0, and raising the equation
    to the p-th power gives n_F(a, b, c) = n_F(a^p, b^p, c^p) when F
    commutes with Frobenius: row a of r has the maximum of row ±a^(p^k)
    of c, and a = 0 maps to a = 0.  c = 0 represents itself."""
    spec = F.spec
    frob, inv = spec._frob, spec._inv
    # frob[0] = inv[0] = 0, so c = 0 represents itself
    requested, rep = set(cs), {}
    for c in cs:
        if c in rep:
            continue
        y = c
        for k in range(spec.n if F.symmetry.frobenius else 1):
            for neg, image in ((False, y), (True, int(inv[y]))):
                if image in requested and image not in rep:
                    rep[image] = (c, k, neg)
            y = int(frob[y])
    return {c: rep[c] for c in cs}


def _solutions(spec: FieldSpec, values, c: int, a: int, b: int):
    d = derivative_rows(spec, values, c, [a])[0]
    return tuple(int(x) for x in np.nonzero(d == b)[0])


class WitnessTable(NamedTuple):
    """What a sweep keeps of each scanned c.  coset_min(0) = 0 lies below
    every other image, so with a = 0 admitted c's witness is row 0 when
    row0 >= best (with b0 when c was scanned), else the a >= 1 one."""

    c: np.ndarray      # the scanned c values
    best: np.ndarray   # the maximum over the rows a >= 1
    row0: np.ndarray   # row 0's maximum
    b0: np.ndarray     # the kernel's first b in row 0
    b1: np.ndarray     # the kernel's first b in the first row a >= 1 attaining best
    wit: np.ndarray    # wit[i, k, neg]: min coset_min(±frob^k(a)) over those rows


def _scan(F: FunctionTable, cs):
    """The witness table of the c values cs, in their order, from one
    _row_maxima pass over the c-major (c, a) pairs of cs and the stabilizer
    rows (see Symmetry); one c passes a rank, so it builds no per-row c.
    wit is one min over Symmetry.images where a row attains best, for a
    few c values at a time, so its temporary holds at most
    max(BLOCK_ELEMENTS, one c's images) entries."""
    spec, sym = F.spec, F.symmetry
    rows, images = sym.rows, sym.images[..., 1:]
    k, width = len(cs), len(rows)
    if k == 1:
        c, shifts = int(cs[0]), rows
    else:
        c, shifts = np.repeat(np.asarray(cs, dtype=np.int32), width), np.tile(rows, k)
    row_max, first_b = _row_maxima(spec, F.values, c, shifts)
    row_max, first_b = row_max.reshape(k, width), first_b.reshape(k, width)
    best = row_max[:, 1:].max(axis=1)
    hit = row_max[:, 1:] == best[:, np.newaxis]      # the rows a >= 1 attaining best
    wit = np.empty((k, *images.shape[:2]), dtype=images.dtype)
    step = max(1, BLOCK_ELEMENTS // images.size)     # c values a reduction
    for lo in range(0, k, step):
        np.where(hit[lo:lo + step, np.newaxis, np.newaxis], images, spec.q).min(
            axis=3, out=wit[lo:lo + step])
    # copies: a view of row 0 would keep the group's whole arrays alive
    return WitnessTable(np.asarray(cs), best, row_max[:, 0].copy(), first_b[:, 0].copy(),
                        first_b[np.arange(k), 1 + hit.argmax(axis=1)], wit)


def _sweep(F: FunctionTable, c_filter, threads: int):
    """The one dispatch point of every uniformity query.

    Resolves the c-set, reads the rows that decide each scan from F's
    symmetry record and the c values to scan from _c_orbits, and scans the
    representatives in groups of at most BLOCK_ELEMENTS / q c values, one
    _scan pass each, so a group's stack of -cF tables stays near
    BLOCK_ELEMENTS entries; the groups are the items of one parallel map.
    The record is read before the workers fork, so they inherit it with F.
    Logs one DEBUG record on the "cdiffkit" logger with |Λ|, the rows
    scanned, the c values requested and scanned, the passes and kernel
    blocks that scanned them, and the kernel path (see _kernel_name).
    Returns the map {c: (r, k, neg)} over the c-set ascending,
    and the WitnessTable of the scanned c values, ascending.
    """
    spec, sym = F.spec, F.symmetry
    cs = admissible_c(spec, c_filter)
    rep = _c_orbits(F, cs)
    scanned = [c for c, (r, _, _) in rep.items() if r == c]
    size = max(1, BLOCK_ELEMENTS // spec.q)   # c values a pass
    groups = [scanned[i:i + size] for i in range(0, len(scanned), size)]
    chunk = _block_rows(spec.q, _MAX_BLOCK_ROWS)
    blocks = sum(-(-len(group) * len(sym.rows) // chunk) for group in groups)
    # _kernel_name resolves the kernel and its tables before the workers fork
    _logger.debug("sweep over GF(%d^%d): |stabilizer| %d, rows scanned %d of %d, "
                  "c requested %d, c scanned %d, passes %d, blocks %d, kernel %s",
                  spec.p, spec.n, sym.order, len(sym.rows), spec.q, len(cs),
                  len(scanned), len(groups), blocks, _kernel_name(spec))
    # an empty c-set scans one empty group, for an empty table
    tables = parallel_map(_scan, F, groups or [[]], threads)
    return rep, WitnessTable(*map(np.concatenate, zip(*tables))) if tables[1:] else tables[0]


def _results(F: FunctionTable, queries, table: WitnessTable):
    """The results of queries, in their order, and the number of blocks
    recounted.  A query is (c, (r, k, neg), conv): c =
    (r^(p^k))^(-1 if neg else 1) (see _c_orbits), r is a c of the witness
    table, k = 0 and neg False mean c was scanned itself, and conv picks
    the a >= 0 or a >= 1 witness and the result's convention.

    Row a of r has the maximum of row ±a^(p^k) of c, and a coset aΛ maps
    to a coset, so c's witness row is the table's wit[r, k, neg], or row 0
    (see WitnessTable): the row a scan of c would find first.
    The witness rows are then recounted in numpy, a block of (c, a) rows
    at a time: one derivative_rows call with one c per row, one offset
    bincount, one argmax and one nonzero.  Each recounted maximum must be
    the scanned value and, when c was scanned, its smallest b the
    kernel's; otherwise WitnessMismatch is raised.
    """
    spec = F.spec
    index = dict(zip(table.c.tolist(), itertools.count()))
    best, row0, b0, b1, wit = (col.tolist() for col in table[1:])
    witnesses = []
    for c, (r, k, neg), conv in queries:
        i = index[r]
        zero = conv.admits_zero_shift(r) and row0[i] >= best[i]   # a tie at a = 0 gives row 0
        a, value, first_b = (0, row0[i], b0[i]) if zero else (wit[i][k][neg], best[i], b1[i])
        witnesses.append((c, a, value, first_b, k == 0 and not neg, conv))
    chunk = _block_rows(spec.q, _MAX_RECOUNT_ROWS)
    results, starts = [], range(0, len(witnesses), chunk)
    for start in starts:
        block = witnesses[start:start + chunk]
        cs, a_list = np.array([(c, a) for c, a, _, _, _, _ in block], dtype=np.int64).T
        d = derivative_rows(spec, F.values, cs, a_list)
        offsets = np.arange(0, d.size, spec.q)[:, np.newaxis]   # row i counts from i*q
        counts = np.bincount((d + offsets).ravel(), minlength=d.size).reshape(d.shape)
        top = counts.argmax(axis=1)
        xs = np.nonzero(d == top[:, np.newaxis])[1].tolist()
        lo = 0
        for (c, a, value, first_b, scanned, conv), got, b in zip(
                block, counts.max(axis=1).tolist(), top.tolist()):
            if got != value or (scanned and b != first_b):
                first = f", first at b = {first_b}" if scanned else ""
                raise WitnessMismatch(
                    f"c = {c}: the scan gives maximum {value} in row {a}{first}; a "
                    f"recount gives {got}, first at b = {b}")
            results.append(UniformityResult(c, got, a, b, tuple(xs[lo:lo + got]), conv))
            lo += got
    return tuple(results), len(starts)


def uniformity(F: FunctionTable, c: int, conv: AConvention) -> UniformityResult:
    """Maximum difference count over the convention's admissible (a, b),
    with the lexicographically smallest witness and its solution set: the
    one result of a one-c spectrum."""
    return spectrum(F, [c], conv).results[0]


# the named c-sets admissible_c resolves; no01 is short for exclude_0_1
C_SET_NAMES = ("all", "nonzero", "exclude_0_1", "no01")


def admissible_c(spec: FieldSpec, c_filter) -> list:
    """Resolve a c-set descriptor: a name in C_SET_NAMES or an explicit
    iterable of ranks."""
    if isinstance(c_filter, str):
        if c_filter not in C_SET_NAMES:
            raise ValueError(f"unknown c filter {c_filter!r}")
        skipped = {"all": (), "nonzero": (0,)}.get(c_filter, (0, 1))
        return [c for c in range(spec.q) if c not in skipped]
    cs = sorted({_integer(c, "c rank", ValueError) for c in c_filter})
    for c in cs:
        if not 0 <= c < spec.q:
            raise ValueError(f"c rank {c} outside [0, q)")
    return cs


def spectrum(F: FunctionTable, c_filter, conv: AConvention,
             threads: int = 1) -> SpectrumReport:
    """Per-c uniformity over a set of c values, plus the overall maximum.

    One sweep (see _sweep) scans one c per orbit under c -> 1/c (and
    Frobenius, when F commutes with it), over row 0 and one row per
    stabilizer coset.  Every c's witness row comes from its
    representative's witness table entry, and all of them are recounted in
    blocks (see _results), so a wrong value raises WitnessMismatch.  With
    threads > 1 the representatives are distributed over worker processes
    (fork start method); results are merged in c order, so the report is
    identical for every thread count.  Logs one DEBUG record on the
    "cdiffkit" logger after the sweep's: the rows recounted and the blocks.
    """
    spec = F.spec
    rep, table = _sweep(F, c_filter, threads)
    results, blocks = _results(F, [(c, orbit, conv) for c, orbit in rep.items()], table)
    _log_recount(spec, len(results), blocks)
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
    for an empty c-set.  The sweep (see _sweep) scans one c per orbit under
    c -> 1/c (and Frobenius, when F commutes with it); values are constant
    on an orbit, so the first c in ascending order that reaches each
    maximum is the smallest requested member of its orbit, a scanned c:
    one argmax over the witness table's maxima per convention.
    Both witnesses are recounted by one _results call, as in spectrum, so
    a wrong value raises WitnessMismatch; one DEBUG record names the rows
    recounted (one per convention) and the blocks.
    """
    rep, table = _sweep(F, c_filter, threads)
    queries = []
    for conv in AConvention if rep else ():
        admitted = [conv.admits_zero_shift(c) for c in table.c.tolist()]
        r = int(table.c[np.maximum(table.best, table.row0 * admitted).argmax()])
        queries.append((r, (r, 0, False), conv))
    results, blocks = _results(F, queries, table)
    _log_recount(F.spec, len(results), blocks)
    best = {conv.value: (0, None) for conv in AConvention}
    for res in results:
        best[res.convention.value] = (res.value, (res.c, res.witness_a, res.witness_b))
    return best


def _log_recount(spec: FieldSpec, rows: int, blocks: int):
    # the recount never calls the compiled kernel (see _results)
    _logger.debug("recount over GF(%d^%d): rows recounted %d in %d blocks, kernel numpy",
                  spec.p, spec.n, rows, blocks)


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
    spec._check(a)
    sols = _solutions(spec, F.values, c1, a, b1)
    ratio = spec.mul(spec.sub(b1, b2), spec.inv(spec.sub(c2, c1)))
    out = []
    for x0 in sols:
        actual = spec.sub(F[spec.add(x0, a)], spec.mul(c2, F[x0])) == b2
        predicted = F[x0] == ratio
        out.append((x0, predicted, actual))
    return out
