"""Mutation check: each catalogue entry breaks the package in one known way,
and the tests it names must then fail.

    python tests/mutants.py            # every entry
    python tests/mutants.py NAME ...   # the named entries

Each entry gives a file, an exact old string (which must occur exactly
once), its replacement and the pytest node ids that must kill the mutant.
The script first runs those tests on an unmutated copy of src/ and tests/,
where they must pass; then, for each entry, it applies the replacement to a
fresh temporary copy and runs the entry's tests, where pytest must report a
failure (exit status 1).  It exits 1 if any mutant survives, or if an old
string no longer matches, so the catalogue cannot go stale silently.

This file is not collected by pytest (its name does not start with test_)
and is not part of the tier-1 suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CDIFF = "src/cdiffkit/cdiff.py"
FIELD = "src/cdiffkit/field.py"
FUNCTIONS = "src/cdiffkit/functions.py"
SCAN = "src/cdiffkit/_scan.c"
WALSH = "src/cdiffkit/walsh.py"
TC = "tests/test_cdiff.py::"
TF = "tests/test_field.py::"
TFN = "tests/test_functions.py::"
TW = "tests/test_walsh.py::"
TCLI = "tests/test_cli.py::"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str       # relative to the repository root
    old: str
    new: str
    tests: tuple    # pytest node ids that must fail


MUTANTS = [
    Mutant("rows: λ^-1 s for λ s in the row gather", WALSH,
           "spec.mul_gen_power(rows, lam[vs, None])",
           "spec.mul_gen_power(rows, shift[vs, None])",
           (TW + "test_hat_g_coset_rows",)),
    Mutant("rows: coset rows not weighted by |Λ|", WALSH,
           "freq[:len(rest)] += order * rest", "freq[:len(rest)] += rest",
           (TW + "test_column_reduction_matches_generic",
            TW + "test_count_side_matches_every_row")),
    Mutant("count side: coset rows weighted 1", WALSH,
           "_all_rows(freq[:q + 1], freq[q + 1:], sym.order)",
           "_all_rows(freq[:q + 1], freq[q + 1:], 1)",
           (TW + "test_count_side_matches_every_row",)),
    Mutant("count side: row 0 weighted |Λ|", WALSH,
           "(mult + (a_list != 0)[:, None] * (q + 1))",
           "(mult + (a_list >= 0)[:, None] * (q + 1))",
           (TW + "test_count_side_matches_every_row",)),
    Mutant("rows: gathered at s, not at the label t(s)", WALSH,
           "np.take(flat, spec.trace_labels[s] * len(cols)",
           "np.take(flat, s * len(cols)",
           (TW + "test_hat_g_coset_rows", TW + "test_transformed_g_is_q2_times_ddt")),
    Mutant("columns: λ u for λ^-1 u in _take", WALSH,
           "spec.mul_gen_power(x[u:u + rows], shift)",
           "spec.mul_gen_power(x[u:u + rows], -shift % (q - 1))",
           (TW + "test_column_reduction_matches_generic",)),
    Mutant("guard: the statistics counted at q^2 p", WALSH,
           "_walsh_columns(F, size_guard, _width(F.symmetry))",
           "_walsh_columns(F, size_guard, F.spec.q)",
           (TW + "test_apcn_size_guard", TW + "test_convolution_walsh_guard")),
    Mutant("walsh-check: the Walsh side read from the count histogram", WALSH,
           "walsh = _walsh_histogram(F, c)",
           "walsh = _count_histogram(F, c)",
           (TCLI + "test_walsh_check_sides_are_independent",)),
    Mutant("apcn: rhs with 2 q^2 pcn for 3 q^2 pcn", WALSH,
           "3 * q ** 2 * _pcn(q, freq)", "2 * q ** 2 * _pcn(q, freq)",
           (TW + "test_walsh_check_matches_each_statistic",)),
    Mutant("phi: the product (m - r) from r = 0", WALSH,
           "m - r for r in range(1, delta + 1)", "m - r for r in range(delta)",
           (TW + "test_walsh_check_matches_each_statistic",
            TW + "test_derivative_statistic_matches_multiplicity_oracle")),
    Mutant("ranks: a float truncated by int()", FIELD,
           "x = _integer(x, \"rank\", ValueError)", "x = int(x)",
           (TF + "test_scalar_operations_reject_non_integer_ranks",)),
    Mutant("exponents: 0 not kept as q - 1", FUNCTIONS,
           "(e % (q - 1) or q - 1) if q > 2 else 1",
           "(e % (q - 1)) if q > 2 else 1",
           (TFN + "test_exponent_reduction",)),
    Mutant("symmetry: every table taken to commute with Frobenius", FUNCTIONS,
           "spec.n > 1 and np.array_equal(values[spec._frob], spec._frob[values])",
           "True",
           (TC + "test_orbit_dispatch_scans_one_c_per_orbit",
            TFN + "test_symmetry_record_is_found_once")),
    Mutant("table: the values a view of the caller's array", FUNCTIONS,
           "vals = np.array(vals, dtype=np.int32)",
           "vals = np.asarray(vals, dtype=np.int32)",
           (TFN + "test_table_owns_its_values",)),
    Mutant("symmetry: the record rebuilt on every access", FUNCTIONS,
           "    @functools.cached_property\n    def symmetry(",
           "    @property\n    def symmetry(",
           (TW + "test_one_stabilizer_search_per_table",
            TFN + "test_symmetry_record_is_found_once")),
    Mutant("columns: the column map rebuilt on every access", FUNCTIONS,
           "    @functools.cached_property\n    def columns(",
           "    @property\n    def columns(",
           (TW + "test_one_column_map_per_table",)),
    Mutant("labels: place value p^(i+1) for p^i", FIELD,
           "* p ** i for i in range(self.n))", "* p ** (i + 1) for i in range(self.n))",
           (TW + "test_transformed_g_is_q2_times_ddt",
            TW + "test_transform_matches_character_sums")),
    Mutant("transform: the last coefficient not subtracted first", WALSH,
           "    arr -= arr[..., -1:]\n", "",
           (TW + "test_walsh_check_past_the_raw_dft_bound",)),
    Mutant("table: a float array accepted", FUNCTIONS,
           "        if not np.issubdtype(vals.dtype, np.integer):\n"
           "            raise RankOutOfRange(\"value ranks must be integers\")\n", "",
           (TFN + "test_raw_table_rejects_float_and_bool_values",)),
    Mutant("transform: twiddle zeta^-kd for zeta^kd", WALSH,
           "s = k * d % p", "s = -k * d % p",
           (TW + "test_transform_matches_character_sums",)),
    Mutant("counts: coefficients 1..p-1 not compared", WALSH,
           "if ((arr[..., 1:] != arr[..., -1:]).any() or (value < 0).any()",
           "if ((value < 0).any()",
           (TW + "test_count_frequencies_rejects_non_counts",)),
    Mutant("cosets: a = 0 left in the coset of 1", FIELD,
           "coset_min = np.zeros(q, dtype=np.int32)",
           "coset_min = np.ones(q, dtype=np.int32)",
           (TC + "test_orbit_dispatch_needs_frobenius_and_two_cs",)),
    Mutant("g^e x: zeros not restored", FIELD,
           "        np.copyto(out, 0, where=np.asarray(xs) == 0)\n", "",
           (TF + "test_mul_gen_power_matches_oracle",)),
    Mutant("log: the discrete log of 0 accepted", FIELD,
           "        if self._check(x) == 0:\n"
           "            raise DivisionByZero(\"the logarithm of 0\")\n",
           "        self._check(x)\n",
           (TF + "test_discrete_log_round_trip",)),
    Mutant("kernel: a row's histogram not cleared first", SCAN,
           "        memset(hist, 0, (size_t)q * sizeof *hist);\n", "",
           (TC + "test_compiled_count_blocks_match_numpy",)),
    Mutant("kernel: every row written at offset 0", SCAN,
           "int32_t *hist = counts + i * q;", "int32_t *hist = counts;",
           (TC + "test_compiled_count_blocks_match_numpy",)),
    Mutant("recount: the per-row bincount offset dropped", CDIFF,
           "np.bincount((d + offsets).ravel(),", "np.bincount(d.ravel(),",
           (TC + "test_blocked_recount_matches_one_c_at_a_time",)),
    Mutant("recount: every row of a block with the block's first c", CDIFF,
           "derivative_rows(spec, F.values, cs, a_list)",
           "derivative_rows(spec, F.values, cs[:1], a_list)",
           (TC + "test_blocked_recount_matches_one_c_at_a_time",)),
    Mutant("recount: the scanned b not compared", CDIFF,
           "if got != value or (scanned and b != first_b):", "if got != value:",
           (TC + "test_witness_check_rejects_inflated_value",)),
    Mutant("maxima: the last b attaining the maximum, not the first", CDIFF,
           "b = counts.argmax(axis=1, out=first_b[start:end])",
           "first_b[start:end] = b = counts.shape[1] - 1 - counts[:, ::-1].argmax(axis=1)",
           (TC + "test_compiled_row_maxima_matches_numpy",)),
    Mutant("kernel: every row of a block reads the first row's c", SCAN,
           "slot ? slot[i] : 0", "slot ? slot[0] : 0",
           (TC + "test_compiled_count_blocks_match_numpy",
            TC + "test_batched_scan_matches_one_c_at_a_time")),
    Mutant("kernel: 16-bit tables up to m^2 = 2^17, so for GF(17^3)", CDIFF,
           "shift = 16 if m * m <= 1 << 16 else 32",
           "shift = 16 if m * m <= 1 << 17 else 32",
           (TC + "test_compiled_kernel_matches_numpy_at_both_widths",
            TC + "test_packed_words_hold_both_offsets")),
    Mutant("kernel: the low half masked with 0x7fff", SCAN,
           "const PACK mask = ((PACK)1 << (S)) - 1;", "const PACK mask = 0x7fff;",
           (TC + "test_compiled_kernel_matches_numpy_at_both_widths",)),
    Mutant("kernel: F's high half packed at bit S - 1", CDIFF,
           "pack_v = h << shift | l", "pack_v = h << shift - 1 | l",
           (TC + "test_packed_words_hold_both_offsets",)),
    Mutant("sweep: the c-group offset one further on each pass", CDIFF,
           "for i in range(0, len(scanned), size)]",
           "for i in range(0, len(scanned), size + 1)]",
           (TC + "test_all_c_sweep_over_several_passes",)),
    Mutant("results: a tie at a = 0 not given to row 0", CDIFF,
           "row0[i] >= best[i]", "row0[i] > best[i]",
           (TC + "test_batched_scan_matches_one_c_at_a_time",)),
    Mutant("results: the witness of 1/c read at +a", CDIFF,
           "wit[i][k][neg]", "wit[i][k][0]",
           (TC + "test_batched_scan_matches_one_c_at_a_time",)),
    Mutant("images: -a read as a", FUNCTIONS,
           "a = np.array([self.rows, spec._neg[self.rows]])",
           "a = np.array([self.rows, self.rows])",
           (TC + "test_batched_scan_matches_one_c_at_a_time",)),
    Mutant("images: no Frobenius step", FUNCTIONS,
           "            a = spec._frob[a]\n", "",
           (TC + "test_batched_scan_matches_one_c_at_a_time",)),
    Mutant("count blocks: a per-row c not checked as ranks", CDIFF,
           "        _check_ranks(\"c\", c, q)\n        if c.shape != rows.shape:",
           "        if c.shape != rows.shape:",
           (TC + "test_per_row_c_is_checked_before_the_call",)),
]


def _copy(dest: Path):
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("*.pyc", ".hypothesis"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(tree: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-p", "no:warnings", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if names and len(chosen) != len(set(names)):
        print(f"unknown mutant among {names}", file=sys.stderr)
        return 2
    failures = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        tests = sorted({t for m in chosen for t in m.tests})
        if _pytest(clean, tests) != 0:
            print("the catalogue's tests fail on the unmutated copy", file=sys.stderr)
            return 1
        for i, m in enumerate(chosen):
            text = (ROOT / m.path).read_text()
            if text.count(m.old) != 1:
                print(f"STALE     {m.name}: old string occurs {text.count(m.old)} "
                      f"times in {m.path}")
                failures += 1
                continue
            tree = Path(tmp) / f"m{i}"
            _copy(tree)
            (tree / m.path).write_text(text.replace(m.old, m.new))
            code = _pytest(tree, m.tests)
            verdict = {1: "killed"}.get(code, "SURVIVED" if code == 0 else f"ERROR {code}")
            print(f"{verdict:9} {m.name}")
            failures += verdict != "killed"
            shutil.rmtree(tree)
    print(f"{len(chosen) - failures} of {len(chosen)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
