import pytest

from cdiffkit import build_field, verify
from cdiffkit.errors import UnknownClaim
from cdiffkit.theorems import grid, summarize, sweep


def statuses(verdicts):
    return summarize(verdicts)


def test_unknown_claim():
    with pytest.raises(UnknownClaim):
        verify("T10", {})


def test_t0_square_families():
    v = verify("T0", {"p": 5, "n": 2, "family": "square"})[0]
    assert v.status == "Confirmed" and v.observed == 1


def test_t0_gold_iff():
    ok = verify("T0", {"p": 3, "n": 3, "family": "gold", "k": 1})[0]
    assert ok.predicted == "PN" and ok.status == "Confirmed"
    no = verify("T0", {"p": 3, "n": 2, "family": "gold", "k": 1})[0]
    assert no.predicted == "not PN" and no.status == "Confirmed"


def test_t0_ding_yuan_includes_n1():
    # n = 1 is odd, so the family is PN there (the stated iff allows it)
    v = verify("T0", {"p": 3, "n": 1, "family": "ding_yuan", "u": 1})[0]
    assert v.predicted == "PN" and v.observed == 1 and v.status == "Confirmed"


def test_t0_coulter_matthews_variants():
    # the transcribed condition fails at (k, n) = (2, 3); the classical
    # condition (k odd, gcd = 1) matches brute force
    vs = verify("T0", {"p": 3, "n": 3, "family": "coulter_matthews", "k": 2})
    by = {v.params["variant"]: v for v in vs}
    assert by["stated"].status == "Refuted"
    assert by["classical"].status == "Confirmed"
    assert by["stated"].observed == 4


def test_iff_verdict_variant_keys():
    # single-verdict families carry no variant; the two-variant ones list
    # their variants in a fixed order, after the grid's own params
    for params in ({"p": 3, "n": 2, "family": "square"},
                   {"p": 3, "n": 2, "family": "gold", "k": 1},
                   {"p": 3, "n": 2, "family": "ding_yuan", "u": 1},
                   {"p": 3, "n": 2, "family": "ding_yuan", "u": 3}):
        (v,) = verify("T0", params)
        assert v.params == params
    cm = {"p": 3, "n": 3, "family": "coulter_matthews", "k": 2}
    vs = verify("T0", cm)
    assert [v.params for v in vs] == [{**cm, "variant": "stated"},
                                      {**cm, "variant": "classical"}]
    vs = verify("T4", {"k": 1, "n": 2})
    assert [list(v.params.items()) for v in vs] == [
        [("k", 1), ("n", 2), ("d", 2), ("variant", "stated")],
        [("k", 1), ("n", 2), ("d", 2), ("variant", "gcd_criterion")]]


def test_t1_affine_pcn():
    for params in ({"p": 3, "n": 2, "A": 4, "B": 7, "k": 0},
                   {"p": 2, "n": 3, "A": 3, "B": 1, "k": 1}):
        v = verify("T1", params)[0]
        assert v.status == "Confirmed" and v.observed == 1


def test_t2_square_apcn_gf9():
    vs = verify("T2", {"p": 3, "n": 2})
    assert statuses(vs) == {"Confirmed": 8}
    assert all(v.observed == 2 for v in vs)


def test_t3_bound_and_qualifying_cs():
    vs = verify("T3", {"p": 2, "k": 2, "n": 4})
    assert statuses(vs) == {"BoundHolds": 15}
    qual = [v for v in vs if v.params["qualifying"]]
    # c with (1-c)^3 = 1, including c = 0: bound 5 attained exactly
    assert len(qual) == 3
    assert all(v.observed == 5 for v in qual)
    spec = build_field(2, 4)
    for v in qual:
        c = v.params["c"]
        assert spec.pow(spec.sub(1, c), 3) == 1


def test_t3_gf9():
    vs = verify("T3", {"p": 3, "k": 1, "n": 2})
    assert all(v.status == "BoundHolds" for v in vs)
    qual = [v for v in vs if v.params["qualifying"]]
    assert all(v.observed >= 4 for v in qual)


def test_t4_known_discrepancy():
    vs = verify("T4", {"k": 1, "n": 1})
    by = {v.params["variant"]: v for v in vs}
    assert by["stated"].status == "Refuted"
    assert by["stated"].observed == 2
    assert by["gcd_criterion"].status == "Confirmed"


def test_t4_gcd_criterion_matches_brute_force_grid():
    for params in grid("T4", "acceptance"):
        vs = verify("T4", params)
        by = {v.params["variant"]: v for v in vs}
        assert by["gcd_criterion"].status == "Confirmed", params


def test_t5_bound():
    for u in (0, 1, 2):
        v = verify("T5", {"n": 2, "u": u})[0]
        assert v.status == "BoundHolds"


def test_t6_values():
    assert verify("T6", {"n": 2})[0].observed == 2
    for n in (3, 4, 5):
        v = verify("T6", {"n": n})[0]
        assert v.observed == 3 and v.status == "Confirmed"


def test_t7_exhaustive_small():
    for n in (3, 4, 5):
        vs = verify("T7", {"n": n})
        assert statuses(vs) == {"Confirmed": 2 ** n - 1}
        spec = build_field(2, n)
        for v in vs:
            c = v.params["c"]
            if c == 0:
                assert v.observed == 1
            elif spec.trace_abs(c) == 1 and spec.trace_abs(spec.inv(c)) == 1:
                assert v.observed == 2
            else:
                assert v.observed == 3


def test_t8_prime_fields_confirmed():
    vs = verify("T8", {"p": 7, "n": 1})
    assert statuses(vs) == {"Confirmed": 6}
    c4 = [v for v in vs if v.params["c"] == 4]
    assert c4[0].observed == 2
    vs = verify("T8", {"p": 13, "n": 1})
    assert statuses(vs) == {"Confirmed": 12}


def test_t8_gf49_exceptions_reported():
    # over GF(49) both discriminant conditions hold at c in {4, 1/4}, and the
    # observed uniformity is 3, refuting the two-case prediction there
    vs = verify("T8", {"p": 7, "n": 2})
    refuted = {v.params["c"]: v for v in vs if v.status == "Refuted"}
    assert set(refuted) == {2, 4}
    for v in refuted.values():
        assert v.observed == 3
        assert v.witness["solutions"]


def test_t8_records_noted_instance():
    vs = verify("T8", {"p": 3, "n": 2})
    spec = build_field(3, 2)
    noted = [v for v in vs if v.witness.get("noted_instance")]
    assert len(noted) == 1
    assert noted[0].params["c"] == spec.neg(1)
    assert noted[0].observed == 3
    assert list(noted[0].witness) == ["c", "a", "b", "solutions", "noted_instance"]


def test_t9_consistency():
    v = verify("T9", {"p": 3, "n": 2, "function": "square"})[0]
    assert v.status == "Confirmed"
    assert v.params["pairs_checked"] > 0


def test_sweep_small_grid_runs():
    vs = sweep("T2", "small")
    assert vs and all(v.status == "Confirmed" for v in vs)


def test_sweep_threads_deterministic():
    a = [v.to_json_dict() for v in sweep("T6", "acceptance", threads=1)]
    b = [v.to_json_dict() for v in sweep("T6", "acceptance", threads=2)]
    assert a == b
