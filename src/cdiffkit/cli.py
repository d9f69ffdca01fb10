"""Command line interface.

Exit codes: 0 success (refutations included), 1 refutation under --strict,
2 usage error, 3 size guard exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .cdiff import C_SET_NAMES, AConvention, dual_convention_max, spectrum, uniformity
from .errors import CdiffkitError, SizeGuardExceeded
from .field import build_field
from .functions import (_added_terms, _from_descriptor, from_monomial, from_polynomial,
                        inverse_table, load_table)
from .numth import gcd_power_formula, trinomial_roots
from .theorems import CLAIM_IDS, summarize, sweep
from .walsh import walsh_check
from . import reference_data


def _envelope(field_spec, descriptor, convention, payload):
    return {
        "tool": "cdiffkit",
        "version": __version__,
        "schema": 1,
        "field": field_spec.to_json_dict() if field_spec is not None else None,
        "function": descriptor,
        "a_convention": convention,
        "payload": payload,
    }


def _parse_function(spec, text):
    """SPEC grammar: monomial:D | poly:E1=C1,E2=C2,... | inverse | table:PATH."""
    if text == "inverse":
        return inverse_table(spec)
    if text.startswith("monomial:"):
        return from_monomial(spec, int(text.split(":", 1)[1]))
    if text.startswith("poly:"):   # terms of one exponent add up
        return from_polynomial(spec, _added_terms(spec, (
            map(int, item.split("=")) for item in text.split(":", 1)[1].split(","))))
    if text.startswith("table:"):
        return load_table(text.split(":", 1)[1], spec)
    raise ValueError(
        f"cannot parse function spec {text!r}; expected monomial:D, "
        "poly:E1=C1,..., inverse, or table:PATH")


def _field_from_args(args):
    modulus = None
    if getattr(args, "modulus", None):
        modulus = [int(t) for t in args.modulus.split(",")]
    return build_field(args.p, args.n, modulus)


def _add_field_args(sub):
    sub.add_argument("--p", type=int, required=True, help="prime characteristic")
    sub.add_argument("--n", type=int, required=True, help="extension degree")
    sub.add_argument("--modulus", type=str, default=None,
                     help="comma separated coefficients, constant term first")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="cdiffkit",
        description="Exact c-differential uniformity and Walsh analysis over GF(p^n)")
    ap.add_argument("--version", action="version", version=__version__)
    subs = ap.add_subparsers(dest="command", required=True)

    s = subs.add_parser("field-info", help="print the canonical field model as JSON")
    _add_field_args(s)

    s = subs.add_parser("uniformity", help="uniformity and witness for one c")
    _add_field_args(s)
    s.add_argument("--function", required=True)
    s.add_argument("--c", type=int, required=True)
    s.add_argument("--a-convention", choices=[conv.value for conv in AConvention],
                   required=True)

    s = subs.add_parser("spectrum", help="per-c uniformity over a c-set")
    _add_field_args(s)
    s.add_argument("--function", required=True)
    s.add_argument("--c-set", default="all",
                   help=" | ".join(C_SET_NAMES) + " | comma separated ranks")
    s.add_argument("--a-convention", choices=[conv.value for conv in AConvention],
                   required=True)
    s.add_argument("--format", choices=("json", "csv"), default="json")
    s.add_argument("--threads", type=int, default=1)

    s = subs.add_parser("walsh-check",
                        help="PcN / APcN / delta-uniformity statistics with verdicts")
    _add_field_args(s)
    s.add_argument("--function", required=True)
    s.add_argument("--c", type=int, required=True)
    s.add_argument("--delta", type=int, default=1)

    s = subs.add_parser("trinomial", help="roots of z^(p^k) - a z - b")
    _add_field_args(s)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--a", type=int, required=True)
    s.add_argument("--b", type=int, required=True)

    s = subs.add_parser("gcd-lemma", help="gcd(p^k+1, p^n-1) closed form")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--n", type=int, required=True)

    s = subs.add_parser("verify", help="run a claim sweep")
    s.add_argument("--claim", choices=CLAIM_IDS, required=True)
    s.add_argument("--grid", choices=("acceptance", "small"), default="acceptance")
    s.add_argument("--strict", action="store_true",
                   help="exit 1 if any verdict is Refuted")
    s.add_argument("--format", choices=("summary", "jsonl"), default="summary")
    s.add_argument("--threads", type=int, default=1)

    s = subs.add_parser("reproduce",
                        help="recompute a published reference table and diff it")
    s.add_argument("--table", type=int, choices=(1, 2), required=True)
    s.add_argument("--max-n", type=int, default=None)
    s.add_argument("--threads", type=int, default=1)
    s.add_argument("--allow-long", action="store_true",
                   help="include rows marked beyond desk scale")
    return ap


def _cmd_field_info(args):
    spec = _field_from_args(args)
    print(json.dumps(spec.to_json_dict()))
    return 0


def _cmd_uniformity(args):
    spec = _field_from_args(args)
    F = _parse_function(spec, args.function)
    conv = AConvention(args.a_convention)
    payload = uniformity(F, args.c, conv).to_json_dict()
    print(json.dumps(_envelope(spec, dict(F.origin), conv.value, payload), indent=2))
    return 0


def _cmd_spectrum(args):
    spec = _field_from_args(args)
    F = _parse_function(spec, args.function)
    conv = AConvention(args.a_convention)
    c_set = args.c_set
    if c_set not in C_SET_NAMES:
        c_set = [int(t) for t in args.c_set.split(",")]
    rep = spectrum(F, c_set, conv, threads=args.threads)
    if args.format == "csv":
        sys.stdout.write(rep.to_csv())
    else:
        print(json.dumps(_envelope(spec, dict(F.origin), conv.value,
                                   rep.to_json_dict()), indent=2))
    return 0


def _cmd_walsh_check(args):
    spec = _field_from_args(args)
    F = _parse_function(spec, args.function)
    pcn, (lhs, rhs), (count_side, walsh_side) = walsh_check(F, args.c, args.delta)
    pcn_bound = spec.p ** (4 * spec.n)
    payload = {
        "c_rank": args.c,
        "pcn": {"sum": pcn, "bound": pcn_bound, "equality": pcn == pcn_bound,
                "meaning": "equality iff PcN"},
        "apcn": {"lhs": lhs, "rhs": rhs, "equality": lhs == rhs,
                 "meaning": "equality iff uniformity <= 2"},
        "convolution": {
            "delta": args.delta,
            "count_side": count_side,
            "walsh_side": walsh_side,
            "sides_equal": count_side == walsh_side,
            "zero": count_side == 0,
            "meaning": "count_side = 0 iff uniformity <= delta",
        },
    }
    print(json.dumps(_envelope(spec, dict(F.origin), "include-zero", payload),
                     indent=2))
    return 0


def _cmd_trinomial(args):
    spec = _field_from_args(args)
    out = trinomial_roots(spec, args.k, args.a, args.b)
    payload = {
        "p": out.p, "n": out.n, "k": out.k, "a": out.a, "b": out.b,
        "g": out.g, "m": out.m, "count": out.count, "roots": list(out.roots),
        "alpha": out.alpha, "beta": out.beta,
    }
    print(json.dumps(_envelope(spec, None, None, payload), indent=2))
    return 0


def _cmd_gcd_lemma(args):
    value = gcd_power_formula(args.p, args.k, args.n)
    print(json.dumps({"p": args.p, "k": args.k, "n": args.n, "gcd": value}))
    return 0


def _cmd_verify(args):
    verdicts = sweep(args.claim, args.grid, threads=args.threads)
    if args.format == "jsonl":
        for v in verdicts:
            print(json.dumps(v.to_json_dict()))
    else:
        print(f"claim {args.claim} grid={args.grid}: {len(verdicts)} verdicts")
        counts = summarize(verdicts)
        for status in ("Confirmed", "BoundHolds", "Refuted", "NotApplicable"):
            if counts.get(status):
                print(f"  {status}: {counts[status]}")
        for v in verdicts:
            if v.status == "Refuted":
                print(f"  REFUTED {v.params} predicted={v.predicted} "
                      f"observed={v.observed} witness={v.witness}")
    if args.strict and any(v.status == "Refuted" for v in verdicts):
        return 1
    return 0


def _cmd_reproduce(args):
    data = reference_data.TABLE1 if args.table == 1 else reference_data.TABLE2
    print(f"reference table {args.table}: {data['caption']}")
    print("  n | " + " | ".join(f"{name}: published computed match"
                                for name in data["functions"]))
    all_match = True
    payload_rows = []
    for row in data["rows"]:
        if (args.max_n is not None and row["n"] > args.max_n) or (
                row.get("long") and not args.allow_long):
            continue
        spec = build_field(data["p"], row["n"])
        cells, texts = {}, []
        for name, desc in data["functions"].items():
            pub = row[name]
            best = dual_convention_max(_from_descriptor(spec, desc), data["c_set"],
                                       threads=args.threads)
            if args.table == 1:     # published over a != 0
                comp, conv = best["nonzero"][0], "nonzero"
                match = comp == pub
                comp_txt = str(comp)
            else:                   # matched under either a-convention
                comp = {k: v[0] for k, v in best.items()}
                conv = [k for k, v in comp.items() if v == pub]
                match = bool(conv)
                comp_txt = "/".join(f"{k}={v}" for k, v in sorted(comp.items()))
            all_match &= match
            texts.append(f"{name}: {pub} {comp_txt} {'ok' if match else 'MISMATCH'}")
            cells[name] = {"published": pub, "computed": comp, "match": match,
                           "convention": conv, "source": row["source"]}
        payload_rows.append({"n": row["n"], "cells": cells})
        print(f"  {row['n']} | " + " | ".join(texts))
    print(json.dumps(_envelope(None, None, None,
                               {"table": args.table, "rows": payload_rows,
                                "all_match": all_match})))
    return 0


_COMMANDS = {
    "field-info": _cmd_field_info,
    "uniformity": _cmd_uniformity,
    "spectrum": _cmd_spectrum,
    "walsh-check": _cmd_walsh_check,
    "trinomial": _cmd_trinomial,
    "gcd-lemma": _cmd_gcd_lemma,
    "verify": _cmd_verify,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SizeGuardExceeded as exc:
        print(f"size guard exceeded: {exc}", file=sys.stderr)
        return 3
    except (CdiffkitError, ValueError, OSError) as exc:   # OSError: table:PATH
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
