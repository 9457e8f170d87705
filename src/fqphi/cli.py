"""Command-line surface.

Every subcommand selects the field by prime and extension degree (--p, --s)
and emits machine-readable output: JSON by default, CSV or plain text via
--format.  Big integers are always serialized as decimal strings in JSON.

Exit codes: 0 on success; 1 when a mathematical check fails or the queried
value is not in the relevant value set; 2 on usage errors (bad arguments,
malformed polynomial text, invalid field parameters) and when the reader
closes stdout before the output is written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

# Each command imports what it runs, so that one process compiles only
# those modules: `pi` needs no more than field and numtheory.
from .errors import CounterexampleError
from .field import FieldSpec
from .numtheory import GUARD


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fqphi",
        description="Totient and sum-of-divisors arithmetic for polynomials "
        "over finite fields, with exact counting and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, required=True, help="field characteristic")
    common.add_argument("--s", type=int, default=1,
                        help="extension degree, q = p^s (default 1)")
    common.add_argument("--format", choices=("json", "csv", "text"),
                        default="json", help="output format (default json)")

    sp = sub.add_parser("phi", parents=[common],
                        help="totient of a polynomial")
    sp.add_argument("--poly", required=True)

    sp = sub.add_parser("sigma", parents=[common],
                        help="sum of divisors of a polynomial")
    sp.add_argument("--poly", required=True)

    sp = sub.add_parser("factor", parents=[common],
                        help="factor into monic irreducibles")
    sp.add_argument("--poly", required=True)

    sp = sub.add_parser("signature", parents=[common],
                        help="degree and irreducible-divisor counts")
    sp.add_argument("--poly", required=True)

    sp = sub.add_parser("same-phi", parents=[common],
                        help="decide phi(f) = phi(g) from signatures alone")
    sp.add_argument("--f", required=True)
    sp.add_argument("--g", required=True)

    sp = sub.add_parser("pi", parents=[common],
                        help="number of monic irreducibles of a degree")
    sp.add_argument("--d", type=int, required=True)

    sp = sub.add_parser("preimage", parents=[common],
                        help="preimages of n under phi")
    sp.add_argument("action", choices=("count", "list", "profile"))
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("sierpinski", parents=[common],
                        help="value engineered to hit a prescribed count")
    sp.add_argument("--kind", choices=("exact", "power", "binomial"),
                    required=True)
    sp.add_argument("--l", type=int, required=True)

    sp = sub.add_parser("erdos", parents=[common],
                        help="common values of phi and sigma")
    sp.add_argument("action", choices=("member", "scan", "witness"))
    sp.add_argument("--n", type=int)
    sp.add_argument("--y", type=int)

    sp = sub.add_parser("density", parents=[common],
                        help="totient value counts and their ceiling")
    sp.add_argument("--y", type=int, required=True)

    sp = sub.add_parser("verify", parents=[common],
                        help="run a verification suite")
    # no choices here: that would import verify for every command, and
    # run_suite names the suites when it rejects one
    sp.add_argument("suite", help="a suite name, or all")
    sp.add_argument("--budget-degree", type=int, default=None)
    sp.add_argument("--budget-n", type=int, default=None)
    sp.add_argument("--budget-y", type=int, default=None)
    return parser


def _emit(payload: dict, fmt: str, csv_rows=None) -> None:
    if fmt == "json":
        print(json.dumps(payload))
    elif fmt == "csv":
        import csv  # here, so that the other formats do not load it

        if csv_rows is None:
            csv_rows = [list(payload.keys()), [payload[k] for k in payload]]
        # a nested dict or list goes in one cell as JSON text
        csv.writer(sys.stdout, lineterminator="\n").writerows(
            [json.dumps(cell) if isinstance(cell, (dict, list)) else cell
             for cell in row] for row in csv_rows)
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _field(args) -> FieldSpec:
    return FieldSpec(args.p, args.s)


def _cmd_phi(args) -> int:
    from .gfpoly import parse_poly
    from .totient import phi

    spec = _field(args)
    f = parse_poly(spec, args.poly)
    what = f"phi(f) for f of degree {f.degree} over F_{spec.q}"
    # phi(f) >= q**D / (4 D) at degree D: see preimage.degree_bound
    _refuse_by_degree(what, spec.q, f.degree, 4 * f.degree)
    value = phi(f)
    _refuse_unprintable(what, lambda limit: value.value >= 10**limit)
    _emit(
        {
            "value": str(value.value),
            "factored": {
                "j": value.j,
                "m": {str(d): m for d, m in sorted(value.counts.items())},
            },
        },
        args.format,
    )
    return 0


def _cmd_sigma(args) -> int:
    from .gfpoly import parse_poly
    from .totient import sigma

    spec = _field(args)
    g = parse_poly(spec, args.poly)
    what = f"sigma(g) for g of degree {g.degree} over F_{spec.q}"
    # sigma(g) >= q**D: g's monic associate is one of the divisors summed
    _refuse_by_degree(what, spec.q, g.degree, 1)
    value = sigma(g)
    _refuse_unprintable(what, lambda limit: value >= 10**limit)
    _emit({"value": str(value)}, args.format)
    return 0


def _cmd_factor(args) -> int:
    from .gfpoly import factor, parse_poly

    spec = _field(args)
    fac = factor(parse_poly(spec, args.poly))
    if args.format == "text":
        pieces = [] if fac.unit == 1 else [str(fac.unit)]
        pieces += [
            f"({part})" if exp == 1 else f"({part})^{exp}"
            for part, exp in fac.parts
        ]
        print(" * ".join(pieces) if pieces else "1")
        return 0
    payload = {
        "unit": fac.unit,
        "factors": [
            {"poly": str(part), "exp": exp} for part, exp in fac.parts
        ],
    }
    # a unit other than 1 is a constant row, so the rows multiply to the input
    unit = [] if fac.unit == 1 else [[str(spec.constant(fac.unit)), 1]]
    rows = [["poly", "exp"]] + unit + [[str(p), e] for p, e in fac.parts]
    _emit(payload, args.format, csv_rows=rows)
    return 0


def _cmd_signature(args) -> int:
    from .gfpoly import parse_poly
    from .totient import signature

    spec = _field(args)
    sig = signature(parse_poly(spec, args.poly))
    _emit(
        {
            "degree": sig.degree,
            "m": {str(d): m for d, m in sorted(sig.counts.items())},
        },
        args.format,
    )
    return 0


def _cmd_same_phi(args) -> int:
    from .collision import same_phi
    from .gfpoly import parse_poly
    from .totient import signature

    spec = _field(args)
    sig_f = signature(parse_poly(spec, args.f))
    sig_g = signature(parse_poly(spec, args.g))
    _emit({"same_phi": same_phi(sig_f, sig_g, spec)}, args.format)
    return 0


def _refuse_unprintable(what: str, too_long) -> None:
    # The interpreter's limit on the decimal digits of a printed integer;
    # 0 means no limit, as on interpreters older than the limit itself.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and too_long(limit):
        raise ValueError(
            f"{what} has more than {limit} decimal digits, the interpreter's "
            f"limit for printing an integer")


def _refuse_by_degree(what: str, q: int, degree: int, divisor: int) -> None:
    # Refuses from the lower bound q**degree / divisor on a value, before
    # factoring, which can take seconds; a constant (degree 0) is left to
    # phi and sigma, which refuse it.
    if degree >= 1:
        digits = degree * math.log10(q) - math.log10(divisor)
        _refuse_unprintable(what, lambda limit: digits * (1 - GUARD) > limit)


def _cmd_pi(args) -> int:
    spec = _field(args)
    if args.d < 1:
        raise ValueError("--d must be >= 1")
    # d pi_q(d) >= q**d - 2 q**(d/2) gives pi_q(d) >= q**d / (2d), whose log
    # never decreases in d, so capping d keeps a lower bound on log10 pi_q(d)
    # and keeps the float finite.
    d = min(args.d, 10**300)
    digits = d * math.log10(spec.q) - math.log10(2 * d)
    _refuse_unprintable(f"pi_q(d) for q = {spec.q}, d = {args.d}",
                        lambda limit: digits * (1 - GUARD) > limit)
    _emit({"d": args.d, "pi": str(spec.pi(args.d))}, args.format)
    return 0


def _cmd_preimage(args) -> int:
    from .preimage import count_profile, preimage_count, preimage_list

    spec = _field(args)
    if args.n is None or args.n < 1:
        raise ValueError("--n must be >= 1")
    if args.action == "count":
        count = preimage_count(args.n, spec)
        _emit({"count": str(count)}, args.format)
        return 0 if count else 1
    if args.action == "list":
        polys = preimage_list(args.n, spec)
        if args.format == "text":
            for f in polys:
                print(f)
            print(f"count: {len(polys)}")
            return 0 if polys else 1
        payload = {"count": str(len(polys)), "polys": [str(f) for f in polys]}
        rows = [["poly"]] + [[str(f)] for f in polys]
        _emit(payload, args.format, csv_rows=rows)
        return 0 if polys else 1
    profile = count_profile(args.n, spec)
    _emit({"count": str(profile.count), "class": profile.label}, args.format)
    return 0 if profile.count else 1


def _sierpinski_too_long(spec: FieldSpec, kind: str, l: int,
                         limit: int) -> bool:
    # A lower bound on log10 n for the constructions of sierpinski_witness,
    # checked before n is built: building it can take seconds and gigabytes.
    # Clamping l keeps a lower bound, as each bound grows with l, and keeps
    # the float finite; sierpinski_witness refuses an l below its least.
    q = spec.q
    if (kind == "exact") != (q == 2):
        return False  # sierpinski_witness refuses the construction itself
    top = min(max(l, 0), 10**300)
    if kind == "exact":
        digits = (top - 3) * math.log10(2)
    else:
        digits = top * math.log10(q)
    if kind == "power":
        # n = q**l prod_{d <= l} (q**d - 1)**pi_q(d), summed only until the
        # bound passes the limit, so pi_q(d) is never computed far past it
        d = 1
        while d <= l and digits * (1 - GUARD) <= limit:
            digits += spec.pi(d) * math.log10(q**d - 1)
            d += 1
    return digits * (1 - GUARD) > limit


def _cmd_sierpinski(args) -> int:
    from .preimage import preimage_count, sierpinski_witness

    spec = _field(args)
    what = f"n for --kind {args.kind} --l {args.l} over F_{spec.q}"
    _refuse_unprintable(what, lambda limit: _sierpinski_too_long(
        spec, args.kind, args.l, limit))
    n, expected = sierpinski_witness(spec, args.kind, args.l)
    # the exact test, for the band just below the bound, before counting,
    # which can take far longer than building n
    _refuse_unprintable(what, lambda limit: n >= 10**limit)
    computed = preimage_count(n, spec)
    _emit(
        {
            "n": str(n),
            "expected": str(expected),
            "computed": str(computed),
            "ok": computed == expected,
        },
        args.format,
    )
    return 0 if computed == expected else 1


def _cmd_erdos(args) -> int:
    from .erdos import erdos_witness, intersection_member, intersection_up_to

    spec = _field(args)
    if args.action == "member":
        if args.n is None or args.n < 1:
            raise ValueError("erdos member requires --n >= 1")
        verdict = intersection_member(args.n, spec)
        payload: dict = {"member": verdict.member}
        if verdict.member:
            payload["family"] = verdict.family
            payload["params"] = {
                f"d{i + 1}": d for i, d in enumerate(verdict.params)
            }
        _emit(payload, args.format)
        return 0 if verdict.member else 1
    if args.action == "scan":
        if args.y is None or args.y < 1:
            raise ValueError("erdos scan requires --y >= 1")
        members = intersection_up_to(args.y, spec)
        payload = {"members": [str(v) for v in members]}
        rows = [["n"]] + [[v] for v in members]
        _emit(payload, args.format, csv_rows=rows)
        return 0
    if args.n is None or args.n < 1:
        raise ValueError("erdos witness requires --n >= 1")
    pair = erdos_witness(args.n, spec)
    if pair is None:
        _emit({"member": False}, args.format)
        return 1
    f, g = pair
    _emit({"member": True, "f": str(f), "g": str(g)}, args.format)
    return 0


def _cmd_density(args) -> int:
    from .density import density_sweep

    spec = _field(args)
    if args.y < 1:
        raise ValueError("--y must be >= 1")
    reports = density_sweep(spec, args.y)
    rows = [["y", "k", "V", "bound", "ratio"]] + [
        [r.y, r.k, r.count, r.bound, r.ratio] for r in reports
    ]
    payload = {
        "reports": [
            {
                "y": str(r.y),
                "k": r.k,
                "V": str(r.count),
                "bound": r.bound,
                "ratio": r.ratio,
                "bound_checked": r.bound_checked,
            }
            for r in reports
        ]
    }
    if args.format == "text":
        for r in reports:
            note = "" if r.bound_checked else "  (k = 0: ceiling not applicable)"
            print(
                f"y={r.y} k={r.k} V={r.count} bound={r.bound:.4f} "
                f"ratio={r.ratio:.6f}{note}")
        return 0
    _emit(payload, args.format, csv_rows=rows)
    return 0


def _cmd_verify(args) -> int:
    from .verify import Budgets, run_suite

    _field(args)  # checked as everywhere; the suites fix their own fields
    budgets = Budgets(args.budget_degree, args.budget_n, args.budget_y)
    results = run_suite(args.suite, budgets)
    passed = sum(1 for r in results if r.ok)
    failed = len(results) - passed
    if args.format == "text":
        for r in results:
            mark = "PASS" if r.ok else "FAIL"
            print(f"[{mark}] {r.name}: {r.detail}")
        print(f"{passed} passed, {failed} failed")
        return 0 if failed == 0 else 1
    payload = {
        "suite": args.suite,
        "checks": [
            {"name": r.name, "ok": r.ok, "detail": r.detail}
            for r in results
        ],
        "passed": passed,
        "failed": failed,
    }
    rows = [["name", "ok", "detail"]] + [
        [r.name, r.ok, r.detail] for r in results]
    _emit(payload, args.format, csv_rows=rows)
    return 0 if failed == 0 else 1


_COMMANDS = {
    "phi": _cmd_phi,
    "sigma": _cmd_sigma,
    "factor": _cmd_factor,
    "signature": _cmd_signature,
    "same-phi": _cmd_same_phi,
    "pi": _cmd_pi,
    "preimage": _cmd_preimage,
    "sierpinski": _cmd_sierpinski,
    "erdos": _cmd_erdos,
    "density": _cmd_density,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed reader fails here, not at exit
        return code
    except CounterexampleError as exc:
        print(f"mathematical check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the flush at exit now writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed before all output", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
