import csv
import json
import math
import os
import random
import resource
import subprocess
import sys

import pytest

from fqphi import FieldSpec, parse_poly, preimage, totient
from fqphi.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


class TestPhiCommand:
    def test_golden_example(self, capsys):
        code, payload = run_json(
            capsys, "phi", "--p", "2", "--s", "1", "--poly", "x^3+x+1")
        assert code == 0
        assert payload == {"value": "7", "factored": {"j": 0, "m": {"3": 1}}}

    def test_extension_field(self, capsys):
        code, payload = run_json(
            capsys, "phi", "--p", "2", "--s", "2", "--poly", "x")
        assert code == 0 and payload["value"] == "3"

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, "phi", "--p", "2", "--poly", "x^3+x+1",
            "--format", "text")
        assert code == 0 and "value: 7" in out


class TestSigmaFactorSignature:
    def test_sigma(self, capsys):
        code, payload = run_json(capsys, "sigma", "--p", "2", "--poly", "x^2")
        assert code == 0 and payload == {"value": "7"}

    def test_factor(self, capsys):
        code, payload = run_json(
            capsys, "factor", "--p", "2", "--poly", "x^6+x^5+x^3+x^2")
        assert code == 0
        assert payload["unit"] == 1
        assert payload["factors"] == [
            {"poly": "x", "exp": 2},
            {"poly": "x+1", "exp": 2},
            {"poly": "x^2+x+1", "exp": 1},
        ]

    def test_factor_output_reparses(self, capsys):
        code, payload = run_json(
            capsys, "factor", "--p", "3", "--poly", "x^4+2*x^3+2*x")
        assert code == 0
        spec = FieldSpec(3)
        rebuilt = spec.constant(payload["unit"])
        for item in payload["factors"]:
            rebuilt = rebuilt * parse_poly(spec, item["poly"]) ** item["exp"]
        assert rebuilt == parse_poly(spec, "x^4+2*x^3+2*x")

    @pytest.mark.parametrize("p,poly,payload", [
        (3, "2*x^2+1", {"unit": 2, "factors": [{"poly": "x+1", "exp": 1},
                                               {"poly": "x+2", "exp": 1}]}),
        (3, "2*x^4+x^3+x", {"unit": 2, "factors": [
            {"poly": "x", "exp": 1}, {"poly": "x+1", "exp": 1},
            {"poly": "x^2+x+2", "exp": 1}]}),
        (5, "3*x^3+x", {"unit": 3, "factors": [
            {"poly": "x", "exp": 1}, {"poly": "x^2+2", "exp": 1}]}),
        (5, "x^2+4", {"unit": 1, "factors": [{"poly": "x+1", "exp": 1},
                                             {"poly": "x+4", "exp": 1}]}),
    ], ids=["F3-split", "F3-mixed", "F5-unit-3", "F5-monic"])
    def test_factor_csv_rows_rebuild_the_input(self, capsys, p, poly,
                                               payload):
        argv = ("factor", "--p", str(p), "--poly", poly)
        assert run_json(capsys, *argv) == (0, payload)
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        header, *rows = csv.reader(out.splitlines())
        assert header == ["poly", "exp"]
        spec = FieldSpec(p)
        rebuilt = spec.constant(1)
        for part, exp in rows:
            rebuilt = rebuilt * parse_poly(spec, part) ** int(exp)
        assert rebuilt == parse_poly(spec, poly)
        # the unit row appears exactly when the unit is not 1
        assert (rows[0] == [str(payload["unit"]), "1"]) == (
            payload["unit"] != 1)

    def test_signature(self, capsys):
        code, payload = run_json(
            capsys, "signature", "--p", "2", "--poly", "x^3+x^2")
        assert code == 0 and payload == {"degree": 3, "m": {"1": 2}}


class TestSamePhiAndPi:
    def test_same_phi_true(self, capsys):
        code, payload = run_json(
            capsys, "same-phi", "--p", "2",
            "--f", "x^3", "--g", "x^4+x^2")
        assert code == 0 and payload == {"same_phi": True}

    def test_same_phi_false_still_exit_zero(self, capsys):
        code, payload = run_json(
            capsys, "same-phi", "--p", "5", "--f", "x", "--g", "x^2")
        assert code == 0 and payload == {"same_phi": False}

    def test_pi(self, capsys):
        code, payload = run_json(capsys, "pi", "--p", "2", "--d", "6")
        assert code == 0 and payload == {"d": 6, "pi": "9"}

    @pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (101, 1)],
                             ids=["2", "3", "4", "101"])
    def test_pi_at_the_digit_limit(self, capsys, p, s):
        # prints every value within sys.get_int_max_str_digits(), and exits
        # 2 on every value beyond it with the CLI's own one-line message;
        # the first d refused (14299 over F_2, 9021 over F_3, 7149 over
        # F_4) passes the lower bound q**d / (2d) and once printed the
        # interpreter's "Exceeds the limit" text instead
        limit = sys.get_int_max_str_digits()
        spec = FieldSpec(p, s)
        first_too_long = int(limit * math.log(10) / math.log(spec.q))
        while spec.pi(first_too_long) < 10**limit:
            first_too_long += 1
        for d in range(first_too_long - 3, first_too_long + 4):
            code, out, err = run(capsys, "pi", "--p", str(p), "--s", str(s),
                                 "--d", str(d))
            if spec.pi(d) < 10**limit:
                assert code == 0 and json.loads(out)["pi"] == str(spec.pi(d))
            else:
                assert code == 2 and out == "", d
                [line] = err.splitlines()
                assert line.startswith("error:") and "digits" in line, line
                assert "set_int_max_str_digits" not in line, line


class Computed(Exception):
    """Raised by a stand-in for the computation that a refusal would skip."""


def compute(*args):
    raise Computed


class TestValueDigitLimit:
    """phi, sigma and pi refuse a value past the printing limit: first from
    a lower bound on it by the degree, before computing it, then exactly,
    before printing."""

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("command", ["phi", "sigma"])
    def test_prints_every_value_within_the_limit(self, capsys, monkeypatch,
                                                 command, p):
        # a limit of 30 digits brings both sides of it, and the band that
        # only the exact check refuses, down to degrees that factor at once
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 30)
        spec = FieldSpec(p)
        func = getattr(totient, command)
        for d in range(int(30 / math.log10(p)) - 3,
                       int(36 / math.log10(p)) + 1):
            for poly in (f"x^{d}", f"x^{d}+x^{d - 1}"):
                value = func(parse_poly(spec, poly))
                if command == "phi":
                    value = value.value
                code, out, err = run(capsys, command, "--p", str(p),
                                     "--poly", poly)
                if value < 10**30:
                    assert code == 0, (poly, err)
                    assert json.loads(out)["value"] == str(value), poly
                else:
                    assert code == 2 and out == "", poly
                    assert "digits" in err, (poly, err)

    @pytest.mark.parametrize("command,poly", [("phi", "x^100000"),
                                              ("sigma", "x^20000")])
    def test_refused_before_factoring(self, capsys, monkeypatch, command,
                                      poly):
        def no_factor(*args, **kwargs):
            raise AssertionError("factor called")

        monkeypatch.setattr(totient, "factor", no_factor)
        code, out, err = run(capsys, command, "--p", "2", "--poly", poly)
        assert code == 2 and out == "" and "digits" in err

    @pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (10007, 1)])
    @pytest.mark.parametrize("command", ["sigma", "pi", "phi"])
    def test_refused_before_computing_exactly_past_the_bound(
            self, capsys, monkeypatch, command, p, s):
        # the value is >= q**e / divisor, with divisor 1 for sigma(x^e),
        # 2e for pi_q(e) and 4e for phi(x^e); at a limit of 30 digits the
        # check before computing refuses exactly when q**e >= divisor *
        # 10**30, on both sides of that threshold
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 30)
        monkeypatch.setattr(totient, "factor", compute)
        monkeypatch.setattr(FieldSpec, "pi", compute)
        q = p**s
        divisor = {"sigma": lambda e: 1, "pi": lambda e: 2 * e,
                   "phi": lambda e: 4 * e}[command]
        seen = set()
        for e in range(1, int(34 / math.log10(q)) + 2):
            tail = ("--d", str(e)) if command == "pi" else ("--poly", f"x^{e}")
            try:
                code, out, err = run(capsys, command, "--p", str(p),
                                     "--s", str(s), *tail)
            except Computed:
                refused = False
            else:
                assert code == 2 and out == "" and "digits" in err, (e, err)
                refused = True
            assert refused == (q**e >= divisor(e) * 10**30), e
            seen.add(refused)
        assert seen == {False, True}


class TestPreimageCommand:
    def test_count_golden(self, capsys):
        code, payload = run_json(
            capsys, "preimage", "count", "--p", "2", "--n", "1")
        assert code == 0 and payload == {"count": "3"}

    def test_count_nonmember_exit_one(self, capsys):
        code, payload = run_json(
            capsys, "preimage", "count", "--p", "2", "--n", "5")
        assert code == 1 and payload == {"count": "0"}

    def test_list(self, capsys):
        code, payload = run_json(
            capsys, "preimage", "list", "--p", "2", "--n", "1")
        assert code == 0
        assert payload == {"count": "3", "polys": ["x", "x+1", "x^2+x"]}

    def test_profile(self, capsys):
        code, payload = run_json(
            capsys, "preimage", "profile", "--p", "5", "--n", "4")
        assert code == 0 and payload == {"count": "5", "class": "exactly-q"}

    def test_list_over_a_large_prime(self, capsys):
        # phi(x + c) = 256 for each of the 257 codes c; over F_p with
        # p >= 37 the sieve once raised IndexError, with a traceback
        code, payload = run_json(
            capsys, "preimage", "list", "--p", "257", "--n", "256")
        assert code == 0 and payload["count"] == "257"


# Values of n far past the printing limit.  Each was once built in full
# before the refusal: 5 to 9 s on a 2-core x86-64 host for the first,
# second and fourth, past 30 s for the third, and without end for the last.
SIERPINSKI_PAST_THE_LIMIT = [
    ("--p", "3", "--kind", "power", "--l", "14"),
    ("--p", "3", "--kind", "binomial", "--l", "10000000"),
    ("--p", "3", "--kind", "binomial", "--l", "100000000"),
    ("--p", "2", "--kind", "exact", "--l", "1000000000"),
    ("--p", "3", "--kind", "power", "--l", str(10**400)),
    ("--p", "1000000007", "--kind", "power", "--l", "1")]


class TestSierpinskiCommand:
    def test_exact_goal(self, capsys):
        code, payload = run_json(
            capsys, "sierpinski", "--p", "2", "--kind", "exact", "--l", "5")
        assert code == 0
        assert payload == {
            "n": "4", "expected": "5", "computed": "5", "ok": True}

    def test_rejects_wrong_field(self, capsys):
        code, _, err = run(
            capsys, "sierpinski", "--p", "3", "--kind", "exact", "--l", "5")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("kind", ["exact", "power", "binomial"])
    def test_l_far_below_the_least(self, capsys, kind):
        # the digit bound on n passes every l below the least, however far
        # below, and leaves the refusal to sierpinski_witness
        p = "2" if kind == "exact" else "3"
        code, _, err = run(capsys, "sierpinski", "--p", p, "--kind", kind,
                           "--l", str(-10**400))
        assert code == 2 and "needs l" in err

    @pytest.mark.parametrize("argv", SIERPINSKI_PAST_THE_LIMIT)
    def test_refused_before_n_is_built(self, capsys, monkeypatch, argv):
        def build(*args):
            raise AssertionError("n was built")

        monkeypatch.setattr(preimage, "sierpinski_witness", build)
        code, _, err = run(capsys, "sierpinski", *argv)
        assert code == 2 and "digits" in err

    @pytest.mark.parametrize("p,s,kind", [
        (2, 1, "exact"), (3, 1, "binomial"), (10007, 1, "binomial"),
        (3, 1, "power"), (2, 2, "power"), (5, 1, "power")])
    def test_refused_before_n_is_built_exactly_past_the_bound(
            self, capsys, monkeypatch, p, s, kind):
        # at a limit of 30 digits the check before building n refuses
        # exactly when a lower bound on n reaches 10**30: 2**(l-3) for
        # exact, q**l for binomial, and for power q**D / (4D), at the degree
        # D = l + sum_{d <= l} d pi_q(d) of the polynomial whose totient n is
        spec = FieldSpec(p, s)
        q = spec.q

        def bound_reached(l):
            if kind == "exact":
                return l >= 3 and 2 ** (l - 3) >= 10**30
            if kind == "binomial":
                return q**l >= 10**30
            degree = l + sum(d * spec.pi(d) for d in range(1, l + 1))
            return q**degree >= 4 * degree * 10**30

        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 30)
        monkeypatch.setattr(preimage, "sierpinski_witness", compute)
        seen = set()
        top = 6 if kind == "power" else int(34 / math.log10(q)) + 5
        for l in range(1, top):
            try:
                code, out, err = run(capsys, "sierpinski", "--p", str(p),
                                     "--s", str(s), "--kind", kind,
                                     "--l", str(l))
            except Computed:
                refused = False
            else:
                assert code == 2 and out == "" and "digits" in err, (l, err)
                refused = True
            assert refused == bound_reached(l), l
            seen.add(refused)
        assert seen == {False, True}


# Every digit-limit refusal at its boundary, at the default limit of 4300
# digits, with its exit code and its subject: None for a value that prints.
# Where two rows refuse, the first is refused by the exact check of the
# value, the second from the lower bound before computing it; the three
# refused pi rows pass the bound and are refused by the exact check.
DIGIT_LIMIT_BOUNDARY = [
    (("phi", "--p", "2", "--poly", "x^14285"), None),
    (("phi", "--p", "2", "--poly", "x^14286"),
     "phi(f) for f of degree 14286 over F_2"),
    (("phi", "--p", "2", "--poly", "x^14301"),
     "phi(f) for f of degree 14301 over F_2"),
    (("sigma", "--p", "2", "--poly", "x^14283"), None),
    (("sigma", "--p", "2", "--poly", "x^14284"),
     "sigma(g) for g of degree 14284 over F_2"),
    (("sigma", "--p", "2", "--poly", "x^14285"),
     "sigma(g) for g of degree 14285 over F_2"),
    (("pi", "--p", "2", "--d", "14298"), None),
    (("pi", "--p", "2", "--d", "14299"), "pi_q(d) for q = 2, d = 14299"),
    (("pi", "--p", "3", "--d", "9021"), "pi_q(d) for q = 3, d = 9021"),
    (("pi", "--p", "2", "--s", "2", "--d", "7149"),
     "pi_q(d) for q = 4, d = 7149"),
    (("sierpinski", "--p", "2", "--kind", "exact", "--l", "14287"), None),
    (("sierpinski", "--p", "2", "--kind", "exact", "--l", "14288"),
     "n for --kind exact --l 14288 over F_2"),
    (("sierpinski", "--p", "3", "--kind", "power", "--l", "7"), None),
    (("sierpinski", "--p", "3", "--kind", "power", "--l", "8"),
     "n for --kind power --l 8 over F_3"),
    (("sierpinski", "--p", "7", "--kind", "binomial", "--l", "5086"), None),
    (("sierpinski", "--p", "7", "--kind", "binomial", "--l", "5087"),
     "n for --kind binomial --l 5087 over F_7"),
    (("sierpinski", "--p", "7", "--kind", "binomial", "--l", "5089"),
     "n for --kind binomial --l 5089 over F_7"),
]


@pytest.mark.parametrize("argv,what", DIGIT_LIMIT_BOUNDARY,
                         ids=["_".join(argv) for argv, _ in
                              DIGIT_LIMIT_BOUNDARY])
def test_digit_limit_boundary(capsys, argv, what):
    code, out, err = run(capsys, *argv)
    if what is None:
        assert code == 0 and err == "" and out.startswith("{"), err
    else:
        assert code == 2 and out == ""
        assert err == (f"error: {what} has more than 4300 decimal digits, "
                       "the interpreter's limit for printing an integer\n")


class TestErdosCommand:
    def test_member_false_exit_one(self, capsys):
        code, payload = run_json(
            capsys, "erdos", "member", "--p", "5", "--n", "24")
        assert code == 1 and payload == {"member": False}

    def test_member_true(self, capsys):
        code, payload = run_json(
            capsys, "erdos", "member", "--p", "3", "--n", "16")
        assert code == 0
        assert payload == {
            "member": True,
            "family": "(3^d1-1)(3^d2-1)",
            "params": {"d1": 1, "d2": 2},
        }

    def test_scan(self, capsys):
        code, payload = run_json(
            capsys, "erdos", "scan", "--p", "3", "--y", "100")
        assert code == 0
        assert payload == {"members": ["4", "16", "52", "64"]}

    def test_witness(self, capsys):
        code, payload = run_json(
            capsys, "erdos", "witness", "--p", "2", "--n", "3")
        assert code == 0
        assert payload == {"member": True, "f": "x^2+x+1", "g": "x"}

    def test_witness_nonmember(self, capsys):
        code, payload = run_json(
            capsys, "erdos", "witness", "--p", "2", "--n", "5")
        assert code == 1 and payload == {"member": False}


class TestCsvFormat:
    """Every CSV row has one cell per header field, and a dict or list field
    is one cell holding its JSON text."""

    @pytest.mark.parametrize("argv", [
        ("phi", "--p", "2", "--poly", "x^3+x+1"),
        ("signature", "--p", "2", "--poly", "x^6+x^5+x^3+x^2"),
        ("erdos", "member", "--p", "2", "--n", "1905"),
    ], ids=["phi", "signature", "erdos-member"])
    def test_nested_cells_are_json(self, capsys, argv):
        _, payload = run_json(capsys, *argv)
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        header, *rows = csv.reader(out.splitlines())
        assert header == list(payload)
        assert len(rows) == 1 and len(rows[0]) == len(header)
        nested = [k for k, v in payload.items() if isinstance(v, (dict, list))]
        assert nested
        for key in nested:
            assert json.loads(rows[0][header.index(key)]) == payload[key]


class TestDensityCommand:
    def test_csv_schema(self, capsys):
        code, out, _ = run(
            capsys, "density", "--p", "2", "--y", "10", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "y,k,V,bound,ratio"
        final = lines[-1].split(",")
        assert final[0] == "10" and final[1] == "3" and final[2] == "7"
        assert float(final[3]) == pytest.approx(85.2157, abs=1e-3)
        assert float(final[4]) == pytest.approx(0.7)

    def test_json_reports(self, capsys):
        code, payload = run_json(capsys, "density", "--p", "2", "--y", "16")
        assert code == 0
        ys = [r["y"] for r in payload["reports"]]
        assert ys == ["2", "4", "8", "16"]
        assert all(r["bound_checked"] for r in payload["reports"])


class TestVerifyCommand:
    def test_small_budget_suite(self, capsys):
        code, payload = run_json(
            capsys, "verify", "density", "--p", "2", "--budget-y", "100")
        assert code == 0
        assert payload["failed"] == 0
        assert payload["passed"] == len(payload["checks"])

    def test_text_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "collisions", "--p", "2",
            "--budget-degree", "3", "--format", "text")
        assert code == 0
        assert out.count("[PASS]") == 4

    def test_csv_format(self, capsys):
        _, payload = run_json(capsys, "verify", "all", "--p", "2")
        code, out, _ = run(capsys, "verify", "all", "--p", "2",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert len(rows) == 31 and rows[0] == ["name", "ok", "detail"]
        assert rows[1:] == [[c["name"], str(c["ok"]), c["detail"]]
                            for c in payload["checks"]]

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_failed_check_exits_one_in_every_format(self, capsys,
                                                    monkeypatch, fmt):
        from fqphi import verify

        monkeypatch.setattr(verify, "run_suite", lambda name, budgets: [
            verify.CheckResult("a", True, "fine"),
            verify.CheckResult("b", False, "broken")])
        code, out, _ = run(capsys, "verify", "lemmas", "--p", "2",
                           "--format", fmt)
        assert code == 1 and "broken" in out

    @pytest.mark.parametrize("flag", ["--budget-degree", "--budget-n",
                                      "--budget-y"])
    def test_budget_below_one(self, capsys, flag):
        code, out, err = run(capsys, "verify", "collisions", "--p", "2",
                             flag, "0")
        assert code == 2 and out == "" and flag in err

    @pytest.mark.parametrize("field,message", [
        (("--p", "4"), "p must be prime, got 4"),
        (("--p", "2", "--s", "0"), "s must be >= 1, got 0"),
    ], ids=["composite-p", "s-zero"])
    def test_invalid_field(self, capsys, field, message):
        # the suites fix their own fields, but --p/--s are still checked
        code, out, err = run(capsys, "verify", "lemmas", *field)
        assert code == 2 and out == "" and message in err

    def test_unknown_suite(self, capsys):
        from fqphi.verify import SUITES

        code, out, err = run(capsys, "verify", "nosuch", "--p", "2")
        assert code == 2 and out == "" and "nosuch" in err
        assert all(repr(suite) in err for suite in SUITES + ("all",))


SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def run_subprocess(*argv, timeout=30, preexec_fn=None):
    """The CLI in a fresh interpreter, with a timeout: a hang or a crash
    fails the test instead of the test run.  ``preexec_fn`` runs in the
    child before exec, where a resource cap limits that process alone."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "fqphi.cli", *argv], env=env,
        capture_output=True, text=True, timeout=timeout,
        preexec_fn=preexec_fn)


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["print", "flush"])
def test_closed_stdout_exits_2(unbuffered):
    # the read end is closed before the child writes: with unbuffered
    # stdout the print fails, with a buffer the flush does
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED=unbuffered)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fqphi.cli", "preimage", "list", "--p",
             "37", "--n", "36"], env=env, stdout=write,
            stderr=subprocess.PIPE, text=True, timeout=30)
    finally:
        os.close(write)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "error: stdout closed before all output"]


class TestEnumerationLimit:
    """Inputs whose work would not finish, or whose output could not be
    printed, exit 2 at once; each runs in a subprocess with a timeout, so a
    hang fails the test."""

    def run_cli(self, *argv):
        return run_subprocess(*argv)

    def test_preimage_list_over_the_limit(self):
        # degree bound 33: more than 2**33 monics
        proc = self.run_cli(
            "preimage", "list", "--p", "2", "--n", "1000000000")
        assert proc.returncode == 2 and "limit" in proc.stderr

    def test_erdos_witness_over_the_limit(self):
        # 2**31 - 1 is in the q = 2 intersection
        proc = self.run_cli(
            "erdos", "witness", "--p", "2", "--n", str(2**31 - 1))
        assert proc.returncode == 2 and "limit" in proc.stderr

    @pytest.mark.parametrize("command", [("preimage", "list"),
                                         ("erdos", "witness")])
    def test_refused_before_the_degree_bound(self, command):
        # computing the degree bound first (min_phi at each of ~1000
        # degrees) took over 30 s; 2**1000 - 1 is in the q = 2 intersection
        proc = self.run_cli(*command, "--p", "2", "--n", str(2**1000 - 1))
        assert proc.returncode == 2 and "limit" in proc.stderr

    @pytest.mark.parametrize("y", [10**22, 10**4000],
                             ids=["in-the-walk", "before-the-walk"])
    def test_density_beyond_the_node_limit(self, y):
        # 10**22: the walk passes NODE_LIMIT after about 0.3 s; 10**4000 is
        # refused before it (the walk once held 10**6 13,000-bit values)
        proc = self.run_cli("density", "--p", "2", "--y", str(y))
        assert proc.returncode == 2 and "NODE_LIMIT" in proc.stderr

    @pytest.mark.parametrize("q,y", [(2, 10**100), (2, 10**4000),
                                     (3, 10**4000)])
    def test_erdos_scan_beyond_the_scan_limit(self, q, y):
        # 10**100 over F_2 once ran past 30 s with no output; both are
        # refused from the slot-tuple bound, before the walk
        proc = self.run_cli("erdos", "scan", "--p", str(q), "--y", str(y))
        assert proc.returncode == 2 and "SCAN_LIMIT" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ("--p", "3", "--kind", "power", "--l", "8"),
        ("--p", "3", "--kind", "power", "--l", "9"),
        ("--p", "2", "--kind", "exact", "--l", "100000"),
        ("--p", "5", "--kind", "binomial", "--l", "100000")])
    def test_sierpinski_beyond_the_digit_limit(self, argv):
        # each once counted for 2.7 s to past 15 s before printing n failed
        proc = self.run_cli("sierpinski", *argv)
        assert proc.returncode == 2 and "digits" in proc.stderr

    @pytest.mark.parametrize("argv", SIERPINSKI_PAST_THE_LIMIT)
    def test_sierpinski_refused_at_once(self, argv):
        # a refusal costs no more than the start-up
        proc = run_subprocess("sierpinski", *argv, timeout=10)
        assert proc.returncode == 2 and "digits" in proc.stderr

    def test_sierpinski_at_the_digit_limit(self):
        # 2**e < 10**limit < 2**(e+1): n = 2**(l-3) prints up to l = e + 3
        e = (10 ** sys.get_int_max_str_digits()).bit_length() - 1
        printed = self.run_cli(
            "sierpinski", "--p", "2", "--kind", "exact", "--l", str(e + 3))
        assert printed.returncode == 0, printed.stderr
        assert json.loads(printed.stdout)["n"] == str(2**e)
        refused = self.run_cli(
            "sierpinski", "--p", "2", "--kind", "exact", "--l", str(e + 4))
        assert refused.returncode == 2 and "digits" in refused.stderr

    @pytest.mark.parametrize("command,poly", [("phi", "x^100000"),
                                              ("sigma", "x^20000")])
    def test_value_beyond_the_digit_limit(self, command, poly):
        # each once computed for 1.4 s and 0.16 s, then exited 2 with the
        # interpreter's own "Exceeds the limit" text as its message
        proc = run_subprocess(command, "--p", "2", "--poly", poly, timeout=10)
        assert proc.returncode == 2 and proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith("error:") and "digits" in line, line
        assert "set_int_max_str_digits" not in line

    @pytest.mark.parametrize("command", ["phi", "sigma"])
    def test_value_at_the_digit_limit(self, command):
        # x^d over F_10007: the last degree whose value prints, and the
        # first, refused with one error line
        limit = sys.get_int_max_str_digits()
        p = 10007

        def value(d):
            if command == "phi":
                return p ** (d - 1) * (p - 1)
            return (p ** (d + 1) - 1) // (p - 1)

        d = int(limit / math.log10(p)) - 2
        while value(d + 1) < 10**limit:
            d += 1
        printed = self.run_cli(command, "--p", str(p), "--poly", f"x^{d}")
        assert printed.returncode == 0, printed.stderr
        assert json.loads(printed.stdout)["value"] == str(value(d))
        refused = self.run_cli(command, "--p", str(p), "--poly",
                               f"x^{d + 1}")
        assert refused.returncode == 2 and refused.stdout == ""
        [line] = refused.stderr.splitlines()
        assert line.startswith("error:") and "digits" in line, line

    def test_power_of_x_at_the_digit_limit(self):
        # phi(x^14285) = 2**14284 is the last power of x over F_2 whose
        # value prints; its factoring once ran past 20 s, a gcd and a
        # division per unit of multiplicity in the square-free split
        printed = run_subprocess("phi", "--p", "2", "--poly", "x^14285",
                                 timeout=10)
        assert printed.returncode == 0, printed.stderr
        assert json.loads(printed.stdout) == {
            "value": str(2**14284), "factored": {"j": 14284, "m": {"1": 1}}}
        refused = run_subprocess("phi", "--p", "2", "--poly", "x^14286",
                                 timeout=10)
        assert refused.returncode == 2 and "digits" in refused.stderr

    def test_factor_a_high_power(self):
        # (x+1)^4095 over F_2 has all 4096 terms, as 4095 = 2^12 - 1; its
        # square-free split took 2.8 s at one gcd per unit of multiplicity
        poly = "+".join(f"x^{k}" for k in range(4096))
        proc = run_subprocess("factor", "--p", "2", "--poly", poly, timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "unit": 1, "factors": [{"poly": "x+1", "exp": 4095}]}

    def test_pi_over_a_large_extension(self):
        # the modulus search once walked the 2**59 monics of degree 60
        # with constant term 0, each divisible by x, before the first
        # candidate that can be irreducible
        proc = self.run_cli("pi", "--p", "2", "--s", "60", "--d", "1")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"d": 1, "pi": str(2**60)}

    @pytest.mark.parametrize("command,poly", [
        ("phi", "x^99999999999"), ("factor", "x^100000000000000000000")])
    def test_poly_exponent_beyond_the_limit(self, command, poly):
        # these once ended in a MemoryError and an OverflowError traceback
        # with exit 1, the code for a failed mathematical check
        proc = run_subprocess(command, "--p", "2", "--poly", poly, timeout=10)
        assert proc.returncode == 2 and "EXPONENT_LIMIT" in proc.stderr

    def test_pi_beyond_the_digit_limit(self):
        # 2**(10**12) alone would take about 125 GB; 10**4000 is refused
        # from the same integer bound, with no float to overflow
        for d in (10**12, 10**4000):
            proc = self.run_cli("pi", "--p", "2", "--d", str(d))
            assert proc.returncode == 2 and "digits" in proc.stderr, d


class TestLargeValues:
    """Values far above the oracle's reach; the representation search once
    recursed per basis degree and died with RecursionError on these."""

    def test_count_of_a_mersenne_value(self):
        # the primitive part of 2**1100 - 1 forces m_1100 = 1 and nothing
        # else; m_1 is free in 0..2
        proc = run_subprocess(
            "preimage", "count", "--p", "2", "--n", str(2**1100 - 1))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "count": str(4 * FieldSpec(2).pi(1100))}

    def test_q3_power_construction_l6(self):
        proc = run_subprocess("sierpinski", "--p", "3", "--kind", "power",
                              "--l", "6")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["computed"] == "729" and payload["ok"] is True

    def test_count_within_the_timeout(self):
        proc = run_subprocess(
            "preimage", "count", "--p", "2", "--n", str(2**4000 - 1))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "count": str(4 * FieldSpec(2).pi(4000))}

    def test_extension_of_a_large_prime_field(self):
        # The modulus search of F_(p**2) once listed its coefficient ranges,
        # about 2 * 10**9 codes, before its first candidate: without a cap
        # the kernel killed the process for memory.
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        proc = run_subprocess("pi", "--p", "1000000007", "--s", "2", "--d",
                              "1", preexec_fn=cap)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == '{"d": 1, "pi": "1000000014000000049"}\n'


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_malformed_poly(self, capsys):
        code, _, err = run(capsys, "phi", "--p", "2", "--poly", "x**2")
        assert code == 2 and "error" in err

    def test_out_of_range_coefficient(self, capsys):
        code, _, err = run(capsys, "phi", "--p", "2", "--poly", "2*x")
        assert code == 2

    def test_composite_characteristic(self, capsys):
        code, _, err = run(capsys, "phi", "--p", "4", "--poly", "x")
        assert code == 2

    def test_strong_pseudoprime_characteristic(self, capsys):
        # psi_12 passes Miller-Rabin to the twelve prime bases 2..37
        code, _, err = run(
            capsys, "pi", "--p", "318665857834031151167461", "--d", "1")
        assert code == 2 and "prime" in err

    def test_constant_poly_rejected(self, capsys):
        code, _, err = run(capsys, "phi", "--p", "2", "--poly", "1")
        assert code == 2

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "phi", "--p", "2")[0] == 2


# The fqphi modules each cold path loads.  A command loads only what it
# runs: counting never loads gfpoly, verify loads only for `fqphi verify`,
# and nothing loads dataclasses (or, through it, inspect).
CLI_BASE = {"fqphi", "fqphi.cli", "fqphi.errors", "fqphi.field",
            "fqphi.numtheory"}
ALL_MODULES = CLI_BASE | {
    "fqphi.collision", "fqphi.density", "fqphi.erdos", "fqphi.gfpoly",
    "fqphi.preimage", "fqphi.totient", "fqphi.verify"}
COLD_PATHS = [
    ("import fqphi", {"fqphi"}),
    ("from fqphi import FieldSpec; FieldSpec(2)",
     {"fqphi", "fqphi.field", "fqphi.numtheory"}),
    ("from fqphi import FieldSpec; FieldSpec(2, 2)",
     {"fqphi", "fqphi.errors", "fqphi.field", "fqphi.gfpoly",
      "fqphi.numtheory"}),
    ("import fqphi.cli", CLI_BASE),
    (["preimage", "count", "--p", "2", "--n", "4096"],
     CLI_BASE | {"fqphi.preimage"}),
    (["pi", "--p", "7", "--d", "3"], CLI_BASE),
    (["erdos", "member", "--p", "2", "--n", "12"],
     CLI_BASE | {"fqphi.erdos", "fqphi.preimage"}),
    (["sierpinski", "--p", "3", "--kind", "power", "--l", "3"],
     CLI_BASE | {"fqphi.preimage"}),
    (["verify", "lemmas", "--p", "2"], ALL_MODULES),
]


def test_cold_start_imports():
    env = dict(os.environ, PYTHONPATH=SRC)
    for case, expected in COLD_PATHS:
        if isinstance(case, list):
            case = f"from fqphi.cli import main; main({case!r})"
        code = (f"import sys; {case}; print(' '.join(sorted(m for m in "
                "sys.modules if m.partition('.')[0] in "
                "('fqphi', 'dataclasses', 'inspect'))))")
        proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, (case, proc.stderr)
        loaded = set(proc.stdout.splitlines()[-1].split())
        assert loaded == expected, case


def probe_argvs(seed, count):
    """``count`` argv drawn from ``random.Random(seed)``, cycling through
    the 11 commands: p in {2, 3, 5, 13, 37, 257} with s = 2 only for p <= 5,
    n and y up to 10**3, d up to 50, l up to 6, polynomials of degree up to
    12 with 1 to 4 terms."""
    rng = random.Random(seed)
    commands = ("phi", "sigma", "factor", "signature", "same-phi", "pi",
                "preimage", "sierpinski", "erdos", "density", "verify")

    def poly(q):
        degrees = sorted(rng.sample(range(13), rng.randint(1, 4)))
        return "+".join(f"{rng.randrange(1, q)}*x^{k}" for k in degrees)

    out = []
    for i in range(count):
        command = commands[i % len(commands)]
        p = rng.choice((2, 3, 5, 13, 37, 257))
        s = rng.choice((1, 2)) if p <= 5 else 1
        argv = [command, "--p", str(p), "--s", str(s),
                "--format", rng.choice(("json", "csv", "text"))]
        if command in ("phi", "sigma", "factor", "signature"):
            argv += ["--poly", poly(p**s)]
        elif command == "same-phi":
            argv += ["--f", poly(p**s), "--g", poly(p**s)]
        elif command == "pi":
            argv += ["--d", str(rng.randint(1, 50))]
        elif command == "preimage":
            argv[1:1] = [rng.choice(("count", "list", "profile"))]
            argv += ["--n", str(rng.randint(1, 1000))]
        elif command == "sierpinski":
            argv += ["--kind", rng.choice(("exact", "power", "binomial")),
                     "--l", str(rng.randint(1, 6))]
        elif command == "erdos":
            action = rng.choice(("member", "scan", "witness"))
            argv[1:1] = [action]
            argv += ["--y" if action == "scan" else "--n",
                     str(rng.randint(1, 1000))]
        elif command == "density":
            argv += ["--y", str(rng.randint(1, 1000))]
        else:
            argv[1:1] = [rng.choice(
                ("collisions", "preimage", "sierpinski", "erdos", "density",
                 "lemmas", "all"))]
        out.append(argv)
    return out


@pytest.mark.parametrize(
    "argv", [["preimage", "list", "--p", "37", "--n", "36"],
             ["pi", "--p", "2", "--d", "14299"],
             ["pi", "--p", "3", "--d", "9021"],
             ["pi", "--p", "2", "--s", "2", "--d", "7149"]]
    + probe_argvs(38, 23), ids="_".join)
def test_seeded_probe(capsys, argv):
    # in-process, so no child processes: every input exits 0, 1 or 2 and
    # raises nothing; exit 2 ends in one error line with no traceback and
    # none of the interpreter's own advice
    code, _, err = run(capsys, *argv)
    assert code in (0, 1, 2), (code, err)
    if code == 2:
        assert err.splitlines()[-1].startswith("error:"), err
        assert "Traceback" not in err, err
        assert "set_int_max_str_digits" not in err, err
