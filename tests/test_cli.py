import json

import pytest

from fqphi import FieldSpec, parse_poly
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
