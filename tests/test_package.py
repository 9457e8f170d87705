"""The package surface: names load lazily but resolve as before."""

import importlib
import os
import pickle
import subprocess
import sys

import pytest

import fqphi
from fqphi import field, gfpoly

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")
PUBLIC = [name for name in fqphi.__all__ if name != "__version__"]
COMMANDS = ("phi", "sigma", "factor", "signature", "same-phi", "pi",
            "preimage", "sierpinski", "erdos", "density", "verify")


def child(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-S", "-c", code],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=30)


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_its_home_modules(name):
    value = getattr(fqphi, name)
    home = importlib.import_module(value.__module__)
    assert getattr(home, name) is value
    assert home.__name__.startswith("fqphi.")


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from fqphi import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(fqphi.__all__)
    assert namespace["__version__"] == "0.1.0"


def test_dir_lists_all():
    assert set(fqphi.__all__) <= set(dir(fqphi))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        fqphi.no_such_name
    assert not hasattr(fqphi, "Poly_")


@pytest.mark.parametrize("name", ["density_report", "sigma_exponents",
                                  "sieve"])
def test_test_helpers_are_not_public(name):
    # each lives in the tests that read it
    assert name not in fqphi.__all__
    with pytest.raises(AttributeError, match=name):
        getattr(fqphi, name)


def test_names_and_submodules_load_on_first_access():
    proc = child(
        "import sys, fqphi\n"
        "assert not [m for m in sys.modules if m.startswith('fqphi.')]\n"
        "assert fqphi.preimage_count(4, fqphi.FieldSpec(2)) > 0\n"
        "assert 'preimage_count' in vars(fqphi)\n"  # cached on first access
        "assert fqphi.verify.run_suite and fqphi.cli.main\n"
        "print(sorted(m for m in sys.modules if m.startswith('fqphi.')))")
    assert proc.returncode == 0, proc.stderr
    assert "'fqphi.verify'" in proc.stdout and "'fqphi.cli'" in proc.stdout


def test_fieldspec_is_one_class():
    assert fqphi.FieldSpec is field.FieldSpec is gfpoly.FieldSpec


@pytest.mark.parametrize("p,s", [(2, 1), (5, 1), (2, 2), (3, 2)])
def test_fieldspec_pickles(p, s):
    spec = fqphi.FieldSpec(p, s)
    loaded = pickle.loads(pickle.dumps(spec))
    assert loaded == spec and hash(loaded) == hash(spec)
    assert loaded.modulus == spec.modulus
    assert all(loaded.mul(a, b) == spec.mul(a, b)
               for a in range(spec.q) for b in range(spec.q))
    assert loaded.x() ** 3 == spec.x() ** 3


def test_help_lists_every_command():
    proc = subprocess.run([sys.executable, "-m", "fqphi.cli", "--help"],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage: fqphi [-h]")
    assert "{" + ",".join(COMMANDS) + "}" in proc.stdout


def test_bad_command_is_a_usage_error():
    proc = subprocess.run([sys.executable, "-m", "fqphi.cli", "frobnicate"],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("usage: fqphi [-h]")
    assert "invalid choice: 'frobnicate'" in proc.stderr
