import pytest

from fqphi import FieldSpec, preimage


@pytest.fixture(autouse=True)
def no_cached_state():
    # a form, sieve build or min_phi table left by an earlier test would
    # skip the walk or the build a test observes, and could carry values a
    # fault injected
    preimage._LAST.clear()
    preimage._BUILDS.clear()
    preimage._MIN_PHIS.clear()


@pytest.fixture(scope="session")
def F2():
    return FieldSpec(2)


@pytest.fixture(scope="session")
def F3():
    return FieldSpec(3)


@pytest.fixture(scope="session")
def F4():
    return FieldSpec(2, 2)


@pytest.fixture(scope="session")
def F5():
    return FieldSpec(5)
