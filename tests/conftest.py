import pytest

from fqphi import FieldSpec, preimage


@pytest.fixture(autouse=True)
def no_last_form():
    # a form left by an earlier test would skip the walk a test observes
    preimage._LAST.clear()


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
