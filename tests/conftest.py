import pytest

from fqphi import FieldSpec, preimage


@pytest.fixture(autouse=True)
def no_last_form():
    # a form left by an earlier test would skip the walk a test observes
    preimage._LAST.clear()


@pytest.fixture
def no_sieve(monkeypatch):
    """``preimage.sieve`` raises: it decodes every monic to a ``Poly``, and
    readers of the sieve by position must not go through it.  SieveEntry
    too: a module that imported ``sieve`` by name would still build its
    entries."""
    def refuse(*args, **kwargs):
        raise AssertionError("sieve called")

    monkeypatch.setattr(preimage, "sieve", refuse)
    monkeypatch.setattr(preimage, "SieveEntry", refuse)


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
