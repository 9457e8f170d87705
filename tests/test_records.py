"""The result records: immutable NamedTuples with fixed reprs, field-wise
equality, and copy and pickle round trips."""

import copy
import pickle

import pytest

from fqphi import (
    FieldSpec,
    count_profile,
    erdos,
    factor,
    intersection_member,
    parse_poly,
    phi,
    represent,
    signature,
    verify,
)
from test_density import density_report
from test_totient import sigma_exponents

F2, F3, F5 = FieldSpec(2), FieldSpec(3), FieldSpec(5)

# (a factory for the record, its repr)
RECORDS = [
    (lambda: factor(parse_poly(F2, "x^3+x")),
     "Factorization(field=FieldSpec(p=2), unit=1, parts=((Poly('x', q=2), 1), "
     "(Poly('x+1', q=2), 2)))"),
    (lambda: represent(24, F3)[0],
     "Representation(j=1, counts={1: 3})"),
    (lambda: count_profile(4, F5),
     "CountProfile(n=4, count=5, label='exactly-q')"),
    (lambda: signature(parse_poly(F2, "x^3+x^2")),
     "Signature(degree=3, counts={1: 2})"),
    (lambda: phi(parse_poly(F2, "x^3+x^2")),
     "PhiValue(j=1, counts={1: 2}, value=2)"),
    (lambda: sigma_exponents(parse_poly(F2, "x^2")),
     "SigmaExponents(exps={3: 1, 1: -1})"),
    (lambda: density_report(16, F2),
     "DensityReport(y=16, k=4, count=11, bound=218.39260013257692, "
     "ratio=0.6875, bound_checked=True)"),
    (lambda: intersection_member(1905, F2),
     "IntersectionVerdict(n=1905, member=True, family='(2^d1-1)(2^d2-1)', "
     "params=(4, 7))"),
    (lambda: intersection_member(5, F2),
     "IntersectionVerdict(n=5, member=False, family=None, params=None)"),
    (lambda: erdos._FAMILIES[2][0],
     "_Family(tag='(2^d1-1)', fixed=(), slots=((2, None),))"),
    (lambda: verify.CheckResult("c", True),
     "CheckResult(name='c', ok=True, detail='')"),
    (lambda: verify.Budgets(3),
     "Budgets(degree=3, n=None, y=None)"),
]


@pytest.mark.parametrize("make,text", RECORDS,
                         ids=[text.split("(")[0] for _, text in RECORDS])
def test_record(make, text):
    record = make()
    assert repr(record) == text
    fields = {name: getattr(record, name) for name in record._fields}
    again = type(record)(**fields)
    assert again == record and again is not record
    assert record == tuple(fields.values())
    assert copy.copy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_budgets_keep_their_check():
    with pytest.raises(ValueError, match="--budget-y must be >= 1, got 0"):
        verify.Budgets(y=0)
