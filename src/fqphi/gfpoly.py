"""Univariate polynomial arithmetic over the finite fields of ``field``.

The field and its element codes are described in ``field``; ``FieldSpec``
is re-exported here.

Polynomials store a tuple of coefficient codes in ascending degree order
with no trailing zeros.  The zero polynomial is the empty tuple and reports
degree -1, the stand-in for "minus infinity".

Text form (used by the CLI and JSON payloads): terms ``c*x^k``, ``x^k``,
``x`` or ``c`` joined by ``+``, coefficients written as decimal codes in
[0, q); output is sorted by descending degree with zero terms omitted and
the zero polynomial prints ``0``.
"""

from __future__ import annotations

import operator
import random
import re
from itertools import product
from typing import Iterator, NamedTuple

from .errors import CounterexampleError
# FieldSpec lives in field and is re-exported: fqphi.gfpoly.FieldSpec is
# fqphi.field.FieldSpec.
from .field import FieldSpec, _coeffs_text, _power


def _mk(field: FieldSpec, coeffs: tuple[int, ...]) -> "Poly":
    # Fast internal constructor: coeffs already normalized and in range.
    poly = Poly.__new__(Poly)
    poly.field = field
    poly.coeffs = coeffs
    return poly


def _strip(coeffs: list[int]) -> tuple[int, ...]:
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return tuple(coeffs[:i])


# -- packed multiplication over prime fields --------------------------------
#
# Kronecker substitution (Harvey, J. Symbolic Comput. 44 (2009)): write the
# codes of a polynomial over F_p into lanes of one integer, lowest degree in
# the lowest lane, and a single integer product holds the coefficients of
# the polynomial product, each in its own lane and not yet reduced mod p.
# Lane k of a * b sums at most min(len a, len b) products of two codes
# below p, so lanes of 8 * width bits with 2**(8 * width) > that count times
# (p - 1)**2 never carry into each other.

# Per prime p with one-byte lanes: byte value -> value mod p, for
# bytes.translate.  Built on first use; one-byte lanes need (p - 1)**2 < 256,
# so at most six tables (p <= 13) ever exist.
_RESIDUES: dict[int, bytes] = {}


def kron_width(p: int, length: int) -> int:
    """Bytes per lane for products over F_p whose shorter factor has at
    most ``length`` coefficients."""
    return ((length * (p - 1) ** 2).bit_length() + 7) // 8


def kron_pack(coeffs, width: int) -> int:
    """The codes as one integer, ``width`` bytes per lane, lowest first."""
    if width == 1:
        return int.from_bytes(bytes(coeffs), "little")
    return int.from_bytes(
        b"".join(c.to_bytes(width, "little") for c in coeffs), "little")


def kron_unpack(value: int, p: int, width: int):
    """The lanes of ``value`` reduced mod p, lowest first, one per lane up to
    its highest nonzero lane: bytes for one-byte lanes, else a list."""
    raw = value.to_bytes(
        -(-value.bit_length() // (8 * width)) * width, "little")
    if width == 1:
        table = _RESIDUES.get(p)
        if table is None:
            table = _RESIDUES[p] = bytes(v % p for v in range(256))
        return raw.translate(table)
    return [int.from_bytes(raw[k:k + width], "little") % p
            for k in range(0, len(raw), width)]


def kron_mul(a, b, p: int):
    """Codes of the product of two nonzero polynomials over F_p, given by
    their codes without trailing zeros.  The top lane holds the product of
    the two leading codes, nonzero mod p, so the result has no trailing
    zeros either."""
    width = kron_width(p, min(len(a), len(b)))
    return kron_unpack(kron_pack(a, width) * kron_pack(b, width), p, width)


class Poly:
    """A polynomial over a FieldSpec, coefficient codes in ascending degree."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs=()):
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, int) or not 0 <= c < field.q:
                raise ValueError(f"coefficient code {c!r} not in [0, {field.q})")
        self.field = field
        self.coeffs = _strip(coeffs)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial (read: minus infinity)."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self) -> "Poly":
        if self.is_zero() or self.coeffs[-1] == 1:
            return self
        fld = self.field
        inv = fld.inv(self.coeffs[-1])
        return _mk(fld, tuple(fld.mul(c, inv) for c in self.coeffs))

    def size(self) -> int:
        """|f| = q**deg f, the order of the residue ring. Nonzero f only."""
        if self.is_zero():
            raise ValueError("|f| undefined for the zero polynomial")
        return self.field.q**self.degree

    def evaluate(self, code: int) -> int:
        fld = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = fld.add(fld.mul(acc, code), c)
        return acc

    def derivative(self) -> "Poly":
        fld = self.field
        out = []
        for k in range(1, len(self.coeffs)):
            scalar = k % fld.p
            out.append(fld.mul(self.coeffs[k], scalar) if scalar else 0)
        return _mk(fld, _strip(out))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        fld = self._common_field(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = fld.add(out[i], c)
        return _mk(fld, _strip(out))

    def __neg__(self) -> "Poly":
        fld = self.field
        return _mk(fld, tuple(fld.neg(c) for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        """Product.  Over a prime field one packed integer multiply
        (``kron_mul``); over an extension field the schoolbook loop on the
        element tables."""
        fld = self._common_field(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _mk(fld, ())
        if fld.s == 1:
            return _mk(fld, tuple(kron_mul(a, b, fld.p)))
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = fld.add(out[i + j], fld.mul(ai, bj))
        return _mk(fld, _strip(out))

    def __pow__(self, e: int) -> "Poly":
        return _power(self, e, _mk(self.field, (1,)), operator.mul)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        fld = self._common_field(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        db = other.degree
        if self.degree < db:
            return _mk(fld, ()), self
        inv_lead = fld.inv(other.coeffs[-1])
        rem = list(self.coeffs)
        quot = [0] * (len(rem) - db)
        b = other.coeffs
        for k in range(len(rem) - db - 1, -1, -1):
            c = fld.mul(rem[db + k], inv_lead)
            if c:
                quot[k] = c
                for i, bi in enumerate(b):
                    if bi:
                        rem[i + k] = fld.sub(rem[i + k], fld.mul(c, bi))
        return _mk(fld, _strip(quot)), _mk(fld, _strip(rem[:db]))

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def _common_field(self, other: "Poly") -> FieldSpec:
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        fld = self.field
        if fld is not other.field and fld != other.field:
            raise ValueError("polynomials over different fields")
        return fld

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and (self.field is other.field or self.field == other.field)
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.coeffs))

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """(degree, coefficient codes low-degree-first) - the canonical order."""
        return (self.degree, self.coeffs)

    def __lt__(self, other: "Poly") -> bool:
        self._common_field(other)
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        return _coeffs_text(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({str(self)!r}, q={self.field.q})"


# -- gcd / modular exponentiation ------------------------------------------


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor; gcd(f, 0) is the monic associate of f."""
    f._common_field(g)
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd(0, 0) undefined")
    while not g.is_zero():
        f, g = g, f % g
    return f.monic()


def powmod(f: Poly, e: int, g: Poly) -> Poly:
    """f**e mod g with an arbitrary-precision exponent."""
    if g.is_zero():
        raise ZeroDivisionError("reduction modulo zero polynomial")
    return _power(f % g, e, _mk(f.field, (1,)) % g, lambda a, b: a * b % g)


# -- irreducibility -----------------------------------------------------------


def is_irreducible(f: Poly) -> bool:
    """Whether the distinct-degree split of f starts with (f, deg f): Ben-Or's
    test, gcd(f, x^(q^i) - x) = 1 for every i <= d/2.

    x^(q^i) - x is the product of the monic irreducibles whose degree
    divides i.  For any monic f of degree d, square-free or not: a reducible
    f has a prime factor of degree i <= d/2, which divides x^(q^i) - x, so
    the first block comes at an index i <= d/2 < d; an irreducible f divides
    x^(q^i) - x only when d | i, so for i < d it shares no factor with it
    and the first block is (f, d).  (Ben-Or, FOCS 1981; von zur Gathen &
    Gerhard, Modern Computer Algebra, ch. 14.)"""
    d = f.degree
    if d < 1:
        raise ValueError("irreducibility undefined for constants")
    return next(_distinct_degree(f.monic()))[1] == d


# -- factorization ------------------------------------------------------------


class Factorization(NamedTuple):
    """unit * product(P**e) with monic irreducible parts, canonically sorted.

    Iterating yields the parts, not the three fields."""

    field: FieldSpec
    unit: int
    parts: tuple[tuple[Poly, int], ...]

    def expand(self) -> Poly:
        out = Poly(self.field, (self.unit,))
        for part, exp in self.parts:
            out = out * part**exp
        return out

    def __iter__(self):
        return iter(self.parts)

    def __reduce__(self):
        # copy and pickle would rebuild from __iter__, i.e. from the parts
        return Factorization, (self.field, self.unit, self.parts)


def _pth_root(f: Poly) -> Poly:
    # f must have the form g(x^p); coefficient-wise inverse Frobenius.
    fld = f.field
    p = fld.p
    out = []
    for k in range(0, len(f.coeffs), p):
        c = f.coeffs[k]
        out.append(fld.elem_pow(c, p ** (fld.s - 1)) if fld.s > 1 else c)
    for k, c in enumerate(f.coeffs):
        if k % p and c:
            raise ValueError("polynomial is not a p-th power")
    return _mk(fld, _strip(out))


def _squarefree_parts(f: Poly) -> list[tuple[Poly, int]]:
    # f monic, deg >= 1 -> monic squarefree parts with multiplicities,
    # f = prod(part**mult): Yun's loop read mod p (von zur Gathen & Gerhard,
    # Modern Computer Algebra, 14.6).  With f = prod P**e and b the product of
    # the P with p not dividing e, step i has d = sum (e - i) P' prod_{Q != P} Q,
    # so g is the product of the P in b with e = i mod p: the loop ends within
    # p - 1 steps, and a keeps P**(e - i), a p-th power, for its root.  Parts
    # may share a prime; factor adds up the multiplicities per irreducible.
    deriv = f.derivative()
    a = gcd(f, deriv)
    if a.degree == 0:
        return [(f, 1)]
    b, c = f // a, deriv // a
    parts = []
    i = 1
    while b.degree > 0:
        d = c - b.derivative()
        g = gcd(b, d)
        if g.degree > 0:
            parts.append((g, i))
            a = a // g**(i - 1)
        b, c = b // g, d // g
        i += 1
    if a.degree > 0:
        parts += [(h, f.field.p * m)
                  for h, m in _squarefree_parts(_pth_root(a))]
    return parts


def _distinct_degree(g: Poly) -> Iterator[tuple[Poly, int]]:
    # g monic -> (product of the irreducible factors of degree d, d), d rising.
    # The first block is right for any g (see is_irreducible); later ones
    # need g squarefree, or a repeated factor left in g // comp comes back
    # in the block of a multiple of its degree.
    fld = g.field
    x = _mk(fld, (0, 1))
    h = x % g
    d = 0
    while g.degree > 0:
        d += 1
        if g.degree < 2 * d:
            yield g, g.degree
            return
        h = powmod(h, fld.q, g)
        comp = gcd(g, h - x)
        if comp.degree > 0:
            yield comp, d
            g = g // comp
            h = h % g


#: Random splits ``_equal_degree`` tries per call.  With consistent field
#: arithmetic each one succeeds with probability at least about 1/2 (von zur
#: Gathen & Gerhard, Modern Computer Algebra, ch. 14), so a call reaches the
#: cap with probability at most about 2**-64.  The generator is seeded with
#: q and g's coefficients, so a given input reaches the cap always or never.
SPLIT_ATTEMPTS = 64


def _equal_degree(g: Poly, d: int) -> list[Poly]:
    # g monic squarefree with all irreducible factors of degree d.
    if g.degree == d:
        return [g]
    fld = g.field
    rng = random.Random(f"{fld.q}:{g.coeffs}")
    one = _mk(fld, (1,))
    for _ in range(SPLIT_ATTEMPTS):
        coeffs = [rng.randrange(fld.q) for _ in range(g.degree)]
        a = _mk(fld, _strip(coeffs))
        if a.degree < 1:
            continue
        cand = gcd(g, a)
        if 0 < cand.degree < g.degree:
            return _equal_degree(cand, d) + _equal_degree(g // cand, d)
        if fld.p != 2:
            b = powmod(a, (fld.q**d - 1) // 2, g)
            cand = gcd(g, b - one)
        else:
            t = a % g
            acc = t
            for _ in range(fld.s * d - 1):
                t = powmod(t, 2, g)
                acc = acc + t
            cand = gcd(g, acc)
        if 0 < cand.degree < g.degree:
            return _equal_degree(cand, d) + _equal_degree(g // cand, d)
    raise CounterexampleError(
        f"no split of {g} into degree-{d} factors in {SPLIT_ATTEMPTS} "
        f"attempts over F_{fld.q}")


def factor(f: Poly) -> Factorization:
    """Factor into monic irreducibles: squarefree split (Yun's loop, its
    steps bounded by p whatever the multiplicities), distinct-degree, and
    equal-degree splitting on random elements from a generator seeded with
    q and the block's coefficients, so every run does the same work."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    unit = f.leading()
    counts: dict[Poly, int] = {}
    if f.degree > 0:
        for part, mult in _squarefree_parts(f.monic()):
            for block, d in _distinct_degree(part):
                for irr in _equal_degree(block, d):
                    counts[irr] = counts.get(irr, 0) + mult
    parts = tuple(sorted(counts.items(), key=lambda kv: kv[0].sort_key()))
    return Factorization(f.field, unit, parts)


# -- enumeration ---------------------------------------------------------------


def enumerate_monic(spec: FieldSpec, d: int) -> Iterator[Poly]:
    """All q**d monic polynomials of degree d, low-degree-first lexicographic."""
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    for tail in product(range(spec.q), repeat=d):
        yield _mk(spec, tail + (1,))


def _monic_codes(q: int, d: int, pos: int) -> tuple[int, ...]:
    """The codes of the monic of degree d at this position in enumeration
    order: the base-q digits of the position, most significant first, are
    its coefficients from the constant term up."""
    codes = [1] * (d + 1)
    for j in range(d - 1, -1, -1):
        pos, codes[j] = divmod(pos, q)
    return tuple(codes)


def enumerate_irreducibles(spec: FieldSpec, d: int) -> Iterator[Poly]:
    """Monic irreducibles of degree d in enumeration order."""
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    q = spec.q
    # Above degree 1 a constant term 0 is the factor x, and the constant
    # term is a position's slowest digit: the positions start at q**(d-1).
    # They are decoded one at a time, so a large field costs nothing before
    # its first candidate (the modulus search of F_(p**2), p near 10**9).
    for pos in range(q ** (d - 1) if d > 1 else 0, q**d):
        f = _mk(spec, _monic_codes(q, d, pos))
        if is_irreducible(f):
            yield f


def pi_divisibility_holds(spec: FieldSpec, d: int) -> bool:
    """Whether p | pi_q(d) or 4 | pi_q(d); guaranteed for every q != 2."""
    if spec.q == 2:
        raise ValueError("divisibility statement requires q != 2")
    value = spec.pi(d)
    return value % spec.p == 0 or value % 4 == 0


# -- text form ------------------------------------------------------------------

_TERM_RE = re.compile(r"^(?:(\d+)\*)?x(?:\^(\d+))?$|^(\d+)$")

#: Largest term exponent ``parse_poly`` accepts.  On a 2-core x86-64 host
#: parsing x^(10**6)+x+1 takes about 25 ms and 22 MB; at 10**7 it takes
#: 0.23 s and 230 MB, and the list of coefficients grows linearly past that.
#: Arithmetic on a polynomial near the limit can still take much longer.
EXPONENT_LIMIT = 10**6


def parse_poly(spec: FieldSpec, text: str) -> Poly:
    """Parse the polynomial text grammar; whitespace is ignored.  A term
    exponent above ``EXPONENT_LIMIT`` raises ValueError."""
    stripped = re.sub(r"\s+", "", text)
    if not stripped:
        raise ValueError("empty polynomial text")
    acc: dict[int, int] = {}
    for term in stripped.split("+"):
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"malformed polynomial term {term!r}")
        coeff_s, exp_s, const_s = m.groups()
        if const_s is not None:
            code, k = int(const_s), 0
        else:
            code = int(coeff_s) if coeff_s is not None else 1
            k = int(exp_s) if exp_s is not None else 1
            if k > EXPONENT_LIMIT:
                raise ValueError(
                    f"exponent {k} in term {term!r} is above the limit "
                    f"EXPONENT_LIMIT = {EXPONENT_LIMIT}")
        if code >= spec.q:
            raise ValueError(
                f"coefficient code {code} out of range for q = {spec.q}")
        acc[k] = spec.add(acc.get(k, 0), code)
    out = [0] * (max(acc) + 1)
    for k, code in acc.items():
        out[k] = code
    return _mk(spec, _strip(out))
