"""Finite fields F_q (q = p^s) and univariate polynomial arithmetic.

Field elements are integer codes in [0, q).  For a prime field the code is
the residue itself.  For an extension field the base-p digits of the code
are the coordinates of the element on the power basis of the modulus root,
where the modulus is the lexicographically smallest monic irreducible of
degree s over F_p (coefficients compared low-degree-first), so every run
and every machine builds the same field.

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
from .numtheory import factor_int, is_prime

# Element add/mul lookup tables are built for extension fields up to this
# order; larger fields fall back to per-operation digit arithmetic.
_TABLE_LIMIT = 256


def _code_digits(code: int, p: int, s: int) -> list[int]:
    digits = []
    for _ in range(s):
        digits.append(code % p)
        code //= p
    return digits


def _digits_code(digits: list[int], p: int) -> int:
    code = 0
    for d in reversed(digits):
        code = code * p + d
    return code


def _power(base, e: int, one, mul):
    """base**e by square-and-multiply.  ``mul`` is called at each step, so a
    rebound operator or method sees every product."""
    if e < 0:
        raise ValueError(f"negative exponent {e}")
    result = one
    while e:
        if e & 1:
            result = mul(result, base)
        base = mul(base, base)
        e >>= 1
    return result


class FieldSpec:
    """The field F_q with q = p**s elements.

    Immutable after construction; instances compare and hash by (p, s), which
    pins the field completely because the modulus choice is deterministic.
    """

    __slots__ = (
        "p", "s", "q", "modulus",
        "_add_table", "_mul_table", "_inv_table", "_neg_table",
        "_pi_cache", "_x", "_one", "_zero",
    )

    def __init__(self, p: int, s: int = 1):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if s < 1:
            raise ValueError(f"s must be >= 1, got {s}")
        self.p = p
        self.s = s
        self.q = p**s
        self.modulus = self._find_modulus() if s > 1 else None
        self._add_table = self._mul_table = None
        self._inv_table = self._neg_table = None
        if s > 1 and self.q <= _TABLE_LIMIT:
            self._build_tables()
        self._pi_cache: dict[int, int] = {}
        self._zero = _mk(self, ())
        self._one = _mk(self, (1,))
        self._x = _mk(self, (0, 1))

    def _find_modulus(self) -> tuple[int, ...]:
        # Lexicographically smallest monic irreducible of degree s over F_p,
        # candidates ordered low-degree-coefficient-first.
        return next(enumerate_irreducibles(FieldSpec(self.p), self.s)).coeffs

    def _build_tables(self) -> None:
        # Mul and inv through logarithms: the powers of a primitive element g
        # take q - 2 direct products, then a * b = g**(log a + log b).
        q, p, s = self.q, self.p, self.s
        mod = list(self.modulus)
        # neg takes its digit path while the table is still None
        self._neg_table = [self.neg(a) for a in range(q)]
        # digit-wise sums mod p; each pass adds a lowest digit i, k:
        # (a p + i) + (b p + k) = (a + b) p + (i + k) % p
        add: list[list[int]] = [[0]]
        lows = [[(lo + b) % p for b in range(p)] for lo in range(p)]
        for _ in range(s):
            add = [[h * p + low for h in row for low in lows[lo]]
                   for row in add for lo in range(p)]
        self._add_table = add
        order = q - 1
        # g is primitive when g**(order / r) != 1 for every prime r | order;
        # with no table yet, elem_pow multiplies by _ext_mul_direct
        g = next(a for a in range(2, q)
                 if all(self.elem_pow(a, order // r) != 1
                        for r in factor_int(order)))
        exp = [1] * (2 * order)  # g**k for k < 2 * order: no index reduction
        for k in range(1, order):
            exp[k] = self._ext_mul_direct(exp[k - 1], g, mod)
        exp[order:] = exp[:order]
        log = [0] * q
        for k in range(order):
            log[exp[k]] = k
        nonzero = log[1:]
        self._mul_table = [[0] * q] + [
            [0] + [exp[log[a] + lb] for lb in nonzero] for a in range(1, q)
        ]
        self._inv_table = [0] + [exp[order - log[a]] for a in range(1, q)]

    def _ext_mul_direct(self, a: int, b: int, mod: list[int]) -> int:
        p, s = self.p, self.s
        da = _code_digits(a, p, s)
        db = _code_digits(b, p, s)
        prod_ = [0] * (2 * s - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod_[i + j] += x * y
        prod_ = [v % p for v in prod_]
        for i in range(len(prod_) - 1, s - 1, -1):
            c = prod_[i]
            if c:
                for k, mk in enumerate(mod):
                    prod_[i - s + k] = (prod_[i - s + k] - c * mk) % p
        return _digits_code(prod_[:s], p)

    # -- element arithmetic on codes -------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.s == 1:
            return (a + b) % self.p
        if self._add_table is not None:
            return self._add_table[a][b]
        p, s = self.p, self.s
        return _digits_code(
            [(x + y) % p for x, y in
             zip(_code_digits(a, p, s), _code_digits(b, p, s))], p)

    def neg(self, a: int) -> int:
        if self.s == 1:
            return (-a) % self.p
        if self._neg_table is not None:
            return self._neg_table[a]
        p, s = self.p, self.s
        return _digits_code([(-d) % p for d in _code_digits(a, p, s)], p)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.s == 1:
            return a * b % self.p
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._ext_mul_direct(a, b, list(self.modulus))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.s == 1:
            return pow(a, self.p - 2, self.p)
        if self._inv_table is not None:
            return self._inv_table[a]
        return self.elem_pow(a, self.q - 2)

    def elem_pow(self, a: int, e: int) -> int:
        return _power(a, e, 1, self.mul)

    def elements(self) -> range:
        return range(self.q)

    # -- irreducible counts ----------------------------------------------

    def pi(self, d: int) -> int:
        """Number of monic irreducibles of degree d: (1/d) sum mu(r) q^(d/r).

        mu(r) vanishes unless r is squarefree, so the sum runs over the
        products r of distinct primes of d, with mu(r) = (-1)^(their number).
        """
        if d < 1:
            raise ValueError(f"degree must be >= 1, got {d}")
        cached = self._pi_cache.get(d)
        if cached is None:
            terms = [(1, 1)]  # (r, mu(r))
            for prime in factor_int(d) if d > 1 else ():
                terms += [(r * prime, -mu) for r, mu in terms]
            total = sum(mu * self.q ** (d // r) for r, mu in terms)
            assert total % d == 0
            cached = total // d
            self._pi_cache[d] = cached
        return cached

    # -- polynomial constructors ------------------------------------------

    def zero(self) -> "Poly":
        return self._zero

    def one(self) -> "Poly":
        return self._one

    def x(self) -> "Poly":
        return self._x

    def poly(self, coeffs) -> "Poly":
        return Poly(self, coeffs)

    def constant(self, code: int) -> "Poly":
        return Poly(self, (code,))

    def parse(self, text: str) -> "Poly":
        return parse_poly(self, text)

    def modulus_text(self) -> str | None:
        if self.modulus is None:
            return None
        return _coeffs_text(self.modulus)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.s == other.s
        )

    def __hash__(self) -> int:
        return hash((FieldSpec, self.p, self.s))

    def __repr__(self) -> str:
        if self.s == 1:
            return f"FieldSpec(p={self.p})"
        return f"FieldSpec(p={self.p}, s={self.s}, modulus={self.modulus_text()})"


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

    def is_one(self) -> bool:
        return self.coeffs == (1,)

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
            return fld.zero()
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
        return _power(self, e, self.field.one(), operator.mul)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        fld = self._common_field(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        db = other.degree
        if self.degree < db:
            return fld.zero(), self
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
    return _power(f % g, e, f.field.one() % g, lambda a, b: a * b % g)


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
        out = self.field.constant(self.unit)
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
    # f monic, deg >= 1 -> pairwise-coprime monic squarefree parts with
    # multiplicities, f = prod(part**mult).  Handles derivative-zero inputs
    # through p-th-root extraction.
    fld = f.field
    out: dict[int, Poly] = {}
    deriv = f.derivative()
    c = gcd(f, deriv) if not deriv.is_zero() else f
    w = f // c
    i = 1
    while w.degree > 0:
        y = gcd(w, c)
        z = w // y
        if z.degree > 0:
            out[i] = out[i] * z if i in out else z
        w = y
        c = c // y
        i += 1
    if c.degree > 0:
        for part, mult in _squarefree_parts(_pth_root(c)):
            key = mult * fld.p
            out[key] = out[key] * part if key in out else part
    return [(g, m) for m, g in sorted(out.items())]


def _distinct_degree(g: Poly) -> Iterator[tuple[Poly, int]]:
    # g monic -> (product of the irreducible factors of degree d, d), d rising.
    # The first block is right for any g (see is_irreducible); later ones
    # need g squarefree, or a repeated factor left in g // comp comes back
    # in the block of a multiple of its degree.
    fld = g.field
    x = fld.x()
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
    one = fld.one()
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
    """Factor into monic irreducibles: squarefree split, then distinct-degree,
    then equal-degree splitting on random elements from a generator seeded
    with q and the block's coefficients, so every run does the same work."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    unit = f.leading()
    fm = f.monic()
    if fm.degree == 0:
        return Factorization(f.field, unit, ())
    counts: dict[Poly, int] = {}
    for part, mult in _squarefree_parts(fm):
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


def enumerate_irreducibles(spec: FieldSpec, d: int) -> Iterator[Poly]:
    """Monic irreducibles of degree d in enumeration order."""
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    q = spec.q
    # Above degree 1 a constant term 0 is the factor x: the tails start at 1,
    # with the constant term varying slowest, as in enumerate_monic.
    for tail in product(range(1 if d > 1 else 0, q), *[range(q)] * (d - 1)):
        f = _mk(spec, tail + (1,))
        if d > 1 and any(f.evaluate(c) == 0 for c in spec.elements()):
            continue  # a root is a linear factor
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


def _coeffs_text(coeffs: tuple[int, ...]) -> str:
    if not any(coeffs):
        return "0"
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        elif k == 1:
            terms.append("x" if c == 1 else f"{c}*x")
        else:
            terms.append(f"x^{k}" if c == 1 else f"{c}*x^{k}")
    return "+".join(terms)


def poly_to_text(f: Poly) -> str:
    """Canonical text: descending degree, zero terms omitted, zero prints 0."""
    return _coeffs_text(f.coeffs)


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
