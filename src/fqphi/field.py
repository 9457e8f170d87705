"""The finite field F_q (q = p^s) and arithmetic on its element codes.

Field elements are integer codes in [0, q).  For a prime field the code is
the residue itself.  For an extension field the base-p digits of the code
are the coordinates of the element on the power basis of the modulus root,
where the modulus is the lexicographically smallest monic irreducible of
degree s over F_p (coefficients compared low-degree-first), so every run
and every machine builds the same field.

A prime field needs nothing from F_q[x], so this module does not import
``gfpoly``: formula-only callers (counting, the value set, pi_q(d)) never
load polynomial arithmetic.  An extension field's modulus search and the
polynomial conveniences of ``FieldSpec`` import it when they run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .numtheory import factor_int, is_prime

if TYPE_CHECKING:
    from .gfpoly import Poly

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
    """base**e by square-and-multiply: bit_length(e) - 1 squarings and
    popcount(e) - 1 other products, none for e = 0 or 1.  ``mul`` is called
    at each step, so a rebound operator or method sees every product."""
    if e < 0:
        raise ValueError(f"negative exponent {e}")
    if not e:
        return one
    while not e & 1:
        base = mul(base, base)
        e >>= 1
    result = base
    e >>= 1
    while e:
        base = mul(base, base)
        if e & 1:
            result = mul(result, base)
        e >>= 1
    return result


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


class FieldSpec:
    """The field F_q with q = p**s elements.

    Immutable after construction; instances compare and hash by (p, s), which
    pins the field completely because the modulus choice is deterministic.
    """

    __slots__ = (
        "p", "s", "q", "modulus",
        "_add_table", "_mul_table", "_inv_table", "_neg_table",
        "_pi_cache",
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

    def _find_modulus(self) -> tuple[int, ...]:
        # Lexicographically smallest monic irreducible of degree s over F_p,
        # candidates ordered low-degree-coefficient-first.
        from .gfpoly import enumerate_irreducibles

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

    # -- polynomial constructors (these load gfpoly) ----------------------

    def zero(self) -> "Poly":
        from .gfpoly import _mk

        return _mk(self, ())

    def one(self) -> "Poly":
        from .gfpoly import _mk

        return _mk(self, (1,))

    def x(self) -> "Poly":
        from .gfpoly import _mk

        return _mk(self, (0, 1))

    def constant(self, code: int) -> "Poly":
        from .gfpoly import Poly

        return Poly(self, (code,))

    def parse(self, text: str) -> "Poly":
        from .gfpoly import parse_poly

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
