"""Exact arithmetic in finite fields F_{p^d}.

Fields are described by a monic irreducible defining polynomial g over F_p
and elements by their coordinate tuples in the power basis.  Arithmetic
runs on those tuples, and an FqElem is built only for a value returned:
eval_poly, the one Horner loop over k, and _root_set evaluate on
coordinates, and FqElem powers (inverses, frobenius, pth_root) are
_poly_powmod_p, the square-and-multiply mod (g, p) of Ben-Or's test.  Root
sets come from one cap check, _capped_roots, in front of one cache,
_root_set, shared by the embeddings (through roots) and homlift's ball
search: a linear polynomial is solved directly, and one of degree >= 2
tries every element, refused before the cache is read when q exceeds the
enumeration cap.  Building a field never enumerates it: primality
(deterministic Miller-Rabin) and irreducibility (Ben-Or's test) cost
modular powers and gcds only, so a huge p is accepted.  _reduce_monic is
the one reduction by a monic polynomial: F_q and Ben-Or's test reduce by g
mod p, witt by its lift mod p^M, and dvr by f (d = 1) and by g.  _convolve
is the product of coefficient lists of F_q and witt; dvr products gather
pairwise coordinate products by a table.  Every polynomial division is by a
monic divisor: Euclid's algorithm over F_p makes each divisor monic and
reduces by _reduce_monic, and _divmod_monic, the one division over Q,
serves the Euclid steps, the quotient of _squarefree_part and the
resultant (_resultant).
"""

from __future__ import annotations

import itertools
import os
import sys
from fractions import Fraction
from functools import lru_cache

from .errors import (
    CharMismatch,
    DivisionByZero,
    FieldMismatch,
    InconsistentResult,
    InvalidArgument,
    InvalidSetting,
    NotPrime,
    Reducible,
    TooLarge,
    too_many_digits,
)
from .record import Record

DEFAULT_ENUM_CAP = 10 ** 7


def enumeration_cap() -> int:
    value = os.environ.get("RAMLIFT_ENUM_CAP")
    if not value:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(value)
    except ValueError:
        if 0 < sys.get_int_max_str_digits() < len(value):
            raise InvalidSetting(f"RAMLIFT_ENUM_CAP: {too_many_digits()}") from None
        raise InvalidSetting(f"RAMLIFT_ENUM_CAP must be an integer, got {value!r}") from None
    if cap < 0:
        raise InvalidSetting(f"RAMLIFT_ENUM_CAP must not be negative, got {value!r}")
    return cap


def _int_arg(value, what: str) -> int:
    """An integer argument or JSON value; floats and booleans are refused
    (InvalidArgument naming the value), so that none is truncated."""
    if type(value) is not int:
        raise InvalidArgument(f"{what} must be an integer, got {value!r}")
    return value


# Miller-Rabin with the primes up to 41 as bases is exact below this bound
# (Sorenson and Webster, 2015); above it primality is not decided.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality by deterministic Miller-Rabin, for n < 3.3e24."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_LIMIT:
        raise InvalidArgument(
            f"cannot decide whether {n} is prime: only p < {_MR_LIMIT} are supported"
        )
    s, m = 0, n - 1
    while m % 2 == 0:
        m //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, m, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# -- polynomial helpers (ascending coefficient lists) --

def _poly_trim(c):
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def _convolve(a, b) -> list:
    """The product of two ascending coefficient lists, unreduced: the one
    schoolbook product of the package."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _reduce_monic(c: list, g, m: int) -> list:
    """c modulo (g, m), for a monic g of degree d given by its d + 1
    ascending coefficients: the first d coefficients of the remainder (all of
    c when it is shorter), each in [0, m).  The one reduction by a monic
    polynomial, in F_q, in W(k)/p^M and in R.  c is reduced in place; each
    leading coefficient is reduced mod m before it multiplies g."""
    d = len(g) - 1
    for i in range(len(c) - 1, d - 1, -1):
        x = c[i] % m
        if x:
            for j in range(d):
                c[i - d + j] -= x * g[j]
    return [x % m for x in c[:d]]


def power(x, k: int, one, times):
    """x^k by square-and-multiply in the ring given by its one and its
    product times; the one square-and-multiply loop of the package."""
    if _int_arg(k, "the exponent") < 0:
        raise InvalidArgument("negative exponent")
    result = one
    while k:
        if k & 1:
            result = times(result, x)
        k >>= 1
        if k:
            x = times(x, x)
    return result


def _poly_powmod_p(base, k, mod, p):
    """base^k mod (mod, p), for a monic mod of degree d >= 1: d coordinates
    (by the builtin pow when d = 1, where base is one coordinate)."""
    if len(mod) == 2:
        return [pow(base[0], k, p)]
    return power(_reduce_monic(list(base), mod, p), k, [1] + [0] * (len(mod) - 2),
                 lambda a, b: _reduce_monic(_convolve(a, b), mod, p))


def _poly_gcd_is_one(a, b, p) -> bool:
    """Whether gcd(a, b) = 1 over F_p, by Euclid's algorithm: each divisor
    is made monic mod p and the remainder is _reduce_monic's."""
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        inv = pow(b[-1], -1, p)
        b = [x * inv % p for x in b]
        a, b = b, _poly_trim(_reduce_monic(a, b, p))
    return len(a) == 1


def _divmod_monic(a, g) -> tuple:
    """(quotient, trimmed remainder) of a by the monic g over Q, as lists
    of Fractions: the one division over Q, behind the Euclid steps of
    _squarefree_part and _resultant and the exact division of
    _squarefree_part."""
    r = [Fraction(x) for x in a]
    d = len(g) - 1
    quot = [0] * max(len(r) - d, 0)
    for i in range(len(r) - 1, d - 1, -1):
        c = quot[i - d] = r[i]
        if c:
            for j in range(d):
                r[i - d + j] -= c * g[j]
    return quot, _poly_trim(r[:d])


def _squarefree_part(coeffs) -> list:
    """The squarefree part F/gcd(F, F') of a monic integer polynomial F (the
    same root set), as a fresh list; InconsistentResult unless it is
    integral.  Euclid's algorithm makes each divisor monic over Q."""
    a, b = list(coeffs), [Fraction(i * coeffs[i]) for i in range(1, len(coeffs))]
    while b:
        b = [x / b[-1] for x in b]
        a, b = b, _divmod_monic(a, b)[1]
    quot = _divmod_monic(coeffs, a)[0]
    if any(c.denominator != 1 for c in quot):
        raise InconsistentResult("squarefree part is not integral")
    return [int(c) for c in quot]


def _resultant(a, b) -> Fraction:
    """Res(a, b) over Q of two ascending coefficient lists, a trimmed, by
    Euclid's algorithm: Res(a, c*b) = c^deg(a) Res(a, b), Res(a, b) =
    (-1)^(deg(a) deg(b)) Res(b, a), and for a monic b Res(b, a) = Res(b, a
    mod b), the remainder of _divmod_monic."""
    res, b = Fraction(1), _poly_trim([Fraction(x) for x in b])
    while len(b) > 1:
        lead, deg_a = b[-1], len(a) - 1
        res *= lead ** deg_a * (-1) ** (deg_a * (len(b) - 1))
        b = [x / lead for x in b]
        a, b = b, _divmod_monic(a, b)[1]
    return res * b[0] ** (len(a) - 1) if b else Fraction(0)


def _is_irreducible(poly, p):
    """Ben-Or's test: the monic poly of degree d is irreducible over F_p iff
    gcd(x^(p^i) - x, poly) = 1 for i = 1, ..., floor(d/2), since a reducible
    poly has an irreducible factor of some degree i <= d/2, which divides
    x^(p^i) - x.  Each x^(p^i) is the p-th power of the last mod poly, and
    the test stops at the first nontrivial gcd."""
    d = len(poly) - 1
    if d < 1:
        return False
    frob = [0, 1]
    for _ in range(d // 2):
        frob = _poly_powmod_p(frob, p, poly, p)  # x^(p^i) mod poly
        h = frob + [0]
        h[1] -= 1
        if not _poly_gcd_is_one(h, poly, p):
            return False
    return True


def _monic_tails(p, d, first=0):
    """Coefficient tuples (c_0, ..., c_{d-1}) with c_0 >= first, in
    lexicographic order, generated lazily (range(p) is never materialized)."""
    if d == 0:
        yield ()
        return
    for c in range(first, p):
        for rest in _monic_tails(p, d - 1):
            yield (c,) + rest


class FieldSpec(Record):
    """F_{p^d} presented as F_p[x]/(defining_poly); defining_poly is monic,
    its d+1 coefficients ascending."""

    _fields = ("p", "d", "defining_poly")

    @property
    def q(self) -> int:
        return self.p ** self.d

    def zero(self) -> "FqElem":
        return FqElem(self, (0,) * self.d)

    def one(self) -> "FqElem":
        return self.from_int(1)

    def from_int(self, c: int) -> "FqElem":
        return FqElem(self, (_int_arg(c, "from_int's argument") % self.p,) + (0,) * (self.d - 1))

    def from_coeffs(self, coeffs) -> "FqElem":
        coeffs = tuple([_int_arg(c, "a from_coeffs coordinate") for c in coeffs])
        if len(coeffs) > self.d:
            raise ValueError("too many coordinates")
        return FqElem(self, coeffs + (0,) * (self.d - len(coeffs)))  # reduced mod p there

    def generator(self) -> "FqElem":
        """x mod (defining_poly, p): the root of defining_poly the power basis
        is built on (-c in a prime field, where defining_poly is x + c)."""
        return self.from_coeffs(_reduce_monic([0, 1], self.defining_poly, self.p))

    def elements(self):
        """All q elements in lexicographic order of their coordinate vectors."""
        for coeffs in itertools.product(range(self.p), repeat=self.d):
            yield FqElem(self, coeffs)

    def text(self) -> str:
        return "F(%d^%d;%s)" % (self.p, self.d, ",".join(str(c) for c in self.defining_poly[:-1]))


def make_field(p: int, d: int, poly=None) -> FieldSpec:
    """Build F_{p^d}; with poly omitted the lexicographically smallest monic
    irreducible defining polynomial is chosen."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if d < 1:
        raise ValueError("d must be >= 1")
    if poly is not None:
        poly = [c % p for c in poly]
        if len(poly) != d + 1 or poly[-1] != 1:
            raise ValueError("defining polynomial must be monic of degree d")
        if not _is_irreducible(poly, p):
            raise Reducible(f"polynomial {poly} factors over F_{p}")
        return FieldSpec(p, d, tuple(poly))
    if d == 1:
        return FieldSpec(p, 1, (0, 1))
    # for d >= 2 a zero constant term makes x a factor
    for tail in _monic_tails(p, d, first=1):
        cand = list(tail) + [1]
        if _is_irreducible(cand, p):
            return FieldSpec(p, d, tuple(cand))
    raise InconsistentResult("no irreducible polynomial found")  # unreachable


class FqElem:
    """Element of F_{p^d} as a coordinate vector in the power basis.  Its
    text is rendered once, on first use."""

    __slots__ = ("field", "coeffs", "_text")

    def __init__(self, field: FieldSpec, coeffs):
        coeffs = tuple(c % field.p for c in coeffs)
        if len(coeffs) != field.d:
            raise InvalidArgument(f"expected {field.d} coordinates, got {len(coeffs)}")
        self.field = field
        self.coeffs = coeffs
        self._text = None

    def __eq__(self, other):
        return (
            isinstance(other, FqElem)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"FqElem({self.text()} in {self.field.text()})"

    def text(self) -> str:
        if self._text is None:
            if self.field.d == 1:
                self._text = str(self.coeffs[0])
            else:
                self._text = "(" + ",".join(str(c) for c in self.coeffs) + ")"
        return self._text

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check(self, other):
        if not isinstance(other, FqElem) or other.field != self.field:
            raise FieldMismatch("operands belong to different fields")

    def __add__(self, other):
        self._check(other)
        p = self.field.p
        return FqElem(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        p = self.field.p
        return FqElem(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.field.p
        return FqElem(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        k = self.field
        return FqElem(k, _reduce_monic(_convolve(self.coeffs, other.coeffs), k.defining_poly, k.p))

    def inverse(self) -> "FqElem":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.field.d == 1:
            return FqElem(self.field, (pow(self.coeffs[0], -1, self.field.p),))
        return self ** (self.field.q - 2)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n: int):
        """self^n by _poly_powmod_p on coordinates: one FqElem, the result."""
        if _int_arg(n, "the exponent") < 0:
            return self.inverse() ** (-n)
        k = self.field
        return FqElem(k, _poly_powmod_p(self.coeffs, n, k.defining_poly, k.p))


def frobenius(a: FqElem) -> FqElem:
    return a ** a.field.p


def pth_root(a: FqElem) -> FqElem:
    # x -> x^p permutes F_q with inverse x -> x^(p^(d-1))
    return a ** (a.field.p ** (a.field.d - 1))


def _coords(poly, k: FieldSpec) -> list:
    """The coordinate tuples of coefficients in k (FieldMismatch otherwise) or Z."""
    if any(isinstance(c, FqElem) and c.field is not k and c.field != k for c in poly):
        raise FieldMismatch("coefficients belong to another field")
    return [c.coeffs if isinstance(c, FqElem) else (_int_arg(c, "a coefficient") % k.p,) + (0,) * (k.d - 1)
            for c in poly]


def _horner_coords(coords, x, k: FieldSpec) -> list:
    """Horner's rule over k at x, on the coordinate tuples of both."""
    g, p = k.defining_poly, k.p
    acc = list(coords[-1]) if coords else [0] * k.d
    for c in reversed(coords[:-1]):
        acc = [(a + b) % p for a, b in zip(_reduce_monic(_convolve(acc, x), g, p), c)]
    return acc


def eval_poly(poly, x: FqElem) -> FqElem:
    """Horner's rule at x, the one evaluation over a field, for an ascending
    polynomial with coefficients in the field of x (FieldMismatch for another
    field's) or integers, on coordinates: one FqElem, the value."""
    return FqElem(x.field, _horner_coords(_coords(poly, x.field), x.coeffs, x.field))


@lru_cache(maxsize=256)
def _residues(k: FieldSpec) -> tuple:
    """The elements of k in lexicographic order, each rendering its text once."""
    return tuple(k.elements())


def roots(poly, k: FieldSpec) -> tuple:
    """The roots in k, in lexicographic order and each with whether it is
    simple, of an ascending polynomial with coefficients in k (FieldMismatch
    for another field's) or integers, not all zero (InvalidArgument).  The
    enumeration cap is read on every call (see _capped_roots)."""
    return _capped_roots(_coords(poly, k), k, enumeration_cap())


def _capped_roots(coords, k: FieldSpec, cap: int) -> tuple:
    """roots of the polynomial given by the coordinate tuples of its
    coefficients, under a cap the caller has read: the one cap check, in
    front of the one cache of root sets.  Zero leading coefficients are
    trimmed, the zero polynomial, which every element solves, is refused
    (InvalidArgument), a nonzero constant has no root, and a degree >= 2 is
    refused (TooLarge) when q exceeds the cap, before the cache is read, so
    no cached root set is handed back past it."""
    end = len(coords)
    while end and not any(coords[end - 1]):
        end -= 1
    if not end:
        raise InvalidArgument("the zero polynomial has every element as a root")
    if end > 2 and k.q > cap:
        raise TooLarge(f"root search over F({k.p}^{k.d}) exceeds the enumeration cap {cap}")
    return _root_set(tuple(coords[:end]), k) if end > 1 else ()


@lru_cache(maxsize=1024)
def _root_set(coords: tuple, k: FieldSpec) -> tuple:
    """The roots of a trimmed polynomial of degree >= 1 by its coordinate
    tuples, for every caller of _capped_roots: a linear one is solved directly,
    one of degree >= 2 and its derivative are evaluated at every element."""
    if len(coords) == 2:  # the root -c0/c1 = -c0*c1^(q-2)
        quot = _convolve(coords[0], _poly_powmod_p(coords[1], k.q - 2, k.defining_poly, k.p))
        return ((FqElem(k, [-c for c in _reduce_monic(quot, k.defining_poly, k.p)]), True),)
    dg = [tuple(i * c % k.p for c in coords[i]) for i in range(1, len(coords))]
    return tuple((b, any(_horner_coords(dg, b.coeffs, k))) for b in _residues(k)
                 if not any(_horner_coords(coords, b.coeffs, k)))


class FieldEmbedding(Record):
    """Ring homomorphism k1 -> k2, pinned down by the image of the generator."""

    _fields = ("source", "target", "image_of_generator")

    def __call__(self, a: FqElem) -> FqElem:
        if a.field is not self.source and a.field != self.source:
            raise FieldMismatch("element not in the source field")
        return eval_poly(a.coeffs, self.image_of_generator)

    def is_identity(self) -> bool:
        return self.source == self.target and self.image_of_generator == self.source.generator()

    def compose(self, first: "FieldEmbedding") -> "FieldEmbedding":
        """self o first."""
        if first.target != self.source:
            raise FieldMismatch("embeddings are not composable")
        return FieldEmbedding(first.source, self.target, self(first.image_of_generator))

    def inverse(self) -> "FieldEmbedding":
        if self.source.d != self.target.d or self.source.p != self.target.p:
            raise FieldMismatch("only equal-degree embeddings invert")
        for cand in embeddings(self.target, self.source):
            if cand.compose(self).is_identity():
                return cand
        raise InconsistentResult("bijective embedding without inverse")  # unreachable


def identity_embedding(k: FieldSpec) -> FieldEmbedding:
    return FieldEmbedding(k, k, k.generator())


def embeddings(k1: FieldSpec, k2: FieldSpec) -> list:
    """All ring homomorphisms k1 -> k2, ordered by the image of the generator:
    one per root in k2 of k1's defining polynomial, as roots lists them, so
    the enumeration cap is read once per call.

    There are d1 of them when d1 | d2 and none otherwise.
    """
    if k1.p != k2.p:
        raise CharMismatch(f"characteristics differ: {k1.p} vs {k2.p}")
    return [FieldEmbedding(k1, k2, x) for x, _ in roots(k1.defining_poly, k2)]
