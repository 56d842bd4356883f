"""The unramified coefficient ring W(k)/p^M.

The ring is realized as the polynomial quotient (Z/p^M)[y]/(lifted_poly),
where lifted_poly carries the same integer coefficients as the defining
polynomial of the residue field k.  Teichmuller digits are a derived
canonical form: the universal Witt addition polynomials are never needed
because multiplication here is ordinary polynomial arithmetic.

Each job on W(k) has one implementation here: _vp_int is the p-adic
valuation of an integer, for WittElem, the exact coefficients of dvr and
the ramification calculus; _yreduce reduces modulo (g(y), p^M), and the
flat core of dvr uses it too; from_digits forms the
Teichmuller sum sum teichmuller(a_r) p^r; WittMap is the map W(psi) induced
by a residue-field embedding psi, linear on coordinates, and the only code
that maps W(k) coordinates by psi.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .errors import InconsistentResult, InvalidArgument, NotAUnit, NotDivisible, RingMismatch
from .record import Record, set_field
from .resfield import FieldSpec, FieldEmbedding, FqElem, power


class WittRingSpec(Record):
    """W(k)/p^M as (Z/p^M)[y]/(lifted_poly)."""

    _fields = ("k", "M", "lifted_poly")

    def __init__(self, k: FieldSpec, M: int, lifted_poly: tuple):
        # M: absolute p-adic precision; lifted_poly: ascending, length d+1,
        # integer coefficients mod p^M
        set_field(self, "k", k)
        set_field(self, "M", M)
        set_field(self, "lifted_poly", lifted_poly)

    @property
    def p(self) -> int:
        return self.k.p

    @property
    def d(self) -> int:
        return self.k.d

    @property
    def modulus(self) -> int:
        return self.k.p ** self.M

    def zero(self) -> "WittElem":
        return WittElem(self, (0,) * self.d)

    def one(self) -> "WittElem":
        return self.from_int(1)

    def from_int(self, c: int) -> "WittElem":
        return WittElem(self, (c % self.modulus,) + (0,) * (self.d - 1))

    def from_coeffs(self, coeffs) -> "WittElem":
        coeffs = [c % self.modulus for c in coeffs]
        if len(coeffs) > self.d:
            raise ValueError("too many coordinates")
        coeffs += [0] * (self.d - len(coeffs))
        return WittElem(self, tuple(coeffs))


def make_witt(k: FieldSpec, M: int) -> WittRingSpec:
    """W(k)/p^M with the canonical monic lift of k's defining polynomial."""
    if M < 1:
        raise ValueError("M must be >= 1")
    return WittRingSpec(k, M, tuple(int(c) for c in k.defining_poly))


def _vp_int(n: int, p: int) -> int | None:
    """v_p(n) for an integer n; None (+infinity) for 0."""
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _yreduce(row, g, d: int, mod: int):
    """Reduce a coordinate list of length <= 2d-1 modulo (g(y), mod)."""
    for i in range(len(row) - 1, d - 1, -1):
        c = row[i]
        if c:
            for j in range(d):
                row[i - d + j] -= c * g[j]
    return [c % mod for c in row[:d]]


class WittElem:
    """Element of W(k)/p^M as power-basis coordinates mod p^M."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: WittRingSpec, coeffs):
        coeffs = tuple(c % ring.modulus for c in coeffs)
        if len(coeffs) != ring.d:
            raise InvalidArgument(f"expected {ring.d} coordinates, got {len(coeffs)}")
        self.ring = ring
        self.coeffs = coeffs

    def __eq__(self, other):
        return (
            isinstance(other, WittElem)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __repr__(self):
        return f"WittElem({list(self.coeffs)} mod {self.ring.p}^{self.ring.M})"

    def _check(self, other):
        if not isinstance(other, WittElem) or other.ring != self.ring:
            raise RingMismatch("operands belong to different Witt rings")

    def __add__(self, other):
        self._check(other)
        m = self.ring.modulus
        return WittElem(self.ring, tuple((a + b) % m for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        m = self.ring.modulus
        return WittElem(self.ring, tuple((a - b) % m for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        m = self.ring.modulus
        return WittElem(self.ring, tuple((-a) % m for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        prod = [0] * (2 * self.ring.d - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] += a * b
        ring = self.ring
        return WittElem(ring, _yreduce(prod, ring.lifted_poly, ring.d, ring.modulus))

    def __pow__(self, n: int):
        return power(self, n, self.ring.one(), mul)

    def residue(self) -> FqElem:
        """Image in k = W(k)/p."""
        return FqElem(self.ring.k, tuple(c % self.ring.p for c in self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_unit(self) -> bool:
        return not self.residue().is_zero()

    def p_val(self) -> int:
        """p-adic valuation, capped at M (returns M for 0 mod p^M)."""
        p = self.ring.p
        return min([_vp_int(c, p) for c in self.coeffs if c], default=self.ring.M)

    def divide_exact_by_p(self) -> "WittElem":
        """Divide by p an element all of whose coordinates are divisible by p.

        The result is only determined mod p^(M-1); the top digit of the output
        is an arbitrary representative choice.
        """
        p = self.ring.p
        if any(c % p for c in self.coeffs):
            raise NotDivisible("element is not divisible by p")
        return WittElem(self.ring, tuple(c // p for c in self.coeffs))


def witt_unit_inv(a: WittElem) -> WittElem:
    """Inverse of a unit: invert the residue, then lift the inverse p-adically
    by x <- x(2 - ax), doubling the correct digits each step."""
    if not a.is_unit():
        raise NotAUnit("element reduces to zero")
    ring = a.ring
    r_inv = a.residue().inverse()
    x = ring.from_coeffs(r_inv.coeffs)
    two = ring.from_int(2)
    correct = 1
    while correct < ring.M:
        x = x * (two - a * x)
        correct *= 2
    return x


@lru_cache(maxsize=65536)
def teichmuller(a: FqElem, ring: WittRingSpec) -> WittElem:
    """The unique multiplicative representative of a in W(k)/p^M.

    For d = 1 it is c^(p^(M-1)) mod p^M for the integer c of a: x = y mod
    p^i gives x^p = y^p mod p^(i+1), so raising c and the lift, which are
    equal mod p, to the p^(M-1)-th power makes them equal mod p^M.  For
    d > 1 it is computed by iterating x -> x^(p^d) from the coordinate lift
    of a until the value is fixed mod p^M; the iteration gains at least one
    correct p-digit per step, so the cap converts nontermination into a
    detectable bug.
    """
    if a.field != ring.k:
        raise RingMismatch("element not in the residue field of this ring")
    if ring.d == 1:
        return ring.from_int(pow(a.coeffs[0], ring.p ** (ring.M - 1), ring.modulus))
    q = ring.p ** ring.d
    x = ring.from_coeffs(a.coeffs)
    cap = ring.M * ring.d * max(1, (ring.p ** ring.M).bit_length())
    for _ in range(cap):
        nxt = x ** q
        if nxt == x:
            return x
        x = nxt
    raise InconsistentResult("Teichmuller iteration failed to stabilize")


def teich_digits(x: WittElem) -> tuple:
    """Expand x in Teichmuller digits: a_0 = residue(x), then peel
    (x - teichmuller(a_0))/p and repeat M times."""
    ring = x.ring
    digits = []
    cur = x
    for _ in range(ring.M):
        a = cur.residue()
        digits.append(a)
        cur = (cur - teichmuller(a, ring)).divide_exact_by_p()
    return tuple(digits)


def from_digits(digits, ring: WittRingSpec) -> WittElem:
    """sum teichmuller(a_r) p^r over the digits a_0, a_1, ...; zero digits
    add nothing, and digits from position M on vanish mod p^M."""
    acc = ring.zero()
    pw = 1
    for a in digits:
        if pw % ring.modulus == 0:
            break
        if not a.is_zero():
            acc = acc + teichmuller(a, ring) * ring.from_int(pw)
        pw *= ring.p
    return acc


def witt_elem_text(x: WittElem) -> str:
    """Digit string "t:a_0,a_1,...,a_{M-1}" in the field's coefficient form."""
    return "t:" + ",".join(a.text() for a in teich_digits(x))


class WittMap:
    """The ring homomorphism W(psi): W(k1)/p^M -> W(k2)/p^M induced by a
    residue-field embedding psi; it is the unique homomorphism inducing psi.

    W(psi) is Z_p-linear in power-basis coordinates, so it is kept as the
    images of 1, y, ..., y^(d1-1); the image of y is the Teichmuller sum of
    psi applied to y's digits, and the rest are its powers."""

    def __init__(self, psi: FieldEmbedding, M: int):
        self.psi = psi
        self.source = make_witt(psi.source, M)
        self.target = make_witt(psi.target, M)
        images = [self.target.one()]
        if self.source.d > 1:
            y = from_digits(map(psi, teich_digits(self.source.from_coeffs([0, 1]))), self.target)
            for _ in range(self.source.d - 1):
                images.append(images[-1] * y)
        self.images = tuple(b.coeffs for b in images)

    def map_coords(self, coords) -> tuple:
        """Target coordinates of W(psi)(sum coords[i] y^i), for any integers
        coords[0..d1-1], reduced mod p^M."""
        out = [0] * self.target.d
        for c, image in zip(coords, self.images):
            if c:
                out = [s + c * t for s, t in zip(out, image)]
        mod = self.target.modulus
        return tuple([s % mod for s in out])

    def __call__(self, x: WittElem) -> WittElem:
        if x.ring != self.source:
            raise RingMismatch("element not in the source Witt ring")
        return WittElem(self.target, self.map_coords(x.coeffs))
