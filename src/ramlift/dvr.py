"""Eisenstein extensions R = W(k)[x]/(f) at finite precision.

Elements are polynomials of degree < e over W(k)/p^Mc where Mc carries two
guard digits beyond what the requested m-adic precision needs; pi-adic
Teichmuller digits are the canonical form, and the n-th residue rings R/m^n
are finite enumerable rings presented by digit vectors.

Division by the uniformizer exists only inside the digit-extraction loop, on
elements certified divisible; no fraction-field arithmetic is exposed.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    InsufficientPrecision,
    InvalidSetting,
    NotEisenstein,
    RingMismatch,
    TooLarge,
)
from .resfield import FieldSpec, FqElem, make_field
from .witt import WittElem, WittRingSpec, make_witt, teichmuller, witt_unit_inv

GUARD_DIGITS = 2
DEFAULT_ENUM_CAP = 10 ** 7


def enumeration_cap() -> int:
    value = os.environ.get("RAMLIFT_ENUM_CAP")
    if not value:
        return DEFAULT_ENUM_CAP
    try:
        return int(value)
    except ValueError:
        raise InvalidSetting(f"RAMLIFT_ENUM_CAP must be an integer, got {value!r}") from None


# ---------------------------------------------------------------------------
# exact valuation values


class ValQ:
    """Nonnegative rational valuation value, or +infinity; exact arithmetic."""

    __slots__ = ("_frac",)

    def __init__(self, num, den: int = 1):
        if num is None:  # infinity marker
            self._frac = None
        else:
            f = Fraction(num, den)
            if f < 0:
                raise ValueError("valuations are nonnegative")
            self._frac = f

    @classmethod
    def infinity(cls) -> "ValQ":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self._frac is None

    @property
    def fraction(self) -> Fraction:
        if self._frac is None:
            raise ValueError("infinite valuation has no finite value")
        return self._frac

    @property
    def numerator(self):
        return None if self._frac is None else self._frac.numerator

    @property
    def denominator(self) -> int:
        return 1 if self._frac is None else self._frac.denominator

    def __eq__(self, other):
        if not isinstance(other, ValQ):
            return NotImplemented
        return self._frac == other._frac

    def __hash__(self):
        return hash(self._frac)

    def __lt__(self, other):
        if other.is_infinite:
            return not self.is_infinite
        if self.is_infinite:
            return False
        return self._frac < other._frac

    def __le__(self, other):
        return self == other or self < other

    def __gt__(self, other):
        return not self <= other

    def __ge__(self, other):
        return not self < other

    def __add__(self, other):
        if self.is_infinite or other.is_infinite:
            return ValQ.infinity()
        return ValQ(self._frac + other._frac)

    def __str__(self):
        if self._frac is None:
            return "inf"
        if self._frac.denominator == 1:
            return str(self._frac.numerator)
        return f"{self._frac.numerator}/{self._frac.denominator}"

    def __repr__(self):
        return f"ValQ({self})"

    @classmethod
    def parse(cls, s: str) -> "ValQ":
        s = s.strip()
        if s == "inf":
            return cls.infinity()
        if "/" in s:
            a, b = s.split("/")
            return cls(int(a), int(b))
        return cls(int(s))


@dataclass(frozen=True)
class ValInfo:
    """A valuation readout: exact, or only the lower bound "value" (the
    precision to which the element was seen to vanish)."""

    value: ValQ
    exact: bool

    def __str__(self):
        return str(self.value) if self.exact else f"≥ {self.value}"


# ---------------------------------------------------------------------------
# exact coefficient descriptions (materializable at any Witt precision)


@dataclass(frozen=True)
class ExactWittCoeff:
    """An element of W(k) specified exactly: either integer power-basis
    coordinates, or a finite Teichmuller-digit polynomial.  Either form
    determines the element at every precision simultaneously."""

    field: FieldSpec
    kind: str  # "int" or "teich"
    payload: tuple

    @classmethod
    def from_ints(cls, field: FieldSpec, coords) -> "ExactWittCoeff":
        coords = list(coords)
        if len(coords) > field.d:
            raise ValueError("too many coordinates")
        coords += [0] * (field.d - len(coords))
        return cls(field, "int", tuple(int(c) for c in coords))

    @classmethod
    def from_teich_digits(cls, field: FieldSpec, digits) -> "ExactWittCoeff":
        return cls(field, "teich", tuple(digits))

    def p_val(self):
        """Exact p-adic valuation; None encodes +infinity (the zero element)."""
        p = self.field.p
        if self.kind == "int":
            vals = []
            for c in self.payload:
                if c:
                    v = 0
                    while c % p == 0:
                        c //= p
                        v += 1
                    vals.append(v)
            return min(vals) if vals else None
        for i, a in enumerate(self.payload):
            if not a.is_zero():
                return i
        return None

    def materialize(self, wspec: WittRingSpec) -> WittElem:
        if wspec.k != self.field:
            raise RingMismatch("coefficient belongs to a different residue field")
        if self.kind == "int":
            return wspec.from_coeffs(self.payload)
        acc = wspec.zero()
        pw = 1
        for a in self.payload:
            if pw % wspec.modulus == 0:
                break
            if not a.is_zero():
                acc = acc + teichmuller(a, wspec) * wspec.from_int(pw)
            pw *= wspec.p
        return acc

    def divide_exact_by_p(self) -> "ExactWittCoeff":
        v = self.p_val()
        if v is not None and v < 1:
            raise ValueError("coefficient is not divisible by p")
        if self.kind == "int":
            p = self.field.p
            return ExactWittCoeff(self.field, "int", tuple(c // p for c in self.payload))
        return ExactWittCoeff(self.field, "teich", self.payload[1:])

    def to_json(self):
        if self.kind == "int":
            if self.field.d == 1:
                return self.payload[0]
            return list(self.payload)
        return "t:" + ",".join(a.text() for a in self.payload)


def _parse_fq_text(field: FieldSpec, s: str) -> FqElem:
    s = s.strip()
    if s.startswith("(") and s.endswith(")"):
        return field.from_coeffs([int(c) for c in s[1:-1].split(",")])
    return field.from_int(int(s))


def _split_digit_list(s: str):
    """Split "a,b,(c,d),e" at commas not inside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur or parts:
        parts.append("".join(cur))
    return parts


def parse_coeff(field: FieldSpec, value) -> ExactWittCoeff:
    """Accept an integer, a coordinate list, or a digit string "t:..."."""
    if isinstance(value, ExactWittCoeff):
        return value
    if isinstance(value, int):
        return ExactWittCoeff.from_ints(field, [value])
    if isinstance(value, (list, tuple)):
        return ExactWittCoeff.from_ints(field, value)
    if isinstance(value, str) and value.startswith("t:"):
        digits = [_parse_fq_text(field, t) for t in _split_digit_list(value[2:])]
        return ExactWittCoeff.from_teich_digits(field, digits)
    raise ValueError(f"cannot interpret coefficient {value!r}")


# ---------------------------------------------------------------------------
# ring spec


@dataclass(frozen=True)
class DvrSpec:
    """R = W(k)[x]/(f) for a monic Eisenstein f of degree e = ramification index."""

    k: FieldSpec
    coeffs: tuple  # ExactWittCoeff a_0..a_{e-1}; leading coefficient is 1

    @property
    def e(self) -> int:
        return len(self.coeffs)

    @property
    def p(self) -> int:
        return self.k.p

    @property
    def d(self) -> int:
        return self.k.d

    @property
    def q(self) -> int:
        return self.k.q

    def coeff_precision(self, n: int) -> int:
        return (n + self.e - 1) // self.e + GUARD_DIGITS

    def wspec(self, n: int) -> WittRingSpec:
        return make_witt(self.k, self.coeff_precision(n))

    def f_materialized(self, wspec: WittRingSpec):
        return list(_f_materialized_cached(self, wspec))

    # -- element constructors ------------------------------------------------

    def zero(self, n: int) -> "DvrElem":
        w = self.wspec(n)
        return DvrElem(self, n, w, tuple([w.zero()] * self.e))

    def one(self, n: int) -> "DvrElem":
        return self.from_int(1, n)

    def from_int(self, c: int, n: int) -> "DvrElem":
        w = self.wspec(n)
        return DvrElem(self, n, w, tuple([w.from_int(c)] + [w.zero()] * (self.e - 1)))

    def from_witt(self, w_elem: WittElem, n: int) -> "DvrElem":
        w = self.wspec(n)
        head = w.from_coeffs(w_elem.coeffs)
        return DvrElem(self, n, w, tuple([head] + [w.zero()] * (self.e - 1)))

    def uniformizer(self, n: int) -> "DvrElem":
        w = self.wspec(n)
        coeffs = [w.zero()] * self.e
        if self.e == 1:
            # pi = -a_0 when f = x + a_0
            a0 = self.coeffs[0].materialize(w)
            coeffs[0] = -a0
        else:
            coeffs[1] = w.one()
        return DvrElem(self, n, w, tuple(coeffs))

    def element(self, witt_coeff_vectors, n: int) -> "DvrElem":
        w = self.wspec(n)
        coeffs = [w.from_coeffs(v) for v in witt_coeff_vectors]
        coeffs += [w.zero()] * (self.e - len(coeffs))
        return DvrElem(self, n, w, tuple(coeffs))


@lru_cache(maxsize=4096)
def _f_materialized_cached(spec: "DvrSpec", wspec: WittRingSpec):
    return tuple(c.materialize(wspec) for c in spec.coeffs)


@lru_cache(maxsize=4096)
def _pi_division_data(spec: "DvrSpec", wspec: WittRingSpec):
    """(f materialized, inverse of the unit w with a_0 = p*w)."""
    f = _f_materialized_cached(spec, wspec)
    w_unit = spec.coeffs[0].divide_exact_by_p().materialize(wspec)
    return f, witt_unit_inv(w_unit)


def make_dvr(k: FieldSpec, f) -> DvrSpec:
    """Validate the Eisenstein condition and build the ring spec.

    f is the full ascending coefficient list, leading 1 included, e.g.
    [-3, 0, 1] for x^2 - 3.
    """
    entries = list(f)
    if len(entries) < 2 or entries[-1] != 1:
        raise ValueError("expected the full ascending coefficient list with leading 1")
    coeffs = tuple(parse_coeff(k, c) for c in entries[:-1])
    e = len(coeffs)
    for i, c in enumerate(coeffs):
        v = c.p_val()
        if v is not None and v < 1:
            raise NotEisenstein(f"coefficient {i} is a unit")
    v0 = coeffs[0].p_val()
    if v0 != 1:
        raise NotEisenstein(f"constant term has p-adic valuation {v0}, expected 1")
    return DvrSpec(k, coeffs)


# ---------------------------------------------------------------------------
# elements


class DvrElem:
    """Element of R known mod m^n; repr is a degree-<e polynomial over
    W(k)/p^Mc with Mc = ceil(n/e) + guard."""

    __slots__ = ("ring", "n", "wspec", "coeffs")

    def __init__(self, ring: DvrSpec, n: int, wspec: WittRingSpec, coeffs):
        assert n >= 1
        assert len(coeffs) == ring.e
        self.ring = ring
        self.n = n
        self.wspec = wspec
        self.coeffs = tuple(coeffs)

    def __repr__(self):
        return f"DvrElem({[list(c.coeffs) for c in self.coeffs]} mod m^{self.n})"

    def _check(self, other):
        if not isinstance(other, DvrElem) or other.ring != self.ring:
            raise RingMismatch("operands belong to different rings")

    def reduce_to(self, n: int) -> "DvrElem":
        """Forget precision down to mod m^n."""
        if n > self.n:
            raise InsufficientPrecision(f"element known mod m^{self.n}, requested m^{n}")
        w = self.ring.wspec(n)
        return DvrElem(self.ring, n, w, tuple(w.from_coeffs(c.coeffs) for c in self.coeffs))

    def _val_units(self):
        """(value, exact): m-adic valuation in nu-units, exact below n."""
        e = self.ring.e
        best = None
        for j, c in enumerate(self.coeffs):
            v = c.p_val()
            if v < c.ring.M:
                term = e * v + j
                if best is None or term < best:
                    best = term
        if best is not None and best < self.n:
            return best, True
        return self.n, False

    def valuation(self) -> ValInfo:
        v, exact = self._val_units()
        return ValInfo(ValQ(v), exact)

    def __add__(self, other):
        self._check(other)
        n = min(self.n, other.n)
        w = self.ring.wspec(n)
        a = [w.from_coeffs(c.coeffs) for c in self.coeffs]
        b = [w.from_coeffs(c.coeffs) for c in other.coeffs]
        return DvrElem(self.ring, n, w, tuple(x + y for x, y in zip(a, b)))

    def __sub__(self, other):
        self._check(other)
        n = min(self.n, other.n)
        w = self.ring.wspec(n)
        a = [w.from_coeffs(c.coeffs) for c in self.coeffs]
        b = [w.from_coeffs(c.coeffs) for c in other.coeffs]
        return DvrElem(self.ring, n, w, tuple(x - y for x, y in zip(a, b)))

    def __neg__(self):
        return DvrElem(self.ring, self.n, self.wspec, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        spec = self.ring
        w = spec.wspec(min(self.n, other.n))
        a = [w.from_coeffs(c.coeffs) for c in self.coeffs]
        b = [w.from_coeffs(c.coeffs) for c in other.coeffs]
        prod = [w.zero() for _ in range(2 * spec.e - 1)] if spec.e > 1 else [w.zero()]
        for i, x in enumerate(a):
            if not x.is_zero():
                for j, y in enumerate(b):
                    prod[i + j] = prod[i + j] + x * y
        red = _reduce_mod_f(prod, spec, w)
        # precision propagation: min(n_a + nu(b), n_b + nu(a)), clamped to what
        # the working coefficient digits support
        va, _ = self._val_units()
        vb, _ = other._val_units()
        n = min(self.n + vb, other.n + va)
        supported = spec.e * (w.M - GUARD_DIGITS)
        n = max(1, min(n, supported))
        wr = spec.wspec(n)
        return DvrElem(spec, n, wr, tuple(wr.from_coeffs(c.coeffs) for c in red))

    def __pow__(self, k: int):
        assert k >= 0
        result = self.ring.one(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def residue(self) -> FqElem:
        return self.coeffs[0].residue()

    def __eq__(self, other):
        if not isinstance(other, DvrElem) or other.ring != self.ring or other.n != self.n:
            return False
        return pi_digits(self, self.n) == pi_digits(other, other.n)

    def __hash__(self):
        return hash((self.ring, self.n, pi_digits(self, self.n)))


def _reduce_mod_f(coeffs, spec: DvrSpec, wspec: WittRingSpec):
    """Reduce a list of WittElem coefficients modulo the monic Eisenstein f."""
    f = spec.f_materialized(wspec)
    e = spec.e
    coeffs = list(coeffs)
    for i in range(len(coeffs) - 1, e - 1, -1):
        c = coeffs[i]
        if not c.is_zero():
            for j in range(e):
                coeffs[i - e + j] = coeffs[i - e + j] - c * f[j]
        coeffs[i] = wspec.zero()
    out = coeffs[:e]
    out += [wspec.zero()] * (e - len(out))
    return out


def dvr_arith(a: DvrElem, b: DvrElem, op: str) -> DvrElem:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise ValueError(f"unknown op {op!r}")


def dvr_val(a: DvrElem) -> ValInfo:
    return a.valuation()


# ---------------------------------------------------------------------------
# pi-adic digits


def _divide_by_pi(coeffs, spec: DvrSpec, wspec: WittRingSpec):
    """Divide by the uniformizer an element whose bottom coefficient is
    divisible by p; one application of x*u = sum u_j x^(j+1) read backwards."""
    a, w_inv = _pi_division_data(spec, wspec)  # a_0 = p*w
    top = -(coeffs[0].divide_exact_by_p() * w_inv)
    out = []
    for j in range(1, spec.e):
        out.append(coeffs[j] + top * a[j])
    out.append(top)
    return out


def pi_digits(x: DvrElem, n: int | None = None):
    """Canonical expansion x = sum teichmuller(a_r) pi^r mod m^n."""
    if n is None:
        n = x.n
    if n > x.n:
        raise InsufficientPrecision(f"element known mod m^{x.n}, digits to {n} requested")
    spec = x.ring
    wspec = x.wspec
    coeffs = list(x.coeffs)
    digits = []
    for r in range(n):
        a = coeffs[0].residue()
        digits.append(a)
        coeffs[0] = coeffs[0] - teichmuller(a, wspec)
        if r < n - 1:
            coeffs = _divide_by_pi(coeffs, spec, wspec)
    return tuple(digits)


def from_pi_digits(digits, ring: DvrSpec, n: int | None = None) -> DvrElem:
    """Reassemble sum teichmuller(a_r) pi^r from a digit vector."""
    digits = tuple(digits)
    if n is None:
        n = len(digits)
    if len(digits) > n:
        raise ValueError("more digits than the requested precision")
    wspec = ring.wspec(n)
    f = ring.f_materialized(wspec)
    e = ring.e
    acc = [wspec.zero()] * e
    pipow = [wspec.one()] + [wspec.zero()] * (e - 1)
    for r, a in enumerate(digits):
        if not a.is_zero():
            t = teichmuller(a, wspec)
            acc = [ai + t * pj for ai, pj in zip(acc, pipow)]
        if r < len(digits) - 1:
            # multiply pipow by x, reducing x^e = -(a_{e-1}x^{e-1}+...+a_0)
            top = pipow[e - 1]
            new = [-(top * f[0])]
            for j in range(1, e):
                new.append(pipow[j - 1] - top * f[j])
            pipow = new
    return DvrElem(ring, n, wspec, tuple(acc))


def dvr_elem_text(x: DvrElem) -> str:
    return "π:" + ",".join(a.text() for a in pi_digits(x))


def parse_dvr_elem_text(ring: DvrSpec, s: str) -> DvrElem:
    s = s.strip()
    for prefix in ("π:", "pi:"):
        if s.startswith(prefix):
            body = s[len(prefix):]
            digits = [_parse_fq_text(ring.k, t) for t in _split_digit_list(body)]
            return from_pi_digits(digits, ring)
    raise ValueError(f"cannot parse element text {s!r}")


# ---------------------------------------------------------------------------
# minimal polynomial of a uniformizer (used for uniformizer-invariance checks)


def minimal_polynomial(x: DvrElem):
    """Monic degree-e relation satisfied by x over W(k), solved from the
    power-basis coordinates of 1, x, ..., x^e at x's working precision.

    Returns the list [c_0, ..., c_{e-1}] of WittElem coefficients; they are
    exact only modulo p^Mc, so downstream consumers work with valuation
    lower bounds.
    """
    spec = x.ring
    e = spec.e
    wspec = x.wspec
    powers = []
    cur = spec.one(x.n)
    for _ in range(e + 1):
        powers.append([wspec.from_coeffs(c.coeffs) for c in cur.coeffs])
        cur = cur * x
    # solve sum_r c_r x^r = -x^e coordinatewise over W/p^Mc
    rows = e
    mat = [[powers[r][i] for r in range(e)] for i in range(rows)]
    rhs = [-powers[e][i] for i in range(rows)]
    sol = [None] * e
    used_rows = []
    for col in range(e):
        pivot_row = None
        for i in range(rows):
            if i in used_rows:
                continue
            if mat[i][col].is_unit():
                pivot_row = i
                break
        if pivot_row is None:
            raise InsufficientPrecision("no unit pivot while deriving the minimal polynomial")
        used_rows.append(pivot_row)
        inv = witt_unit_inv(mat[pivot_row][col])
        mat[pivot_row] = [m * inv for m in mat[pivot_row]]
        rhs[pivot_row] = rhs[pivot_row] * inv
        for i in range(rows):
            if i != pivot_row and not mat[i][col].is_zero():
                factor = mat[i][col]
                mat[i] = [m - factor * mp for m, mp in zip(mat[i], mat[pivot_row])]
                rhs[i] = rhs[i] - factor * rhs[pivot_row]
    # back-substitute: each used row now has a single leading column
    for col, row in zip(range(e), used_rows):
        sol[col] = rhs[row]
    return sol


# ---------------------------------------------------------------------------
# finite residue rings R/m^n


@dataclass(frozen=True)
class ResidueRingSpec:
    """R_n = R/m^n presented as W(k)[x]/(f(x), x^n); elements are digit
    vectors in k^n."""

    ring: DvrSpec
    n: int

    @property
    def cardinality(self) -> int:
        return self.ring.q ** self.n

    def zero(self) -> "ResidueElt":
        return ResidueElt(self, (self.ring.k.zero(),) * self.n)

    def one(self) -> "ResidueElt":
        return self.from_int(1)

    def from_int(self, c: int) -> "ResidueElt":
        return project(self.ring.from_int(c, self.n), self.n)

    def from_digits(self, digits) -> "ResidueElt":
        digits = tuple(digits)
        assert len(digits) == self.n
        return ResidueElt(self, digits)

    def lift(self, x: "ResidueElt") -> DvrElem:
        return from_pi_digits(x.digits, self.ring, self.n)

    def add(self, x: "ResidueElt", y: "ResidueElt") -> "ResidueElt":
        return project(self.lift(x) + self.lift(y), self.n)

    def sub(self, x: "ResidueElt", y: "ResidueElt") -> "ResidueElt":
        return project(self.lift(x) - self.lift(y), self.n)

    def neg(self, x: "ResidueElt") -> "ResidueElt":
        return project(-self.lift(x), self.n)

    def mul(self, x: "ResidueElt", y: "ResidueElt") -> "ResidueElt":
        return project(self.lift(x) * self.lift(y), self.n)

    def pow(self, x: "ResidueElt", k: int) -> "ResidueElt":
        acc = self.one()
        base = x
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc


@dataclass(frozen=True)
class ResidueElt:
    """Element of R/m^n in canonical digit-vector form."""

    rspec: ResidueRingSpec
    digits: tuple

    def val_units(self) -> int:
        """m-adic valuation: index of the first nonzero digit, or n for 0."""
        for i, a in enumerate(self.digits):
            if not a.is_zero():
                return i
        return self.rspec.n

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.digits)

    def text(self) -> str:
        return "π:" + ",".join(a.text() for a in self.digits)

    def __repr__(self):
        return f"ResidueElt({self.text()})"


def residue_ring(R: DvrSpec, n: int) -> ResidueRingSpec:
    if n < 1:
        raise ValueError("n must be >= 1")
    return ResidueRingSpec(R, n)


def project(x: DvrElem, n: int) -> ResidueElt:
    if n > x.n:
        raise InsufficientPrecision(f"element known mod m^{x.n} cannot project to length {n}")
    return ResidueElt(residue_ring(x.ring, n), pi_digits(x, n))


def project_between(x: ResidueElt, n: int) -> ResidueElt:
    if n > x.rspec.n:
        raise InsufficientPrecision("cannot project to a longer residue ring")
    return ResidueElt(residue_ring(x.rspec.ring, n), x.digits[:n])


def enumerate_elements(Rn: ResidueRingSpec, cap: int | None = None):
    """All q^n digit vectors in lexicographic order."""
    if cap is None:
        cap = enumeration_cap()
    if Rn.cardinality > cap:
        raise TooLarge(f"{Rn.cardinality} elements exceed the enumeration cap {cap}")
    field_elems = sorted(Rn.ring.k.elements(), key=lambda a: a.coeffs)
    for digits in itertools.product(field_elems, repeat=Rn.n):
        yield ResidueElt(Rn, digits)


# ---------------------------------------------------------------------------
# ring spec JSON


def ring_spec_to_json(R: DvrSpec) -> dict:
    return {
        "p": R.p,
        "residue": {"d": R.d, "poly": list(R.k.defining_poly)},
        "eisenstein": [c.to_json() for c in R.coeffs] + [1],
    }


def parse_ring_spec(obj: dict) -> DvrSpec:
    p = obj["p"]
    res = obj.get("residue", {"d": 1, "poly": None})
    d = res.get("d", 1)
    poly = res.get("poly")
    k = make_field(p, d, poly)
    return make_dvr(k, obj["eisenstein"])
