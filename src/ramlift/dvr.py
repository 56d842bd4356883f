"""Eisenstein extensions R = W(k)[x]/(f) at finite precision.

An element known mod m^n is one flat tuple of e*d integers mod p^Mc, an
element of (Z/p^Mc)[y,x]/(g(y), f(x,y)): g is the lifted defining polynomial
of k, so (Z/p^Mc)[y]/(g) = W(k)/p^Mc, and Mc = ceil(n/e) plus two guard
digits.  Each (ring, n) has one cached context holding the modulus, f as
flat integers, which only _reduce_mod_f reads, the residue of -w^-1 for the
unit w with a_0 = p*w, the powers of pi and the Teichmuller lifts of the
digits; d = 1 is the plain integer case.  Every product, pi and its powers
included, is reduced by f in _reduce_mod_f alone.
WittElem values appear only as the value of ExactWittCoeff.materialize,
the one way an exact coefficient becomes integers mod p^M (a "t:" digit
list through witt's Teichmuller sum, from_digits), and as the Teichmuller
lifts that the term tables take apart into coordinates.  Reduction by f
(d = 1) and by g(y) is resfield's _reduce_monic.

Pi-adic Teichmuller digits are the canonical text form; an element reads
its n digits once and keeps them.  The n-th residue rings R/m^n are finite
enumerable rings whose elements are canonical flat vectors: since x is a
uniformizer, m^n is spanned by p^ceil((n-j)/e) x^j for j < e, so reducing
each x^j coordinate mod p^ceil((n-j)/e) picks one vector per class.  Their
operations compute on these vectors and reduce; digits are read only for
text and JSON, pi_digits and the root search.

Digits are read without dividing by the uniformizer.  Let z_0 = v and
z_(r+1) = z_r - teichmuller(a_r) pi^r, so z_r lies in m^r; write r = e*k + j
with 0 <= j < e and c_j for the x^j coefficient of z_r.  The terms c_i x^i
have valuations e*v_p(c_i) + i distinct mod e, so z_r = c_j x^j mod m^(r+1);
and f(pi) = 0 with a_0 = p*w gives p/pi^e = eps mod m for eps the residue of
-w^-1.  Hence a_r = (c_j/p^k mod p) * eps^k, read off one coefficient block
mod p^(k+1).

Digits are read and lifted in chunks [r0, r1) of J digits, J the largest
with q^J <= BLOCK_KEYS (at least 1), the last one cut at n.  The digits r0,
..., r1 - 1 of z in m^r0 are those of z mod m^r1, and the canonical vector
mod m^r1 (see _canon) is a complete invariant of that class; m^r0 falls
into q^(r1-r0) such classes.  Each chunk has one table from that vector to the
chunk's digits and their Teichmuller sum, filled on first use by reading
the key digit by digit, and one from the digits' coordinates to the sum.  A
readout costs one lookup and one subtraction per chunk and stops at the
chunk that holds its last digit; a lift costs one lookup and one addition
per chunk.  The digits are shared FqElem values, each of which renders its
text once.  No fraction-field arithmetic is exposed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mod, mul, sub

from .errors import (
    InsufficientPrecision,
    InvalidArgument,
    NotDivisible,
    NotEisenstein,
    RingMismatch,
    TooLarge,
)
from .record import Record
from .resfield import FieldSpec, FqElem, _convolve, _reduce_monic, enumeration_cap, make_field, power
from .witt import WittElem, WittRingSpec, _vp_int, from_digits, make_witt, teichmuller

GUARD_DIGITS = 2
BLOCK_KEYS = 1024  # the most keys a digit chunk table may hold (q^J <= this)


# ---------------------------------------------------------------------------
# valuation readouts


class ValInfo(Record):
    """A valuation readout: exact, or only the lower bound "value" (the
    precision to which the element was seen to vanish).  None is +infinity,
    the valuation of a zero coefficient."""

    _fields = ("value", "exact")

    def __str__(self):
        return str(self.value) if self.exact else f"≥ {self.value}"


# ---------------------------------------------------------------------------
# exact coefficient descriptions (materializable at any Witt precision)


class ExactWittCoeff(Record):
    """An element of W(k) specified exactly: integer power-basis
    coordinates (kind "int"), or a finite Teichmuller-digit polynomial
    (kind "teich").  Either form determines the element at every precision
    simultaneously."""

    _fields = ("field", "kind", "payload")

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
        if self.kind == "int":
            p = self.field.p
            return min([_vp_int(c, p) for c in self.payload if c], default=None)
        for i, a in enumerate(self.payload):
            if not a.is_zero():
                return i
        return None

    def materialize(self, wspec: WittRingSpec) -> WittElem:
        if wspec.k != self.field:
            raise RingMismatch("coefficient belongs to a different residue field")
        if self.kind == "int":
            return wspec.from_coeffs(self.payload)
        return from_digits(self.payload, wspec)

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


class DvrSpec(Record):
    """R = W(k)[x]/(f) for a monic Eisenstein f of degree e = ramification
    index; coeffs holds f's a_0..a_{e-1} as ExactWittCoeff, the leading 1
    left out."""

    _fields = ("k", "coeffs")

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

    # -- element constructors ------------------------------------------------

    def zero(self, n: int) -> "DvrElem":
        ctx = _context(self, n)
        return DvrElem(ctx, (0,) * ctx.size)

    def one(self, n: int) -> "DvrElem":
        return self.from_int(1, n)

    def from_int(self, c: int, n: int) -> "DvrElem":
        ctx = _context(self, n)
        return DvrElem(ctx, (c % ctx.mod,) + (0,) * (ctx.size - 1))

    def uniformizer(self, n: int) -> "DvrElem":
        ctx = _context(self, n)
        return DvrElem(ctx, ctx.pi)


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
    if v0 is None:
        raise NotEisenstein("constant term is zero, expected p-adic valuation 1")
    if v0 != 1:
        raise NotEisenstein(f"constant term has p-adic valuation {v0}, expected 1")
    return DvrSpec(k, coeffs)


# ---------------------------------------------------------------------------
# the flat core: R/p^Mc as (Z/p^Mc)[y,x]/(g(y), f(x,y))
#
# A flat vector holds e*d integers mod p^Mc: coordinate i (in the power basis
# of W(k) over Z_p, where g is the lifted defining polynomial of k) of the
# coefficient of x^j sits at index j*d + i.  For d = 1 it is just the e
# integer coefficients.  Every operation reduces to the canonical
# representative, so equal elements of R/p^Mc have equal vectors.


class _DigitTable(dict):
    """The digits of one block exponent k: keyed by the coordinates c of an
    x^j block reduced mod p^(k+1), the digit (c/p^k) * eps^k, computed on
    first use (see _digit_at).  A key that p^k does not divide raises
    NotDivisible."""

    def __init__(self, scale: FqElem, pk: int):
        super().__init__()
        self.scale, self.pk = scale, pk

    def __missing__(self, key):
        pk = self.pk
        if any([c % pk for c in key]):
            raise NotDivisible(f"a coefficient block is not divisible by {pk}")
        a = self[key] = FqElem(self.scale.field, [c // pk for c in key]) * self.scale
        return a


@lru_cache(maxsize=1024)
def _digit_table(scale: FqElem, pk: int) -> _DigitTable:
    return _DigitTable(scale, pk)


class _BlockTable(dict):
    """The digits r0, ..., r1 - 1 of one chunk: keyed by the canonical vector
    mod m^r1 (see _canon) of a z in m^r0, the pair (the digits, the flat
    vector of sum teichmuller(a_r) pi^r over them, shared with sums).  The
    sum is None when every digit is 0, and when r1 = ctx.n, where no digit
    follows.  A miss reads the key digit by digit with _digit_at, which
    checks each block it reads; a chunk shorter than e reads no digit off
    some blocks, so the miss first checks that the key lies in m^r0.  A key
    outside it raises NotDivisible and is never stored."""

    def __init__(self, ctx: "_Context", r0: int, r1: int, lows: tuple, sums: "_SumTable"):
        super().__init__()
        self.ctx, self.r0, self.r1, self.lows, self.sums = ctx, r0, r1, lows, sums

    def __missing__(self, key):
        ctx, r0, r1 = self.ctx, self.r0, self.r1
        if any(map(mod, key, self.lows)):
            raise NotDivisible(f"the vector does not lie in m^{r0}")
        v, digits = key, []
        for r in range(r0, r1):
            a = _digit_at(ctx, v, r)
            digits.append(a)
            if r + 1 < r1 and any(a.coeffs):
                v = list(map(sub, v, ctx.terms[r][a.coeffs]))
        term = None if r1 == ctx.n else self.sums[tuple([a.coeffs for a in digits])]
        entry = self[key] = (tuple(digits), term)
        return entry


class _SumTable(dict):
    """The flat vectors of sum teichmuller(a_r) pi^r over the digits r0,
    r0 + 1, ... of one chunk, keyed by the tuple of the digits' coordinate
    tuples and computed on first use from the term tables; None when every
    digit is 0.  _lift pads the key of a chunk that its digits end inside
    with zeros, so a table has q^J keys at most."""

    def __init__(self, ctx: "_Context", r0: int):
        super().__init__()
        self.ctx, self.r0 = ctx, r0

    def __missing__(self, key):
        ctx, r0 = self.ctx, self.r0
        vs = [terms[c] for terms, c in zip(ctx.terms[r0:r0 + len(key)], key) if any(c)]
        mod = ctx.mod
        acc = self[key] = tuple([sum(c) % mod for c in zip(*vs)]) if vs else None
        return acc


def _block_width(q: int) -> int:
    """The chunk width J in digits: the largest J with q^J <= BLOCK_KEYS, at
    least 1.  A chunk has q^J valid keys, so a table never holds more than
    BLOCK_KEYS of them, or q when q exceeds it."""
    J = 1
    while q ** (J + 1) <= BLOCK_KEYS:
        J += 1
    return J


class _TermTable(dict):
    """The flat vectors teichmuller(a) * pi^r for one r, keyed by the
    coordinate tuple of the digit a and computed on first use; for r = 0
    these are the Teichmuller lifts themselves."""

    def __init__(self, ctx: "_Context", r: int):
        super().__init__()
        self.ctx, self.r = ctx, r

    def __missing__(self, key):
        ctx = self.ctx
        if self.r == 0:
            t = teichmuller(FqElem(ctx.ring.k, key), ctx.wspec).coeffs
            v = t + (0,) * (ctx.size - ctx.d)
        else:
            v = _mul(ctx, ctx.terms[0][key], ctx.pi_powers[self.r])
        self[key] = v
        return v


class _Context:
    """Arithmetic data of R at precision n, shared by all its elements: the
    modulus p^Mc, f as flat integers (coordinate i of a_j at index j*d + i,
    the lead a_e = 1 last; read by _reduce_mod_f), the powers pi^r for
    r < n, the tables of teichmuller(a) * pi^r, for each r < n how digit r
    is read: its x^j block, the reduction mod p^(k+1) and the table of
    digits u * eps^k, eps the residue of -w^-1 for the unit w with
    a_0 = p*w (see _digit_at), and the chunks [r0, r1) of _digits and
    _lift: the digits cut into runs of _block_width digits and at n, as
    (r0, r1, the moduli of the canonical vector mod m^r1, _BlockTable,
    _SumTable)."""

    __slots__ = ("ring", "n", "wspec", "M", "mod", "p", "d", "e", "size", "g", "f",
                 "supported", "pi", "pi_powers", "terms", "reads", "chunks", "res_mods")

    def __init__(self, ring: DvrSpec, n: int):
        wspec = ring.wspec(n)
        self.ring, self.n, self.wspec, self.M = ring, n, wspec, wspec.M
        self.mod, self.p, self.d, self.e = wspec.modulus, ring.p, ring.d, ring.e
        self.size = self.e * self.d
        self.g = wspec.lifted_poly
        self.f = tuple(c for a in ring.coeffs for c in a.materialize(wspec).coeffs) + wspec.one().coeffs
        self.supported = self.e * (self.M - GUARD_DIGITS)
        # digit r = e*k + j is read off the x^j block mod p^(k+1) (_digit_at);
        # (p^(k+1)).__rmod__ maps c to c % p^(k+1)
        d, e, p = self.d, self.e, self.p
        pows = [p ** i for i in range(-(-n // e) + 1)]
        w = FqElem(ring.k, [c // p for c in self.f[:d]])  # a_0 = p*w, Mc >= 2
        eps = -w.inverse()  # the residue of p/pi^e
        self.reads, scale = [], ring.k.one()  # scale = eps^k
        for k in range(-(-n // e)):
            rem, table = pows[k + 1].__rmod__, _digit_table(scale, pows[k])
            self.reads += [(j * d, (j + 1) * d, rem, table) for j in range(min(e, n - e * k))]
            scale = scale * eps
        # pi^r = x * pi^(r-1): the blocks of pi^(r-1) shifted up one, reduced
        # by f (for d > 1 as rows of 2d-1 coordinates); pi = -a_0 when e = 1
        pad = [0] * (d - 1)
        powers = [(1 % self.mod,) + (0,) * (self.size - 1)]
        for _ in range(n):
            v = powers[-1]
            rows = [0, *v] if d == 1 else [[0] * (2 * d - 1)] + [
                [*v[j * d:(j + 1) * d], *pad] for j in range(e)]
            powers.append(_reduce_mod_f(self, rows))
        self.pi, self.pi_powers = powers[1], powers[:n]
        self.terms = [_TermTable(self, r) for r in range(n)]
        # m^r = sum of p^ceil((r-j)/e) W(k) x^j over j < e (see _canon)
        bounds = [*range(0, n, _block_width(ring.q)), n]
        mods = [tuple([pows[-(-(r - j) // e)] if j < r else 1 for j in range(e) for _ in range(d)])
                for r in bounds]
        self.chunks = []
        for r0, r1, lows, top in zip(bounds, bounds[1:], mods, mods[1:]):
            sums = _SumTable(self, r0)
            self.chunks.append((r0, r1, top, _BlockTable(self, r0, r1, lows, sums), sums))
        self.res_mods = mods[-1]


@lru_cache(maxsize=4096)
def _context(ring: DvrSpec, n: int) -> _Context:
    if n < 1:
        raise InvalidArgument(f"precision must be at least 1, got {n}")
    return _Context(ring, n)


def _add(ctx: _Context, a, b) -> tuple:
    """Sum of two flat vectors, reduced modulo p^Mc of ctx."""
    mod = ctx.mod
    return tuple([(x + y) % mod for x, y in zip(a, b)])


def _sub(ctx: _Context, a, b) -> tuple:
    """Difference of two flat vectors, reduced modulo p^Mc of ctx."""
    mod = ctx.mod
    return tuple([(x - y) % mod for x, y in zip(a, b)])


def _unit_inv(ctx: _Context, u, depth: int | None = None) -> tuple:
    """The inverse of a unit flat vector u mod m^depth, by y <- y(2 - uy)
    from the Teichmuller lift of the inverse residue: u*y = 1 mod m there,
    and each step squares 1 - uy, so it doubles the depth to which u*y = 1.
    The steps stop once that depth reaches depth; without one, y is the
    inverse mod p^Mc = m^(e*Mc)."""
    two = (2 % ctx.mod,) + (0,) * (ctx.size - 1)
    y = ctx.terms[0][FqElem(ctx.ring.k, u[:ctx.d]).inverse().coeffs]
    known, depth = 1, ctx.e * ctx.M if depth is None else depth
    while known < depth:
        y = _mul(ctx, y, _sub(ctx, two, _mul(ctx, u, y)))
        known *= 2
    return y


def _div_pi_power(ctx: _Context, v, delta: int) -> tuple:
    """v / pi^delta up to a unit, for a flat vector v in m^delta: with
    s = ceil(delta/e), the vector v * pi^(es - delta) / p^s, which is
    (v / pi^delta) * u^s for the unit u = pi^e / p = u(x) of x^e = p*u(x).
    Callers may use it only where u^s does not matter: in a valuation, or in
    a ratio of two quotients with the same delta.  The quotient is known mod
    p^(Mc - s), that is, to es >= delta nu-units less than v.  Raises
    NotDivisible when v does not lie in m^delta."""
    if not delta:
        return v
    s = -(-delta // ctx.e)
    for _ in range(ctx.e * s - delta):
        v = _mul(ctx, ctx.pi, v)
    ps = ctx.p ** s
    if any([c % ps for c in v]):
        raise NotDivisible(f"the vector does not lie in m^{delta}")
    return tuple([c // ps for c in v])


def _raw_val(ctx: _Context, v, cap: int):
    """(min(nu(v), cap), nu(v) < cap): the m-adic valuation in nu-units of a
    flat vector of ctx, read only as far as cap <= n; exact means below cap."""
    p, d, e = ctx.p, ctx.d, ctx.e
    best = cap
    for j in range(min(e, best)):  # the x^j term has valuation >= j
        for c in v[j * d:(j + 1) * d]:
            if c:  # c lies in (0, p^Mc), so its p-adic valuation is below Mc
                k = 0  # stop dividing once e*k + j could not lower best
                while c % p == 0 and e * (k + 1) + j < best:
                    c //= p
                    k += 1
                if c % p and e * k + j < best:
                    best = e * k + j
    return best, best < cap


def _mul(ctx: _Context, a, b) -> tuple:
    """Product of two flat vectors, reduced modulo (g, f, p^Mc) of ctx."""
    e, d = ctx.e, ctx.d
    if d == 1:
        prod = _convolve(a, b)
    else:
        width = 2 * d - 1
        prod = [[0] * width for _ in range(2 * e - 1)]
        for i in range(e):
            ai = a[i * d:(i + 1) * d]
            if any(ai):
                for j in range(e):
                    row, bj = prod[i + j], b[j * d:(j + 1) * d]
                    for s, x in enumerate(ai):
                        if x:
                            for t, y in enumerate(bj):
                                row[s + t] += x * y
    return _reduce_mod_f(ctx, prod)


def _reduce_mod_f(ctx: _Context, prod) -> tuple:
    """Reduce a polynomial in x, listed by its coefficients from x^0 on (at
    least e of them), modulo the monic Eisenstein f: the one reduction by f.

    For d = 1, prod lists integers, reduced by f as a monic polynomial;
    otherwise it lists coordinate rows of length 2d-1, reduced by g before
    they multiply into f."""
    e, d, mod, f = ctx.e, ctx.d, ctx.mod, ctx.f
    if d == 1:
        return tuple(_reduce_monic(prod, f, mod))
    g = ctx.g
    for i in range(len(prod) - 1, e - 1, -1):
        c = _reduce_monic(prod[i], g, mod)
        for j in range(e):
            fj = f[j * d:(j + 1) * d]
            if any(fj):
                row = prod[i - e + j]
                for s, x in enumerate(c):
                    if x:
                        for t, y in enumerate(fj):
                            row[s + t] -= x * y
    return tuple([c for row in prod[:e] for c in _reduce_monic(row, g, mod)])


def _digit_at(ctx: _Context, v, r: int) -> FqElem:
    """Pi-adic digit r of a flat vector v in m^r: with r = e*k + j, v = c_j
    x^j mod m^(r+1) and the digit is (c_j/p^k mod p) * eps^k (see the module
    docstring), looked up by c_j mod p^(k+1).  The coordinates of v may be
    any integers representing it mod p^Mc, negative ones included."""
    lo, hi, rem, table = ctx.reads[r]
    return table[tuple(map(rem, v[lo:hi]))]


def _digits(ctx: _Context, v, n: int) -> tuple:
    """The first n <= ctx.n pi-adic Teichmuller digits of a flat vector, a
    chunk [r0, r1) at a time: look up the chunk's digits and their
    Teichmuller sum by the canonical vector mod m^r1 and subtract the sum,
    until n digits are read.  The differences are not reduced: the keys are
    reduced by moduli that divide p^Mc."""
    out = []
    for _, _, mods, table, _ in ctx.chunks:
        digits, term = table[tuple(map(mod, v, mods))]
        out += digits
        if len(out) >= n:
            break
        if term is not None:
            v = list(map(sub, v, term))
    return tuple(out[:n])


def _canon(ctx: _Context, v) -> tuple:
    """The canonical vector of v mod m^n, n = ctx.n: the x^j coordinates
    reduced mod p^ceil((n-j)/e), and zero for j >= n.

    f is Eisenstein, so x is a uniformizer and the terms c_j x^j (j < e)
    have pairwise distinct valuations mod e: nu(sum c_j x^j) = min_j
    (e*v_p(c_j) + j).  Hence m^n = sum_j p^ceil((n-j)/e) W(k) x^j, and two
    vectors are congruent mod m^n exactly when their canonical vectors are
    equal.  v may come from any context of the ring at precision >= n: each
    of these moduli divides its p^Mc."""
    return tuple([c % m for c, m in zip(v, ctx.res_mods)])


def _check_digit(ctx: _Context, a: FqElem) -> tuple:
    """The coordinates of a digit of the residue field of ctx's ring."""
    if a.field is not ctx.ring.k and a.field != ctx.ring.k:
        raise RingMismatch("element not in the residue field of this ring")
    return a.coeffs


def _lift(ctx: _Context, digits) -> tuple:
    """Flat vector of sum teichmuller(a_r) pi^r over the given digits, a
    chunk at a time: each chunk's sum is looked up by the coordinates of
    its digits, those past the last digit read as 0."""
    n = len(digits)
    if n > ctx.n:
        raise InvalidArgument(f"{n} digits exceed the precision {ctx.n}")
    k, acc = ctx.ring.k, None
    for r0, r1, _, _, sums in ctx.chunks:
        if r0 >= n:
            break
        key = [a.coeffs if a.field is k else _check_digit(ctx, a) for a in digits[r0:r1]]
        if r1 > n:
            key += [(0,) * ctx.d] * (r1 - n)
        term = sums[tuple(key)]
        if term is not None:
            acc = term if acc is None else _add(ctx, acc, term)
    return (0,) * ctx.size if acc is None else acc


# ---------------------------------------------------------------------------
# elements


class DvrElem:
    """Element of R known mod m^n.

    v is the flat vector of e*d integers mod p^Mc (Mc = ceil(n/e) + guard):
    the coefficient of x^j over W(k)/p^Mc sits at v[j*d:(j+1)*d].  ctx is
    the shared context of (ring, n) that holds the modulus and f.  Elements
    never change, so the valuation and the n pi-adic digits are each read
    once, on first use."""

    __slots__ = ("ring", "n", "ctx", "v", "_val", "_digits")

    def __init__(self, ctx: _Context, v: tuple):
        if len(v) != ctx.size:
            raise InvalidArgument(f"expected {ctx.size} coordinates, got {len(v)}")
        self.ring = ctx.ring
        self.n = ctx.n
        self.ctx = ctx
        self.v = v
        self._val = None
        self._digits = None

    def __repr__(self):
        d = self.ctx.d
        return f"DvrElem({[list(self.v[j * d:(j + 1) * d]) for j in range(self.ctx.e)]} mod m^{self.n})"

    def _check(self, other):
        if not isinstance(other, DvrElem) or (other.ring is not self.ring and other.ring != self.ring):
            raise RingMismatch("operands belong to different rings")

    def reduce_to(self, n: int) -> "DvrElem":
        """Forget precision down to mod m^n."""
        if n > self.n:
            raise InsufficientPrecision(f"element known mod m^{self.n}, requested m^{n}")
        ctx = _context(self.ring, n)
        mod = ctx.mod
        return DvrElem(ctx, tuple([c % mod for c in self.v]))

    def _val_units(self):
        """(value, exact): m-adic valuation in nu-units, exact below n."""
        if self._val is None:
            self._val = _raw_val(self.ctx, self.v, self.n)
        return self._val

    def valuation(self) -> ValInfo:
        v, exact = self._val_units()
        return ValInfo(Fraction(v), exact)

    def _low(self, other) -> _Context:
        return self.ctx if self.n <= other.n else other.ctx

    def __add__(self, other):
        self._check(other)
        ctx = self._low(other)
        return DvrElem(ctx, _add(ctx, self.v, other.v))

    def __sub__(self, other):
        self._check(other)
        ctx = self._low(other)
        return DvrElem(ctx, _sub(ctx, self.v, other.v))

    def __neg__(self):
        mod = self.ctx.mod
        return DvrElem(self.ctx, tuple([(-x) % mod for x in self.v]))

    def __mul__(self, other):
        self._check(other)
        # precision propagation: min(n_a + nu(b), n_b + nu(a)), clamped to what
        # the working coefficient digits support
        va, _ = self._val_units()
        vb, _ = other._val_units()
        low = self._low(other)
        n = max(1, min(self.n + vb, other.n + va, low.supported))
        if n == self.n:
            ctx = self.ctx
        elif n == other.n:
            ctx = other.ctx
        else:
            ctx = _context(self.ring, n)
        return DvrElem(ctx, _mul(ctx, self.v, other.v))

    def __pow__(self, k: int):
        return power(self, k, self.ring.one(self.n), mul)

    def residue(self) -> FqElem:
        return FqElem(self.ring.k, self.v[:self.ctx.d])

    def __eq__(self, other):
        # congruence mod m^n is equality of canonical vectors (see _canon)
        if not isinstance(other, DvrElem) or other.ring != self.ring or other.n != self.n:
            return False
        return _canon(self.ctx, self.v) == _canon(other.ctx, other.v)

    def __hash__(self):
        return hash((self.ring, self.n, _canon(self.ctx, self.v)))


# ---------------------------------------------------------------------------
# pi-adic digits


def pi_digits(x: DvrElem, n: int | None = None):
    """Canonical expansion x = sum teichmuller(a_r) pi^r mod m^n: a prefix
    of the n = x.n digits, which are read once per element."""
    if n is None:
        n = x.n
    if n < 0:
        raise InvalidArgument(f"the number of digits must not be negative, got {n}")
    if n > x.n:
        raise InsufficientPrecision(f"element known mod m^{x.n}, digits to {n} requested")
    if x._digits is None:
        x._digits = _digits(x.ctx, x.v, x.n)
    return x._digits if n == x.n else x._digits[:n]


def from_pi_digits(digits, ring: DvrSpec, n: int | None = None) -> DvrElem:
    """Reassemble sum teichmuller(a_r) pi^r from a digit vector."""
    digits = tuple(digits)
    if n is None:
        n = len(digits)
    if len(digits) > n:
        raise ValueError("more digits than the requested precision")
    ctx = _context(ring, n)
    return DvrElem(ctx, _lift(ctx, digits))


def _digits_text(digits) -> str:
    return "π:" + ",".join([a.text() for a in digits])


def dvr_elem_text(x: DvrElem) -> str:
    return _digits_text(pi_digits(x))


def parse_pi_digits(k: FieldSpec, s: str) -> tuple:
    """The digits in k of an element text "π:a,b,..." or "pi:a,b,...", as
    dvr_elem_text writes it; "π:" has none."""
    s = s.strip()
    for prefix in ("π:", "pi:"):
        if s.startswith(prefix):
            return tuple(_parse_fq_text(k, t) for t in _split_digit_list(s[len(prefix):]))
    raise ValueError(f"cannot parse element text {s!r}")


# ---------------------------------------------------------------------------
# finite residue rings R/m^n


class ResidueRingSpec(Record):
    """R_n = R/m^n presented as W(k)[x]/(f(x), x^n).  An element is a
    canonical flat vector of R at precision n (see _canon), and its digit
    vector in k^n is read only when asked for."""

    _fields = ("ring", "n")

    @property
    def cardinality(self) -> int:
        return self.ring.q ** self.n

    def check_size(self, what: str) -> None:
        """Raise TooLarge when the q^n elements exceed the enumeration cap.
        Beyond the bit length of the cap, n alone decides, and q^n, which
        could have millions of digits, is neither formed nor printed."""
        q, n, cap = self.ring.q, self.n, enumeration_cap()
        if n > max(cap, 1).bit_length():
            raise TooLarge(f"{q}^{n} {what} exceed the enumeration cap {cap}")
        if q ** n > cap:
            raise TooLarge(f"{q ** n} {what} exceed the enumeration cap {cap}")

    @cached_property
    def _ctx(self) -> _Context:
        return _context(self.ring, self.n)

    @cached_property
    def _json(self) -> dict:
        return {**ring_spec_to_json(self.ring), "n": self.n}

    def zero(self) -> "ResidueElt":
        return ResidueElt(self, (self.ring.k.zero(),) * self.n, (0,) * self._ctx.size)

    def one(self) -> "ResidueElt":
        return self.from_int(1)

    def from_int(self, c: int) -> "ResidueElt":
        ctx = self._ctx
        return ResidueElt(self, None, _canon(ctx, (c,) + (0,) * (ctx.size - 1)))

    def from_digits(self, digits) -> "ResidueElt":
        digits = tuple(digits)
        if len(digits) != self.n:
            raise InvalidArgument(f"expected {self.n} digits, got {len(digits)}")
        return ResidueElt(self, digits)

    def lift(self, x: "ResidueElt") -> DvrElem:
        return DvrElem(self._ctx, self._vec(x))

    # The operations act on canonical vectors: R -> R/m^n is a ring map, so
    # an operation on any representatives, reduced by _canon, gives the
    # canonical vector of the result.

    def _vec(self, x: "ResidueElt") -> tuple:
        if x.rspec is not self and x.rspec != self:
            raise RingMismatch("element not in this residue ring")
        return x.v

    def add(self, x: "ResidueElt", y: "ResidueElt") -> "ResidueElt":
        terms = zip(self._vec(x), self._vec(y), self._ctx.res_mods)
        return ResidueElt(self, None, tuple([(a + b) % m for a, b, m in terms]))

    def sub(self, x: "ResidueElt", y: "ResidueElt") -> "ResidueElt":
        terms = zip(self._vec(x), self._vec(y), self._ctx.res_mods)
        return ResidueElt(self, None, tuple([(a - b) % m for a, b, m in terms]))

    def neg(self, x: "ResidueElt") -> "ResidueElt":
        terms = zip(self._vec(x), self._ctx.res_mods)
        return ResidueElt(self, None, tuple([(-a) % m for a, m in terms]))

    def mul(self, x: "ResidueElt", y: "ResidueElt") -> "ResidueElt":
        ctx = self._ctx
        return ResidueElt(self, None, _canon(ctx, _mul(ctx, self._vec(x), self._vec(y))))

    def pow(self, x: "ResidueElt", k: int) -> "ResidueElt":
        ctx = self._ctx
        acc = power(self._vec(x), k, ctx.pi_powers[0], lambda a, b: _mul(ctx, a, b))
        return ResidueElt(self, None, _canon(ctx, acc))


class ResidueElt:
    """Element of R/m^n, held as its canonical flat vector v, its digit
    vector, or both; whichever is missing is derived once, on first use.
    Equality and hashing use (rspec, v)."""

    __slots__ = ("rspec", "_digits", "_v")

    def __init__(self, rspec: ResidueRingSpec, digits: tuple | None = None, v: tuple | None = None):
        if digits is None and v is None:
            raise InvalidArgument("a residue-ring element needs its digits or its vector")
        self.rspec = rspec
        self._digits = digits
        self._v = v

    @property
    def v(self) -> tuple:
        if self._v is None:
            ctx = self.rspec._ctx
            self._v = _canon(ctx, _lift(ctx, self._digits))
        return self._v

    @property
    def digits(self) -> tuple:
        if self._digits is None:
            self._digits = _digits(self.rspec._ctx, self._v, self.rspec.n)
        return self._digits

    def val_units(self) -> int:
        """m-adic valuation: index of the first nonzero digit, or n for 0."""
        if self._digits is None:
            return _raw_val(self.rspec._ctx, self._v, self.rspec.n)[0]
        for i, a in enumerate(self._digits):
            if not a.is_zero():
                return i
        return self.rspec.n

    def is_zero(self) -> bool:
        if self._v is None:
            return all(a.is_zero() for a in self._digits)
        return not any(self._v)

    def __eq__(self, other):
        if not isinstance(other, ResidueElt):
            return NotImplemented
        return (self.rspec is other.rspec or self.rspec == other.rspec) and self.v == other.v

    def __hash__(self):
        return hash((self.rspec, self.v))

    def text(self) -> str:
        return _digits_text(self.digits)

    def __repr__(self):
        return f"ResidueElt({self.text()})"


@lru_cache(maxsize=4096)
def residue_ring(R: DvrSpec, n: int) -> ResidueRingSpec:
    """The one spec of R/m^n per (R, n), so its context is looked up once."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return ResidueRingSpec(R, n)


def project(x: DvrElem, n: int) -> ResidueElt:
    if n > x.n:
        raise InsufficientPrecision(f"element known mod m^{x.n} cannot project to length {n}")
    rspec = residue_ring(x.ring, n)
    return ResidueElt(rspec, pi_digits(x, n), _canon(rspec._ctx, x.v))


def project_between(x: ResidueElt, n: int) -> ResidueElt:
    if n > x.rspec.n:
        raise InsufficientPrecision("cannot project to a longer residue ring")
    rspec = residue_ring(x.rspec.ring, n)
    digits = None if x._digits is None else x._digits[:n]
    v = None if x._v is None else _canon(rspec._ctx, x._v)
    return ResidueElt(rspec, digits, v)


def enumerate_elements(Rn: ResidueRingSpec):
    """All q^n digit vectors in lexicographic order."""
    Rn.check_size("elements")
    for digits in itertools.product(Rn.ring.k.elements(), repeat=Rn.n):
        yield ResidueElt(Rn, digits)


# ---------------------------------------------------------------------------
# ring spec JSON


def ring_spec_to_json(R: DvrSpec) -> dict:
    return {
        "p": R.p,
        "residue": {"d": R.d, "poly": list(R.k.defining_poly)},
        "eisenstein": [c.to_json() for c in R.coeffs] + [1],
    }


def _json_int(value, what: str) -> int:
    """An integer read from JSON; floats and booleans are refused, so that
    none reaches the output."""
    if type(value) is not int:
        raise InvalidArgument(f"{what} must be an integer, got {value!r}")
    return value


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise InvalidArgument(f"{what} must be a list, got {value!r}")
    return value


def _ring_spec_field(obj: dict, key: str):
    if key not in obj:
        raise InvalidArgument(f'the ring spec is missing "{key}"')
    return obj[key]


def parse_ring_spec(obj: dict) -> DvrSpec:
    if not isinstance(obj, dict):
        raise InvalidArgument("a ring spec must be a JSON object")
    p = _json_int(_ring_spec_field(obj, "p"), "p")
    res = obj.get("residue", {"d": 1, "poly": None})
    if not isinstance(res, dict):
        raise InvalidArgument(f"residue must be a JSON object, got {res!r}")
    d = _json_int(res.get("d", 1), "residue.d")
    poly = res.get("poly")
    if poly is not None:
        for c in _json_list(poly, "residue.poly"):
            _json_int(c, "a residue.poly entry")
    f = _json_list(_ring_spec_field(obj, "eisenstein"), "eisenstein")
    for c in f:
        if not isinstance(c, str):  # "t:..." digit strings are parsed by make_dvr
            for x in c if isinstance(c, list) else [c]:
                _json_int(x, "an eisenstein coefficient")
    return make_dvr(make_field(p, d, poly), f)
