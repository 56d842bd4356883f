"""Newton polygons over valued coefficients and the ramification calculus.

The conjugate-difference bound M(R) is read off the Newton polygon of
f(pi+T)/T, whose coefficient valuations are exact: expanding f at pi by the
binomial theorem gives, for each T-power, a pi-polynomial whose terms have
pairwise distinct valuations, so the minimum is computed symbolically and no
truncated element arithmetic enters the hull.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .dvr import DvrSpec, ValInfo
from .errors import InconsistentResult, InvalidArgument, NotPrime, PrecisionTooLow
from .record import Record
from .resfield import is_prime
from .witt import _vp_int, make_witt, witt_unit_inv


def nu_of_e(p: int, e: int) -> int:
    """nu(e) = e * v_p(e): the valuation of the integer e in any ring with
    ramification index e; it depends only on p and e."""
    return e * (_vp_int(e, p) or 0)


# ---------------------------------------------------------------------------
# Newton polygons


class NewtonPolygon(Record):
    """Lower convex hull of (i, val(c_i)), as vertices ((index, Fraction),
    ...); slopes ((Fraction, multiplicity), ...) are the negated segment
    gradients, listed ascending with multiplicities (= segment widths)."""

    _fields = ("vertices", "slopes")

    def max_slope(self) -> Fraction:
        return self.slopes[-1][0]

    def slope_sum(self) -> Fraction:
        return sum((s * m for s, m in self.slopes), Fraction(0))


def _as_valinfo(v) -> ValInfo:
    if isinstance(v, ValInfo):
        return v
    return ValInfo(None if v is None else Fraction(v), True)


def newton_polygon(coeff_vals) -> NewtonPolygon:
    """Build the polygon from per-coefficient valuations (exact rationals or
    ValInfo, or lower bounds via ValInfo(exact=False); None marks a zero
    coefficient).

    Raises PrecisionTooLow when a hull vertex rests on a coefficient whose
    valuation is only a lower bound: the hull is not determined.
    """
    vals = [_as_valinfo(v) for v in coeff_vals]
    if not vals or not vals[-1].exact:
        raise PrecisionTooLow("leading coefficient valuation must be exactly known")
    points = [(i, v) for i, v in enumerate(vals) if v.value is not None]
    if len(points) < 2:
        raise ValueError("degenerate polygon: fewer than two finite points")
    # Graham-style scan of the lower hull with exact rational turns
    hull = []
    for i, v in points:
        x, y = Fraction(i), v.value
        while len(hull) >= 2:
            (x0, y0, _), (x1, y1, _) = hull[-2], hull[-1]
            if (x1 - x0) * (y - y0) - (x - x0) * (y1 - y0) <= 0:
                hull.pop()
            else:
                break
        hull.append((x, y, v))
    for x, y, v in hull:
        if not v.exact:
            raise PrecisionTooLow(
                f"hull vertex at index {x} rests on a valuation lower bound"
            )
    vertices = tuple((int(x), y) for x, y, _ in hull)
    slopes = []
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:]):
        grad = Fraction(y1 - y0, x1 - x0)
        slopes.append((-grad, x1 - x0))
    slopes.sort(key=lambda sm: sm[0])
    return NewtonPolygon(vertices, tuple(slopes))


# ---------------------------------------------------------------------------
# exact coefficient valuations of f(pi+T)/T and f'(pi)


def _shifted_coeff_vals(a_vals, e: int, p: int):
    """Valuations of the T^1..T^deg coefficients of F(pi+T), deg =
    len(a_vals), for the monic F whose non-leading coefficients have the
    valuations a_vals[j] (p-adic, None = zero), in nu-units of a ring with
    ramification index e.

    b_i = sum_{j>=i} C(j,i) a_j pi^(j-i): each entry is the least term
    valuation e*v_p(C(j,i) a_j) + (j-i).  For deg = e these terms are
    pairwise distinct mod e, so each entry is b_i's valuation exactly.
    """
    out = []
    full = list(a_vals) + [0]  # the leading coefficient 1 has valuation 0
    for i in range(1, len(full)):
        terms = [e * (va + _vp_int(comb(j, i), p)) + (j - i)
                 for j, va in enumerate(full) if j >= i and va is not None]
        out.append(min(terms, default=None))
    return out  # nu-units of coefficients c_0..c_{deg-1} of F(pi+T)/T


def _spec_coeff_vals(R: DvrSpec):
    """Exact p-adic valuations of f's non-leading coefficients."""
    return [c.p_val() for c in R.coeffs]


@lru_cache(maxsize=1024)
def krasner_bound(R: DvrSpec) -> Fraction:
    """M(R): the largest normalized valuation of a difference pi - sigma(pi)
    over nontrivial conjugates of the uniformizer, the maximal slope of the
    Newton polygon of f(pi+T)/T; 0 for e = 1, where the maximum is empty."""
    e = R.e
    if e == 1:
        return Fraction(0)
    shifted = _shifted_coeff_vals(_spec_coeff_vals(R), e, R.p)
    return newton_polygon([None if v is None else Fraction(v, e) for v in shifted]).max_slope()


@lru_cache(maxsize=1024)
def different_val(R: DvrSpec) -> int:
    """nu(f'(pi)) in nu-units, the T^1 entry of _shifted_coeff_vals (exact,
    as deg f = e); the different of R over W(k) is (f'(pi))."""
    return _shifted_coeff_vals(_spec_coeff_vals(R), R.e, R.p)[0]


def discriminant_val(R: DvrSpec) -> int:
    """p-adic valuation of disc(f) over W(k).

    The norm of m^s is p^s for a totally ramified extension, so the value
    equals the different; an independent Sylvester-resultant determinant over
    W(k)/p^B cross-checks every call.
    """
    s = different_val(R)
    res_val = _resultant_val(R, bound=s + 4)
    if res_val != s:
        raise InconsistentResult(f"resultant valuation {res_val} != different {s}")
    return s


def _resultant_val(R: DvrSpec, bound: int) -> int:
    """v_p(Res(f, f')) via the Sylvester determinant at precision p^bound."""
    e = R.e
    wspec = make_witt(R.k, bound)
    f = [c.materialize(wspec) for c in R.coeffs] + [wspec.one()]
    fprime = [f[j] * wspec.from_int(j) for j in range(1, e + 1)]
    size = 2 * e - 1
    rows = []
    for shift in range(e - 1):  # e-1 rows of f (descending layout)
        row = [wspec.zero()] * size
        for j in range(e + 1):
            row[shift + j] = f[e - j]
        rows.append(row)
    for shift in range(e):  # e rows of f'
        row = [wspec.zero()] * size
        for j in range(e):
            row[shift + j] = fprime[e - 1 - j]
        rows.append(row)
    v = _det_val(rows, wspec)
    if v >= bound:
        raise InconsistentResult("resultant vanished to working precision")
    return v


def _det_val(rows, wspec) -> int:
    """p-adic valuation of the determinant over W(k)/p^B, B = wspec.M, by
    elimination with full pivoting on an entry of least valuation v.  Every
    entry of the pivot row then has valuation >= v, so the pivot row divided
    by p^v is known mod p^(B-v), and the multipliers, of valuation >= v,
    carry that error past p^B: the eliminated matrix is exact mod p^B, and
    v_p(det) is the sum of the pivot valuations.  Returns B when the
    determinant vanishes mod p^B."""
    p, B = wspec.p, wspec.M
    total = 0
    while rows:
        v, i, j = min((x.p_val(), i, j) for i, row in enumerate(rows) for j, x in enumerate(row))
        total += v
        if total >= B:
            return B
        scale = p ** v
        pivot = [wspec.from_coeffs([c // scale for c in x.coeffs]) for x in rows.pop(i)]
        inv = witt_unit_inv(pivot[j])
        pivot = [x * inv for x in pivot]
        rows = [[x - row[j] * y for k, (x, y) in enumerate(zip(row, pivot)) if k != j]
                for row in rows]
    return total


# ---------------------------------------------------------------------------
# bound formulas


@lru_cache(maxsize=1024)
def lift_precision_bound(R1: DvrSpec, e2: int) -> int:
    """Smallest n2 with n2 > M(R1) * e1 * e2: the target-side residue length
    from which homomorphisms lift uniquely."""
    if e2 < 1:
        raise ValueError("e2 must be >= 1")
    m = krasner_bound(R1)
    threshold = m * R1.e * e2
    n = int(threshold) + 1
    return n


def _upper_bound(p: int, e: int) -> int:
    """e + e*nu(e) + 1: the generic upper bound on the lifting number."""
    return e + e * nu_of_e(p, e) + 1


def generic_bounds(p: int, e: int) -> dict:
    """Lifting-number bounds depending only on (p, e); basarab_upper always
    equals upper, and is kept because the demo records and `bounds` print it."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if e < 1:
        raise InvalidArgument(f"e must be >= 1, got {e}")
    upper = _upper_bound(p, e)
    out = {"upper": upper, "lower": 1 if e == 1 else e + 1, "basarab_upper": upper}
    if e >= 2 and e % p != 0:
        out["tame_exact"] = e + 1
    return out


def n0_threshold(R1: DvrSpec, R2: DvrSpec) -> int:
    """Smallest residue length that decides elementary equivalence questions
    for the pair: max over both rings of e + e*nu(e), plus one."""
    return max(_upper_bound(R1.p, R1.e), _upper_bound(R2.p, R2.e))


# ---------------------------------------------------------------------------
# report


class RamificationReport(Record):
    _fields = ("e", "tame", "M", "different_val", "discriminant_val")

    def to_json(self) -> dict:
        return {
            "e": self.e,
            "tame": self.tame,
            "M": str(self.M),
            "different_val": self.different_val,
            "discriminant_val": self.discriminant_val,
        }


def ramification_report(R: DvrSpec) -> RamificationReport:
    return RamificationReport(
        e=R.e,
        tame=R.e % R.p != 0,
        M=krasner_bound(R),
        different_val=different_val(R),
        discriminant_val=discriminant_val(R),
    )
