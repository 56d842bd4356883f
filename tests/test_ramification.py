import random
from fractions import Fraction

import pytest

from ramlift.dvr import ValInfo, make_dvr
from ramlift.errors import PrecisionTooLow
from ramlift.ramification import (
    different_val,
    discriminant_val,
    generic_bounds,
    krasner_bound,
    krasner_bound_of_uniformizer,
    lift_precision_bound,
    n0_threshold,
    newton_polygon,
    nu_of_e,
    ramification_report,
)
from ramlift.resfield import make_field
from ramlift.witt import teichmuller

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F5 = make_field(5, 1)

Z3_SQRT3 = make_dvr(F3, [-3, 0, 1])
Z3_SQRTM3 = make_dvr(F3, [3, 0, 1])
Z2_SQRT2 = make_dvr(F2, [-2, 0, 1])
Z2_SQRT10 = make_dvr(F2, [-10, 0, 1])
Z3_CBRT3 = make_dvr(F3, [-3, 0, 0, 1])
Z3_FLAT = make_dvr(F3, [-3, 1])


# -- newton polygon ----------------------------------------------------------

def test_polygon_eisenstein_quadratic():
    np = newton_polygon([Fraction(1), None, Fraction(0)])
    assert np.slopes == ((Fraction(1, 2), 2),)
    assert np.vertices == ((0, Fraction(1)), (2, Fraction(0)))


def test_polygon_single_segment():
    np = newton_polygon([Fraction(3, 2), Fraction(0)])
    assert np.slopes == ((Fraction(3, 2), 1),)


def test_polygon_degenerate_constant():
    with pytest.raises(ValueError):
        newton_polygon([Fraction(1)])


def test_polygon_lower_bound_vertex_rejected():
    # index-1 value is only a bound and would sit under the hull
    with pytest.raises(PrecisionTooLow):
        newton_polygon([Fraction(2), ValInfo(Fraction(0), False), Fraction(1)])


def test_polygon_lower_bound_above_hull_tolerated():
    np = newton_polygon([Fraction(1), ValInfo(Fraction(5), False), Fraction(0)])
    assert np.slopes == ((Fraction(1, 2), 2),)


def test_polygon_multi_segment():
    np = newton_polygon([Fraction(3), Fraction(1), Fraction(1), Fraction(0)])
    assert np.slopes == ((Fraction(1, 2), 2), (Fraction(2), 1))
    assert np.slope_sum() == Fraction(3)


# -- krasner bound -----------------------------------------------------------

def test_krasner_examples():
    assert krasner_bound(Z3_SQRT3) == Fraction(1, 2)
    assert krasner_bound(Z3_CBRT3) == Fraction(5, 6)
    assert krasner_bound(Z2_SQRT2) == Fraction(3, 2)
    assert krasner_bound(Z3_FLAT) == Fraction(0)


def test_krasner_tame_is_one_over_e():
    for p, e in [(3, 2), (5, 2), (5, 4), (7, 3), (2, 3)]:
        k = make_field(p, 1)
        spec = make_dvr(k, [p, 0] + [0] * (e - 2) + [1])
        assert krasner_bound(spec) == Fraction(1, e)


def test_krasner_upper_bound():
    rng = random.Random(5)
    for p, e in [(2, 2), (3, 3), (2, 4), (3, 2)]:
        k = make_field(p, 1)
        for _ in range(10):
            c0 = p * rng.choice([c for c in range(1, 3 * p) if c % p])
            f = [c0] + [p * rng.randrange(3) for _ in range(e - 1)] + [1]
            spec = make_dvr(k, f)
            m = krasner_bound(spec)
            assert m <= Fraction(1 + nu_of_e(p, e), e)


# -- different / discriminant -------------------------------------------------

def test_different_examples():
    assert different_val(Z3_SQRT3) == 1  # tame: e - 1
    assert different_val(Z2_SQRT2) == 3  # nu(2 pi) = 2 + 1
    assert different_val(Z3_CBRT3) == 5


def test_different_range_wild():
    s = different_val(Z2_SQRT2)
    e = Z2_SQRT2.e
    assert e <= s <= e - 1 + nu_of_e(2, e)


def test_discriminant_cross_check_named_rings():
    assert discriminant_val(Z3_SQRT3) == 1
    assert discriminant_val(Z2_SQRT2) == 3  # v_2(disc(x^2-2)) = v_2(8)
    assert discriminant_val(Z3_CBRT3) == 5
    assert discriminant_val(Z3_FLAT) == 0


@pytest.mark.parametrize("e", range(1, 11))
def test_discriminant_matches_sympy_oracle(e):
    # v_p(disc f) from sympy's integer discriminant, against the different
    # and the Sylvester-determinant cross-check inside discriminant_val
    import sympy

    x = sympy.symbols("x")
    rng = random.Random(1000 + e)
    for p in (2, 3, 5):
        k = make_field(p, 1)
        for _ in range(3):
            c0 = p * rng.choice([c for c in range(-p * p + 1, p * p) if c % p])
            f = [c0] + [p * rng.randrange(p * p) for _ in range(e - 1)] + [1]
            disc = int(sympy.discriminant(sympy.Poly(f[::-1], x)))
            v = 0
            while disc % p == 0:
                disc //= p
                v += 1
            assert discriminant_val(make_dvr(k, f)) == v, (p, f)


def test_tame_iff_different_e_minus_1_random():
    rng = random.Random(17)
    for p, e in [(3, 2), (5, 2), (5, 4), (2, 2), (3, 3), (2, 4)]:
        k = make_field(p, 1)
        for _ in range(5):
            c0 = p * rng.choice([c for c in range(1, 3 * p) if c % p])
            f = [c0] + [p * rng.randrange(3) for _ in range(e - 1)] + [1]
            spec = make_dvr(k, f)
            s = different_val(spec)
            if e % p != 0:
                assert s == e - 1
            else:
                assert e <= s <= e - 1 + nu_of_e(p, e)
            assert discriminant_val(spec) == s


def test_slope_sum_equals_different_over_e():
    rng = random.Random(19)
    from ramlift.ramification import _shifted_coeff_vals, _spec_coeff_vals

    for p, e in [(3, 2), (2, 2), (3, 3), (2, 4)]:
        k = make_field(p, 1)
        for _ in range(8):
            c0 = p * rng.choice([c for c in range(1, 3 * p) if c % p])
            f = [c0] + [p * rng.randrange(3) for _ in range(e - 1)] + [1]
            spec = make_dvr(k, f)
            vals = _shifted_coeff_vals(_spec_coeff_vals(spec), e, p)
            poly = newton_polygon(
                [Fraction(v, e) if v is not None else None for v in vals]
            )
            assert poly.slope_sum() == Fraction(different_val(spec), e)


def test_quartic_wild_ring_by_hand():
    # x^4 - 2 over Z2: conjugate differences pi(1 -+ i) and 2pi have
    # normalized valuations 3/4, 3/4, 5/4
    spec = make_dvr(F2, [-2, 0, 0, 0, 1])
    assert krasner_bound(spec) == Fraction(5, 4)
    assert different_val(spec) == 11  # nu(4 pi^3) = 8 + 3, top of the wild range
    assert discriminant_val(spec) == 11
    assert 11 == spec.e - 1 + nu_of_e(2, 4)


def test_quadratic_krasner_is_half_the_different():
    # for e = 2 the shifted polynomial is linear, so the single slope is
    # nu-tilde(f'(pi)); the hull route and the min-term route must agree
    rng = random.Random(71)
    for p in (2, 3, 5):
        k = make_field(p, 1)
        for _ in range(20):
            c0 = p * rng.choice([c for c in range(1, 3 * p) if c % p])
            spec = make_dvr(k, [c0, p * rng.randrange(5), 1])
            assert krasner_bound(spec) == Fraction(different_val(spec), 2)


# -- uniformizer invariance ----------------------------------------------------

@pytest.mark.parametrize("spec", [Z3_SQRT3, Z2_SQRT2, Z3_CBRT3, Z2_SQRT10])
def test_krasner_uniformizer_invariance(spec):
    rng = random.Random(41)
    n = 6 * spec.e
    m = krasner_bound(spec)
    pi = spec.uniformizer(n)
    nonzero = [a for a in spec.k.elements() if not a.is_zero()]
    for _ in range(10):
        u = rng.choice(nonzero)
        wspec = spec.wspec(n)
        unit = spec.from_witt(teichmuller(u, wspec), n)
        mod = spec.p ** spec.coeff_precision(n)
        tail = spec.element(
            [[rng.randrange(mod)] * spec.d for _ in range(spec.e)], n
        )
        pi2 = unit * pi + (pi * pi) * tail  # u*pi + higher order
        assert krasner_bound_of_uniformizer(pi2) == m


def test_krasner_of_uniformizer_refuses_a_minimum_on_a_lower_bound():
    # x^8 - 2 over Z2: at n <= 8 the coefficients are read mod 2^3, so the
    # zero a_1 contributes the lower bound 8*3 = 24 to the T^1 coefficient,
    # below the exact term 8*v_2(8) + 7 = 31 of the lead: the hull's first
    # vertex is not determined.  From n = 9 on (mod 2^4) it is.
    spec = make_dvr(F2, [-2] + [0] * 7 + [1])
    for n in (4, 8):
        with pytest.raises(PrecisionTooLow):
            krasner_bound_of_uniformizer(spec.uniformizer(n))
    assert krasner_bound_of_uniformizer(spec.uniformizer(9)) == krasner_bound(spec) == Fraction(9, 8)


# -- numeric bound formulas ----------------------------------------------------

def test_lift_precision_bound_named():
    assert lift_precision_bound(Z3_SQRT3, 2) == 3
    assert lift_precision_bound(Z2_SQRT2, 2) == 7
    assert lift_precision_bound(Z3_CBRT3, 3) == 8
    assert lift_precision_bound(Z3_FLAT, 1) == 1


def test_generic_bounds():
    b22 = generic_bounds(2, 2)
    assert b22["upper"] == 7 and b22["lower"] == 3 and "tame_exact" not in b22
    assert b22["basarab_upper"] == 7
    b32 = generic_bounds(3, 2)
    assert b32 == {"upper": 3, "lower": 3, "basarab_upper": 3, "tame_exact": 3}
    b1 = generic_bounds(5, 1)
    assert b1["lower"] == 1 and "tame_exact" not in b1
    b33 = generic_bounds(3, 3)
    assert b33["upper"] == 13 and b33["basarab_upper"] == 13


def test_n0_threshold():
    assert n0_threshold(Z3_SQRT3, Z3_SQRTM3) == 3
    assert n0_threshold(Z2_SQRT2, Z2_SQRT10) == 7
    assert n0_threshold(Z3_FLAT, Z3_FLAT) == 2


def test_report_fields():
    rep = ramification_report(Z2_SQRT2)
    assert rep.e == 2 and not rep.tame
    assert rep.M == Fraction(3, 2)
    assert rep.different_val == 3 and rep.discriminant_val == 3
    j = rep.to_json()
    assert set(j) == {"e", "tame", "M", "different_val", "discriminant_val"}
    assert j["M"] == "3/2"
    rep2 = ramification_report(Z3_SQRT3)
    assert rep2.tame and rep2.M == Fraction(1, 2)


def test_polygon_inexact_leading_coefficient_rejected():
    with pytest.raises(PrecisionTooLow):
        newton_polygon([Fraction(1), Fraction(0), ValInfo(Fraction(0), False)])
