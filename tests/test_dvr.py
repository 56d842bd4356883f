import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    digit_by_digit_digits,
    digit_by_digit_lift,
    digit_route_apply,
    digit_route_op,
    divide_by_pi_digits,
    element,
    flat_ring_op,
    minimal_polynomial,
)
from ramlift import dvr
from ramlift.dvr import (
    ResidueElt,
    dvr_elem_text,
    enumerate_elements,
    from_pi_digits,
    make_dvr,
    parse_pi_digits,
    parse_ring_spec,
    pi_digits,
    project,
    project_between,
    residue_ring,
    ring_spec_to_json,
)
from ramlift.errors import (
    InsufficientPrecision,
    InvalidArgument,
    NotDivisible,
    NotEisenstein,
    RingMismatch,
    TooLarge,
)
from ramlift.homlift import ResidueHom, enumerate_isos
from ramlift.resfield import make_field
from ramlift.witt import make_witt, teich_digits

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F9 = make_field(3, 2, [1, 0, 1])

Z3_SQRT3 = make_dvr(F3, [-3, 0, 1])  # x^2 - 3
Z3_SQRTM3 = make_dvr(F3, [3, 0, 1])  # x^2 + 3
Z2_SQRT10 = make_dvr(F2, [-10, 0, 1])  # x^2 - 10
Z3_CBRT3 = make_dvr(F3, [-3, 0, 0, 1])  # x^3 - 3
Z3_FLAT = make_dvr(F3, [-3, 1])  # x - 3: the unramified ring itself


def test_make_dvr_examples():
    assert Z3_SQRT3.e == 2
    assert Z2_SQRT10.e == 2
    assert Z3_CBRT3.e == 3


def test_make_dvr_rejects_non_eisenstein():
    with pytest.raises(NotEisenstein):
        make_dvr(F3, [-9, 0, 1])  # constant valuation 2
    with pytest.raises(NotEisenstein):
        make_dvr(F3, [-3, 1, 1])  # unit linear coefficient


def test_make_dvr_rejects_missing_leading_one():
    with pytest.raises(ValueError):
        make_dvr(F3, [-3, 0])


def test_pi_squared_is_three():
    pi = Z3_SQRT3.uniformizer(4)
    sq = pi * pi
    assert sq == Z3_SQRT3.from_int(3, sq.n)
    v = sq.valuation()
    assert v.exact and v.value == 2


def test_val_of_zero_is_precision_bound():
    z = Z3_SQRT3.zero(4)
    v = z.valuation()
    assert not v.exact
    assert v.value == 4
    assert str(v) == "≥ 4"


def test_one_plus_pi_times_one_minus_pi():
    n = 6
    one = Z3_SQRT3.one(n)
    pi = Z3_SQRT3.uniformizer(n)
    prod = (one + pi) * (one - pi)
    assert prod == Z3_SQRT3.from_int(-2, prod.n)
    assert prod.valuation().value == 0


def test_nu_of_p_equals_e():
    for spec in (Z3_SQRT3, Z2_SQRT10, Z3_CBRT3, Z3_FLAT):
        x = spec.from_int(spec.p, 3 * spec.e)
        v = x.valuation()
        assert v.exact and v.value == spec.e


def test_pi_digits_of_three():
    x = Z3_SQRT3.from_int(3, 4)
    assert [a.coeffs[0] for a in pi_digits(x, 4)] == [0, 0, 1, 0]


def test_pi_digits_of_five_interleaves_witt_digits():
    x = Z3_SQRT3.from_int(5, 6)
    got = [a.coeffs[0] for a in pi_digits(x, 6)]
    wd = [a.coeffs[0] for a in teich_digits(make_witt(F3, 3).from_int(5))]
    expected = []
    for w in wd:
        expected.extend([w, 0])
    assert got == expected == [2, 0, 2, 0, 1, 0]


@pytest.mark.parametrize("spec,n", [(Z3_SQRT3, 6), (Z2_SQRT10, 8), (Z3_CBRT3, 7), (Z3_FLAT, 5)])
def test_digit_roundtrip_random(spec, n):
    rng = random.Random(23)
    mod = spec.p ** spec.coeff_precision(n)
    for _ in range(100):
        vectors = [[rng.randrange(mod) for _ in range(spec.d)] for _ in range(spec.e)]
        x = element(spec, vectors, n)
        assert from_pi_digits(pi_digits(x, n), spec, n) == x


def test_digit_roundtrip_f9_base():
    spec = make_dvr(F9, [[-3, 0], [0, 0], 1])
    rng = random.Random(29)
    n = 5
    mod = spec.p ** spec.coeff_precision(n)
    for _ in range(100):
        vectors = [[rng.randrange(mod) for _ in range(spec.d)] for _ in range(spec.e)]
        x = element(spec, vectors, n)
        assert from_pi_digits(pi_digits(x, n), spec, n) == x


def test_pi_digits_requires_precision():
    x = Z3_SQRT3.from_int(1, 3)
    with pytest.raises(InsufficientPrecision):
        pi_digits(x, 5)
    # a negative count is refused, not read as a slice from the end
    assert pi_digits(x, 0) == ()
    for n in (-1, -3, -4):
        with pytest.raises(InvalidArgument):
            pi_digits(x, n)


def test_valuation_axioms_random():
    rng = random.Random(31)
    spec = Z3_SQRT3
    n = 8
    mod = spec.p ** spec.coeff_precision(n)
    for _ in range(200):
        x = element(spec, [[rng.randrange(mod)], [rng.randrange(mod)]], n)
        y = element(spec, [[rng.randrange(mod)], [rng.randrange(mod)]], n)
        vx, vy = x.valuation(), y.valuation()
        prod = x * y
        vp = prod.valuation()
        if vx.exact and vy.exact:
            expected = vx.value + vy.value
            if expected < prod.n:
                assert vp.exact and vp.value == expected
            else:
                assert (not vp.exact) or vp.value >= prod.n
        s = x + y
        vs = s.valuation()
        lo = min(vx.value, vy.value)
        assert vs.value >= lo or not vs.exact


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        Z3_SQRT3.one(3) + Z3_SQRTM3.one(3)


def test_equality_is_digit_canonical():
    n = 3
    x = element(Z3_SQRT3, [[5], [7]], n)
    assert x == element(Z3_SQRT3, [[5], [7]], n)
    # perturbation of valuation >= n does not change the element mod m^n
    high = (Z3_SQRT3.uniformizer(n + 2) ** n).reduce_to(n)
    assert x + high == x
    # perturbation of valuation < n does
    low = (Z3_SQRT3.uniformizer(n + 2) ** (n - 1)).reduce_to(n)
    assert x + low != x
    # coordinates that differ above the working modulus give equal elements
    bump = Z3_SQRT3.p ** Z3_SQRT3.coeff_precision(n)
    assert element(Z3_SQRT3, [[5 + bump], [7]], n) == x


def test_residue_ring_cardinality():
    assert residue_ring(Z3_SQRT3, 4).cardinality == 81
    spec9 = make_dvr(F9, [[-3, 0], [0, 0], 1])
    assert residue_ring(spec9, 2).cardinality == 81


def test_enumerate_elements():
    Rn = residue_ring(Z3_SQRT3, 2)
    elems = list(enumerate_elements(Rn))
    assert len(elems) == 9
    assert elems[0].is_zero()
    spec9 = make_dvr(F9, [[-3, 0], [0, 0], 1])
    assert len(list(enumerate_elements(residue_ring(spec9, 2)))) == 81


def test_enumerate_too_large(monkeypatch):
    monkeypatch.setenv("RAMLIFT_ENUM_CAP", "10")
    Rn = residue_ring(Z3_SQRT3, 4)
    with pytest.raises(TooLarge):
        list(enumerate_elements(Rn))


def test_project_between_truncates():
    x = element(Z3_SQRT3, [[4], [2]], 3)
    full = project(x, 3)
    cut = project_between(full, 2)
    assert cut.digits == full.digits[:2]


def test_first_residue_ring_presentations_agree():
    # R/m^e multiplication does not see the Eisenstein tail (k[x]/(x^e))
    for s1, s2 in [(Z3_SQRT3, Z3_SQRTM3), (make_dvr(F2, [-2, 0, 1]), Z2_SQRT10)]:
        e = s1.e
        R1, R2 = residue_ring(s1, e), residue_ring(s2, e)
        for x, y in itertools.product(enumerate_elements(R1), repeat=2):
            x2 = R2.from_digits(x.digits)
            y2 = R2.from_digits(y.digits)
            assert R1.mul(x, y).digits == R2.mul(x2, y2).digits
            assert R1.add(x, y).digits == R2.add(x2, y2).digits


def test_structure_constants_random_eisenstein():
    rng = random.Random(37)
    for p, e in [(3, 2), (2, 2), (3, 3)]:
        k = make_field(p, 1)
        for _ in range(3):
            c0 = p * rng.choice([c for c in range(1, p * 4) if c % p])
            f1 = [c0] + [p * rng.randrange(4) for _ in range(e - 1)] + [1]
            c0b = p * rng.choice([c for c in range(1, p * 4) if c % p])
            f2 = [c0b] + [p * rng.randrange(4) for _ in range(e - 1)] + [1]
            R1 = residue_ring(make_dvr(k, f1), e)
            R2 = residue_ring(make_dvr(k, f2), e)
            for x, y in itertools.product(enumerate_elements(R1), repeat=2):
                x2, y2 = R2.from_digits(x.digits), R2.from_digits(y.digits)
                assert R1.mul(x, y).digits == R2.mul(x2, y2).digits


def test_residue_mul_matches_digit_schoolbook():
    # independent multiplication route: convolve Teichmuller digit products
    Rn = residue_ring(Z3_SQRT3, 3)
    k = Z3_SQRT3.k
    for x, y in itertools.product(enumerate_elements(Rn), repeat=2):
        acc = Rn.zero()
        for i, ai in enumerate(x.digits):
            for j, bj in enumerate(y.digits):
                if i + j < Rn.n and not ai.is_zero() and not bj.is_zero():
                    term = [k.zero()] * Rn.n
                    term[i + j] = ai * bj
                    acc = Rn.add(acc, Rn.from_digits(term))
        assert acc == Rn.mul(x, y)


def test_minimal_polynomial_of_uniformizer_matches_f():
    for spec in (Z3_SQRT3, Z2_SQRT10, Z3_CBRT3):
        n = 4 * spec.e
        pi = spec.uniformizer(n)
        coeffs = minimal_polynomial(pi)
        w = pi.ctx.wspec
        for got, exact in zip(coeffs, spec.coeffs):
            assert got == exact.materialize(w)


def test_text_roundtrip():
    x = Z3_SQRT3.from_int(3, 4)
    s = dvr_elem_text(x)
    assert s == "π:0,0,1,0"
    assert from_pi_digits(parse_pi_digits(Z3_SQRT3.k, s), Z3_SQRT3) == x


def test_ring_spec_json_roundtrip():
    for spec in (Z3_SQRT3, Z2_SQRT10, make_dvr(F9, [[-3, 0], [0, 0], 1])):
        obj = ring_spec_to_json(spec)
        back = parse_ring_spec(obj)
        assert back == spec


def test_deep_digit_roundtrip_guard_holds():
    # the two guard digits must survive long extraction runs
    rng = random.Random(97)
    deep = [
        (make_dvr(F2, [-2, 0, 0, 0, 1]), 40),
        (make_dvr(F3, [-3, 0, 0, 1]), 30),
        (make_dvr(F9, [[-3, 0], [0, 0], 1]), 24),
        (make_dvr(F3, [-3, 1]), 20),
    ]
    for spec, n in deep:
        mod = spec.p ** spec.coeff_precision(n)
        for _ in range(20):
            vectors = [
                [rng.randrange(mod) for _ in range(spec.d)] for _ in range(spec.e)
            ]
            x = element(spec, vectors, n)
            assert from_pi_digits(pi_digits(x, n), spec, n) == x


# -- the flat core against an independent sympy oracle --------------------------


@st.composite
def flat_cases(draw, dims=(1, 2)):
    """A ring (d in dims, e in {1, ..., 4}, p in {2, 3, 5}: tame and wild)
    with integer Eisenstein coefficients, and two elements at random
    precisions."""
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.sampled_from(dims))
    e = draw(st.integers(1, 4))
    k = make_field(p, d)
    coord = st.integers(0, 3 * p)
    unit = st.lists(coord, min_size=d, max_size=d).filter(lambda u: any(c % p for c in u))
    f = [[p * c for c in draw(unit)]]
    f += [[p * c for c in draw(st.lists(coord, min_size=d, max_size=d))] for _ in range(e - 1)]
    spec = make_dvr(k, f + [1])
    elems = []
    for _ in range(2):
        n = draw(st.integers(1, 12))
        mod = p ** spec.coeff_precision(n)
        flat = draw(st.lists(st.integers(0, mod - 1), min_size=e * d, max_size=e * d))
        elems.append(element(spec, [flat[j * d:(j + 1) * d] for j in range(e)], n))
    return spec, elems[0], elems[1]


@settings(max_examples=120, deadline=None)
@given(flat_cases(dims=(1, 2, 3)))
def test_flat_arithmetic_matches_sympy_oracle(case):
    spec, a, b = case
    for op, got in (("add", a + b), ("sub", a - b), ("mul", a * b)):
        # the oracle works mod p^M of the result's precision, which divides
        # the moduli of both operands
        M = spec.coeff_precision(got.n)
        assert got.v == flat_ring_op(spec, M, op, a.v, b.v), op
    assert (a + b).n == (a - b).n == min(a.n, b.n)


@pytest.mark.parametrize("spec", [
    Z3_FLAT,  # e = 1: pi = -a_0 = 3
    make_dvr(F9, [[3, 6], 1]),  # e = 1, d = 2
    make_dvr(F2, [2, 4, 6, 2, 1]),  # wild, every f_j nonzero
    make_dvr(F9, [[-3, 3], [0, 0], [6, -3], 1]),
    make_dvr(make_field(3, 3), [[3, 6, 3], [0, 3, 9], [6, 0, -3], 1]),  # d = 3
])
def test_pi_powers_match_the_sympy_oracle(spec):
    # pi^r is x^r reduced by f: the oracle multiplies by the monomial x,
    # coordinates with a 1 at index d, one block longer than a flat vector
    # when e = 1
    n = 7
    ctx = dvr._context(spec, n)
    M = spec.coeff_precision(n)
    x = (0,) * spec.d + (1,)
    power = ctx.pi_powers[0]
    assert power == (1,) + (0,) * (ctx.size - 1)
    for r in range(1, n):
        power = flat_ring_op(spec, M, "mul", power, x)
        assert ctx.pi_powers[r] == power, r
    assert ctx.pi == ctx.pi_powers[1]


@settings(max_examples=120, deadline=None)
@given(flat_cases(dims=(1, 2, 3)), st.integers(0, 9))
def test_unit_inverse_and_division_by_pi_powers(case, delta):
    # the two helpers behind Newton's iteration in the root search: the unit
    # 1 + pi*a times its inverse is 1 exactly mod p^Mc; the quotient by
    # pi^delta up to a unit, q(v) = v * pi^(es - delta) / p^s with
    # s = ceil(delta/e), is linear over R to the e*s >= delta nu-units it
    # loses, q(a * pi^delta) = a * q(pi^delta), and q(pi^delta) is a unit
    spec, a, _ = case
    ctx = dvr._context(spec, a.n + delta)
    one = ctx.pi_powers[0]
    u = dvr._add(ctx, one, dvr._mul(ctx, ctx.pi, a.v))
    assert dvr._mul(ctx, u, dvr._unit_inv(ctx, u)) == one
    scaled_pi = dvr._div_pi_power(ctx, ctx.pi_powers[delta], delta)
    assert any(c % spec.p for c in scaled_pi[:spec.d])
    quotient = dvr._div_pi_power(ctx, dvr._mul(ctx, a.v, ctx.pi_powers[delta]), delta)
    mod = spec.p ** (ctx.M - -(-delta // spec.e))
    assert [c % mod for c in quotient] == [c % mod for c in dvr._mul(ctx, a.v, scaled_pi)]


UNIT_INV_RINGS = {
    "F3:x2-3": make_dvr(make_field(3, 1), [-3, 0, 1]),
    "F2:x3-2": make_dvr(make_field(2, 1), [-2, 0, 0, 1]),
    "F5:x-5": make_dvr(make_field(5, 1), [-5, 1]),
    "F9:x2-3": make_dvr(make_field(3, 2, [1, 0, 1]), [-3, 0, 1]),
    "F4:x2-2": make_dvr(make_field(2, 2), [[2, 2], 0, 1]),
}


@pytest.mark.parametrize("ring", list(UNIT_INV_RINGS))
def test_unit_inverse_to_each_depth(ring):
    # _unit_inv(ctx, u, depth) gives u*y = 1 mod m^depth at every depth up
    # to m^(e*Mc) = p^Mc, and without a depth the inverse mod p^Mc exactly
    spec = UNIT_INV_RINGS[ring]
    rng = random.Random(f"unit_inv:{ring}")
    ctx = dvr._context(spec, 9)
    one = ctx.pi_powers[0]
    for _ in range(6):
        u = tuple(rng.randrange(ctx.mod) for _ in range(ctx.size))
        if not any(c % spec.p for c in u[:spec.d]):
            u = dvr._add(ctx, u, one)
        exact = dvr._unit_inv(ctx, u)
        assert dvr._mul(ctx, u, exact) == one
        for depth in range(1, ctx.e * ctx.M + 1):
            y = dvr._unit_inv(ctx, u, depth)
            error = dvr._sub(ctx, dvr._mul(ctx, u, y), one)
            assert dvr._raw_val(ctx, error, depth) == (depth, False), depth
            assert dvr._raw_val(ctx, dvr._sub(ctx, y, exact), depth) == (depth, False), depth


@settings(max_examples=120, deadline=None)
@given(flat_cases(), st.data())
def test_digit_roundtrip_matches_input(case, data):
    spec, a, _ = case
    elems = sorted(spec.k.elements(), key=lambda x: x.coeffs)
    digits = tuple(data.draw(st.lists(st.sampled_from(elems), min_size=a.n, max_size=a.n)))
    assert pi_digits(from_pi_digits(digits, spec)) == digits


def _small_residue_rings():
    """Every residue ring with at most 729 elements of seven rings."""
    F4 = make_field(2, 2)
    specs = [
        Z3_SQRT3,
        Z3_CBRT3,  # wild
        make_dvr(F2, [-2, 0, 1]),  # wild
        make_dvr(F2, [-2, 0, 0, 0, 1]),
        make_dvr(make_field(5, 1), [-5, 1]),  # e = 1
        make_dvr(F9, [[-3, 0], [0, 0], 1]),
        make_dvr(F4, [[-2, 2], [2, 0], 1]),
    ]
    for spec in specs:
        n = 1
        while spec.q ** n <= 729:
            yield residue_ring(spec, n)
            n += 1


def test_lift_project_identity_exhaustive():
    # every element of every residue ring with at most 729 elements
    for rn in _small_residue_rings():
        n = rn.n
        for x in enumerate_elements(rn):
            back = project(rn.lift(rn.from_digits(x.digits)), n)
            assert back.digits == x.digits


def test_canonical_vectors_biject_with_digit_vectors_exhaustive():
    for rn in _small_residue_rings():
        mods = rn._ctx.res_mods
        seen = set()
        for x in enumerate_elements(rn):
            v = x.v
            assert all(0 <= c < m for c, m in zip(v, mods))
            assert ResidueElt(rn, v=v).digits == x.digits  # digits -> v -> digits
            seen.add(v)
        assert len(seen) == rn.cardinality  # distinct digits, distinct vectors


@st.composite
def residue_cases(draw):
    """A ring of flat_cases, a length n in 1..12, two elements of R/m^n (one
    from digits, one by reducing a flat vector) and an exponent."""
    spec, a, _ = draw(flat_cases())
    n = draw(st.integers(1, 12))
    rn = residue_ring(spec, n)
    elems = sorted(spec.k.elements(), key=lambda c: c.coeffs)
    x = rn.from_digits(draw(st.lists(st.sampled_from(elems), min_size=n, max_size=n)))
    y = project(a, n) if a.n >= n else rn.from_digits(pi_digits(a) + (spec.k.zero(),) * (n - a.n))
    y = ResidueElt(rn, v=y.v)  # vector only
    return rn, x, y, draw(st.integers(0, 9))


@settings(max_examples=150, deadline=None)
@given(residue_cases())
def test_residue_ops_match_the_digit_route(case):
    rn, x, y, k = case
    for a, b in ((x, y), (y, x)):
        assert rn.add(a, b).digits == digit_route_op(rn, "add", a, b)
        assert rn.sub(a, b).digits == digit_route_op(rn, "sub", a, b)
        assert rn.mul(a, b).digits == digit_route_op(rn, "mul", a, b)
        assert rn.neg(a).digits == digit_route_op(rn, "neg", a)
        assert rn.pow(a, k).digits == digit_route_op(rn, "pow", a, k)
        assert a.val_units() == ResidueElt(rn, a.digits).val_units() == ResidueElt(rn, v=a.v).val_units()


@settings(max_examples=120, deadline=None)
@given(flat_cases(), st.randoms(use_true_random=False))
def test_pi_digits_are_prefixes_of_one_readout(case, rng):
    _, a, _ = case
    lengths = list(range(1, a.n + 1))
    rng.shuffle(lengths)
    for m in lengths:
        assert pi_digits(a, m) == dvr._digits(a.ctx, a.v, m)


@settings(max_examples=150, deadline=None)
@given(flat_cases(dims=(1, 2, 3)))
def test_pi_digits_match_the_division_oracle(case):
    # arbitrary flat vectors, not only Teichmuller sums of digit vectors
    spec, a, b = case
    for x in (a, b):
        assert pi_digits(x) == divide_by_pi_digits(spec, x.v, x.n)


@settings(max_examples=100, deadline=None)
@given(flat_cases(dims=(1, 2, 3)), st.randoms(use_true_random=False))
def test_digit_at_reads_one_digit_of_m_r(case, rng):
    _, a, b = case
    ctx = a.ctx
    u = b.reduce_to(a.n).v if b.n >= a.n else a.v
    for r in range(a.n):
        v = dvr._mul(ctx, u, ctx.pi_powers[r])  # in m^r
        digit = dvr._digit_at(ctx, v, r)
        assert digit == dvr._digits(ctx, v, r + 1)[r]
        assert digit == divide_by_pi_digits(ctx.ring, v, ctx.n)[r]
        # any representative mod p^Mc reads the same digit
        shifted = [c + rng.randint(-3, 3) * ctx.mod for c in v]
        assert dvr._digit_at(ctx, shifted, r) == digit


def _chunk_rings():
    """One Eisenstein ring per p in {2, 3, 5}, d in {1, 2} and e in {1, ..., 4}:
    f = x^e - p x + p w (no x term for e = 1) with w = 2 (1 for p = 2), or
    w = 1 + y for d = 2, so that eps, the residue of -w^-1, is not +-1
    where the residue field has another unit."""
    for p in (2, 3, 5):
        for d in (1, 2):
            k = make_field(p, d)
            a0 = [p, p] if d == 2 else p * (2 if p > 2 else 1)
            for e in (1, 2, 3, 4):
                f = [a0] + ([-p] if e > 1 else []) + [0] * (e - 2) + [1]
                yield make_dvr(k, f)


# Every element of R/m^n up to this many, a seeded sample of 60 beyond it;
# the slow division oracle reads about 60 of them per ring.
EXHAUSTIVE_ELEMENTS = 5000


def test_chunked_digits_match_both_oracles_on_every_element():
    rng = random.Random(12)
    for spec in _chunk_rings():
        e = spec.e
        for n in sorted({m for m in (e - 1, e + 1, 2 * e + 1) if m >= 1}):
            rn = residue_ring(spec, n)
            ctx = rn._ctx
            if rn.cardinality <= EXHAUSTIVE_ELEMENTS:
                elems = list(enumerate_elements(rn))
            else:
                k_elems = sorted(spec.k.elements(), key=lambda a: a.coeffs)
                elems = [rn.from_digits(rng.choices(k_elems, k=n)) for _ in range(60)]
            step = -(-len(elems) // 60)
            for i, x in enumerate(elems):
                v = x.v  # the canonical vector
                assert dvr._digits(ctx, v, n) == x.digits == digit_by_digit_digits(ctx, v, n)
                if i % step == 0:
                    assert x.digits == divide_by_pi_digits(spec, v, n), (spec, n)
                # another representative: add elements of m^n and of p^Mc
                shifted = [c + rng.randrange(ctx.mod // m) * m + rng.randint(-3, 3) * ctx.mod
                           for c, m in zip(v, ctx.res_mods)]
                assert dvr._digits(ctx, shifted, n) == x.digits
                for m in range(1, n):  # a prefix ends mid-chunk as well
                    assert dvr._digits(ctx, shifted, m) == x.digits[:m]


@pytest.mark.parametrize("spec, n", [
    (make_dvr(F2, [-2] + [0] * 15 + [1]), 32),  # x^16 - 2: 2^10-key chunks
    (make_dvr(make_field(1000003, 1), [-1000003, 0, 1]), 3),  # q > 1024: one digit a chunk
])
def test_chunk_tables_stay_bounded_on_fresh_vectors(spec, n):
    ctx = dvr._context(spec, n)
    rng = random.Random(n)
    for _ in range(2000):
        v = [rng.randrange(ctx.mod) for _ in range(ctx.size)]
        assert dvr._digits(ctx, v, n) == digit_by_digit_digits(ctx, v, n)
        digits = [spec.k.from_int(rng.randrange(spec.q)) for _ in range(rng.randint(0, n))]
        assert dvr._lift(ctx, digits) == digit_by_digit_lift(ctx, digits)
    bound = max(dvr.BLOCK_KEYS, spec.q)
    for tables in zip(*[chunk[3:] for chunk in ctx.chunks]):  # readout, then lift
        assert all(len(t) <= bound for t in tables)
        assert max(len(t) for t in tables) > (dvr.BLOCK_KEYS // 2 if spec.q < bound else 1000)


# Rings whose chunks of J digits, q^J <= 1024, cross p-adic levels (J > e),
# at an n that leaves a short last chunk: three chunks or more each.
CROSS_LEVEL = [
    (make_dvr(F2, [-2, 0, 1]), 21),  # J = 10
    (Z3_SQRT3, 13),  # J = 6
    (make_dvr(F3, [-3, 0, 0, 0, 1]), 13),  # x^4 - 3, J = 6
    (make_dvr(make_field(2, 2), [[-2, 0], [0, 0], 1]), 11),  # F4 x^2 - 2, J = 5
]


@pytest.mark.parametrize("spec, n", CROSS_LEVEL)
def test_cross_level_chunks_match_the_digit_by_digit_oracle(spec, n):
    ctx = dvr._context(spec, n)
    assert len(ctx.chunks) >= 3 and ctx.chunks[0][1] > spec.e
    rng = random.Random(n)
    rn = residue_ring(spec, n)
    k_elems = sorted(spec.k.elements(), key=lambda a: a.coeffs)
    for _ in range(40):
        x = rn.from_digits(rng.choices(k_elems, k=n))
        raw = [rng.randrange(ctx.mod) for _ in range(ctx.size)]  # not canonical
        for v in (x.v, raw):
            want = digit_by_digit_digits(ctx, v, n)
            # another representative: add elements of m^n and of p^Mc
            shifted = [c + rng.randrange(ctx.mod // m) * m + rng.randint(-3, 3) * ctx.mod
                       for c, m in zip(v, ctx.res_mods)]
            for w in (v, shifted):
                for m in range(n + 1):  # prefixes end mid-chunk and on its edges
                    assert dvr._digits(ctx, w, m) == want[:m]
        assert x.digits == digit_by_digit_digits(ctx, x.v, n)


@pytest.mark.parametrize("spec, n", CROSS_LEVEL)
def test_chunked_lift_matches_the_per_digit_sums(spec, n):
    ctx = dvr._context(spec, n)
    rng = random.Random(n)
    k = spec.k
    zero, units = k.zero(), [a for a in k.elements() if not a.is_zero()]
    pi = spec.uniformizer(n)
    last = ctx.chunks[-1][0]
    cases = [(zero,) * m for m in range(n + 1)]  # all zero, every length
    cases += [(zero,) * r + (rng.choice(units),) + (zero,) * (n - r - 1) for r in range(last, n)]
    for m in range(n + 1):  # shorter than n, ending mid-chunk or on its edges
        cases += [tuple(rng.choice([zero, *units]) for _ in range(m)) for _ in range(4)]
    for digits in cases:
        got = dvr._lift(ctx, digits)
        assert got == digit_by_digit_lift(ctx, digits), digits
        assert dvr.DvrElem(ctx, got) == digit_route_apply(lambda a: a, digits, pi)


def test_block_table_refuses_keys_outside_its_chunk():
    # F3 x^2 - 3 at n = 13: the last chunk [12, 13) reads digit 12 off c_0
    # alone, but m^12 also needs 3^6 | c_1, and its key holds c_1 mod 3^6
    ctx = dvr._context(Z3_SQRT3, 13)
    r0, r1, _, table, _ = ctx.chunks[2]
    assert (r0, r1) == (12, 13)
    bad = (0, 9)
    with pytest.raises(NotDivisible):
        table[bad]
    assert bad not in table
    # a wrong sum for the chunk [6, 12) leaves c_1 off by 9
    v = dvr._lift(ctx, [F3.one()] * 13)
    v6 = dvr._sub(ctx, v, dvr._lift(ctx, [F3.one()] * 6))
    _, _, mods, middle, _ = ctx.chunks[1]
    key = tuple(c % m for c, m in zip(v6, mods))
    digits, term = middle[key]
    middle[key] = (digits, dvr._add(ctx, term, (0, 9)))
    try:
        with pytest.raises(NotDivisible):
            dvr._digits(ctx, v, 13)
    finally:
        middle[key] = (digits, term)
    assert dvr._digits(ctx, v, 13) == (F3.one(),) * 13


@pytest.mark.parametrize("r", [0, 15, 20])  # the first, a middle and the last chunk
def test_lift_refuses_a_digit_of_another_field(r):
    spec = make_dvr(F2, [-2, 0, 1])
    ctx = dvr._context(spec, 21)
    assert [chunk[:2] for chunk in ctx.chunks] == [(0, 10), (10, 20), (20, 21)]
    digits = [F2.one()] * 21
    digits[r] = F3.one()  # the same coordinates (1,) in another field
    with pytest.raises(RingMismatch):
        dvr._lift(ctx, digits)
    with pytest.raises(RingMismatch):
        dvr._lift(ctx, digits[:r + 1])


def test_dvr_elem_equality_is_digit_equality():
    rng = random.Random(5)
    for spec, n in ((Z3_SQRT3, 3), (make_dvr(make_field(2, 2), [[-2, 0], [0, 0], 1]), 2)):
        ctx = dvr._context(spec, n)
        elems = []
        for x in enumerate_elements(residue_ring(spec, n)):
            a = from_pi_digits(x.digits, spec, n)
            # another vector of the same class: add an element of m^n
            v = tuple((c + rng.randrange(ctx.mod) * m) % ctx.mod for c, m in zip(a.v, ctx.res_mods))
            elems += [a, dvr.DvrElem(ctx, v)]
        for x in elems:
            for y in elems:
                assert (x == y) == (pi_digits(x) == pi_digits(y))
                assert x != y or hash(x) == hash(y)


def test_digit_and_vector_routes_compare_and_hash_equal():
    for spec, n in ((Z3_SQRT3, 3), (make_dvr(F9, [[-3, 0], [0, 0], 1]), 2), (Z3_CBRT3, 4)):
        rn = residue_ring(spec, n)
        zero = rn.zero()
        for x in enumerate_elements(rn):
            y = rn.add(x, zero)  # vector route: no digits until asked
            assert x == y and hash(x) == hash(y) and y.digits == x.digits
            for m in range(1, n + 1):
                down = residue_ring(spec, m).from_digits(x.digits[:m])
                fresh = rn.add(x, zero)
                for cut in (project_between(x, m), project_between(fresh, m), project(rn.lift(y), m)):
                    assert cut == down and hash(cut) == hash(down) and cut.digits == down.digits
        homs = enumerate_isos(rn, rn)  # betas from the digit search
        again = [ResidueHom(h.source, h.target, h.psi, rn.add(h.beta, zero)) for h in homs]
        assert homs and frozenset(homs) == frozenset(again)
        assert all(h in frozenset(homs) for h in again)


def test_residue_ops_refuse_other_rings():
    x = residue_ring(Z3_SQRT3, 3).one()
    with pytest.raises(RingMismatch):
        residue_ring(Z3_SQRT3, 2).add(x, x)
    with pytest.raises(RingMismatch):
        residue_ring(Z3_SQRTM3, 3).mul(x, x)


_ARITH_CHECKS_SCRIPT = """
from ramlift import dvr, ramification
from ramlift.errors import RamliftError
from ramlift.resfield import FqElem, make_field
from ramlift.witt import WittElem, make_witt

F3 = make_field(3, 1)
R = dvr.make_dvr(F3, [-3, 0, 1])
R9 = dvr.make_dvr(make_field(3, 2, [1, 0, 1]), [-3, 0, 1])
W = make_witt(F3, 3)


def cross_check():
    ramification._resultant_val = lambda R, bound: 0
    ramification.discriminant_val(R)


def digits_of_d1():
    # a wrong Teichmuller lift of the digit 1 leaves 1 - 0 undivisible by p
    ctx = dvr._context(R, 3)
    ctx.terms[0][(1,)] = (0, 0)
    dvr._digits(ctx, (1, 0), 3)


def digits_of_d2():
    # the same over W(F9): a wrong lift of the digit 1 leaves x^0 undivisible
    ctx = dvr._context(R9, 3)
    ctx.terms[0][(1, 0)] = (0, 0, 0, 0)
    dvr._digits(ctx, (1, 0, 0, 0), 3)


def div_pi_power():
    # pi^0 = 1 does not lie in m^1
    ctx = dvr._context(R, 3)
    dvr._div_pi_power(ctx, ctx.pi_powers[0], 1)


cases = {
    "from_digits": lambda: dvr.residue_ring(R, 3).from_digits([F3.one()]),
    "DvrElem": lambda: dvr.DvrElem(dvr._context(R, 3), (1, 0, 0)),
    "DvrElem.__pow__": lambda: R.one(3) ** -1,
    "precision": lambda: R.zero(0),
    "_digits": digits_of_d1,
    "_digits_d2": digits_of_d2,
    "_div_pi_power": div_pi_power,
    "WittElem": lambda: WittElem(W, (1, 2)),
    "WittElem.__pow__": lambda: W.one() ** -1,
    "divide_exact_by_p": lambda: W.one().divide_exact_by_p(),
    "FqElem": lambda: FqElem(F3, (1, 2)),
    "_resultant_val": lambda: ramification._resultant_val(R, bound=1),
    "discriminant_val": cross_check,
}
for name, run in cases.items():
    try:
        run()
    except RamliftError as exc:
        print(name, type(exc).__name__)
    else:
        print(name, "-")
"""


def test_arithmetic_checks_survive_python_O():
    import os
    import subprocess
    import sys

    import ramlift

    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(ramlift.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _ARITH_CHECKS_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert dict(line.split() for line in proc.stdout.splitlines()) == {
        "from_digits": "InvalidArgument",
        "DvrElem": "InvalidArgument",
        "DvrElem.__pow__": "InvalidArgument",
        "precision": "InvalidArgument",
        "_digits": "NotDivisible",
        "_digits_d2": "NotDivisible",
        "_div_pi_power": "NotDivisible",
        "WittElem": "InvalidArgument",
        "WittElem.__pow__": "InvalidArgument",
        "divide_exact_by_p": "NotDivisible",
        "FqElem": "InvalidArgument",
        "_resultant_val": "InconsistentResult",
        "discriminant_val": "InconsistentResult",
    }
