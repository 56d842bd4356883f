import itertools
import random

import pytest

from oracles import witt_elem_text
from ramlift.errors import InvalidArgument, NotAUnit, RingMismatch
from ramlift.resfield import embeddings, frobenius, identity_embedding, make_field, pth_root
from ramlift.witt import (
    WittMap,
    from_digits,
    make_witt,
    teich_digits,
    teichmuller,
    witt_unit_inv,
)

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F9 = make_field(3, 2, [1, 0, 1])
F4 = make_field(2, 2)

Z27 = make_witt(F3, 3)
W9 = make_witt(F9, 2)


def test_make_witt_prime_field_is_z_mod_p_to_m():
    assert Z27.modulus == 27
    assert Z27.lifted_poly == (0, 1)
    a = Z27.from_int(13)
    b = Z27.from_int(14)
    assert (a + b).is_zero()


@pytest.mark.parametrize("value", [1.5, 2.0, True])
def test_from_int_refuses_a_non_integer(value):
    # a float would be held as the coordinate 1.5
    with pytest.raises(InvalidArgument, match=rf"from_int's argument must be an integer, got {value!r}$"):
        Z27.from_int(value)


def test_make_witt_canonical_lift():
    assert W9.lifted_poly == (1, 0, 1)
    y = W9.from_coeffs([0, 1])
    assert y * y == W9.from_int(8)  # y^2 = -1 mod 9


@pytest.mark.parametrize("p, d, M", [(3, 2, 4), (2, 3, 5), (5, 2, 3)],
                         ids=["W(F9)/3^4", "W(F8)/2^5", "W(F25)/5^3"])
def test_products_match_sympy_remainders(p, d, M):
    # the product over ZZ, its remainder by the lifted polynomial (Poly.rem),
    # reduced mod p^M, on a seeded sample of pairs with the edge coordinates
    # 0, 1 and p^M - 1 drawn often
    import sympy

    y = sympy.Symbol("y")
    ring = make_witt(make_field(p, d), M)
    mod = ring.modulus
    g = sympy.Poly(list(reversed(ring.lifted_poly)), y, domain="ZZ")
    rng = random.Random(mod)

    def draw():
        return ring.from_coeffs([rng.choice((0, 1, mod - 1, rng.randrange(mod))) for _ in range(d)])

    def poly(x):
        return sympy.Poly(list(reversed(x.coeffs)), y, domain="ZZ")

    for _ in range(400):
        a, b = draw(), draw()
        rem = [int(c) % mod for c in reversed((poly(a) * poly(b)).rem(g).all_coeffs())]
        assert (a * b).coeffs == tuple(rem + [0] * (d - len(rem))), (ring, a, b)


def test_make_witt_m1_is_residue_field():
    w = make_witt(F2, 1)
    assert w.modulus == 2
    assert w.from_int(3) == w.one()


def test_unit_inverse():
    inv = witt_unit_inv(Z27.from_int(2))
    assert inv == Z27.from_int(14)
    assert inv * Z27.from_int(2) == Z27.one()


def test_unit_inverse_rejects_non_units():
    with pytest.raises(NotAUnit):
        witt_unit_inv(Z27.from_int(3))


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        Z27.one() + make_witt(F3, 2).one()


def test_teichmuller_zero_one():
    for ring in (Z27, W9):
        assert teichmuller(ring.k.zero(), ring) == ring.zero()
        assert teichmuller(ring.k.one(), ring) == ring.one()


def test_teichmuller_2_mod_27():
    assert teichmuller(F3.from_int(2), Z27) == Z27.from_int(26)


def test_teichmuller_generator_of_f9():
    i = F9.generator()
    assert teichmuller(i, W9) == W9.from_coeffs([0, 1])


@pytest.mark.parametrize("p,d,M", [(3, 1, 4), (5, 1, 3), (2, 1, 6), (3, 2, 3), (2, 2, 5), (2, 3, 3)])
def test_teichmuller_closed_form_oracle(p, d, M):
    # the definition, by search: the representative of a is the one lift
    # t = a + p*j (j over all coordinate vectors mod p^(M-1)) with t^q = t
    k = make_field(p, d)
    ring = make_witt(k, M)
    for a in k.elements():
        lifts = (ring.from_coeffs([c + p * j for c, j in zip(a.coeffs, js)])
                 for js in itertools.product(range(p ** (M - 1)), repeat=d))
        fixed = [t for t in lifts if t ** k.q == t]
        assert len(fixed) == 1
        assert teichmuller(a, ring) == fixed[0]


def test_teichmuller_over_a_large_prime_field():
    # the defining properties at p = 1000003: t^p = t and t = a mod p
    k = make_field(1000003, 1)
    ring = make_witt(k, 4)
    for c in (0, 1, 2, 12345, 1000002):
        a = k.from_int(c)
        t = teichmuller(a, ring)
        assert t ** k.p == t and t.residue() == a


def test_teich_digits_examples():
    assert [a.coeffs[0] for a in teich_digits(Z27.from_int(3))] == [0, 1, 0]
    assert [a.coeffs[0] for a in teich_digits(Z27.from_int(5))] == [2, 2, 1]


@pytest.mark.parametrize("ring", [Z27, W9, make_witt(F4, 3), make_witt(F2, 5)])
def test_digit_roundtrip_random(ring):
    rng = random.Random(7)
    for _ in range(100):
        x = ring.from_coeffs([rng.randrange(ring.modulus) for _ in range(ring.d)])
        assert from_digits(teich_digits(x), ring) == x


@pytest.mark.parametrize("ring", [Z27, W9, make_witt(F4, 3)])
def test_teichmuller_multiplicative_exhaustive(ring):
    for a, b in itertools.product(ring.k.elements(), repeat=2):
        assert teichmuller(a * b, ring) == teichmuller(a, ring) * teichmuller(b, ring)


@pytest.mark.parametrize("ring", [Z27, W9, make_witt(F4, 3)])
def test_teichmuller_pth_power_compat(ring):
    for a in ring.k.elements():
        assert teichmuller(frobenius(a), ring) == teichmuller(a, ring) ** ring.p


@pytest.mark.parametrize("ring", [W9, make_witt(F4, 3)])
def test_teichmuller_is_pn_th_power(ring):
    # h(a) = h(b)^(p^n) with b the n-fold p-th root of a
    for a in ring.k.elements():
        b = a
        for n in (1, 2, 3):
            b = pth_root(b)
            assert teichmuller(b, ring) ** (ring.p ** n) == teichmuller(a, ring)


def test_witt_functor_identity():
    ident = WittMap(identity_embedding(F3), 3)
    for c in range(27):
        assert ident(Z27.from_int(c)) == Z27.from_int(c)


def test_witt_functor_frobenius_on_f9():
    frob = [e for e in embeddings(F9, F9) if not e.is_identity()][0]
    wmap = WittMap(frob, 2)
    i = F9.generator()
    assert wmap(teichmuller(i, W9)) == teichmuller(-i, W9)
    rng = random.Random(11)
    for _ in range(50):
        x = W9.from_coeffs([rng.randrange(9), rng.randrange(9)])
        y = W9.from_coeffs([rng.randrange(9), rng.randrange(9)])
        assert wmap(x + y) == wmap(x) + wmap(y)
        assert wmap(x * y) == wmap(x) * wmap(y)
    assert wmap(W9.one()) == W9.one()


def test_witt_functor_no_map_when_no_embedding():
    assert embeddings(F9, F3) == []


def test_witt_functor_composition():
    F16 = make_field(2, 4)
    e1 = embeddings(F4, F16)[1]
    e2 = embeddings(F16, F16)[1]
    composed = WittMap(e2.compose(e1), 3)
    m1 = WittMap(e1, 3)
    m2 = WittMap(e2, 3)
    ring = make_witt(F4, 3)
    rng = random.Random(13)
    for _ in range(25):
        x = ring.from_coeffs([rng.randrange(8), rng.randrange(8)])
        assert composed(x) == m2(m1(x))


def test_text_form():
    assert witt_elem_text(Z27.from_int(5)) == "t:2,2,1"
    i = teichmuller(F9.generator(), W9)
    assert witt_elem_text(i) == "t:(0,1),(0,0)"


def test_witt_functor_is_unique_hom_inducing_psi():
    # brute force: a (Z/p^M)-algebra map is pinned by the image of the
    # power-basis generator, which must be a root of the lifted polynomial
    # with the prescribed residue; exactly one image works per embedding
    M = 2
    ring = make_witt(F9, M)
    for psi in embeddings(F9, F9):
        candidates = []
        for c0 in range(9):
            for c1 in range(9):
                u = ring.from_coeffs([c0, c1])
                value = u * u + ring.one()  # lifted poly y^2 + 1 at u
                if value.is_zero() and u.residue() == psi(F9.generator()):
                    candidates.append(u)
        assert len(candidates) == 1
        wmap = WittMap(psi, M)
        y = ring.from_coeffs([0, 1])
        assert wmap(y) == candidates[0]


@pytest.mark.parametrize("k", [F9, make_field(2, 3)])
def test_witt_map_matches_teichmuller_digits_mapped_by_psi(k):
    # W(psi) on coordinates against its digitwise form, on every element of
    # W(k)/p^2
    for psi in embeddings(k, k):
        wmap = WittMap(psi, 2)
        for coords in itertools.product(range(k.p ** 2), repeat=k.d):
            x = wmap.source.from_coeffs(coords)
            assert wmap(x) == from_digits(map(psi, teich_digits(x)), wmap.target)
