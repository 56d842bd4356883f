import itertools
import random
from fractions import Fraction
from operator import mul

import pytest

from oracles import horner_by_objects, power_by_objects, root_set_by_objects
from ramlift.errors import (
    CharMismatch,
    DivisionByZero,
    FieldMismatch,
    InvalidArgument,
    InvalidSetting,
    NotPrime,
    Reducible,
    TooLarge,
)
from ramlift.resfield import (
    embeddings,
    eval_poly,
    frobenius,
    identity_embedding,
    make_field,
    power,
    pth_root,
    roots,
)

F3 = make_field(3, 1)
F9 = make_field(3, 2, [1, 0, 1])  # x^2 + 1
F8 = make_field(2, 3)
F27 = make_field(3, 3)


def test_make_field_prime():
    assert F3.defining_poly == (0, 1)
    assert F3.text() == "F(3^1;0)"


def test_make_field_given_poly():
    assert F9.q == 9
    assert F9.text() == "F(3^2;1,0)"


def test_make_field_reducible():
    with pytest.raises(Reducible):
        make_field(2, 2, [1, 0, 1])  # (x+1)^2 mod 2


def test_make_field_not_prime():
    with pytest.raises(NotPrime):
        make_field(6, 1)


def test_default_poly_irreducible_and_lex_smallest():
    k = make_field(2, 2)
    assert k.defining_poly == (1, 1, 1)  # x^2+x+1 is the only one
    k5 = make_field(5, 2)
    # x^2+x+1 has discriminant -3 = 2, a non-square mod 5; nothing smaller works
    assert k5.defining_poly == (1, 1, 1)


@pytest.mark.parametrize("p, d", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (2, 8)],
                         ids=["F4", "F8", "F9", "F25", "F27", "F256"])
def test_products_match_sympy_gf_arithmetic(p, d):
    # gf_mul then gf_rem by the defining polynomial, on every pair where
    # q <= 27 and on a seeded sample of pairs otherwise
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_mul, gf_rem, gf_strip

    k = make_field(p, d)
    elems = list(k.elements())
    if k.q <= 27:
        pairs = itertools.product(elems, repeat=2)
    else:
        rng = random.Random(k.q)
        pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(3000)]

    def descending(coeffs):  # galoistools lists coefficients from the top
        return gf_strip(list(reversed(coeffs)))

    g = descending(k.defining_poly)
    for a, b in pairs:
        rem = gf_rem(gf_mul(descending(a.coeffs), descending(b.coeffs), p, ZZ), g, p, ZZ)
        expected = tuple(int(c) for c in reversed(rem)) + (0,) * (d - len(rem))
        assert (a * b).coeffs == expected, (k, a, b)


def test_irreducibility_matches_sympy():
    import sympy

    from ramlift.resfield import _is_irreducible

    x = sympy.Symbol("x")
    for p, dmax in ((2, 6), (3, 4), (5, 3), (7, 2)):
        for d in range(1, dmax + 1):
            for tail in itertools.product(range(p), repeat=d):
                poly = list(tail) + [1]
                expected = sympy.Poly(list(reversed(poly)), x, modulus=p).is_irreducible
                assert _is_irreducible(poly, p) == expected, (p, poly)


def test_irreducibility_stops_at_a_linear_factor(monkeypatch):
    # (x - 1)(x^5 + x + 2) over F_3: gcd(x^3 - x, poly) has the factor
    # x - 1, so the test ends after one p-th power, x^3, of the three that
    # degree 6 asks for
    from ramlift import resfield

    powers = []
    powmod = resfield._poly_powmod_p
    monkeypatch.setattr(resfield, "_poly_powmod_p", lambda *args: powers.append(args[1]) or powmod(*args))
    poly = resfield._convolve([-1, 1], [2, 1, 0, 0, 0, 1])
    assert resfield._is_irreducible([c % 3 for c in poly], 3) is False
    assert powers == [3]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_gcd_is_one_matches_sympy_gf_gcd(p):
    # seeded pairs, half of them with a planted common factor, given with
    # untrimmed leading zeros as often as not; a zero first argument
    # included
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_gcd, gf_mul, gf_strip

    from ramlift.resfield import _poly_gcd_is_one

    rng = random.Random(p)

    def poly(deg):
        return [rng.randrange(p) for _ in range(deg + 1)]

    def descending(coeffs):
        return gf_strip(list(reversed(coeffs)))

    pairs = [([], [1]), ([], [0, 2 % p]), ([0, 0], [1, 1]), ([], []), ([1], [])]
    for _ in range(300):
        a, b = poly(rng.randrange(6)), poly(rng.randrange(6))
        if rng.random() < 0.5:
            c = descending(poly(rng.randrange(1, 3)))
            a = list(reversed(gf_mul(descending(a), c, p, ZZ)))
            b = list(reversed(gf_mul(descending(b), c, p, ZZ)))
        pad = [0] * rng.randrange(3)
        pairs.append((a + pad, b + pad[:1]))
    answers = set()
    for a, b in pairs:
        expected = gf_gcd(descending(a), descending(b), p, ZZ) == [1]
        assert _poly_gcd_is_one(a, b, p) == expected, (p, a, b)
        answers.add(expected)
    assert answers == {True, False}


def test_squarefree_part_matches_sympy_sqf_part():
    # products of monic linear and quadratic factors, each to a multiplicity
    # up to 3, against sympy's sqf_part made monic
    import sympy

    from ramlift.errors import InconsistentResult
    from ramlift.resfield import _squarefree_part

    x = sympy.Symbol("x")
    rng = random.Random(26)
    cases = [[1], [5, 1], [-7, 1], [0, 1]]
    for _ in range(600):
        F = sympy.Poly(1, x)
        for _ in range(rng.randrange(1, 4)):
            factor = x - rng.randint(-4, 4) if rng.random() < 0.5 else \
                x ** 2 + rng.randint(-4, 4) * x + rng.randint(-4, 4)
            F *= sympy.Poly(factor, x) ** rng.randint(1, 3)
        cases.append([int(c) for c in reversed(F.all_coeffs())])
    for coeffs in cases:
        part = sympy.Poly(list(reversed(coeffs)), x).sqf_part().monic()
        assert _squarefree_part(coeffs) == [int(c) for c in reversed(part.all_coeffs())], coeffs
    with pytest.raises(InconsistentResult):
        _squarefree_part([Fraction(1, 4), -1, 1])  # (x - 1/2)^2


def test_is_prime_matches_sympy():
    import random

    import sympy

    from ramlift.errors import InvalidArgument
    from ramlift.resfield import is_prime

    assert [n for n in range(-3, 3000) if is_prime(n)] == list(sympy.primerange(3000))
    rng = random.Random(7)
    for bits in (31, 64, 81):
        for _ in range(300):
            n = rng.getrandbits(bits) | 1
            assert is_prime(n) == sympy.isprime(n)
    # strong pseudoprimes to the first several prime bases
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    with pytest.raises(InvalidArgument):
        is_prime(10 ** 30 + 57)


def test_default_poly_of_a_huge_prime():
    assert make_field(1000000007, 1).defining_poly == (0, 1)
    assert make_field(1000000007, 2).defining_poly[-1] == 1


def test_embeddings_cached_as_fresh_lists():
    first = embeddings(F9, F9)
    first.append(None)
    assert len(embeddings(F9, F9)) == 2
    assert embeddings(F9, F9) == embeddings(F9, F9)


def test_arith_examples():
    two = F3.from_int(2)
    assert two + two == F3.from_int(1)
    i = F9.generator()
    assert i * i == F9.from_int(-1)
    assert F3.one() / two == two  # 2*2 = 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_prime_field_inverse_matches_brute_force(p):
    k = make_field(p, 1)
    for a in k.elements():
        if not a.is_zero():
            assert a.inverse() == next(b for b in k.elements() if (a * b) == k.one()), a


def test_prime_field_inverse_of_a_large_prime():
    p = 1000003
    k = make_field(p, 1)
    rng = random.Random(1000003)
    for c in [1, 2, p - 1] + [rng.randrange(1, p) for _ in range(40)]:
        a = k.from_int(c)
        inv = a.inverse()
        assert a * inv == k.one()
        assert inv == a ** (p - 2)


def test_from_int_refuses_a_non_integer():
    # a float would become a coordinate 1.5 that no arithmetic reduces
    for k, c in ((F3, 1.5), (F9, 2.0), (F3, None), (F3, True)):
        with pytest.raises(InvalidArgument, match="must be an integer"):
            k.from_int(c)
    assert F3.from_int(-1) == F3.from_int(2)


@pytest.mark.parametrize("call, value", [
    (lambda: roots([0.5, 1], F3), 0.5),  # would return the "root" 2.5
    (lambda: roots([1, True], F3), True),
    (lambda: eval_poly([1.5, 1], F3.one()), 1.5),  # would return 2.5
    (lambda: eval_poly([1, F9.one(), 2.0], F9.generator()), 2.0),
    (lambda: F9.from_coeffs([1.5, 2]), 1.5),  # would build the element (1.5, 2)
    (lambda: F9.from_coeffs([1, False]), False),
], ids=["roots-float", "roots-bool", "eval-float", "eval-float-F9", "from_coeffs-float", "from_coeffs-bool"])
def test_integer_inputs_are_checked_not_coerced(call, value):
    with pytest.raises(InvalidArgument, match=rf"must be an integer, got {value!r}$"):
        call()


@pytest.mark.parametrize("call, value", [
    (lambda: F3.one() ** True, True),  # the builtin pow of d = 1 would return the base
    (lambda: F9.generator() ** 2.0, 2.0),
    (lambda: power(2, 2.5, 1, mul), 2.5),  # would raise a bare TypeError
    (lambda: power(2, True, 1, mul), True),  # would return 2
], ids=["fq-bool", "fq-float", "power-float", "power-bool"])
def test_exponents_are_checked_not_coerced(call, value):
    with pytest.raises(InvalidArgument, match=rf"the exponent must be an integer, got {value!r}$"):
        call()


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        F3.one() / F3.zero()


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        F3.one() + F9.one()


def test_frobenius_fixed_on_prime_field():
    assert frobenius(F3.from_int(2)) == F3.from_int(2)


def test_pth_root_examples():
    assert pth_root(F9.zero()) == F9.zero()
    i = F9.generator()
    assert pth_root(frobenius(i)) == i


@pytest.mark.parametrize("k", [F3, F9, F8])
def test_frobenius_pth_root_inverse_exhaustive(k):
    for a in k.elements():
        assert pth_root(frobenius(a)) == a
        assert frobenius(pth_root(a)) == a


@pytest.mark.parametrize("k", [F9, F8, F27])
def test_frobenius_order_d(k):
    for a in k.elements():
        b = a
        for _ in range(k.d):
            b = frobenius(b)
        assert b == a


def test_embedding_counts():
    assert len(embeddings(F3, F9)) == 1
    assert len(embeddings(F9, F9)) == 2
    assert len(embeddings(F9, F27)) == 0


def test_embedding_counts_match_sympy_root_counts():
    # the roots in k2 = F_p[y]/(g2) of k1's defining polynomial, counted by
    # evaluating it at each of the q2 elements with sympy's galoistools
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_compose_mod, gf_strip

    F4, F25 = make_field(2, 2), make_field(5, 2)
    F8b = make_field(2, 3, [1, 0, 1, 1])  # x^3 + x^2 + 1, not the default
    F9b = make_field(3, 2, [2, 1, 1])  # x^2 + x + 2
    fields = [make_field(2, 1), F4, F8, F8b, F3, F9, F9b, F27, make_field(5, 1), F25]
    nonempty = 0
    for k1, k2 in itertools.product(fields, repeat=2):
        if k1.p != k2.p:
            continue
        p = k1.p
        f = ZZ.map(list(reversed(k1.defining_poly)))  # galoistools lists descend
        g = ZZ.map(list(reversed(k2.defining_poly)))
        roots = 0
        for coords in itertools.product(range(p), repeat=k2.d):
            y = gf_strip(ZZ.map(list(reversed(coords))))
            roots += not gf_compose_mod(f, y, g, p, ZZ)
        assert roots == len(embeddings(k1, k2)), (k1, k2)
        nonempty += roots > 0
    assert nonempty == 21  # the pairs with d1 | d2


def test_embeddings_char_mismatch():
    with pytest.raises(CharMismatch):
        embeddings(F8, F9)


@pytest.mark.parametrize("k1,k2", [(F3, F9), (F9, F9), (F3, F3)])
def test_embeddings_are_ring_homs_exhaustive(k1, k2):
    for e in embeddings(k1, k2):
        for a, b in itertools.product(k1.elements(), repeat=2):
            assert e(a + b) == e(a) + e(b)
            assert e(a * b) == e(a) * e(b)
        assert e(k1.one()) == k2.one()


def test_automorphisms_form_group():
    autos = embeddings(F27, F27)
    assert len(autos) == 3
    table = set()
    for a, b in itertools.product(autos, repeat=2):
        c = a.compose(b)
        assert c in autos
        table.add((autos.index(a), autos.index(b), autos.index(c)))
    ident = identity_embedding(F27)
    assert ident in autos
    for a in autos:
        assert a.compose(a.inverse()).is_identity()


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (5, 2)], ids=["F4", "F8", "F9", "F25"])
def test_elements_run_in_lexicographic_order(p, d):
    # the frozen orders of homomorphisms, embeddings and betas rest on it
    k = make_field(p, d)
    assert list(k.elements()) == sorted(k.elements(), key=lambda a: a.coeffs)


@pytest.mark.parametrize("p, poly", [(3, [0, 1]), (3, [1, 1]), (5, [3, 1]), (2, [1, 1])])
def test_prime_field_generator_is_the_root_of_its_polynomial(p, poly):
    # F_p[x]/(x + c): x is the class of -c, and the identity is the one embedding
    k = make_field(p, 1, poly)
    assert k.generator() == k.from_int(-poly[0])
    assert embeddings(k, k) == [identity_embedding(k)]
    assert identity_embedding(k).is_identity()
    assert all(identity_embedding(k)(a) == a for a in k.elements())


def test_embeddings_deterministic_order():
    first = embeddings(F9, F9)
    second = embeddings(F9, F9)
    assert first == second
    imgs = [e.image_of_generator.coeffs for e in first]
    assert imgs == sorted(imgs)


def test_embeddings_are_ring_homs_random_large_fields():
    import random

    rng = random.Random(53)
    F25 = make_field(5, 2)
    for k1, k2 in [(F27, F27), (F25, F25), (F3, F27)]:
        elems = list(k1.elements())
        for e in embeddings(k1, k2):
            for _ in range(60):
                a, b = rng.choice(elems), rng.choice(elems)
                assert e(a + b) == e(a) + e(b)
                assert e(a * b) == e(a) * e(b)


def test_embeddings_of_a_prime_field_into_a_field_past_the_cap():
    # F2 -> F_(2^24): the defining polynomial x of F2 is linear and solved
    # directly, where trying the 2^24 elements takes minutes; the child
    # process turns a hang into a failure
    import os
    import subprocess
    import sys

    import ramlift

    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(ramlift.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    script = ("from ramlift.resfield import embeddings, make_field\n"
              "print(len(embeddings(make_field(2, 1), make_field(2, 24))))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=20)
    assert (proc.returncode, proc.stdout) == (0, "1\n"), proc.stderr


# -- roots: the one root finder over a finite field ------------------------------


def _random_poly(rng, k):
    """A polynomial over k of degree at most 6 with a nonzero lead, as
    elements of k: a product of random linear factors, some repeated, and a
    random cofactor, sometimes with zero coefficients above the lead."""
    def element(nonzero=False):
        while True:
            a = k.from_coeffs([rng.randrange(k.p) for _ in range(k.d)])
            if not (nonzero and a.is_zero()):
                return a

    def times(f, g):
        out = [k.zero()] * (len(f) + len(g) - 1)
        for (i, a), (j, b) in itertools.product(enumerate(f), enumerate(g)):
            out[i + j] = out[i + j] + a * b
        return out

    g = [element(nonzero=True)]
    for _ in range(rng.randint(0, 3)):
        a, m = element(), rng.randint(1, 3)
        if len(g) - 1 + m <= 6:
            for _ in range(m):
                g = times(g, [-a, k.one()])
    g = times(g, [element() for _ in range(rng.randint(0, 7 - len(g)))] + [k.one()])
    return g + [k.zero()] * rng.choice([0, 0, 1])


def _brute_force_roots(g, k):
    """(root, simple) for every element of k, its multiplicity counted by
    dividing out x - b while the remainder vanishes."""
    out = []
    for b in k.elements():
        f, m = list(g), 0
        while True:
            acc, quot = k.zero(), []
            for c in reversed(f):
                acc = acc * b + c
                quot.append(acc)
            if not acc.is_zero():
                break
            f, m = quot[-2::-1], m + 1
        if m:
            out.append((b, m == 1))
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_roots_over_prime_fields_match_sympy(p):
    import sympy

    x = sympy.Symbol("x")
    k = make_field(p, 1)
    rng = random.Random(1000 + p)
    for _ in range(150):
        g = [c.coeffs[0] for c in _random_poly(rng, k)]  # integer coefficients
        found = sympy.Poly(list(reversed(g)), x, modulus=p).ground_roots()
        expected = sorted((int(r) % p, m == 1) for r, m in found.items())
        assert [(b.coeffs[0], simple) for b, simple in roots(g, k)] == expected, g


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (5, 2)], ids=["F4", "F8", "F9", "F25"])
def test_roots_over_extension_fields_match_brute_force(p, d):
    k = make_field(p, d)
    rng = random.Random(2000 + p ** d)
    for _ in range(150):
        g = _random_poly(rng, k)
        assert list(roots(g, k)) == _brute_force_roots(g, k), g


def test_roots_of_constants_and_linear_polynomials():
    assert roots([2], F3) == ()
    assert roots([F9.one(), F9.zero()], F9) == ()
    k = make_field(2, 24)  # linear polynomials are solved at any q
    assert roots([k.generator(), 1], k) == ((k.generator(), True),)
    assert roots([1, 0, 1], F9) == ((F9.generator(), True), (-F9.generator(), True))
    for zero in ([0, 0], []):  # every element solves the zero polynomial
        with pytest.raises(InvalidArgument, match="zero polynomial"):
            roots(zero, F3)


def test_roots_past_the_cap(monkeypatch):
    monkeypatch.setenv("RAMLIFT_ENUM_CAP", "8")
    with pytest.raises(TooLarge, match="enumeration cap 8"):
        roots([1, 0, 1], F9)
    assert roots([1, 1], F9) == ((F9.from_int(-1), True),)
    for bad in ("abc", "-5"):  # read on every call; a negative cap is refused
        monkeypatch.setenv("RAMLIFT_ENUM_CAP", bad)
        with pytest.raises(InvalidSetting, match="RAMLIFT_ENUM_CAP"):
            roots([1, 1], F9)
    monkeypatch.setenv("RAMLIFT_ENUM_CAP", "0")  # 0 is a cap like any other
    with pytest.raises(TooLarge, match="enumeration cap 0"):
        roots([1, 0, 1], F9)


def test_roots_refuse_coefficients_from_another_field():
    for poly in ([F3.one(), F3.one()], [F9.one(), F3.one(), F9.one()], [1, F3.one()]):
        with pytest.raises(FieldMismatch):
            roots(poly, F9)


def test_embeddings_apply_the_cap_read_by_each_call(monkeypatch):
    # the cached root set behind the automorphisms of F9 is handed back only
    # while 9 is within the cap; the cap is read once per call, hit or miss
    from ramlift import resfield

    reads = []
    read_cap = resfield.enumeration_cap
    monkeypatch.setattr(resfield, "enumeration_cap", lambda: reads.append(1) or read_cap())
    assert len(embeddings(F9, F9)) == 2
    assert len(embeddings(F9, F9)) == 2
    assert len(reads) == 2
    monkeypatch.setenv("RAMLIFT_ENUM_CAP", "2")
    with pytest.raises(TooLarge, match="enumeration cap 2"):
        embeddings(F9, F9)
    assert len(reads) == 3
    # a linear defining polynomial is still solved past the cap
    assert [g.image_of_generator for g in embeddings(F3, F9)] == [F9.zero()]
    monkeypatch.setenv("RAMLIFT_ENUM_CAP", "abc")
    with pytest.raises(InvalidSetting, match="RAMLIFT_ENUM_CAP"):
        embeddings(F9, F9)
    with pytest.raises(InvalidSetting, match="RAMLIFT_ENUM_CAP"):
        embeddings(F3, F9)
    monkeypatch.delenv("RAMLIFT_ENUM_CAP")
    assert len(embeddings(F9, F9)) == 2


# -- coordinate arithmetic against the FqElem-per-step oracles --------------------

COORD_FIELDS = [(2, 2), (2, 3), (3, 2), (5, 2), (2, 8), (999999999989, 1)]
COORD_IDS = ["F4", "F8", "F9", "F25", "F256", "Fbig"]


def _points(rng, k, count):
    """Zero, one, the generator and count random elements of k."""
    return [k.zero(), k.one(), k.generator()] + [
        k.from_coeffs([rng.randrange(k.p) for _ in range(k.d)]) for _ in range(count)]


@pytest.mark.parametrize("p,d", COORD_FIELDS, ids=COORD_IDS)
def test_eval_poly_matches_the_per_step_horner(p, d):
    # mixed FqElem and integer coefficients (negative and above p among
    # them), zero and constant polynomials included, at zero and elsewhere
    k = make_field(p, d)
    rng = random.Random(3000 + p ** d)
    points = _points(rng, k, 12)

    def coeff():
        if rng.random() < 0.5:
            return rng.randrange(-2 * p, 2 * p)
        return rng.choice(points)

    polys = [[], [0], [k.zero()], [0, 0, 0], [7], [k.generator()], [0, 1], list(k.defining_poly)]
    polys += [[coeff() for _ in range(rng.randint(1, 7))] for _ in range(40)]
    for poly in polys:
        for x in points:
            got = eval_poly(poly, x)
            assert got == horner_by_objects(poly, x), (poly, x)
            assert len(got.coeffs) == d and all(0 <= c < p for c in got.coeffs)


def test_eval_poly_refuses_coefficients_from_another_field():
    for poly in ([F3.one()], [F9.one(), F3.one()], [1, F3.one(), F9.one()]):
        with pytest.raises(FieldMismatch):
            eval_poly(poly, F9.one())


@pytest.mark.parametrize("p,d", COORD_FIELDS, ids=COORD_IDS)
def test_powers_and_inverses_match_object_level_power(p, d):
    k = make_field(p, d)
    q = k.q
    rng = random.Random(4000 + q)
    exponents = [0, 1, 2, 3, p, q - 2, q - 1, q, q + 1, 3 * q + 5, rng.randrange(q ** 2)]
    for x in _points(rng, k, 8):
        for n in exponents:
            got = x ** n
            assert got == power_by_objects(x, n), (x, n)
            assert len(got.coeffs) == d
        if x.is_zero():
            continue
        assert x.inverse() == power_by_objects(x, q - 2) == power_by_objects(x, -1)
        assert x * x.inverse() == k.one()
        for n in (-1, -2, -q):
            assert x ** n == power_by_objects(x, n), (x, n)
        assert pth_root(frobenius(x)) == x


def _trimmed(g):
    g = list(g)
    while g and g[-1].is_zero():
        g.pop()
    return g


@pytest.mark.parametrize("p,d", COORD_FIELDS[:-1], ids=COORD_IDS[:-1])
def test_root_set_matches_the_object_level_search(p, d):
    # repeated linear factors give multiple roots (flag False), and
    # constants and linear polynomials are included
    k = make_field(p, d)
    rng = random.Random(5000 + k.q)
    points = _points(rng, k, 6)
    leads = [a for a in points if not a.is_zero()]
    polys = [[a] for a in leads] + [[a, b] for a in points for b in leads]
    polys += [_random_poly(rng, k) for _ in range(25 if k.q > 100 else 80)]
    flags = set()
    for g in polys:
        got = roots(g, k)  # through _capped_roots, which trims g, to _root_set
        assert list(got) == root_set_by_objects(_trimmed(g), k), g
        flags |= {simple for _, simple in got}
    assert flags == {True, False}


def test_root_set_of_linear_polynomials_over_a_prime_near_10_to_the_12():
    # too many elements to try: a constant has no root and c0 + c1*x has the
    # one simple root -c0/c1, which the per-step Horner confirms
    k = make_field(999999999989, 1)
    rng = random.Random(6000)
    assert roots([5, 0], k) == ()
    for _ in range(20):
        c0, c1 = rng.randrange(k.p), rng.randrange(1, k.p)
        (root, simple), = roots([c0, c1, 0], k)
        assert simple and horner_by_objects([c0, c1], root).is_zero()
