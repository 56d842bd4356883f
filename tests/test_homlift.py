import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    digit_route_apply,
    element,
    exhaustive_homs_as_tables,
    from_witt,
    hom_as_table,
    horner_by_objects,
    horner_image,
    scan_certified_roots,
    scan_homs,
    scan_truncated_roots,
)
from ramlift import dvr, homlift, resfield
from ramlift.dvr import (
    DvrElem,
    dvr_elem_text,
    enumerate_elements,
    from_pi_digits,
    make_dvr,
    parse_pi_digits,
    pi_digits,
    project,
    residue_ring,
)
from ramlift.errors import (
    FieldMismatch,
    IncompatibleLengths,
    InconsistentResult,
    InvalidArgument,
    InvalidSetting,
    NotComposable,
    NotMonic,
    PrecisionTooLow,
    PreconditionBound,
    RingMismatch,
    TooLarge,
)
from ramlift.homlift import (
    DvrHom,
    HomSet,
    ResidueHom,
    _ball_search,
    _materialize_poly,
    _normalize_poly,
    compose_homs,
    dvr_isos,
    enumerate_homs,
    enumerate_isos,
    has_root,
    hom_inverse,
    lift_hom,
    project_hom,
    residue_hom,
    roots_in_dvr,
    same_hom,
)
from ramlift.ramification import different_val, krasner_bound, lift_precision_bound, nu_of_e
from ramlift.resfield import FieldEmbedding, embeddings, identity_embedding, make_field
from ramlift.witt import WittMap, make_witt, teichmuller

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F9 = make_field(3, 2, [1, 0, 1])

Z3_SQRT3 = make_dvr(F3, [-3, 0, 1])
Z3_SQRTM3 = make_dvr(F3, [3, 0, 1])
Z2_SQRT2 = make_dvr(F2, [-2, 0, 1])
Z2_SQRT10 = make_dvr(F2, [-10, 0, 1])
Z3_FLAT = make_dvr(F3, [-3, 1])


# -- roots ---------------------------------------------------------------------

def test_roots_of_defining_polynomial():
    roots = roots_in_dvr([-3, 0, 1], Z3_SQRT3, 4)
    assert len(roots) == 2
    pi = Z3_SQRT3.uniformizer(4)
    found = {pi_digits(r.elem, 4) for r in roots}
    assert pi_digits(pi, 4) in found
    assert pi_digits(-pi, 4) in found
    for r in roots:
        assert r.t >= 4 and r.deriv_val == 1  # nu(2 pi) = 1


def test_no_sqrt2_in_z2_sqrt10():
    assert roots_in_dvr([-2, 0, 1], Z2_SQRT10, 4) == []


def test_plus_minus_one_in_z3():
    roots = roots_in_dvr([-1, 0, 1], Z3_FLAT, 3)
    assert len(roots) == 2
    vals = {pi_digits(r.elem, 3) for r in roots}
    one = Z3_FLAT.one(3)
    assert pi_digits(one, 3) in vals
    assert pi_digits(-one, 3) in vals


# -- residue hom enumeration -----------------------------------------------------

def test_hom_counts_sqrt3_pair_n2():
    src = residue_ring(Z3_SQRT3, 2)
    tgt = residue_ring(Z3_SQRTM3, 2)
    homs = enumerate_homs(src, tgt)
    assert len(homs) == 3
    isos = enumerate_isos(src, tgt)
    assert len(isos) == 2
    # the rule a + b*sqrt(3) -> a + b*sqrt(-3) is among them
    canonical = project(Z3_SQRTM3.uniformizer(2), 2)
    assert any(h.beta == canonical for h in isos)


def test_hom_counts_sqrt3_pair_n3_empty():
    src = residue_ring(Z3_SQRT3, 3)
    tgt = residue_ring(Z3_SQRTM3, 3)
    assert enumerate_homs(src, tgt) == []


def test_wild_pair_iso_at_6_none_at_7():
    src6 = residue_ring(Z2_SQRT2, 6)
    tgt6 = residue_ring(Z2_SQRT10, 6)
    isos = enumerate_isos(src6, tgt6)
    assert isos
    src7 = residue_ring(Z2_SQRT2, 7)
    tgt7 = residue_ring(Z2_SQRT10, 7)
    assert enumerate_homs(src7, tgt7) == []


W9 = make_dvr(F9, [-3, 0, 1])
Z3_QUARTIC = make_dvr(F3, [-3, 0, 0, 0, 1])


@pytest.mark.parametrize(
    "src, tgt",
    [
        (residue_ring(Z3_FLAT, 2), residue_ring(Z3_SQRT3, 4)),  # e1 = 1: unit derivative
        (residue_ring(Z3_FLAT, 3), residue_ring(Z3_FLAT, 3)),
        (residue_ring(Z3_SQRT3, 3), residue_ring(W9, 3)),  # F3 -> F9
        (residue_ring(Z3_SQRT3, 3), residue_ring(Z3_QUARTIC, 6)),  # e = 2 -> e = 4
        # roots of f^psi mod m^5 exist, but beta^2 = 0 needs three zero digits
        (residue_ring(Z3_SQRT3, 2), residue_ring(Z3_QUARTIC, 5)),
        (residue_ring(Z2_SQRT2, 6), residue_ring(Z2_SQRT10, 6)),  # wild
        (residue_ring(Z2_SQRT2, 7), residue_ring(Z2_SQRT10, 7)),  # wild, empty
        (residue_ring(Z3_SQRT3, 3), residue_ring(Z3_SQRTM3, 3)),  # empty
    ],
    ids=["e1-1", "e1-1-self", "F3-F9", "e2-e4", "zero-prefix", "wild", "wild-empty", "empty"],
)
def test_enumerate_homs_matches_scan(src, tgt):
    # same homomorphisms in the same order as testing every beta
    assert enumerate_homs(src, tgt) == scan_homs(src, tgt)


def _expand(balls, R, depth):
    """The digit vectors of length depth in the balls (digits, x, delta)."""
    residues = sorted(R.k.elements(), key=lambda a: a.coeffs)
    return [digits + tail for digits, _, _ in balls
            for tail in itertools.product(residues, repeat=depth - len(digits))]


@pytest.mark.parametrize(
    "F, answer",
    [([1, 0, 1], "no"), ([-1, 0, 1], "yes"), ([-3, 0, 1], "yes"), ([9, 0, -6, 0, 1], "yes")],
    ids=["unit-deriv-none", "unit-deriv", "deriv-in-m", "double-roots"],
)
def test_root_search_matches_scan(F, answer):
    # the balls on which F vanishes mod m^depth hold exactly the truncated
    # roots that testing every digit vector finds, in the same order; x^2 + 1
    # and x^2 - 1 have a unit derivative at their would-be roots, x^2 - 3 a
    # derivative in m, and (x^2 - 3)^2 the double roots pi and -pi
    assert has_root(Z3_SQRT3, F).kind == answer
    providers = _normalize_poly(F, F3)
    for depth in (1, 2, 4):
        expected = scan_truncated_roots(F, Z3_SQRT3, depth)
        for n_eval in (depth, depth + 3):
            poly = _materialize_poly(providers, Z3_SQRT3, n_eval)
            assert _expand(_ball_search(poly, depth), Z3_SQRT3, depth) == expected


def _roots_or_refusal(search, F, R, t):
    try:
        return [(dvr_elem_text(r.elem), r.t, r.deriv_val) for r in search(F, R, t)]
    except PrecisionTooLow:
        return None


@st.composite
def _root_problems(draw):
    """A small Eisenstein ring over F2, F3 or F4, a monic polynomial of
    degree 1 to 3 with small integer coefficients and a depth whose q^depth
    digit vectors the scan can test."""
    p, d = draw(st.sampled_from([(2, 1), (3, 1), (2, 2)]))
    e = draw(st.integers(1, 3))
    unit = draw(st.sampled_from([1, p - 1, p + 1]))
    R = make_dvr(make_field(p, d), [p * unit] + [p * draw(st.integers(0, 2)) for _ in range(e - 1)] + [1])
    F = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=3)) + [1]
    t = draw(st.integers(1, 5 if p ** d == 2 else 3))
    return F, R, t


@settings(max_examples=80, deadline=None)
@given(_root_problems())
def test_roots_match_the_certified_scan(problem):
    # the scan certifies every truncated root mod m^t; the ball search must
    # return the same roots in the same order, and refuse only where the
    # scan refuses.  It may answer where the scan refuses: the scan also
    # certifies points far from any root, and one where F' vanishes can be
    # neither certified nor excluded (see the next test)
    F, R, t = problem
    expected = _roots_or_refusal(scan_certified_roots, F, R, t)
    got = _roots_or_refusal(roots_in_dvr, F, R, t)
    if expected is not None:
        assert got == expected
    for text, _, _ in got or ():
        homlift._certify_at(_normalize_poly(F, R.k), R, from_pi_digits(parse_pi_digits(R.k, text), R))


def test_a_vanishing_derivative_away_from_the_roots_blocks_only_the_scan():
    # F = (x - 1)^2 + 3 over W(F9)[x]/(x^4 + 6x^3 + 3) at depth 3: x = 1 is a
    # truncated root (nu(F(1)) = nu(3) = 4) where F' vanishes, so the scan
    # can neither certify nor exclude it and refuses.  No root agrees with 1
    # to depth 3; the ball search never evaluates F' there and finds the two
    # roots 1 + pi^2 u with derivative valuation 2
    R = make_dvr(F9, [3, 0, 0, 6, 1])
    F = [4, -2, 1]
    with pytest.raises(PrecisionTooLow):
        scan_certified_roots(F, R, 3)
    got = _roots_or_refusal(roots_in_dvr, F, R, 3)
    assert got == [("π:(1,0),(0,0),(1,0)", 3, 2), ("π:(1,0),(0,0),(2,0)", 3, 2)]


def _count_horner(monkeypatch) -> list:
    """Record the number of coefficients of every Horner evaluation."""
    calls = []
    horner = homlift._horner

    def counted(ctx, coeffs, x, lead=1):
        calls.append(len(coeffs))
        return horner(ctx, coeffs, x, lead)

    monkeypatch.setattr(homlift, "_horner", counted)
    return calls


def test_unit_derivative_branches_evaluate_one_child(monkeypatch):
    # W(F5)/p^4 with f = x - 5: F' = 1 is a unit, so the reduced polynomial
    # of every ball is linear and each ball has one child.  The search starts
    # from the ball 0 + m (the zero prefix); its child holds the root pi = 5
    # exactly, so every deeper ball has the same centre and reuses its value
    R = make_dvr(make_field(5, 1), [-5, 1])
    rn = residue_ring(R, 4)
    expected = scan_homs(rn, rn)
    calls = _count_horner(monkeypatch)
    homs = enumerate_homs(rn, rn)
    assert homs == expected and len(homs) == 1
    # F = x + a_0 at the centres 0 and 5, and nothing else
    assert calls == [1, 1]


def test_horner_matches_element_arithmetic():
    # F(x) and F'(x) on flat vectors against the same sums in DvrElem
    # arithmetic, vector for vector; every coefficient of F is nonzero so
    # each j*a_j of F' matters
    rng = random.Random(11)
    F4 = make_field(2, 2)
    rings = [Z3_SQRT3, Z3_FLAT, Z2_SQRT2, make_dvr(F3, [-3, 0, 0, 1]),
             make_dvr(F2, [-2, 0, 0, 0, 1]), make_dvr(F9, [[-3, 0], [0, 0], 1]),
             make_dvr(F4, [[2, 0], [0, 0], [2, 2], 1])]
    for R in rings:
        for deg in (1, 2, 3, 4):
            for n in (1, 3, 7):
                coeffs = [[rng.randrange(1, 50) for _ in range(R.d)] for _ in range(deg)]
                poly = _materialize_poly(_normalize_poly(coeffs + [1], R.k), R, n)
                a = [DvrElem(poly.ctx, v) for v in poly.hasse[0][0]]
                for _ in range(3):
                    x = from_pi_digits([rng.choice(list(R.k.elements())) for _ in range(n)], R, n)
                    value, deriv = x ** deg, R.from_int(deg, n) * x ** (deg - 1)
                    for j in range(deg):
                        value = value + a[j] * x ** j
                        if j:
                            deriv = deriv + R.from_int(j, n) * a[j] * x ** (j - 1)
                    assert poly.hasse_value(0, x.v) == value.reduce_to(n).v
                    assert poly.hasse_value(1, x.v) == deriv.reduce_to(n).v


def _frobenius_of(k):
    return FieldEmbedding(k, k, k.generator() ** k.p)


_F4 = make_field(2, 2)
_R9T = make_dvr(F9, ["t:0,(0,1),(1,2)", "t:0,(1,1)", 1])
_R4 = make_dvr(_F4, [[2, 2], [0, 2], 1])
MATERIALIZE_CASES = {
    "F9-identity": (_R9T, _R9T, identity_embedding(F9)),
    "F9-frobenius": (_R9T, _R9T, _frobenius_of(F9)),
    "F3-into-F9": (make_dvr(F3, ["t:0,2,1", 3, 1]), make_dvr(F9, [-3, 0, 1]), embeddings(F3, F9)[0]),
    "F4-frobenius": (_R4, _R4, _frobenius_of(_F4)),
    "t-coefficient": (make_dvr(F3, ["t:0,1,2", "t:0,0,1", 0, 1]), Z3_SQRT3, identity_embedding(F3)),
}


@pytest.mark.parametrize("case", sorted(MATERIALIZE_CASES))
def test_materialize_poly_matches_the_witt_map_of_each_coefficient(case):
    # W(psi) on coordinates against the WittElem route: materialize in
    # W(k1)/p^M, apply WittMap, and embed with from_witt
    R1, R2, psi = MATERIALIZE_CASES[case]
    for n in (1, 2, 5, 9):
        poly = _materialize_poly((R1.coeffs, psi), R2, n)
        M = R2.coeff_precision(n)
        w_psi, w1 = WittMap(psi, M), make_witt(R1.k, M)
        expected = tuple(from_witt(R2, w_psi(c.materialize(w1)), n).v for c in R1.coeffs)
        assert poly.hasse[0][0] == expected


def test_materialize_poly_refuses_an_embedding_into_another_field():
    # psi maps into F9, the ring's residue field is F3
    with pytest.raises(RingMismatch):
        _materialize_poly((Z3_SQRT3.coeffs, embeddings(F3, F9)[0]), Z3_SQRT3, 4)


def test_certify_at_rejects_an_approximation_one_digit_short():
    # x = pi + pi^3 has F(x) = 2 pi^4 + pi^6 for F = x^2 - 3 and nu(F'(x)) =
    # 1, so it agrees with the root pi to depth 3 only: certification at
    # depth 4 needs nu(F(x)) >= 5 and must fail
    providers = _normalize_poly([-3, 0, 1], F3)
    pi = Z3_SQRT3.uniformizer(4)
    with pytest.raises(InconsistentResult):
        homlift._certify_at(providers, Z3_SQRT3, pi + pi ** 3)
    cert = homlift._certify_at(providers, Z3_SQRT3, pi)
    assert (cert.t, cert.deriv_val) == (4, 1) and pi_digits(cert.elem) == pi_digits(pi)


@pytest.mark.parametrize(
    "R, F",
    [
        (Z3_SQRT3, [-3, 0, 1]),
        (Z3_SQRTM3, [3, 0, 1]),
        (Z2_SQRT2, [7, 0, 1]),
        (make_dvr(F9, [-3, 0, 1]), [1, 0, 1]),
    ],
    ids=["Z3[sqrt3]:x2-3", "Z3[sqrt-3]:x2+3", "Z2[sqrt2]:x2+7", "W(F9)[sqrt3]:x2+1"],
)
def test_certify_at_reproduces_every_root_certificate(R, F):
    # roots_in_dvr and _certify_at share one acceptance test: re-certifying a
    # returned root at its own depth gives the same element and certificate
    providers = _normalize_poly(F, R.k)
    roots = roots_in_dvr(F, R, 6)
    assert roots
    for root in roots:
        cert = homlift._certify_at(providers, R, root.elem)
        assert (cert.t, cert.deriv_val) == (root.t, root.deriv_val)
        assert dvr_elem_text(cert.elem) == dvr_elem_text(root.elem)


def test_double_roots_refused_by_both_entry_points():
    # (x^2 - 3)^2 has the double roots pi and -pi: F' vanishes there, so no
    # depth certifies them; the refusal names the depth and the first ball
    # of radius 4 left unseparated
    F = [9, 0, -6, 0, 1]
    with pytest.raises(PrecisionTooLow, match=r"the ball π:0,1,0,0 \+ m\^4 at depth 4"):
        roots_in_dvr(F, Z3_SQRT3, 4)
    with pytest.raises(PrecisionTooLow):
        homlift._certify_at(_normalize_poly(F, F3), Z3_SQRT3, Z3_SQRT3.uniformizer(8))


def test_each_search_materializes_F_once(monkeypatch):
    # the working precision is read off the polynomial before the search,
    # so every _roots and _certify_at call, answer or refusal, materializes
    # F once; has_root materializes once per depth it tries
    calls, searches = [], []
    materialize, search = homlift._materialize_poly, homlift._roots
    monkeypatch.setattr(homlift, "_materialize_poly", lambda *args: calls.append(args) or materialize(*args))
    monkeypatch.setattr(homlift, "_roots", lambda *args, **kw: searches.append(args) or search(*args, **kw))
    pi = Z3_SQRT3.uniformizer(8)
    phi = enumerate_isos(residue_ring(Z3_SQRT3, 4), residue_ring(Z3_SQRT3, 4))[0]
    runs = [
        lambda: roots_in_dvr([-3, 0, 1], Z3_SQRT3, 6),
        lambda: roots_in_dvr([9, 0, -6, 0, 1], Z3_SQRT3, 4),  # refused
        lambda: lift_hom(phi),
        lambda: homlift._certify_at(_normalize_poly([-3, 0, 1], F3), Z3_SQRT3, pi),
        lambda: homlift._certify_at(_normalize_poly([9, 0, -6, 0, 1], F3), Z3_SQRT3, pi),  # refused
    ]
    for run in runs:
        calls.clear()
        try:
            run()
        except PrecisionTooLow:
            pass
        assert len(calls) == 1
    calls.clear()
    searches.clear()
    assert has_root(Z3_SQRT3, [-7 * 3 ** 300, 0, 1]).kind == "yes"
    assert len(searches) > 1 and len(calls) == len(searches)


def test_enumerate_homs_too_large(monkeypatch):
    monkeypatch.setenv("RAMLIFT_ENUM_CAP", "10")
    src = residue_ring(Z3_SQRT3, 4)
    with pytest.raises(TooLarge):
        enumerate_homs(src, src)


def test_hom_tables_match_exhaustive_oracle():
    pairs = [
        (residue_ring(Z3_SQRT3, 2), residue_ring(Z3_SQRTM3, 2)),  # 9 -> 9
        (residue_ring(Z3_SQRT3, 2), residue_ring(Z3_SQRT3, 2)),
        (residue_ring(Z2_SQRT2, 3), residue_ring(Z2_SQRT10, 3)),  # 8 -> 8
        (residue_ring(Z3_FLAT, 2), residue_ring(Z3_SQRT3, 4)),  # 9 -> 81, e1 | e2
        (residue_ring(Z3_SQRT3, 3), residue_ring(Z3_SQRT3, 3)),  # 27 -> 27
    ]
    for src, tgt in pairs:
        expected, s_elems, t_elems = exhaustive_homs_as_tables(src, tgt)
        t_index = {x: i for i, x in enumerate(t_elems)}
        got = sorted({hom_as_table(h, s_elems, t_index) for h in enumerate_homs(src, tgt)})
        assert got == list(expected)


def test_hom_tables_match_oracle_d2():
    # 81-element rings over F9: the generator image matters
    W9 = make_dvr(F9, [[-3, 0], [0, 0], 1])
    src = residue_ring(W9, 2)
    expected, s_elems, t_elems = exhaustive_homs_as_tables(src, src)
    t_index = {x: i for i, x in enumerate(t_elems)}
    got = sorted({hom_as_table(h, s_elems, t_index) for h in enumerate_homs(src, src)})
    assert got == list(expected)
    assert len(got) >= 2  # both field automorphisms appear


def test_residue_hom_factory_rejects_bad_beta():
    src = residue_ring(Z3_SQRT3, 3)
    tgt = residue_ring(Z3_SQRTM3, 3)
    beta = project(Z3_SQRTM3.uniformizer(3), 3)
    with pytest.raises(ValueError):
        residue_hom(src, tgt, identity_embedding(F3), beta)


def test_residue_hom_factory_rejects_a_psi_off_the_defining_polynomial():
    # psi must send k1's generator to a root of its defining polynomial, or
    # apply is no ring map: F3 = F_3[x]/(x) with image 1, and F9 =
    # F_3[x]/(x^2 + 1) with image 1 + x, where phi(y*y) != phi(y)*phi(y)
    for R, image in ((Z3_SQRT3, F3.one()), (W9, F9.from_coeffs([1, 1]))):
        s = residue_ring(R, 3)
        with pytest.raises(ValueError, match="not a root of the source defining polynomial"):
            residue_hom(s, s, FieldEmbedding(R.k, R.k, image), project(R.uniformizer(3), 3))


def test_residue_hom_refuses_an_image_of_the_generator_outside_the_target():
    # 0 in F3 is a root of F3's defining polynomial x, but it is not an
    # element of F9: the map would print a one-coordinate image for F9
    s, t = residue_ring(Z3_SQRT3, 2), residue_ring(W9, 2)
    psi = FieldEmbedding(F3, F9, F3.from_int(0))
    with pytest.raises(FieldMismatch, match="target field"):
        residue_hom(s, t, psi, project(W9.uniformizer(2), 2))


@pytest.mark.parametrize("p,d1,d2", [(2, 2, 4), (3, 2, 4)], ids=["F4-F16", "F9-F81"])
def test_residue_hom_accepts_exactly_the_roots_of_the_defining_polynomial(p, d1, d2):
    # every image y in k2 of k1's generator, each psi checked twice (the same
    # object, then an equal one built apart): residue_hom accepts exactly
    # the y that the per-step Horner oracle finds to be roots
    k1, k2 = make_field(p, d1), make_field(p, d2)
    src = residue_ring(make_dvr(k1, [-p, 0, 1]), 1)
    tgt = residue_ring(make_dvr(k2, [-p, 0, 1]), 1)

    def accepts(psi):
        try:
            residue_hom(src, tgt, psi, tgt.zero())
        except ValueError as exc:
            assert "not a root of the source defining polynomial" in str(exc)
            return False
        return True

    accepted = []
    for y in k2.elements():
        psi = FieldEmbedding(k1, k2, y)
        answers = {accepts(psi), accepts(psi), accepts(FieldEmbedding(k1, k2, k2.from_coeffs(y.coeffs)))}
        assert len(answers) == 1, y
        if answers.pop():
            accepted.append(y)
    expected = [y for y in k2.elements() if horner_by_objects(k1.defining_poly, y).is_zero()]
    assert accepted == expected == [psi.image_of_generator for psi in embeddings(k1, k2)]
    assert len(accepted) == d1


# -- kernels and Teichmuller preservation ---------------------------------------

def _kernel_exponent(phi):
    ker = [x for x in enumerate_elements(phi.source) if phi.apply(x).is_zero()]
    m = min(x.val_units() for x in ker)
    expected = {x for x in enumerate_elements(phi.source) if x.val_units() >= m}
    assert set(ker) == expected, "kernel is not a power of the maximal ideal"
    return m


def test_kernel_lemma_small_rings():
    cases = [
        (residue_ring(Z3_SQRT3, 4), residue_ring(Z3_SQRT3, 3)),
        (residue_ring(Z2_SQRT2, 6), residue_ring(Z2_SQRT2, 4)),
        (residue_ring(Z3_FLAT, 3), residue_ring(Z3_SQRT3, 4)),
    ]
    for src, tgt in cases:
        e1, e2 = src.ring.e, tgt.ring.e
        n2 = tgt.n
        for phi in enumerate_homs(src, tgt):
            m = _kernel_exponent(phi)
            if n2 > e2:
                assert m * e2 >= n2 * e1


def test_homs_preserve_teichmuller_classes():
    cases = [
        (residue_ring(Z3_SQRT3, 2), residue_ring(Z3_SQRTM3, 2)),
        (residue_ring(Z3_SQRT3, 4), residue_ring(Z3_SQRT3, 4)),
        (residue_ring(Z2_SQRT2, 4), residue_ring(Z2_SQRT2, 4)),
    ]
    W9 = make_dvr(F9, [[-3, 0], [0, 0], 1])
    cases.append((residue_ring(W9, 2), residue_ring(W9, 2)))
    for src, tgt in cases:
        wsrc = src.ring.wspec(src.n)
        wtgt = tgt.ring.wspec(tgt.n)
        teich_tgt = {
            project(from_witt(tgt.ring, teichmuller(mu, wtgt), tgt.n), tgt.n)
            for mu in tgt.ring.k.elements()
        }
        for phi in enumerate_homs(src, tgt):
            for lam in src.ring.k.elements():
                pure = project(from_witt(src.ring, teichmuller(lam, wsrc), src.n), src.n)
                assert phi.apply(pure) in teich_tgt


# -- lifting ---------------------------------------------------------------------

def _twist_hom_2_13_2():
    """x -> (1+3)x on Z3[sqrt3]/m^4."""
    src = residue_ring(Z3_SQRT3, 4)
    pi = Z3_SQRT3.uniformizer(4)
    beta = project(Z3_SQRT3.from_int(4, 4) * pi, 4)
    return residue_hom(src, src, identity_embedding(F3), beta)


def test_lift_of_twist_is_identity_but_projection_differs():
    phi = _twist_hom_2_13_2()
    g = lift_hom(phi)
    assert g.is_identity()
    back = project_hom(g, 4, 4)
    assert back != phi
    assert back.beta != phi.beta


def test_lift_identity_at_n3():
    src = residue_ring(Z3_SQRT3, 3)
    beta = project(Z3_SQRT3.uniformizer(3), 3)
    phi = residue_hom(src, src, identity_embedding(F3), beta)
    g = lift_hom(phi)
    assert g.is_identity()


def test_identity_over_a_prime_field_x_plus_c_is_found():
    # F_3 presented as F_3[x]/(x + 1), where x is the class of 2
    k = make_field(3, 1, [1, 1])
    R = make_dvr(k, [-3, 0, 1])
    rn = residue_ring(R, 3)
    identity = residue_hom(rn, rn, identity_embedding(k), project(R.uniformizer(3), 3))
    assert identity.is_identity()
    assert identity in HomSet(rn, rn)
    assert [h for h in enumerate_homs(rn, rn) if h.is_identity()] == [identity]


def test_lift_below_bound_refused():
    src = residue_ring(Z3_SQRT3, 2)
    tgt = residue_ring(Z3_SQRTM3, 2)
    for phi in enumerate_isos(src, tgt):
        with pytest.raises(PreconditionBound):
            lift_hom(phi)


def test_lift_section_property():
    # lift(project(g)) = g for the ring automorphisms, n = 4
    for g in dvr_isos(Z3_SQRT3, Z3_SQRT3):
        phi = project_hom(g, 4, 4)
        assert same_hom(lift_hom(phi), g)


def _within_krasner_distance(roots, beta, r0) -> list:
    """The roots rho with nu(rho - beta) >= r0, read off rho - beta; an
    inexact readout is a lower bound, so a root below r0 must read exactly
    to be placed outside."""
    inside = []
    for r in roots:
        v, exact = (r.elem - beta)._val_units()
        if v >= r0:
            inside.append(r)
        else:
            assert exact, "a root could not be placed outside Krasner distance"
    return inside


def _as_hom(phi, root) -> DvrHom:
    return DvrHom(phi.source.ring, phi.target.ring, phi.psi, root.elem, (root.t, root.deriv_val))


def test_lift_kras_selection_representative_independent():
    # exactly one root of f1^psi lies within Krasner distance of beta, for
    # beta and every noisy representative of it, and that root is the lift
    phi = _twist_hom_2_13_2()
    R2 = phi.target.ring
    r0 = homlift._krasner_radius(krasner_bound(phi.source.ring), R2.e)
    prec = 9
    roots = homlift._roots((phi.source.ring.coeffs, phi.psi), R2, prec)
    g = lift_hom(phi)
    rng = random.Random(3)
    base = from_pi_digits(phi.beta.digits, R2, prec)
    pi = R2.uniformizer(prec)
    representatives = [base]
    for _ in range(10):
        mod = R2.p ** R2.coeff_precision(prec)
        noise = element(R2, [[rng.randrange(mod)], [rng.randrange(mod)]], prec)
        representatives.append((base + pi ** phi.target.n * noise).reduce_to(prec))
    for beta in representatives:
        [chosen] = _within_krasner_distance(roots, beta, r0)
        assert same_hom(g, _as_hom(phi, chosen))


def test_lift_is_isomorphism_with_inverse():
    src = residue_ring(Z3_SQRT3, 4)
    for phi in enumerate_isos(src, src):
        g = lift_hom(phi)
        inv = hom_inverse(g)
        assert compose_homs(inv, g).is_identity()
        assert compose_homs(g, inv).is_identity()


def test_lift_surjects_onto_ring_automorphisms():
    src = residue_ring(Z3_SQRT3, 4)
    lifted = [lift_hom(phi) for phi in enumerate_isos(src, src)]
    autos = dvr_isos(Z3_SQRT3, Z3_SQRT3)
    assert len(autos) == 2
    for auto in autos:
        assert any(same_hom(auto, g) for g in lifted)


def test_krasner_characterization_of_choice():
    # the conjugates of the lift sit exactly at the Krasner bound from beta
    phi = _twist_hom_2_13_2()
    R = phi.target.ring
    M1 = krasner_bound(phi.source.ring)
    g = lift_hom(phi)
    roots = homlift._roots((phi.source.ring.coeffs, phi.psi), R, 9)
    beta = from_pi_digits(phi.beta.digits, R, phi.target.n)
    others = [r for r in roots if not same_hom(g, _as_hom(phi, r))]
    assert len(others) == len(roots) - 1 == 1
    for r in others:
        diff = r.elem.reduce_to(beta.n) - beta
        v = diff.valuation()
        assert v.exact and v.value / R.e == M1


# -- projection and composition ---------------------------------------------------

def test_project_identity():
    g = [h for h in dvr_isos(Z3_SQRT3, Z3_SQRT3) if h.is_identity()][0]
    phi = project_hom(g, 4, 4)
    assert phi.is_identity()


def test_project_conjugation_negates_odd_digits():
    conj = [h for h in dvr_isos(Z3_SQRT3, Z3_SQRT3) if not h.is_identity()][0]
    phi = project_hom(conj, 2, 2)
    for x in enumerate_elements(phi.source):
        img = phi.apply(x)
        assert img.digits[0] == x.digits[0]
        assert img.digits[1] == -x.digits[1]


def test_project_incompatible_lengths():
    g = dvr_isos(Z3_SQRT3, Z3_SQRT3)[0]
    with pytest.raises(IncompatibleLengths):
        project_hom(g, 2, 4)


@pytest.mark.parametrize("n1, n2", [(4.0, 4), (4, True)])
def test_project_hom_refuses_a_non_integer_length(n1, n2):
    g = dvr_isos(Z3_SQRT3, Z3_SQRT3)[0]
    with pytest.raises(InvalidArgument, match="must be an integer"):
        project_hom(g, n1, n2)


def test_compose_with_identity():
    src = residue_ring(Z3_SQRT3, 4)
    ident = [h for h in enumerate_isos(src, src) if h.is_identity()][0]
    for phi in enumerate_isos(src, src):
        assert compose_homs(phi, ident) == phi
        assert compose_homs(ident, phi) == phi


def test_apply_hom_moves_uniformizer():
    src = residue_ring(Z3_SQRT3, 2)
    tgt = residue_ring(Z3_SQRTM3, 2)
    phi = enumerate_isos(src, tgt)[0]
    one_plus_pi = project(Z3_SQRT3.one(2) + Z3_SQRT3.uniformizer(2), 2)
    img = phi.apply(one_plus_pi)
    assert img.digits[0] == F3.one()
    assert not img.digits[1].is_zero()


def test_compose_not_composable():
    src = residue_ring(Z3_SQRT3, 4)
    phi = enumerate_isos(src, src)[0]
    g = dvr_isos(Z3_SQRT3, Z3_SQRT3)[0]
    with pytest.raises(NotComposable):
        compose_homs(phi, g)


def test_functoriality_sample():
    src = residue_ring(Z3_SQRT3, 4)
    isos = enumerate_isos(src, src)
    rng = random.Random(47)
    for _ in range(10):
        p1, p2 = rng.choice(isos), rng.choice(isos)
        lhs = lift_hom(compose_homs(p2, p1))
        rhs = compose_homs(lift_hom(p2), lift_hom(p1))
        assert same_hom(lhs, rhs)


# -- root existence ----------------------------------------------------------------

def test_has_root_examples():
    assert has_root(Z3_SQRT3, [-3, 0, 1]).kind == "yes"
    assert has_root(Z3_SQRTM3, [-3, 0, 1]).kind == "no"
    assert has_root(Z2_SQRT10, [-2, 0, 1]).kind == "no"


@pytest.mark.parametrize("F", [[-3.9, 0, 1], [-2.5, 0, 1], [-3, 0.0, 1], [-3, False, 1], [-3, 0, 1.0]],
                         ids=["-3.9", "-2.5", "zero-float", "false", "float-lead"])
def test_has_root_refuses_a_coefficient_that_is_not_an_int(F):
    # int() would truncate -3.9 to -3 and answer for x^2 - 3 (and -2.5 for
    # x^2 - 2); the refusal names the coefficient and its value
    bad = next(i for i, c in enumerate(F) if type(c) is not int)
    with pytest.raises(InvalidArgument, match=rf"coefficient of x\^{bad} must be an integer, got {F[bad]!r}"):
        has_root(Z3_SQRT3, F)


def test_precisions_are_checked_not_coerced():
    # both raised a bare TypeError
    phi = _homs_to_lift(Z3_SQRT3, Z3_QUARTIC)[0]
    for call, what, value in (
        (lambda: lift_hom(phi, 20.5), "min_prec", 20.5),
        (lambda: lift_hom(phi, True), "min_prec", True),
        (lambda: roots_in_dvr([-3, 0, 1], Z3_SQRT3, 2.5), "prec", 2.5),
        (lambda: roots_in_dvr([-3, 0, 1], Z3_SQRT3, True), "prec", True),
    ):
        with pytest.raises(InvalidArgument, match=rf"^{what} must be an integer, got {value!r}$"):
            call()
    assert lift_hom(phi, 20).t >= 20


def test_constant_polynomial_has_no_root():
    # [1] is the constant 1, not x + 1, whose root is -1
    res = has_root(Z3_SQRT3, [1])
    assert (res.kind, res.root) == ("no", None)
    with pytest.raises(ValueError, match="degree >= 1"):
        roots_in_dvr([1], Z3_SQRT3, 4)


@pytest.mark.parametrize("F", [[1, 2], [-3, 0], [-3, 0, 3], [], [-3, 0, "t:1"]],
                         ids=["2x+1", "-3", "3x^2-3", "empty", "digit-lead"])
def test_roots_in_dvr_refuses_a_list_without_its_monic_lead(F):
    # the list is the whole polynomial: none of these ends in the integer 1,
    # so none is read as the coefficients below an implied lead
    with pytest.raises(NotMonic):
        roots_in_dvr(F, Z3_SQRT3, 4)


def test_has_root_finds_unit_roots():
    res = has_root(Z3_FLAT, [-1, 0, 1])
    assert res.kind == "yes"
    sq = res.root * res.root
    assert sq == Z3_FLAT.one(sq.n)


def test_squarefree_part_cached_as_fresh_lists():
    first = resfield._squarefree_part([4, -4, 1])  # (x - 2)^2
    assert first == [-2, 1]
    first.append(7)
    assert resfield._squarefree_part((4, -4, 1)) == [-2, 1]


def test_has_root_squarefree_reduction():
    # (x - 1)^2: double root still decided via the squarefree part
    res = has_root(Z3_SQRT3, [1, -2, 1])
    assert res.kind == "yes"


def test_iso_tables_match_bijective_oracle_tables():
    src = residue_ring(Z3_SQRT3, 2)
    tgt = residue_ring(Z3_SQRTM3, 2)
    expected, s_elems, t_elems = exhaustive_homs_as_tables(src, tgt)
    t_index = {x: i for i, x in enumerate(t_elems)}
    bijective = [tab for tab in expected if len(set(tab)) == len(tab)]
    got = sorted({hom_as_table(h, s_elems, t_index) for h in enumerate_isos(src, tgt)})
    assert got == sorted(bijective)


def test_has_root_escalates_for_close_roots():
    # roots 1 and 1 + 3^6 only separate at depth 7; the initial DFS depth is
    # too shallow and must escalate
    c = 3 ** 6
    F = [1 + c, -(2 + c), 1]
    res = has_root(Z3_FLAT, F)
    assert res.kind == "yes"
    assert res.precision > 6


Z5_SQRT5, Z5_SQRTM5 = make_dvr(make_field(5, 1), [-5, 0, 1]), make_dvr(make_field(5, 1), [5, 0, 1])
Z7_SQRT7, Z7_SQRTM7 = make_dvr(make_field(7, 1), [-7, 0, 1]), make_dvr(make_field(7, 1), [7, 0, 1])

# x^2 - c whose answers need a precision above 64: (ring, c, answer)
DEEP_SQUARES = {
    "Z3[sqrt3]:3^100": (Z3_SQRT3, 3 ** 100, "yes"),
    "Z3[sqrt3]:3^101": (Z3_SQRT3, 3 ** 101, "yes"),
    "Z3[sqrt3]:2*3^100": (Z3_SQRT3, 2 * 3 ** 100, "no"),
    "Z3[sqrt3]:7*3^300": (Z3_SQRT3, 7 * 3 ** 300, "yes"),
    "Z2[sqrt2]:17*2^61": (Z2_SQRT2, 17 * 2 ** 61, "yes"),
    "Z2[sqrt2]:7*2^61": (Z2_SQRT2, 7 * 2 ** 61, "no"),
}


def _is_square_root(R, root, c) -> bool:
    """Whether root agrees to its depth t with a root of x^2 - c that t
    separates, by substitution: x = root's t digits, read at precision 3t,
    has nu(2x) < t and nu(x^2 - c) >= t + nu(2x)."""
    t = root.n
    x = from_pi_digits(pi_digits(root, t), R, 3 * t)
    v2x, exact = (x + x)._val_units()
    return exact and v2x < t and (x * x - R.from_int(c, 3 * t))._val_units()[0] >= t + v2x


@pytest.mark.parametrize("case", list(DEEP_SQUARES))
def test_has_root_decides_deep_squares(case):
    R, c, answer = DEEP_SQUARES[case]
    res = has_root(R, [-c, 0, 1])
    assert (res.kind, res.precision > 64) == (answer, True)
    if answer == "yes":
        assert _is_square_root(R, res.root, c)


def test_has_root_keeps_the_precisions_decided_below_64():
    # the root 3^20 is certified at 64, the fourth doubling of 4
    res = has_root(Z3_SQRT3, [-3 ** 40, 0, 1])
    assert (res.kind, res.precision) == ("yes", 64)
    assert _is_square_root(Z3_SQRT3, res.root, 3 ** 40)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(3, 1), (3, -1), (5, 1), (5, -1), (7, 1), (7, -1)]),
       st.integers(-200, 200), st.integers(0, 90))
def test_has_root_of_a_unit_times_a_power_of_p(ring, c, m):
    # over Z_p[sqrt(sign*p)], p = sign*pi^2, so x^2 = c*p^m = c*sign^m*pi^(2m)
    # has a root exactly when the unit c*sign^m is a square mod p
    p, sign = ring
    R = {3: (Z3_SQRT3, Z3_SQRTM3), 5: (Z5_SQRT5, Z5_SQRTM5), 7: (Z7_SQRT7, Z7_SQRTM7)}[p][sign < 0]
    c = c if c % p else c + 1
    res = has_root(R, [-c * p ** m, 0, 1])
    assert res.kind == ("yes" if pow(c * sign ** m, (p - 1) // 2, p) == 1 else "no")
    if res:
        assert _is_square_root(R, res.root, c * p ** m)


def test_has_root_certifies_only_its_first_root(monkeypatch):
    # x^2 - 2 has the two roots = +-3 mod m in Z7[sqrt 7]; has_root accepts
    # the first and searches no further, where the full search accepts both
    R = make_dvr(make_field(7, 1), [-7, 0, 1])
    assert len(roots_in_dvr([-2, 0, 1], R, 4)) == 2
    accepted = _count_certified(monkeypatch)
    res = has_root(R, [-2, 0, 1])
    assert len(accepted) == 1
    assert (res.kind, res.precision) == ("yes", 4)
    assert res.root == accepted[0].elem == roots_in_dvr([-2, 0, 1], R, 4)[0].elem


# (ring, F, has_root's answer, the precision the search over every root
# escalates to): a ball after the first root needs the higher precision
FIRST_ROOT_CASES = {
    # x(x - 1)(x - 730) over Z3: the roots 1 and 730 = 1 + 3^6 separate at depth 7
    "Z3:x(x-1)(x-730)": (Z3_FLAT, [0, 730, -731, 1], ("yes", 4, "π:0,0,0,0"), 8),
    "Z3[sqrt-3]:quartic": (Z3_SQRTM3, [21, 30, 16, -5, 1], ("yes", 4, "π:0,1,0,1"), 8),
}


@pytest.mark.parametrize("case", list(FIRST_ROOT_CASES))
def test_has_root_answers_at_its_first_root_precision(case):
    R, F, answer, full_prec = FIRST_ROOT_CASES[case]
    res = has_root(R, F)
    assert (res.kind, res.precision, dvr_elem_text(res.root)) == answer
    # the whole search refuses the shallower precision, and its first root
    # at the higher one extends has_root's root
    with pytest.raises(PrecisionTooLow):
        roots_in_dvr(F, R, res.precision)
    first = roots_in_dvr(F, R, full_prec)[0]
    assert pi_digits(first.elem, res.precision) == pi_digits(res.root, res.precision)


def _has_root_by_every_root(R, F):
    """has_root as the search over every root at doubling precision
    answers it: (kind, root, precision).  The search decides at depth B =
    2*nu_R(disc F) + 2 or above."""
    coeffs = resfield._squarefree_part(F)
    prec = max(4, R.e + nu_of_e(R.p, R.e) + 1)
    if len(coeffs) == 1:
        return "no", None, prec
    ceiling = 2 * homlift._squarefree_cached(tuple(F), R)[1] + 2
    while True:
        try:
            roots = roots_in_dvr(coeffs, R, prec)
        except PrecisionTooLow:
            if prec >= ceiling:
                raise AssertionError(f"{F} is undecided at depth {prec} >= B = {ceiling}") from None
            prec *= 2
            continue
        if roots:
            return "yes", roots[0].elem, roots[0].t
        return "no", None, prec


HAS_ROOT_RINGS = {
    "F2:x2-2": Z2_SQRT2,
    "F2:x-2": make_dvr(F2, [-2, 1]),
    "F3:x2-3": Z3_SQRT3,
    "F3:x-3": Z3_FLAT,
    "F5:x2-5": make_dvr(make_field(5, 1), [-5, 0, 1]),
    "F4:x2-2": make_dvr(make_field(2, 2), [-2, 0, 1]),
    "F9:x2-3": make_dvr(F9, [-3, 0, 1]),
}


@pytest.mark.parametrize("ring", list(HAS_ROOT_RINGS))
def test_has_root_agrees_with_the_search_over_every_root(ring):
    # seeded monic polynomials of degree <= 4, a third of them products of
    # linear factors so that many have roots: the same kind, and the first
    # root of the full search agrees with has_root's to has_root's
    # precision, which is never above the full search's
    R = HAS_ROOT_RINGS[ring]
    rng = random.Random(f"has_root:{ring}")
    kinds = set()
    for i in range(48):
        if i % 3:
            F = [rng.randint(-30, 30) for _ in range(rng.randint(1, 4))] + [1]
        else:
            F = [1]
            for _ in range(rng.randint(1, 3)):  # F <- F * (x - a)
                a = rng.randint(-20, 20)
                F = [(F[j - 1] if j else 0) - a * (F[j] if j < len(F) else 0) for j in range(len(F) + 1)]
        res = has_root(R, F)
        kind, root, prec = _has_root_by_every_root(R, F)
        kinds.add(kind)
        assert res.kind == kind, F
        if kind == "yes":
            assert res.precision <= prec, F
            assert pi_digits(root, res.precision) == pi_digits(res.root, res.precision), F
        else:
            assert (res.root, res.precision) == (None, prec), F
    assert kinds == {"yes", "no"}


CLOSE_ROOT_RINGS = dict(HAS_ROOT_RINGS, **{"F3:x2+3": Z3_SQRTM3, "F2:x2-10": Z2_SQRT10})


@pytest.mark.parametrize("ring", list(CLOSE_ROOT_RINGS))
def test_close_integer_roots_are_never_dropped(ring):
    # (x - a)(x - b) with b - a = u*p^k, k <= 6: a ball of radius t where
    # t <= nu(F') can be neither certified nor excluded, so has_root finds
    # a or b, and roots_in_dvr lists both or refuses.  The answers are
    # checked against the known roots, not against another search
    R = CLOSE_ROOT_RINGS[ring]
    p = R.p
    units = [u for u in (1, -1, 2, 3) if u % p]
    for a in (0, 1, -2, p, -(p ** 2), 2 * p ** 4):
        for u, k in itertools.product(units, range(7)):
            b = a + u * p ** k
            F = [a * b, -(a + b), 1]
            res = has_root(R, F)
            assert res.kind == "yes", F
            t = res.precision
            assert pi_digits(res.root, t) in (pi_digits(R.from_int(c, t)) for c in (a, b)), F
            for t in (4, 8):
                try:
                    got = {pi_digits(r.elem, t) for r in roots_in_dvr(F, R, t)}
                except PrecisionTooLow:
                    continue
                assert got == {pi_digits(R.from_int(c, t)) for c in (a, b)}, (F, t)


@pytest.mark.parametrize("ring", list(HAS_ROOT_RINGS))
def test_disc_val_matches_sympy_oracle(ring):
    # nu_R(disc F) = e * v_p(disc F) on seeded squarefree F, some of them
    # products of linear factors with close roots
    import sympy

    R = HAS_ROOT_RINGS[ring]
    x = sympy.symbols("x")
    rng = random.Random(f"disc:{ring}")
    checked = 0
    while checked < 12:
        if checked % 2:
            F = [rng.randint(-50, 50) for _ in range(rng.randint(1, 5))] + [1]
        else:
            F = [1]
            for _ in range(rng.randint(1, 4)):  # F <- F * (x - a)
                a = rng.choice([0, 1, R.p, R.p ** 3]) + rng.randint(-2, 2) * R.p ** rng.randint(0, 5)
                F = [(F[j - 1] if j else 0) - a * (F[j] if j < len(F) else 0) for j in range(len(F) + 1)]
        disc = int(sympy.discriminant(sympy.Poly(F[::-1], x)))
        if disc == 0:
            continue
        v = 0
        while disc % R.p == 0:
            disc //= R.p
            v += 1
        assert homlift._squarefree_cached(tuple(F), R)[1] == R.e * v, F
        checked += 1


def test_lift_across_ramification_indices():
    # W(F3) -> Z3[sqrt(3)]: the unramified ring embeds, and any length
    # works since M(W(F3)) = 0
    src = residue_ring(Z3_FLAT, 2)
    tgt = residue_ring(Z3_SQRT3, 4)
    homs = enumerate_homs(src, tgt)
    assert homs
    for phi in homs:
        g = lift_hom(phi)
        v = g.rho.valuation()
        assert v.exact and v.value == 2  # image of p-like uniformizer
        back = project_hom(g, 2, 4)
        assert back.psi == phi.psi


def test_lift_certifies_past_the_valuation_of_the_image():
    # W(F2) -> Z2[2^(1/4)]: the image of 2 has valuation e2/e1 = 4, which the
    # working precision n2 + 2 = 4 alone would read only as ">= 4"
    Z2_ROOT4 = make_dvr(F2, [-2, 0, 0, 0, 1])
    for n1 in (1, 2):
        (phi,) = enumerate_homs(residue_ring(make_dvr(F2, [-2, 1]), n1), residue_ring(Z2_ROOT4, 2))
        g = lift_hom(phi)
        v = g.rho.valuation()
        assert v.exact and v.value == 4
        assert dvr_elem_text(g.rho) == "π:0,0,0,0,1"


def test_lift_frobenius_twisted_automorphism():
    from ramlift.resfield import embeddings

    F9 = make_field(3, 2, [1, 0, 1])
    R = make_dvr(F9, [[-3, 0], [0, 0], 1])
    frob = [e for e in embeddings(F9, F9) if not e.is_identity()][0]
    src = residue_ring(R, 4)
    beta = project(R.uniformizer(4), 4)
    phi = residue_hom(src, src, frob, beta)
    g = lift_hom(phi)
    assert g.psi == frob
    assert pi_digits(g.rho, 4) == pi_digits(R.uniformizer(4), 4)
    # applying g to a Teichmuller constant applies frobenius to the digit
    wspec = R.wspec(4)
    i_const = from_witt(R, teichmuller(F9.generator(), wspec), 4)
    img = g.apply(i_const)
    assert pi_digits(img, 1)[0] == frob(F9.generator())


# (source, target) pairs for the digit-route oracle of apply: d1 = d2 = 1;
# d1 = 1 < d2 = 2; F9 with its Frobenius; F9 presented by y^2 + 2y + 2;
# a wild F4 ring whose constant term involves y
F9_B = make_field(3, 2, [2, 2, 1])
F4 = make_field(2, 2)
Z9_SQRT3 = make_dvr(F9, [-3, 0, 1])
Z9B_RING = make_dvr(F9_B, [-3, [0, 3], 1])
Z4_WILD = make_dvr(F4, [[2, 2], 0, 0, 0, 1])
APPLY_CASES = {
    "F3-F3": (Z3_SQRT3, Z3_SQRT3),
    "F3-F9": (Z3_SQRT3, Z9_SQRT3),
    "F9-frobenius": (Z9_SQRT3, Z9_SQRT3),
    "F9-y2+2y+2": (Z9B_RING, Z9B_RING),
    "F4-x4+2+2y": (Z4_WILD, Z4_WILD),
}


def _per_psi(homs, count: int) -> list:
    """The first count homomorphisms of each embedding."""
    kept = {}
    for h in homs:
        if len(kept.setdefault(h.psi, [])) < count:
            kept[h.psi].append(h)
    return [h for group in kept.values() for h in group]


@pytest.mark.parametrize("case", sorted(APPLY_CASES))
def test_residue_hom_apply_matches_digit_route(case):
    # W(psi) on the coefficient blocks plus Horner in beta against
    # sum teichmuller(psi(a_r)) beta^r, on every source element
    R1, R2 = APPLY_CASES[case]
    src, tgt = residue_ring(R1, 3), residue_ring(R2, 3)
    homs = _per_psi(enumerate_homs(src, tgt), 3)
    assert len({h.psi for h in homs}) == (2 if R1.d == R2.d == 2 else 1)
    elems = list(enumerate_elements(src))
    for h in homs:
        beta = tgt.lift(h.beta)
        for x in elems:
            assert h.apply(x) == project(digit_route_apply(h.psi, x.digits, beta), tgt.n)


def _lifts(R1, R2) -> list:
    if R1 is Z4_WILD:  # its lifting bound is 21: take the identity, rho = pi
        return [DvrHom(R1, R1, identity_embedding(F4), R1.uniformizer(16), (16, different_val(R1)))]
    n2 = lift_precision_bound(R1, R2.e)
    src, tgt = residue_ring(R1, -(-n2 * R1.e // R2.e)), residue_ring(R2, n2)
    return [lift_hom(h) for h in _per_psi(enumerate_homs(src, tgt), 1)]


@pytest.mark.parametrize("case", sorted(APPLY_CASES))
def test_dvr_hom_apply_matches_digit_route(case):
    R1, R2 = APPLY_CASES[case]
    rng = random.Random(31)
    digits = sorted(R1.k.elements(), key=lambda a: a.coeffs)
    for g in _lifts(R1, R2):
        for n in (1, R1.e + 1, 2 * R1.e + 3):
            for _ in range(4):
                x = from_pi_digits([rng.choice(digits) for _ in range(n)], R1, n)
                for z in (x, x * x + x):  # the second vector is not built from digits
                    img = g.apply(z)
                    assert img == digit_route_apply(g.psi, pi_digits(z), g.rho.reduce_to(img.n))


# (source, target) pairs for the matrix of apply against the Horner image:
# d1 = 1 into d2 = 2 and 3, x^2 - 3 into x^4 - 3, e1 = 1 into e2 = 2, d = 2
# rings with one and two embeddings, "t:" coefficients over F3 and F9, wild
# rings over F2, F3 and F4, and p = 5
HOM_MATRIX_CASES = {
    "F3-F3": (Z3_SQRT3, Z3_SQRT3),
    "F3-F9": (Z3_SQRT3, Z9_SQRT3),
    "x2-3-into-x4-3": (Z3_SQRT3, Z3_QUARTIC),
    "Z3-into-x2-3": (Z3_FLAT, Z3_SQRT3),
    "Z3-into-F27": (Z3_FLAT, make_dvr(make_field(3, 3), [-3, 1])),
    "F9-frobenius": (Z9_SQRT3, Z9_SQRT3),
    "F9-y2+2y+2": (Z9B_RING, Z9B_RING),
    "F4-x4+2+2y": (Z4_WILD, Z4_WILD),
    "F9-t-coefficients": (_R9T, _R9T),
    "F3-t-coefficients": (make_dvr(F3, ["t:0,1,2", "t:0,0,1", 0, 1]),) * 2,
    "F3-x3-3": (make_dvr(F3, [-3, 0, 0, 1]),) * 2,
    "F3-x2+3": (Z3_SQRTM3, Z3_SQRTM3),
    "F2-x2-2": (Z2_SQRT2, Z2_SQRT2),
    "F5-x2-5": (make_dvr(make_field(5, 1), [-5, 0, 1]),) * 2,
}


def _representatives(rng, mods, modulus) -> list:
    """A canonical vector for the moduli mods, an unreduced one (coordinates
    up to 3 * modulus) and a negative one."""
    return [
        tuple([rng.randrange(m) for m in mods]),
        tuple([rng.randrange(3 * modulus) for _ in mods]),
        tuple([-rng.randrange(3 * modulus) for _ in mods]),
    ]


@pytest.mark.parametrize("case", sorted(HOM_MATRIX_CASES))
def test_residue_hom_apply_is_the_horner_image(case):
    # the matrix-vector product against W(psi) on each block and Horner's
    # rule in beta, on canonical, unreduced and negative source vectors
    R1, R2 = HOM_MATRIX_CASES[case]
    tgt = residue_ring(R2, 4)
    src = residue_ring(R1, -(-4 * R1.e // R2.e))
    homs = _per_psi(enumerate_homs(src, tgt), 3)
    assert homs
    rng = random.Random(case)
    ctx1, ctx2 = src._ctx, tgt._ctx
    for h in homs:
        for _ in range(4):
            for v in _representatives(rng, ctx1.res_mods, ctx1.mod):
                img = h.apply(dvr.ResidueElt(src, None, v)).v
                assert img == dvr._canon(ctx2, horner_image(h.psi, v, ctx2, h.beta.v))
                assert img == h.apply(dvr.ResidueElt(src, None, dvr._canon(ctx1, v))).v


def _matrix_lifts(R1, R2) -> list:
    """The isomorphisms of a ring to itself, or the lifts of the first
    homomorphism of each embedding at the lifting bound."""
    if R1 is R2:
        return dvr_isos(R1, R2)
    n2 = lift_precision_bound(R1, R2.e)
    src, tgt = residue_ring(R1, -(-n2 * R1.e // R2.e)), residue_ring(R2, n2)
    return [lift_hom(h) for h in _per_psi(enumerate_homs(src, tgt), 1)]


@pytest.mark.parametrize("case", sorted(HOM_MATRIX_CASES))
def test_dvr_hom_apply_is_the_horner_image(case):
    # the same at every source precision from 1 to rho.n, so at every
    # precision of the image up to rho.n that e2/e1 reaches
    R1, R2 = HOM_MATRIX_CASES[case]
    homs = _matrix_lifts(R1, R2)
    assert homs
    rng = random.Random(case)
    for g in homs:
        for n in range(1, g.rho.n + 1):
            ctx1 = dvr._context(R1, n)
            ctx2 = dvr._context(R2, min(n * R2.e // R1.e, g.rho.n))
            for v in _representatives(rng, (ctx1.mod,) * ctx1.size, ctx1.mod):
                img = g.apply(DvrElem(ctx1, v))
                assert img.ctx is ctx2
                assert img.v == horner_image(g.psi, v, ctx2, g.rho.v)


def test_hom_tables_match_oracle_random_rings():
    # randomized cross-check of the (psi, beta) parameterization on small
    # random Eisenstein quotients, including mixed source/target polynomials
    rng = random.Random(2718)
    specs = []
    for p, e in [(2, 2), (3, 2), (2, 3)]:
        k = make_field(p, 1)
        c0 = p * rng.choice([c for c in range(1, 3 * p) if c % p])
        f = [c0] + [p * rng.randrange(3) for _ in range(e - 1)] + [1]
        specs.append(make_dvr(k, f))
    pairs = [
        (residue_ring(specs[0], 3), residue_ring(specs[2], 3)),  # e 2 -> 3
        (residue_ring(specs[1], 2), residue_ring(specs[1], 4)),
        (residue_ring(specs[2], 2), residue_ring(specs[0], 4)),  # e 3 -> 2
    ]
    for src, tgt in pairs:
        expected, s_elems, t_elems = exhaustive_homs_as_tables(src, tgt)
        t_index = {x: i for i, x in enumerate(t_elems)}
        got = sorted({hom_as_table(h, s_elems, t_index) for h in enumerate_homs(src, tgt)})
        assert got == list(expected)


def test_tame_cubic_pair_is_isomorphic():
    # over the 2-adics every unit is a cube, so x^3-2 and x^3-10 generate the
    # same ring even though neither polynomial divides into the other's story
    A = make_dvr(F2, [-2, 0, 0, 1])
    B = make_dvr(F2, [-10, 0, 0, 1])
    assert krasner_bound(A) == Fraction(1, 3)
    isos = enumerate_isos(residue_ring(A, 4), residue_ring(B, 4))
    assert isos
    g = lift_hom(isos[0])
    inv = hom_inverse(g)
    assert compose_homs(inv, g).is_identity()
    assert compose_homs(g, inv).is_identity()
    assert has_root(B, [-2, 0, 0, 1]).kind == "yes"
    assert has_root(A, [-10, 0, 0, 1]).kind == "yes"


# -- the ball search at scale ----------------------------------------------------

Z2_ROOT4 = make_dvr(F2, [-2, 0, 0, 0, 1])  # wild: e = 4, M = 5/4, bound 21
W9_CUBIC = make_dvr(F9, [3, 0, 0, 1])  # x^3 + 3 over W(F9): wild, e = p = 3
W4_QUARTIC = make_dvr(F4, [2, 0, 0, 0, 1])  # x^4 + 2 over W(F4)
W4_QUARTIC_Y = make_dvr(F4, [[2, 2], 0, 0, 0, 1])  # x^4 + 2 + 2y, y generating F4


def test_wild_lift_stays_within_a_horner_budget(monkeypatch):
    # an automorphism of W(F2)[x]/(x^4 - 2) at its bound n = 21: the roots
    # +-pi have nu(F') = 11, so a search that kept every truncated root
    # would carry about 2^11 branches per root at each deep level (131145
    # evaluations); the ball search descends along the roots of the reduced
    # polynomial and refines by Newton's iteration
    rn = residue_ring(Z2_ROOT4, 21)
    phi = residue_hom(rn, rn, identity_embedding(F2), project(Z2_ROOT4.uniformizer(21), 21))
    calls = _count_horner(monkeypatch)
    g = lift_hom(phi)
    assert len(calls) < 1000
    assert g.is_identity() and project_hom(g, 21, 21) == phi


def test_wild_cubic_isos_within_a_horner_budget(monkeypatch):
    # nu(F'(pi)) = 5: the truncated roots near pi grow ninefold every two
    # levels (9, 81, 81, 729, ..., 59049 at depths 2-9), and the ball search
    # follows none of them
    calls = _count_horner(monkeypatch)
    isos = dvr_isos(W9_CUBIC, W9_CUBIC)
    assert len(isos) == 2 and len(calls) < 1000
    assert {g.psi.is_identity() for g in isos} == {True, False}


def _check_isos_against_residue_isos(R, isos, is_residue_iso):
    """Each ring iso projects, at the lifting bound, to a distinct residue
    iso, and composes with its inverse to the identity both ways."""
    n = lift_precision_bound(R, R.e)
    projected = [project_hom(g, n, n) for g in isos]
    assert len(set(projected)) == len(isos)
    for g, phi in zip(isos, projected):
        assert is_residue_iso(phi)
        inv = hom_inverse(g)
        assert compose_homs(inv, g).is_identity() and compose_homs(g, inv).is_identity()


def test_wild_isos_project_into_the_listed_residue_isos():
    n = lift_precision_bound(Z2_ROOT4, 4)  # 21: 2^21 target elements
    residue_isos = set(enumerate_isos(residue_ring(Z2_ROOT4, n), residue_ring(Z2_ROOT4, n)))
    isos = dvr_isos(Z2_ROOT4, Z2_ROOT4)
    assert len(isos) == 2
    _check_isos_against_residue_isos(Z2_ROOT4, isos, residue_isos.__contains__)


@pytest.mark.parametrize(
    "R, count",
    [(W9_CUBIC, 2), (W4_QUARTIC, 4), (W4_QUARTIC_Y, 4)],
    ids=["F9:x3+3", "F4:x4+2", "F4:x4+2+2y"],
)
def test_wild_isos_and_inverses_finish(R, count):
    # 9^8 and 4^21 target elements at the bound are past the cap, so
    # membership in the residue isos is read off their balls, not a listing
    n = lift_precision_bound(R, R.e)
    rn = residue_ring(R, n)
    isos = dvr_isos(R, R)
    assert len(isos) == count
    _check_isos_against_residue_isos(R, isos, HomSet(rn, rn).isos().__contains__)


def test_count_homs_past_the_enumeration_cap():
    # 2^24 target elements exceed the cap of 10^7; the count lists no beta
    W4 = make_dvr(F4, [-2, 0, 0, 0, 1])
    rn = residue_ring(W4, 12)
    with pytest.raises(TooLarge):
        enumerate_homs(rn, rn)
    assert HomSet(rn, rn).count() == 524288
    with pytest.raises(TooLarge):
        enumerate_isos(rn, rn)
    assert HomSet(rn, rn).isos().count() == 524288


def test_count_homs_refuses_counts_past_the_integer_text_limit():
    rn = residue_ring(Z3_SQRT3, 100000)
    with pytest.raises(TooLarge, match="digit integer limit"):
        HomSet(residue_ring(Z3_SQRT3, 1), rn).count()


@st.composite
def _ring_pairs(draw):
    """Two small Eisenstein rings over F2, F3 or F4 (the target's field
    containing the source's) with lengths whose target has at most 729
    elements."""
    p = draw(st.sampled_from([2, 3]))
    d1 = draw(st.sampled_from([1, 2] if p == 2 else [1]))
    d2 = draw(st.sampled_from([d1, 2] if p == 2 else [1]))
    rings = []
    for d in (d1, d2):
        k = make_field(p, d)
        e = draw(st.integers(1, 3))
        unit = draw(st.sampled_from([1, p - 1, p + 1]))
        tail = [p * draw(st.integers(0, 2)) for _ in range(e - 1)]
        rings.append(make_dvr(k, [p * unit] + tail + [1]))
    n2 = draw(st.integers(1, 6))
    while (p ** d2) ** n2 > 729:
        n2 -= 1
    n1 = draw(st.one_of(st.just(n2), st.integers(1, 5)))  # equal lengths admit isos
    return residue_ring(rings[0], n1), residue_ring(rings[1], n2)


@settings(max_examples=60, deadline=None)
@given(_ring_pairs())
@example((residue_ring(Z2_SQRT2, 1), residue_ring(Z2_SQRT10, 1)))
@example((residue_ring(make_dvr(F4, [-2, 0, 1]), 1), residue_ring(make_dvr(F4, [2, 2, 1]), 1)))
@example((residue_ring(Z2_SQRT2, 2), residue_ring(make_dvr(F4, [-2, 0, 1]), 1)))  # 4 = 4^1, F2 != F4
def test_count_homs_counts_the_listing(pair):
    src, tgt = pair
    homs = enumerate_homs(src, tgt)
    isos = enumerate_isos(src, tgt)
    assert HomSet(src, tgt).count() == len(homs)
    assert HomSet(src, tgt).isos().count() == len(isos)
    # the isos are the homs whose beta has valuation one, between rings of
    # one size over one residue field (at n = 1 every beta, 0 included, has
    # valuation one)
    if src.ring.d == tgt.ring.d and src.ring.q ** src.n == tgt.ring.q ** tgt.n:
        assert isos == [h for h in homs if h.beta.val_units() == 1]
    else:
        assert isos == []


def test_enumerate_isos_builds_one_residue_hom_per_iso(monkeypatch):
    built = []

    def spy(*args):
        built.append(args)
        return ResidueHom(*args)

    monkeypatch.setattr(homlift, "ResidueHom", spy)
    isos = enumerate_isos(residue_ring(Z2_SQRT2, 6), residue_ring(Z2_SQRT10, 6))
    assert len(isos) == 8 and len(built) == len(isos)
    built.clear()  # Z3[sqrt 3] at n = 2 has 3 homs, of which 2 are isos
    isos = enumerate_isos(residue_ring(Z3_SQRT3, 2), residue_ring(Z3_SQRT3, 2))
    assert len(isos) == 2 and len(built) == len(isos)


def test_hom_set_membership_matches_the_scan():
    # x^2 + 2x + 2 + 2y over W(F4): the Frobenius twist moves the admissible
    # betas, so membership must match the embedding as well as the digits
    rn = residue_ring(make_dvr(F4, [[2, 2], 2, 1]), 3)
    listed = set(scan_homs(rn, rn))
    homs = HomSet(rn, rn)
    for psi in embeddings(F4, F4):
        for beta in enumerate_elements(rn):
            phi = ResidueHom(rn, rn, psi, beta)
            assert (phi in homs) == (phi in listed)
            assert (phi in homs.isos()) == (phi in listed and beta.val_units() == 1)


def test_hom_set_searches_only_when_asked(monkeypatch):
    searches = []

    def spy(*args):
        searches.append(args)
        return _ball_search(*args)

    monkeypatch.setattr(homlift, "_ball_search", spy)
    # Z3[sqrt 3] at n = 2: the ball 0 + m of betas is split for the isos
    rn = residue_ring(Z3_SQRT3, 2)
    homs = HomSet(rn, rn)
    isos = homs.isos()
    assert searches == []
    assert isos.count() == 2 and len(searches) == 1
    assert homs.count() == 3 and len(searches) == 2
    phi = next(iter(isos))
    assert phi in isos and phi in homs and len(searches) == 5
    zero = [h for h in homs if h.beta.val_units() > 1]
    assert len(zero) == 1 and zero[0] in homs and zero[0] not in isos
    assert phi not in HomSet(rn, residue_ring(Z3_SQRT3, 3)).isos()
    assert len(searches) == 8


# -- lifting through beta's Krasner ball -----------------------------------------

F5 = make_field(5, 1)
# (R1, R2): tame, wild, Frobenius-twisted, cross-field, e 2 -> 4 and e1 = 1
LIFT_PAIRS = {
    "F3:x2-3": (Z3_SQRT3, Z3_SQRT3),
    "F3:x2+3": (Z3_SQRTM3, Z3_SQRTM3),
    "F5:x2-5": (make_dvr(F5, [-5, 0, 1]),) * 2,
    "F9:x2-3": (W9, W9),
    "F2:x2-2": (Z2_SQRT2, Z2_SQRT2),
    "F2:x2-10": (Z2_SQRT10, Z2_SQRT10),
    "F3:x3-3": (make_dvr(F3, [-3, 0, 0, 1]),) * 2,
    "F4:x2-2": (make_dvr(F4, [-2, 0, 1]),) * 2,
    "F3-to-F9": (Z3_SQRT3, W9),
    "x2-3-to-x4-3": (Z3_SQRT3, Z3_QUARTIC),
    "e1-1": (Z3_FLAT, Z3_SQRT3),
    "e1-1-F5": (make_dvr(F5, [-5, 1]),) * 2,
}


def _homs_to_lift(R1, R2) -> list:
    """At most 40 homomorphisms at n2 = the lifting bound and one above, n1
    the least length whose betas reach n2."""
    bound = lift_precision_bound(R1, R2.e)
    homs = []
    for n2 in (bound, bound + 1):
        n1 = -(-n2 * R1.e // R2.e)
        homs += enumerate_homs(residue_ring(R1, n1), residue_ring(R2, n2))[:40]
    return homs


def _count_certified(monkeypatch) -> list:
    """Record every root _certify accepts."""
    accepted = []
    certify = homlift._certify

    def counted(poly, x, t):
        cert = certify(poly, x, t)
        if cert is not None:
            accepted.append(cert)
        return cert

    monkeypatch.setattr(homlift, "_certify", counted)
    return accepted


@pytest.mark.parametrize("pair", list(LIFT_PAIRS))
def test_lift_searches_one_ball_and_selects_the_same_root(pair, monkeypatch):
    # of all certified roots of f1^psi exactly one lies within Krasner
    # distance of beta: the lift, which the search of beta's ball alone
    # certifies.  That search certifies one root where the whole search
    # certifies every root of f1^psi in R2: two for a quadratic f1
    R1, R2 = LIFT_PAIRS[pair]
    homs = _homs_to_lift(R1, R2)
    assert homs
    accepted = _count_certified(monkeypatch)
    lifts = []
    for phi in homs:
        del accepted[:]
        lifts.append(lift_hom(phi))
        assert len(accepted) == 1
    del accepted[:]
    r0 = homlift._krasner_radius(krasner_bound(R1), R2.e)
    counts = []
    for phi, g in zip(homs, lifts):
        every_root = homlift._roots((R1.coeffs, phi.psi), R2, g.t)
        counts.append(len(every_root))
        [chosen] = _within_krasner_distance(every_root, phi.target.lift(phi.beta), r0)
        assert chosen.t == g.t
        assert same_hom(g, _as_hom(phi, chosen))
    assert len(accepted) == sum(counts)
    assert R1.e != 2 or set(counts) == {2}


def _certify_three_ways(monkeypatch) -> list:
    """Run _certify, at each call, on the flat vector x it is handed, on x +
    pi^t z for a random flat vector z, and on the lift of x's first t digits
    (the route through digits), and record the three outcomes: a
    CertifiedRoot, None, or the text of a PrecisionTooLow."""
    outcomes = []
    certify = homlift._certify
    rng = random.Random(33)

    def outcome(poly, x, t):
        try:
            return certify(poly, x, t)
        except PrecisionTooLow as exc:
            return str(exc)

    def three_ways(poly, x, t):
        ctx = poly.ctx
        pi_t = ctx.pi_powers[t] if t < ctx.n else dvr._mul(ctx, ctx.pi_powers[t - 1], ctx.pi)
        z = [rng.randrange(ctx.mod) for _ in range(ctx.size)]
        shifted = dvr._add(ctx, x, dvr._mul(ctx, pi_t, z))
        digit_route = dvr._lift(ctx, dvr._digits(ctx, x, t))
        outcomes.append([outcome(poly, y, t) for y in (x, shifted, digit_route)])
        return certify(poly, x, t)

    monkeypatch.setattr(homlift, "_certify", three_ways)
    return outcomes


def test_certify_depends_only_on_the_class_mod_m_t(monkeypatch):
    # for t > nu(F'(x)), adding h in m^t moves F(x) by at least t + nu(F'(x))
    # and F'(x) by at least t: the verdict, t, deriv_val and the root's class
    # are those of any representative, the digit route's lift included, and
    # a refusal names the same t-digit ball
    outcomes = _certify_three_ways(monkeypatch)
    roots_in_dvr([-3, 0, 1], Z3_SQRT3, 9)
    roots_in_dvr([4, -5, 1], Z3_SQRT3, 7)  # (x - 1)(x - 4): roots 3 apart
    with pytest.raises(PrecisionTooLow):
        roots_in_dvr([4, -5, 1], Z3_SQRT3, 2)
    roots_in_dvr([-1, 0, 0, 1], make_dvr(F2, [-2, 0, 1]), 12)  # x^3 - 1
    assert has_root(Z3_SQRT3, [-729, 0, 1]).kind == "yes"  # refused at depth 4
    assert has_root(Z3_SQRT3, [-2, 0, 1]).kind == "no"
    lifts = [lift_hom(phi) for phi in _homs_to_lift(Z3_SQRT3, Z3_QUARTIC)[:6]]
    isos = [lift_hom(phi) for phi in enumerate_isos(residue_ring(Z3_SQRT3, 6), residue_ring(Z3_SQRT3, 6))]
    for g in isos:
        compose_homs(lifts[0], g)
    # the truncated roots of x^2 - 3 mod m^5, as the scan oracle finds them:
    # all but two are excluded
    poly = homlift._working_poly(_normalize_poly([-3, 0, 1], F3), Z3_SQRT3, 5, None)
    for digits in scan_truncated_roots([-3, 0, 1], Z3_SQRT3, 5):
        homlift._certify(poly, dvr._lift(poly.ctx, digits), 5)
    kinds = [type(a).__name__ for a, _, _ in outcomes]
    assert {"CertifiedRoot", "NoneType", "str"} <= set(kinds)
    for a, b, c in outcomes:
        assert a == b == c
        if isinstance(a, homlift.CertifiedRoot):
            assert a.elem.n == a.t


def test_krasner_radius_at_an_integral_boundary():
    # M(Z2[sqrt 2]) = 3/2, so M1*e2 = 3: nu-tilde(rho - beta) > 3/2 exactly
    # when nu(rho - beta) >= 4, that is when rho shares beta's first 4
    # digits.  A root at nu = 4 lies inside Krasner distance, one at nu = 3
    # outside
    R = Z2_SQRT2
    M1 = krasner_bound(R)
    r0 = homlift._krasner_radius(M1, R.e)
    assert M1 * R.e == 3 and r0 == 4
    beta = R.uniformizer(8)
    inside = beta + R.uniformizer(8) ** r0
    outside = beta + R.uniformizer(8) ** (r0 - 1)
    assert pi_digits(inside, r0) == pi_digits(beta, r0)
    assert pi_digits(outside, r0) != pi_digits(beta, r0)
    roots = [homlift.CertifiedRoot(x, 8, 1) for x in (outside, inside)]
    assert [r.elem for r in _within_krasner_distance(roots, beta, r0)] == [inside]
    # e1 = 1 has M1 = 0: every root of valuation >= 1 from beta is inside
    M0 = krasner_bound(Z3_FLAT)
    assert homlift._krasner_radius(M0, 2) == 1
    assert homlift._krasner_radius(Fraction(5, 4), 4) == 6  # x^4 - 2: 5 is integral


def test_lift_and_selection_read_one_krasner_radius(monkeypatch):
    radii = []
    radius = homlift._krasner_radius
    monkeypatch.setattr(homlift, "_krasner_radius", lambda M1, e2: radii.append((M1, e2)) or radius(M1, e2))
    phi = _homs_to_lift(Z3_SQRT3, Z3_QUARTIC)[0]
    lift_hom(phi)
    assert radii == [(krasner_bound(Z3_SQRT3), 4)]


def test_lift_refuses_a_target_whose_e_is_no_multiple_of_the_source_e():
    # e1 = 2 does not divide e2 = 3; no residue hom passes residue_hom's
    # check here, so the hom is built directly, at n2 = the bound
    tgt_ring = make_dvr(F3, [-3, 0, 0, 1])
    assert lift_precision_bound(Z3_SQRT3, tgt_ring.e) == 4
    src, tgt = residue_ring(Z3_SQRT3, 3), residue_ring(tgt_ring, 4)
    phi = ResidueHom(src, tgt, identity_embedding(F3), project(tgt_ring.uniformizer(4), 4))
    with pytest.raises(IncompatibleLengths):
        lift_hom(phi)


HOMS_SCAN_PAIRS = {
    "F3:x2-3": (Z3_SQRT3, Z3_SQRT3, 5, 5),
    "F3:x2+3-to-x2-3": (Z3_SQRTM3, Z3_SQRT3, 4, 4),
    "F3:x2-3-to-x2+3": (Z3_SQRT3, Z3_SQRTM3, 3, 3),
    "F3:x2+3": (Z3_SQRTM3, Z3_SQRTM3, 6, 6),
    "F9:x2-3": (W9, W9, 3, 3),
    "F5:x2-5": LIFT_PAIRS["F5:x2-5"] + (5, 5),
    "F7:x2-7": (make_dvr(make_field(7, 1), [-7, 0, 1]),) * 2 + (4, 4),
    "F25:x2-5": (make_dvr(make_field(5, 2, [1, 1, 1]), [-5, 0, 1]),) * 2 + (2, 2),
    "F2:x2-2-to-x2-10": (Z2_SQRT2, Z2_SQRT10, 9, 9),
    "F2:x2-2": (Z2_SQRT2, Z2_SQRT2, 8, 8),
    "F4:x2-2": LIFT_PAIRS["F4:x2-2"] + (4, 4),
    "F3:x3-3": LIFT_PAIRS["F3:x3-3"] + (5, 5),
    "F3:x4-3": (Z3_QUARTIC, Z3_QUARTIC, 5, 5),
    "F3-to-F9": (Z3_SQRT3, W9, 3, 3),
    "x2-3-to-x4-3": (Z3_SQRT3, Z3_QUARTIC, 3, 6),
}


@pytest.mark.parametrize("refine", [False, True], ids=["enumerate", "refine"])
@pytest.mark.parametrize("pair", list(HOMS_SCAN_PAIRS))
def test_ball_search_from_a_ball_yields_the_balls_under_it(pair, refine):
    # a search from a + m^r yields the balls of the whole search that have
    # prefix a, with the same derivative valuations.  a runs over each
    # proper prefix of a ball, each one-digit extension of one (inside a
    # ball or off every branch), and each ball except an isolated one, which
    # a search from the ball itself splits further.  Root finding starts
    # only above the depth (lift_hom's ball has radius at most n2 < prec),
    # and a start at the depth is yielded whenever F vanishes there mod
    # m^depth, also off every branch, so refine starts stop above it
    R1, R2, n1, n2 = HOMS_SCAN_PAIRS[pair]
    zero_prefix = (R2.k.zero(),) * -(-n2 // n1)

    def search(F, start):
        poly = homlift._working_poly(F, R2, n2, homlift._image_deriv_bound(R1, R2))
        return [(digits, delta) for digits, _, delta in _ball_search(poly, n2, start, refine)]

    for psi in embeddings(R1.k, R2.k):
        F = (R1.coeffs, psi)
        whole = search(F, zero_prefix)
        prefixes = {b[:r] for b, _ in whole for r in range(len(zero_prefix), len(b))}
        starts = prefixes | {a + (x,) for a in prefixes for x in R2.k.elements()}
        starts -= {b for b, delta in whole if delta is not None}
        if refine:
            starts = {a for a in starts if len(a) < n2}
        for a in starts:
            assert search(F, a) == [(b, delta) for b, delta in whole if b[:len(a)] == a], a


def test_root_finding_refuses_a_start_at_the_depth():
    # a start ball of radius >= depth off every branch would be yielded
    # although it holds no root (F4 x^2 - 2 vanishes mod m^4 on this centre)
    R = make_dvr(make_field(2, 2), [-2, 0, 1])
    k = R.k
    start = (k.zero(), k.one(), k.zero(), k.from_coeffs([0, 1]))
    poly = _materialize_poly(_normalize_poly([-2, 0, 1], k), R, 12)
    for depth in (3, 4):
        with pytest.raises(InvalidArgument, match=f"depth {depth}"):
            list(_ball_search(poly, depth, start, refine=True))
    assert [b for b, _, _ in _ball_search(poly, 4, start)] == [start]  # enumeration takes it
    assert list(_ball_search(poly, 5, start, refine=True)) == []


def test_ball_search_applies_the_cap_to_cached_root_sets(monkeypatch):
    # x^2 - 3 reduces to x^2 at the ball 0 + m^0; the root set of that
    # reduction, which a repeated search reads from the shared cache, is
    # not handed back past a cap set later, and a malformed cap is
    # reported.  The cap is read once per search
    poly = _materialize_poly(_normalize_poly([-3, 0, 1], F3), Z3_SQRT3, 6)
    balls = [digits for digits, _, _ in _ball_search(poly, 4)]
    hits = resfield._root_set.cache_info().hits
    assert [digits for digits, _, _ in _ball_search(poly, 4)] == balls
    assert balls and resfield._root_set.cache_info().hits > hits
    reads = []
    read_cap = homlift.enumeration_cap
    monkeypatch.setattr(homlift, "enumeration_cap", lambda: reads.append(1) or read_cap())
    assert [digits for digits, _, _ in _ball_search(poly, 4)] == balls
    assert len(reads) == 1
    monkeypatch.setenv("RAMLIFT_ENUM_CAP", "2")
    with pytest.raises(TooLarge, match="enumeration cap 2"):
        list(_ball_search(poly, 4))
    monkeypatch.setenv("RAMLIFT_ENUM_CAP", "abc")
    with pytest.raises(InvalidSetting, match="RAMLIFT_ENUM_CAP"):
        list(_ball_search(poly, 4))
    assert len(reads) == 3


def test_root_sets_cached_by_roots_are_refused_past_the_cap_by_the_ball_search(monkeypatch):
    # x^2 + 1 over W(F9)[x]/(x^2 - 3) reduces to x^2 + 1 at the ball 0 + m^0;
    # its root set, cached by resfield.roots under the default cap, is a
    # cache hit for the ball search and refused by both under a cap of 2
    R = make_dvr(F9, [-3, 0, 1])
    poly = _materialize_poly(_normalize_poly([1, 0, 1], F9), R, 6)
    found = resfield.roots([1, 0, 1], F9)
    assert [b for b, _ in found] == [F9.generator(), -F9.generator()]
    hits = resfield._root_set.cache_info().hits
    assert [digits[0] for digits, _, _ in _ball_search(poly, 1)] == [b for b, _ in found]
    assert resfield._root_set.cache_info().hits > hits
    monkeypatch.setenv("RAMLIFT_ENUM_CAP", "2")
    with pytest.raises(TooLarge, match="enumeration cap 2"):
        resfield.roots([1, 0, 1], F9)
    with pytest.raises(TooLarge, match="enumeration cap 2"):
        list(_ball_search(poly, 1))
    # a search whose reductions are all linear still answers past the cap
    poly = _materialize_poly(_normalize_poly([-1, 1], F9), R, 6)
    assert [digits for digits, _, _ in _ball_search(poly, 3)] == [(F9.one(), F9.zero(), F9.zero())]


_CHECKS_SCRIPT = """
import os
from fractions import Fraction

from ramlift import homlift as h
from ramlift.dvr import make_dvr, project, residue_ring
from ramlift.errors import PrecisionTooLow, RamliftError
from ramlift.resfield import _squarefree_part, embeddings, identity_embedding, make_field

F3 = make_field(3, 1)
F9 = make_field(3, 2)
R = make_dvr(F3, [-3, 0, 1])
ident = identity_embedding(F3)
shallow = h.DvrHom(R, R, ident, R.uniformizer(1), (1, 1))
phi = h.residue_hom(residue_ring(R, 3), residue_ring(R, 3), ident, project(R.uniformizer(3), 3))
# beta = 1 is no root of x^2 - 3 mod m^3; built directly, past residue_hom's check
unit_beta = h.ResidueHom(residue_ring(R, 3), residue_ring(R, 3), ident, residue_ring(R, 3).one())
# Z3 -> Z3[sqrt 3], beta = 3: with e1 = 1 the ball beta[:1] + m is m itself,
# which also holds elements of valuation 1, not e2/e1 = 2
flat = make_dvr(F3, [-3, 1])
from_flat = h.residue_hom(residue_ring(flat, 2), residue_ring(R, 4), ident, project(R.from_int(3, 4), 4))
pi = R.uniformizer(8)


def lift_finding(hom, *elems):
    # the root search of beta's ball hands back these roots
    searched = h._roots
    h._roots = lambda *args, **kwargs: [h.CertifiedRoot(x, 8, 1) for x in elems]
    try:
        h.lift_hom(hom)
    finally:
        h._roots = searched


def never_decided():
    # a root search that never decides: has_root stops at its ceiling B
    def undecided(*args, **kwargs):
        raise PrecisionTooLow("no depth separates the ball 0 + m^0")

    searched, h._roots = h._roots, undecided
    try:
        h.has_root(R, [-3, 0, 1])
    finally:
        h._roots = searched


def past_the_cap(run):
    # roots of degree >= 2 are looked for among the q elements, past a cap of 2
    os.environ["RAMLIFT_ENUM_CAP"] = "2"
    try:
        run()
    finally:
        del os.environ["RAMLIFT_ENUM_CAP"]


cases = {
    "same_hom": lambda: h.same_hom(shallow, shallow),
    # beta's Krasner ball 1 + m^2 holds no root
    "lift_hom_unit_beta": lambda: h.lift_hom(unit_beta),
    "lift_hom_no_root": lambda: lift_finding(phi),
    # pi and pi + pi^7 both lie in beta's ball pi + m^2
    "lift_hom_two_roots": lambda: lift_finding(phi, pi, pi + pi ** 7),
    # -pi has the digits 0, 2, outside beta's ball 0, 1
    "lift_hom_outside_ball": lambda: lift_finding(phi, -pi),
    # pi lies in the ball 0 + m of beta = 3, but its valuation is 1
    "lift_hom_valuation": lambda: lift_finding(from_flat, pi),
    "_squarefree_part": lambda: _squarefree_part([Fraction(1, 4), -1, 1]),
    "has_root": lambda: h.has_root(R, [1, 0, 2]),
    "has_root_past_the_ceiling": never_decided,
    "_certify_at": lambda: h._certify_at(h._normalize_poly([-3, 0, 1], F3), R, R.one(4)),
    # (x^2 - 3)^2: the double roots pi and -pi never separate
    "roots_in_dvr": lambda: h.roots_in_dvr([9, 0, -6, 0, 1], R, 4),
    # x^2 - 3 reduces to x^2 at the first ball
    "_ball_search": lambda: past_the_cap(lambda: h.roots_in_dvr([-3, 0, 1], R, 4)),
    # the automorphisms of F9 are the roots of its quadratic defining polynomial
    "embeddings": lambda: past_the_cap(lambda: embeddings(F9, F9)),
    # an embedding F3 -> F9 cannot map f into a ring over F3
    "_materialize_poly": lambda: h._materialize_poly((R.coeffs, embeddings(F3, F9)[0]), R, 4),
    # root finding to depth 2 from a ball of radius 2
    "_ball_search_refine_start": lambda: list(h._ball_search(
        h._materialize_poly(h._normalize_poly([-3, 0, 1], F3), R, 8), 2, (F3.zero(),) * 2, True)),
}
for name, run in cases.items():
    try:
        run()
    except RamliftError as exc:
        print(name, type(exc).__name__)
    else:
        print(name, "-")
"""


def test_correctness_checks_survive_python_O():
    import os
    import subprocess
    import sys

    import ramlift

    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(ramlift.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _CHECKS_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert dict(line.split() for line in proc.stdout.splitlines()) == {
        "same_hom": "PrecisionTooLow",
        "lift_hom_unit_beta": "NoRoot",
        "lift_hom_no_root": "NoRoot",
        "lift_hom_two_roots": "MultipleRoots",
        "lift_hom_outside_ball": "InconsistentResult",
        "lift_hom_valuation": "InconsistentResult",
        "_squarefree_part": "InconsistentResult",
        "has_root": "NotMonic",
        "has_root_past_the_ceiling": "InconsistentResult",
        "_certify_at": "InconsistentResult",
        "roots_in_dvr": "PrecisionTooLow",
        "_ball_search": "TooLarge",
        "embeddings": "TooLarge",
        "_materialize_poly": "RingMismatch",
        "_ball_search_refine_start": "InvalidArgument",
    }
