"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime against the stated budget.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion report."""

import itertools
import random
import time
from fractions import Fraction

from oracles import (
    element,
    exhaustive_homs_as_tables,
    from_witt,
    hom_as_table,
    krasner_bound_of_uniformizer,
)
from ramlift.dvr import (
    enumerate_elements,
    from_pi_digits,
    make_dvr,
    pi_digits,
    project,
    residue_ring,
)
from ramlift.homlift import (
    compose_homs,
    dvr_isos,
    enumerate_homs,
    enumerate_isos,
    has_root,
    hom_inverse,
    lift_hom,
    project_hom,
    residue_hom,
    same_hom,
)
from ramlift.ramification import (
    different_val,
    discriminant_val,
    generic_bounds,
    krasner_bound,
    lift_precision_bound,
    nu_of_e,
)
from ramlift.resfield import frobenius, identity_embedding, make_field, pth_root
from ramlift.witt import from_digits, make_witt, teich_digits, teichmuller

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F9 = make_field(3, 2, [1, 0, 1])

Z3_SQRT3 = make_dvr(F3, [-3, 0, 1])
Z3_SQRTM3 = make_dvr(F3, [3, 0, 1])
Z3_SQRT12 = make_dvr(F3, [-12, 0, 1])
Z2_SQRT2 = make_dvr(F2, [-2, 0, 1])
Z2_SQRT10 = make_dvr(F2, [-10, 0, 1])
Z2_SQRT18 = make_dvr(F2, [-18, 0, 1])
Z3_CBRT3 = make_dvr(F3, [-3, 0, 0, 1])


def _report(number: int, budget: float, started: float, detail: str):
    elapsed = time.perf_counter() - started
    print(f"[acceptance] criterion {number}: PASS in {elapsed:.2f}s (budget {budget}s) -- {detail}", flush=True)
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.2f}s)"


def _random_eisenstein(rng, p, e, spread=4):
    c0 = p * rng.choice([c for c in range(1, p * spread) if c % p])
    return [c0] + [p * rng.randrange(spread) for _ in range(e - 1)] + [1]


def test_criterion_1_krasner_bounds():
    t0 = time.perf_counter()
    m1 = krasner_bound(Z3_SQRT3)
    assert m1 == Fraction(1, 2)
    assert time.perf_counter() - t0 < 1.0
    t1 = time.perf_counter()
    m2 = krasner_bound(Z3_CBRT3)
    assert m2 == Fraction(5, 6)
    assert time.perf_counter() - t1 < 1.0
    _report(1, 1.0, t0, f"M={m1}, M={m2} exact")


def test_criterion_2_bound_sharpness_tame_pair():
    t0 = time.perf_counter()
    isos = enumerate_isos(residue_ring(Z3_SQRT3, 2), residue_ring(Z3_SQRTM3, 2))
    assert len(isos) == 2
    canonical = project(Z3_SQRTM3.uniformizer(2), 2)
    assert any(h.beta == canonical for h in isos)
    homs3 = enumerate_homs(residue_ring(Z3_SQRT3, 3), residue_ring(Z3_SQRTM3, 3))
    assert homs3 == []
    _report(2, 5.0, t0, "Iso count 2 at n=2 (canonical rule included), Hom empty at n=3")


def test_criterion_3_bound_sharpness_wild_pair():
    t0 = time.perf_counter()
    isos = enumerate_isos(residue_ring(Z2_SQRT2, 6), residue_ring(Z2_SQRT10, 6))
    assert len(isos) > 0
    homs7 = enumerate_homs(residue_ring(Z2_SQRT2, 7), residue_ring(Z2_SQRT10, 7))
    assert homs7 == []
    res = has_root(Z2_SQRT10, [-2, 0, 1])
    assert res.kind == "no"
    _report(3, 30.0, t0, f"{len(isos)} isos at n=6, Hom empty at n=7, x^2-2 rootless")


def test_criterion_4_lifting_correctness():
    t0 = time.perf_counter()
    src = residue_ring(Z3_SQRT3, 4)
    autos = enumerate_isos(src, src)
    lifts = [lift_hom(phi) for phi in autos]
    assert len(lifts) == len(autos)
    ring_autos = dvr_isos(Z3_SQRT3, Z3_SQRT3)
    for g in ring_autos:
        assert same_hom(lift_hom(project_hom(g, 4, 4)), g)
    # the unit-twist automorphism x -> (1+3)x
    beta = project(Z3_SQRT3.from_int(4, 4) * Z3_SQRT3.uniformizer(4), 4)
    twist = residue_hom(src, src, identity_embedding(F3), beta)
    g = lift_hom(twist)
    assert g.is_identity()
    assert project_hom(g, 4, 4) != twist
    _report(4, 5.0, t0, f"{len(autos)} automorphisms lifted, section holds, twist lifts to id")


def test_criterion_5_functoriality():
    t0 = time.perf_counter()
    src = residue_ring(Z3_SQRT3, 4)
    isos = enumerate_isos(src, src)
    lift_table = {phi: lift_hom(phi) for phi in isos}
    rng = random.Random(2024)
    pairs = 0
    for _ in range(100):
        p1, p2 = rng.choice(isos), rng.choice(isos)
        lhs = lift_hom(compose_homs(p2, p1))
        rhs = compose_homs(lift_table[p2], lift_table[p1])
        assert same_hom(lhs, rhs)
        pairs += 1
    # group-homomorphism restriction: surjective onto Iso(R) with section
    ring_autos = dvr_isos(Z3_SQRT3, Z3_SQRT3)
    for auto in ring_autos:
        assert any(same_hom(auto, g) for g in lift_table.values())
        assert same_hom(lift_hom(project_hom(auto, 4, 4)), auto)
    _report(5, 30.0, t0, f"{pairs} random composable pairs, surjectivity and section checked")


def test_criterion_6_ramification_calculus():
    t0 = time.perf_counter()
    rng = random.Random(99)
    cells = 0
    for p, e in [(3, 2), (5, 2), (5, 4)]:
        k = make_field(p, 1)
        for _ in range(5):
            spec = make_dvr(k, _random_eisenstein(rng, p, e))
            s = different_val(spec)
            assert s == e - 1
            assert discriminant_val(spec) == s  # resultant cross-check inside
            cells += 1
    for p, e in [(2, 2), (3, 3)]:
        k = make_field(p, 1)
        for _ in range(5):
            spec = make_dvr(k, _random_eisenstein(rng, p, e))
            s = different_val(spec)
            assert e <= s <= e - 1 + nu_of_e(p, e)
            assert discriminant_val(spec) == s
            cells += 1
    _report(6, 30.0, t0, f"{cells} random Eisenstein polynomials across 5 cells")


def test_criterion_7_length_e_rings_isomorphic():
    t0 = time.perf_counter()
    rng = random.Random(7)
    checked = 0
    for p, e in [(3, 2), (2, 2), (3, 3)]:
        k = make_field(p, 1)
        for _ in range(5):
            R1 = make_dvr(k, _random_eisenstein(rng, p, e))
            R2 = make_dvr(k, _random_eisenstein(rng, p, e))
            isos = [
                h
                for h in enumerate_isos(residue_ring(R1, e), residue_ring(R2, e))
                if h.psi.is_identity()
            ]
            assert isos, f"no W(k)-algebra isomorphism at length e for {p},{e}"
            checked += 1
    _report(7, 60.0, t0, f"{checked} random pairs, all length-e residue rings isomorphic")


def test_criterion_8_bound_tables():
    t0 = time.perf_counter()
    assert generic_bounds(2, 2)["upper"] == 7
    for p, e in [(3, 2), (5, 2), (5, 4), (7, 3)]:
        assert generic_bounds(p, e)["tame_exact"] == e + 1
    assert generic_bounds(5, 1)["lower"] == 1
    assert lift_precision_bound(Z3_SQRT3, 2) == 3
    assert lift_precision_bound(Z2_SQRT2, 2) == 7
    assert lift_precision_bound(Z3_CBRT3, 3) == 8
    _report(8, 1.0, t0, "generic bounds and named thresholds 3/7/8 exact")


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    cases = {}

    # Teichmuller multiplicativity and p-th-power compatibility (exhaustive,
    # residue fields up to q = 9)
    count = 0
    for ring in (make_witt(F3, 4), make_witt(F2, 5), make_witt(F9, 3), make_witt(make_field(2, 2), 3)):
        for a, b in itertools.product(ring.k.elements(), repeat=2):
            assert teichmuller(a * b, ring) == teichmuller(a, ring) * teichmuller(b, ring)
            count += 1
        for a in ring.k.elements():
            assert teichmuller(frobenius(a), ring) == teichmuller(a, ring) ** ring.p
            assert teichmuller(pth_root(a), ring) ** ring.p == teichmuller(a, ring)
    cases["teichmuller"] = count

    # digit roundtrips in witt and dvr
    rng = random.Random(41)
    count = 0
    for ring in (make_witt(F3, 5), make_witt(F9, 3), make_witt(F2, 6)):
        for _ in range(70):
            x = ring.from_coeffs([rng.randrange(ring.modulus) for _ in range(ring.d)])
            assert from_digits(teich_digits(x), ring) == x
            count += 1
    cases["witt_roundtrip"] = count
    count = 0
    for spec, n in [(Z3_SQRT3, 6), (Z2_SQRT10, 8), (Z3_CBRT3, 6), (make_dvr(F9, [[-3, 0], [0, 0], 1]), 4)]:
        mod = spec.p ** spec.coeff_precision(n)
        for _ in range(50):
            x = element(
                spec, [[rng.randrange(mod) for _ in range(spec.d)] for _ in range(spec.e)], n
            )
            assert from_pi_digits(pi_digits(x, n), spec, n) == x
            count += 1
    cases["dvr_roundtrip"] = count

    # valuation axioms
    count = 0
    for _ in range(200):
        n = 8
        mod = Z3_SQRT3.p ** Z3_SQRT3.coeff_precision(n)
        x = element(Z3_SQRT3, [[rng.randrange(mod)], [rng.randrange(mod)]], n)
        y = element(Z3_SQRT3, [[rng.randrange(mod)], [rng.randrange(mod)]], n)
        vx, vy = x.valuation(), y.valuation()
        vp = (x * y).valuation()
        if vx.exact and vy.exact and (vx.value + vy.value) < (x * y).n:
            assert vp.exact and vp.value == vx.value + vy.value
        vs = (x + y).valuation()
        assert (not vs.exact) or vs.value >= min(vx.value, vy.value)
        count += 1
    cases["valuation"] = count

    # uniformizer invariance of M
    count = 0
    for spec in (Z3_SQRT3, Z2_SQRT2, Z3_CBRT3, Z2_SQRT10):
        m = krasner_bound(spec)
        n = 6 * spec.e
        pi = spec.uniformizer(n)
        nonzero = [a for a in spec.k.elements() if not a.is_zero()]
        wspec = spec.wspec(n)
        for _ in range(50):
            unit = from_witt(spec, teichmuller(rng.choice(nonzero), wspec), n)
            mod = spec.p ** spec.coeff_precision(n)
            tail = element(spec, [[rng.randrange(mod)] for _ in range(spec.e)], n)
            assert krasner_bound_of_uniformizer(unit * pi + pi * pi * tail) == m
            count += 1
    cases["uniformizer_invariance"] = count

    # kernel lemma on small rings (exhaustive over enumerated homs)
    count = 0
    for src, tgt in [
        (residue_ring(Z3_SQRT3, 4), residue_ring(Z3_SQRT3, 3)),
        (residue_ring(Z2_SQRT2, 6), residue_ring(Z2_SQRT2, 4)),
        (residue_ring(make_dvr(F3, [-3, 1]), 3), residue_ring(Z3_SQRT3, 4)),
    ]:
        e1, e2, n2 = src.ring.e, tgt.ring.e, tgt.n
        for phi in enumerate_homs(src, tgt):
            ker = [x for x in enumerate_elements(phi.source) if phi.apply(x).is_zero()]
            mv = min(x.val_units() for x in ker)
            assert set(ker) == {
                x for x in enumerate_elements(phi.source) if x.val_units() >= mv
            }
            if n2 > e2:
                assert mv * e2 >= n2 * e1
            count += 1
    cases["kernel"] = count

    # Teichmuller preservation by homomorphisms (exhaustive, q <= 9, n <= 4)
    count = 0
    W9 = make_dvr(F9, [[-3, 0], [0, 0], 1])
    for src, tgt in [
        (residue_ring(Z3_SQRT3, 2), residue_ring(Z3_SQRTM3, 2)),
        (residue_ring(Z3_SQRT3, 4), residue_ring(Z3_SQRT3, 4)),
        (residue_ring(Z2_SQRT2, 4), residue_ring(Z2_SQRT2, 4)),
        (residue_ring(W9, 2), residue_ring(W9, 2)),
    ]:
        wsrc, wtgt = src.ring.wspec(src.n), tgt.ring.wspec(tgt.n)
        teich_set = {
            project(from_witt(tgt.ring, teichmuller(mu, wtgt), tgt.n), tgt.n)
            for mu in tgt.ring.k.elements()
        }
        for phi in enumerate_homs(src, tgt):
            for lam in src.ring.k.elements():
                pure = project(from_witt(src.ring, teichmuller(lam, wsrc), src.n), src.n)
                assert phi.apply(pure) in teich_set
                count += 1
    cases["teich_preservation"] = count

    # brute-force oracle equivalence on rings with <= 100 elements
    count = 0
    for src, tgt in [
        (residue_ring(Z3_SQRT3, 2), residue_ring(Z3_SQRTM3, 2)),
        (residue_ring(Z2_SQRT2, 3), residue_ring(Z2_SQRT10, 3)),
        (residue_ring(make_dvr(F3, [-3, 1]), 2), residue_ring(Z3_SQRT3, 4)),
        (residue_ring(Z3_SQRT3, 3), residue_ring(Z3_SQRT3, 3)),
        (residue_ring(W9, 2), residue_ring(W9, 2)),
    ]:
        expected, s_elems, t_elems = exhaustive_homs_as_tables(src, tgt)
        t_index = {x: i for i, x in enumerate(t_elems)}
        got = sorted({hom_as_table(h, s_elems, t_index) for h in enumerate_homs(src, tgt)})
        assert got == list(expected)
        count += 1
    cases["oracle_equivalence"] = count

    detail = ", ".join(f"{k}={v}" for k, v in cases.items())
    _report(9, 300.0, t0, detail)


def test_criterion_10_uniqueness_at_desk_scale():
    t0 = time.perf_counter()
    # non-isomorphic pairs: no residue-ring isomorphism at or above threshold
    tame_n0 = 2 + 2 * nu_of_e(3, 2) + 1  # 3
    wild_n0 = 2 + 2 * nu_of_e(2, 2) + 1  # 7
    for n in (tame_n0, tame_n0 + 1):
        assert enumerate_isos(residue_ring(Z3_SQRT3, n), residue_ring(Z3_SQRTM3, n)) == []
    assert enumerate_isos(residue_ring(Z2_SQRT2, wild_n0), residue_ring(Z2_SQRT10, wild_n0)) == []
    # isomorphic pairs (same ring in two presentations): the residue-ring
    # isomorphisms exist and every one of them lifts to a ring isomorphism
    lifted = 0
    for R1, R2, n0 in [
        (Z3_SQRT3, Z3_SQRT12, tame_n0),
        (Z2_SQRT2, Z2_SQRT18, wild_n0),
        (Z3_SQRT3, Z3_SQRT3, tame_n0),
        (Z2_SQRT10, Z2_SQRT10, wild_n0),
    ]:
        isos = enumerate_isos(residue_ring(R1, n0), residue_ring(R2, n0))
        assert isos, f"expected residue isomorphisms for {R1} ~ {R2} at n={n0}"
        for phi in isos:
            g = lift_hom(phi)
            inv = hom_inverse(g)
            assert compose_homs(inv, g).is_identity()
            assert compose_homs(g, inv).is_identity()
            lifted += 1
    _report(10, 60.0, t0, f"non-isomorphic pairs have empty Iso; {lifted} isomorphisms lifted with inverses")
