"""Homomorphisms between finite residue rings and their certified lifts.

A homomorphism R_{1,n1} -> R_{2,n2} is stored as a residue-field embedding
psi together with the image beta of the uniformizer class: under the
presentation W(k1)[x]/(f, x^n1) those two values determine the map, and the
exhaustive-function oracle in the test suite guards this structural
shortcut.  The admissible betas are the truncated roots of F = f^psi: F(beta)
= 0 mod m2^n2 and beta^n1 = 0.  Applying a homomorphism (residue or lifted)
reads no digits: each x^j coefficient block of the argument's flat vector
goes through the linear map W(psi) (witt.WittMap), and Horner's rule sums
the images against the powers of beta.

One digit search serves both enumeration and lifting.  It grows pi-adic
Teichmuller digit vectors level by level, in lexicographic order:

- a prefix of length L survives only while F(prefix) = 0 mod m^L, since a
  root mod m^n forces this at every level L <= n;
- beta^n1 = 0 mod m^n2 holds exactly when the first ceil(n2/n1) digits
  vanish, so enumeration fixes that zero prefix;
- for L >= 2, F(x + u pi^(L-1)) = F(x) + F'(x) u pi^(L-1) mod m^L.  Whether
  F'(x) lies in m depends only on the first digit; when it does, all q
  children of a branch pass or fail together on the value F(x) already
  known, and leaves need no element at all.  This is always the case for
  homomorphisms with e1 >= 2.  Otherwise F'(x) is a unit and the one digit
  that can pass is solved for (a Hensel step), so one child is evaluated.

Enumeration takes the surviving vectors at depth n2 as the betas.  Lifting
runs the search at a certification depth t.  One rule, _certify, accepts a
survivor or a composed image x exactly when nu(F(x)) >= t + nu(F'(x)) with
t > nu(F'(x)), which pins a unique root agreeing with x to depth t; one
loop, _escalate, doubles the working margin while a readout is capped, up
to 4*(t + ESCALATION_CAP).  The unique accepted root within Krasner
distance of beta is the lift.

All polynomial evaluation (search nodes, certification, beta admissibility)
runs on the flat vectors of one dvr context: F and the coefficients j*a_j of
F' are materialized once per precision, _horner evaluates either, and
_raw_val reads the valuations.  No DvrElem is built per node.  Each Horner
result ends at the working precision because its last step adds a
coefficient known to that precision, so the readouts equal those of DvrElem
arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .dvr import (
    _add,
    _canon,
    _Context,
    _context,
    _digit_at,
    _lift,
    _mul,
    _raw_val,
    DvrElem,
    DvrSpec,
    ExactWittCoeff,
    GUARD_DIGITS,
    ResidueElt,
    ResidueRingSpec,
    dvr_elem_text,
    enumeration_cap,
    from_pi_digits,
    parse_coeff,
    pi_digits,
    project,
    project_between,
    residue_ring,
    ring_spec_to_json,
)
from .errors import (
    IncompatibleLengths,
    InconsistentResult,
    InsufficientPrecision,
    MultipleRoots,
    NoRoot,
    NotComposable,
    NotMonic,
    PrecisionTooLow,
    PreconditionBound,
    RingMismatch,
    TooLarge,
)
from .ramification import (
    deriv_val_at_uniformizer,
    different_val,
    krasner_bound,
    lift_precision_bound,
    nu_of_e,
)
from .record import Record, set_field
from .resfield import FieldEmbedding, FqElem, embeddings
from .witt import WittMap

ESCALATION_CAP = 64  # nu-units: caps has_root's depth, and the margin at 4*(t + cap)


# ---------------------------------------------------------------------------
# polynomial coefficients that can be materialized at any precision


class MappedCoeff(Record):
    """The image under W(psi) of an exactly known W(k1) coefficient; exact at
    every precision because W(psi) commutes with reduction mod p^M."""

    _fields = ("coeff", "psi")

    def __init__(self, coeff: ExactWittCoeff, psi: FieldEmbedding):
        set_field(self, "coeff", coeff)
        set_field(self, "psi", psi)

    def p_val(self):
        # W(psi) preserves p-adic valuations: the first nonzero digit maps to
        # a nonzero digit
        return self.coeff.p_val()

    def materialize(self, wspec):
        return _mapped_materialize(self.coeff, self.psi, wspec)


_witt_map = lru_cache(maxsize=1024)(WittMap)  # one W(psi) per (psi, M)


@lru_cache(maxsize=8192)
def _mapped_materialize(coeff: ExactWittCoeff, psi: FieldEmbedding, wspec):
    w_psi = _witt_map(psi, wspec.M)
    if w_psi.target != wspec:
        raise RingMismatch("the embedding does not map into this coefficient ring")
    return w_psi(coeff.materialize(w_psi.source))


def _normalize_poly(F, k) -> tuple:
    """Coefficient list (MappedCoeff or anything dvr.parse_coeff reads) into
    the tuple of providers a_0..a_{deg-1}; a trailing integer 1 is the
    implied monic lead, so [1] is the constant 1 and gives no providers."""
    entries = list(F)
    if entries and isinstance(entries[-1], int) and entries[-1] == 1:
        entries = entries[:-1]
    return tuple(c if isinstance(c, MappedCoeff) else parse_coeff(k, c) for c in entries)


class _Poly:
    """A monic F = x^deg + a_{deg-1} x^(deg-1) + ... + a_0 materialized as
    flat vectors of one context: f lists a_0, ..., a_{deg-1}, and df the
    coefficients 1*a_1, ..., (deg-1)*a_{deg-1} of F' below its lead deg."""

    __slots__ = ("ctx", "f", "df")

    def __init__(self, ctx: _Context, f: tuple, df: tuple):
        self.ctx, self.f, self.df = ctx, f, df

    def value(self, x) -> tuple:
        return _horner(self.ctx, self.f, x)

    def deriv(self, x) -> tuple:
        return _horner(self.ctx, self.df, x, len(self.f))


@lru_cache(maxsize=1024)
def _materialize_poly(providers: tuple, R: DvrSpec, n: int) -> _Poly:
    ctx = _context(R, n)
    f = tuple(R.from_witt(c.materialize(ctx.wspec), n).v for c in providers)
    mod = ctx.mod
    df = tuple(tuple([j * c % mod for c in f[j]]) for j in range(1, len(f)))
    return _Poly(ctx, f, df)


def _horner(ctx, coeffs, x, lead: int = 1) -> tuple:
    """lead*x^m + coeffs[m-1]*x^(m-1) + ... + coeffs[0] at x, m = len(coeffs),
    by Horner's rule on flat vectors of ctx."""
    if not coeffs:
        return (lead % ctx.mod,) + (0,) * (ctx.size - 1)
    acc = x if lead == 1 else tuple([lead * c for c in x])
    acc = _add(ctx, acc, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = _add(ctx, _mul(ctx, acc, x), c)
    return acc


# ---------------------------------------------------------------------------
# certified roots by digit DFS


class CertifiedRoot(Record):
    """A root approximation exact mod m^t: the acceptance inequality
    nu(F(x)) >= t + deriv_val forces a unique exact root in that ball."""

    _fields = ("elem", "t", "deriv_val")

    def __init__(self, elem: DvrElem, t: int, deriv_val: int):
        set_field(self, "elem", elem)
        set_field(self, "t", t)
        set_field(self, "deriv_val", deriv_val)


class _NeedMargin(Exception):
    pass


def roots_in_dvr(F, R: DvrSpec, prec: int):
    """All roots of the monic polynomial F in R, refined to depth >= prec and
    carrying Hensel-style certificates.

    Raises PrecisionTooLow when a surviving branch can be neither certified
    nor excluded at the working precision cap (multiple roots, or prec too
    small to separate).
    """
    if prec < 1:
        raise ValueError("prec must be >= 1")
    providers = _normalize_poly(F, R.k)
    if not providers:
        raise ValueError("polynomial must have degree >= 1")

    def search(poly):
        certs = (_certify(poly, digits, prec) for digits in _digit_dfs(poly, prec))
        return [c for c in certs if c is not None]

    return _escalate(providers, R, prec, search)


def _escalate(providers, R: DvrSpec, t: int, search):
    """search(F materialized at t + margin), doubling the margin while the
    search raises _NeedMargin, up to 4*(t + ESCALATION_CAP)."""
    vals = [c.p_val() for c in providers]
    margin = deriv_val_at_uniformizer(vals, R.e, R.p) + R.e * GUARD_DIGITS + 2
    while True:
        try:
            return search(_materialize_poly(providers, R, t + margin))
        except _NeedMargin:
            margin *= 2
            if margin > 4 * (t + ESCALATION_CAP):
                raise PrecisionTooLow(f"cannot certify or exclude a root branch at depth {t}")


def _certify(poly: _Poly, digits, t: int) -> CertifiedRoot | None:
    """The acceptance test on the branch x with these t digits: certified
    when nu(F(x)) >= t + nu(F'(x)) with t > nu(F'(x)); None when the readout
    of F(x) is exact below that line, so no root agrees with x to depth t.
    Raises _NeedMargin when the working precision cannot tell, and
    PrecisionTooLow when t does not exceed nu(F'(x))."""
    ctx = poly.ctx
    x = _lift(ctx, digits)
    delta, exact = _raw_val(ctx, poly.deriv(x), ctx.n)
    if not exact:
        raise _NeedMargin
    fv, exact = _raw_val(ctx, poly.value(x), ctx.n)
    if fv < t + delta:
        if exact:
            return None
        raise _NeedMargin  # readout capped below the acceptance line
    if t <= delta:
        raise PrecisionTooLow(
            f"depth {t} does not separate a root with derivative valuation {delta}"
        )
    return CertifiedRoot(from_pi_digits(digits, ctx.ring, t), t, delta)


def _digit_dfs(poly: _Poly, depth: int, zero_prefix: int = 0):
    """Digit vectors (a_0, ..., a_{depth-1}) in lexicographic order whose
    Teichmuller sum x satisfies F(x) = 0 mod m^depth and whose first
    zero_prefix digits vanish; F is the monic poly, materialized at a
    precision n_eval >= depth.

    A prefix of length L survives only while F(prefix) = 0 mod m^L.  For
    L >= 2, write F(x) = pi^(L-1) c; then F(x + u pi^(L-1)) = pi^(L-1)
    (c + F'(x) u) mod m^L.  Whether F'(x) lies in m depends on the first
    digit alone.  When it does, the q children of a branch all pass or all
    fail with the value F(x) already known.  Otherwise F'(x) is a unit and
    only the digit -c/F'(x) mod m can pass (Hensel); that one child is
    evaluated.  Nodes are flat vectors; a child adds the table vector
    teichmuller(a) pi^(L-1) to its parent.
    """
    ctx = poly.ctx
    k = ctx.ring.k
    cap = enumeration_cap()
    if k.q > cap:
        raise TooLarge(f"{k.q} digits per level exceed the enumeration cap {cap}")
    field_elems = sorted(k.elements(), key=lambda a: a.coeffs)
    zero = k.zero()
    # first digit's coordinates -> -1/(residue of F'(x)), or None when F'(x)
    # lies in m
    neg_deriv_inv = {}
    branches = [((), (0,) * ctx.size, None)]  # (digits, x, F(x))
    for level in range(1, depth + 1):
        leaf = level == depth
        free = level > zero_prefix
        allowed = field_elems if free else (zero,)
        terms = ctx.terms[level - 1]

        def child(x, a):
            return _add(ctx, x, terms[a.coeffs]) if any(a.coeffs) else x

        nxt = []
        for digits, x, fx in branches:
            if level >= 2 and neg_deriv_inv[digits[0].coeffs] is None:
                if _raw_val(ctx, fx, level)[1]:
                    continue
                for a in allowed:
                    if leaf:
                        nxt.append((digits + (a,), None, None))
                    else:
                        c = child(x, a)
                        nxt.append((digits + (a,), c, poly.value(c)))
                continue
            candidates = allowed
            if level >= 2:  # Hensel step: c is digit L-1 of F(x)
                a = _digit_at(ctx, fx, level - 1) * neg_deriv_inv[digits[0].coeffs]
                candidates = (a,) if free or a.is_zero() else ()
            for a in candidates:
                c = child(x, a)
                fc = poly.value(c)
                if _raw_val(ctx, fc, level)[1]:
                    continue
                if level == 1:
                    dv = poly.deriv(c)
                    unit = _raw_val(ctx, dv, 1)[1]
                    neg_deriv_inv[a.coeffs] = -(FqElem(k, dv[:ctx.d]).inverse()) if unit else None
                nxt.append((digits + (a,), c, fc))
        branches = nxt
        if not branches:
            return []
    return [digits for digits, _, _ in branches]


# ---------------------------------------------------------------------------
# residue-ring homomorphisms


def _image(psi: FieldEmbedding, v, ctx: _Context, beta) -> tuple:
    """The image of the source flat vector v under the homomorphism (psi,
    beta), as a flat vector of the target context ctx: sum_j W(psi)(c_j)
    beta^j over the x^j coefficient blocks c_j of v, by Horner's rule.  Any
    representatives of v and of the flat vector beta give the image to the
    precision the homomorphism is defined to."""
    w_psi = _witt_map(psi, ctx.M)
    d1 = w_psi.source.d
    pad = (0,) * (ctx.size - ctx.d)
    acc = (0,) * ctx.size
    for j in range(len(v) // d1 - 1, -1, -1):
        if any(acc):
            acc = _mul(ctx, acc, beta)
        acc = _add(ctx, acc, w_psi.map_coords(v[j * d1:(j + 1) * d1]) + pad)
    return acc


class ResidueHom(Record):
    """Homomorphism R_{1,n1} -> R_{2,n2} as (psi, beta)."""

    _fields = ("source", "target", "psi", "beta")

    def __init__(
        self, source: ResidueRingSpec, target: ResidueRingSpec, psi: FieldEmbedding, beta: ResidueElt
    ):
        set_field(self, "source", source)
        set_field(self, "target", target)
        set_field(self, "psi", psi)
        set_field(self, "beta", beta)

    def apply(self, x: ResidueElt) -> ResidueElt:
        if x.rspec != self.source:
            raise NotComposable("element not in the source ring")
        ctx = self.target._ctx
        return ResidueElt(self.target, None, _canon(ctx, _image(self.psi, x.v, ctx, self.beta.v)))

    def is_identity(self) -> bool:
        return (
            self.source == self.target
            and self.psi.is_identity()
            and self.beta == project(self.source.ring.uniformizer(self.source.n), self.source.n)
        )

    def to_json(self) -> dict:
        return {
            "psi": {"image_of_generator": list(self.psi.image_of_generator.coeffs)},
            "beta": self.beta.text(),
            "source": {**ring_spec_to_json(self.source.ring), "n": self.source.n},
            "target": {**ring_spec_to_json(self.target.ring), "n": self.target.n},
        }


def residue_hom(
    source: ResidueRingSpec, target: ResidueRingSpec, psi: FieldEmbedding, beta: ResidueElt
) -> ResidueHom:
    """Validate (psi, beta) and build the homomorphism: the mapped Eisenstein
    polynomial must kill beta and beta^n1 must vanish."""
    if psi.source != source.ring.k or psi.target != target.ring.k:
        raise ValueError("embedding endpoints do not match the ring pair")
    if beta.rspec != target:
        raise ValueError("beta does not live in the target ring")
    if not _beta_admissible(source, target, psi, beta):
        raise ValueError("(psi, beta) does not define a homomorphism")
    return ResidueHom(source, target, psi, beta)


def _beta_admissible(source, target, psi, beta) -> bool:
    n1, n2 = source.n, target.n
    if beta.val_units() * n1 < n2:
        return False  # beta^n1 must vanish mod m2^n2
    providers = tuple(MappedCoeff(c, psi) for c in source.ring.coeffs)
    poly = _materialize_poly(providers, target.ring, n2)
    value = poly.value(beta.v)
    return not _raw_val(poly.ctx, value, n2)[1]  # f1^psi(beta) = 0 mod m2^n2


def enumerate_homs(src: ResidueRingSpec, tgt: ResidueRingSpec):
    """All homomorphisms src -> tgt in deterministic order: embeddings by
    image of the generator, beta by digit-vector lexicographic order."""
    tgt.check_size("target elements")
    # beta^n1 = 0 mod m^n2 exactly when the first ceil(n2/n1) digits vanish
    zero_prefix = -(-tgt.n // src.n)
    out = []
    for psi in embeddings(src.ring.k, tgt.ring.k):
        providers = tuple(MappedCoeff(c, psi) for c in src.ring.coeffs)
        poly = _materialize_poly(providers, tgt.ring, tgt.n)
        for digits in _digit_dfs(poly, tgt.n, zero_prefix):
            out.append(ResidueHom(src, tgt, psi, ResidueElt(tgt, digits)))
    return out


def enumerate_isos(src: ResidueRingSpec, tgt: ResidueRingSpec):
    """Bijective homomorphisms: psi bijective, beta of valuation one, equal
    cardinalities."""
    # with equal d, q1^n1 = q2^n2 exactly when q1 = q2 and n1 = n2
    if src.ring.d != tgt.ring.d or (src.ring.q, src.n) != (tgt.ring.q, tgt.n):
        return []
    return [h for h in enumerate_homs(src, tgt) if h.beta.val_units() == 1]


# ---------------------------------------------------------------------------
# lifted homomorphisms


class DvrHom(Record):
    """Homomorphism R1 -> R2: psi plus the certified image of the uniformizer."""

    _fields = ("source", "target", "psi", "rho", "certificate")

    def __init__(
        self, source: DvrSpec, target: DvrSpec, psi: FieldEmbedding, rho: DvrElem, certificate: tuple
    ):
        # certificate: (t, deriv_val)
        set_field(self, "source", source)
        set_field(self, "target", target)
        set_field(self, "psi", psi)
        set_field(self, "rho", rho)
        set_field(self, "certificate", certificate)

    def apply(self, x: DvrElem) -> DvrElem:
        if x.ring != self.source:
            raise NotComposable("element not in the source ring")
        ctx = _context(self.target, min(x.n * self.target.e // self.source.e, self.rho.n))
        return DvrElem(ctx, _image(self.psi, x.v, ctx, self.rho.v))

    @property
    def t(self) -> int:
        return self.certificate[0]

    @property
    def deriv_val(self) -> int:
        return self.certificate[1]

    def is_identity(self) -> bool:
        if self.source != self.target or not self.psi.is_identity():
            return False
        pi = self.source.uniformizer(self.rho.n)
        return same_hom(self, DvrHom(self.source, self.target, self.psi, pi, self.certificate))

    def to_json(self) -> dict:
        return {
            "psi": {"image_of_generator": list(self.psi.image_of_generator.coeffs)},
            "rho": dvr_elem_text(self.rho),
            "certificate": {"t": self.t, "deriv_val": self.deriv_val},
            "source": ring_spec_to_json(self.source),
            "target": ring_spec_to_json(self.target),
        }


def same_hom(a: DvrHom, b: DvrHom) -> bool:
    """Equality of lifted homomorphisms: same embedding and the two certified
    uniformizer images approximate the same exact root."""
    if (a.source, a.target, a.psi) != (b.source, b.target, b.psi):
        return False
    depth = min(a.rho.n, b.rho.n)
    if depth <= max(a.deriv_val, b.deriv_val):
        raise PrecisionTooLow("certificates too shallow to compare")
    return pi_digits(a.rho, depth) == pi_digits(b.rho, depth)


def _nu_tilde_exceeds(x: DvrElem, bound: Fraction, e: int) -> bool:
    """Decide nu-tilde(x) > bound; an inexact readout is a valuation lower
    bound, so clearing the threshold is conclusive either way."""
    v = x.valuation()
    return Fraction(v.value, e) > bound


def select_unique_root(roots, beta: DvrElem, M1: Fraction, e2: int) -> CertifiedRoot:
    """The root within Krasner distance of beta: nu-tilde(rho - beta) > M(R1);
    exactly one exists above the precision bound."""
    matches, others = [], []
    for r in roots:
        if _nu_tilde_exceeds(r.elem - beta, M1, e2):
            matches.append(r)
        else:
            others.append(r)
    if not matches:
        raise NoRoot("no root within Krasner distance of beta: inconsistent input")
    if len(matches) > 1:
        raise MultipleRoots("several roots within Krasner distance: inconsistent input")
    for r in others:
        v = (r.elem - beta).valuation()
        if not (v.exact and Fraction(v.value, e2) <= M1):
            raise InconsistentResult("a root could not be placed outside Krasner distance")
    return matches[0]


def lift_hom(phi: ResidueHom, min_prec: int | None = None) -> DvrHom:
    """Lift a residue-ring homomorphism to the rings, by Krasner selection
    among the certified roots of the mapped Eisenstein polynomial.

    Requires n2 strictly above M(R1)*e1*e2; refuses lower lengths even when a
    lift happens to exist, because uniqueness is only guaranteed above the
    bound.  min_prec asks for extra certified digits on the image of the
    uniformizer.
    """
    R1, R2 = phi.source.ring, phi.target.ring
    n2 = phi.target.n
    bound = lift_precision_bound(R1, R2.e)
    if n2 < bound:
        raise PreconditionBound(f"requires n2 >= {bound}, got {n2}")
    if R2.e % R1.e != 0:
        raise IncompatibleLengths("target ramification must be a multiple of the source's")
    M1 = krasner_bound(R1)
    s1 = different_val(R1)
    prec = n2 + 2 * math.ceil(Fraction(R2.e * s1, R1.e)) + GUARD_DIGITS
    # the root must be certified beyond its valuation e2/e1 for the exact
    # readout checked below
    prec = max(prec, R2.e // R1.e + 1)
    if min_prec is not None:
        prec = max(prec, min_prec)
    providers = tuple(MappedCoeff(c, phi.psi) for c in R1.coeffs)
    roots = roots_in_dvr(providers, R2, prec)
    beta_lift = phi.target.lift(phi.beta)
    chosen = select_unique_root(roots, beta_lift, M1, R2.e)
    # the residue-field square commutes by construction; the image of the
    # uniformizer must again have the right valuation
    v = chosen.elem.valuation()
    if not (v.exact and v.value == R2.e // R1.e):
        raise InconsistentResult(f"image of the uniformizer has valuation {v}")
    return DvrHom(R1, R2, phi.psi, chosen.elem, (chosen.t, chosen.deriv_val))


def project_hom(g: DvrHom, n1: int, n2: int) -> ResidueHom:
    """The residue-ring homomorphism induced by g at lengths (n1, n2)."""
    if n2 * g.source.e > n1 * g.target.e:
        raise IncompatibleLengths(
            f"need n2*e1/e2 <= n1: {n2}*{g.source.e}/{g.target.e} > {n1}"
        )
    if g.rho.n < n2:
        raise InsufficientPrecision("certified image is shallower than n2")
    src = residue_ring(g.source, n1)
    tgt = residue_ring(g.target, n2)
    return residue_hom(src, tgt, g.psi, project(g.rho.reduce_to(n2), n2))


def compose_homs(f2, f1):
    """Composition in either category (target of f1 = source of f2, up to
    projection for residue-ring maps)."""
    if isinstance(f1, ResidueHom) and isinstance(f2, ResidueHom):
        if f1.target.ring != f2.source.ring or f2.source.n > f1.target.n:
            raise NotComposable("rings or lengths do not chain")
        beta1 = project_between(f1.beta, f2.source.n)
        beta = f2.apply(beta1)
        psi = f2.psi.compose(f1.psi)
        return residue_hom(f1.source, f2.target, psi, beta)
    if isinstance(f1, DvrHom) and isinstance(f2, DvrHom):
        if f1.target != f2.source:
            raise NotComposable("rings do not chain")
        psi = f2.psi.compose(f1.psi)
        rho = f2.apply(f1.rho)
        providers = tuple(MappedCoeff(c, psi) for c in f1.source.coeffs)
        cert = _certify_at(providers, f2.target, rho)
        return DvrHom(f1.source, f2.target, psi, cert.elem, (cert.t, cert.deriv_val))
    raise NotComposable("homomorphisms from different categories")


def _certify_at(providers, R: DvrSpec, approx: DvrElem) -> CertifiedRoot:
    """Re-certify a composed root approximation at its own precision."""
    t = approx.n
    digits = pi_digits(approx, t)
    cert = _escalate(providers, R, t, lambda poly: _certify(poly, digits, t))
    if cert is None:
        raise InconsistentResult("composed image is not a root to its depth")
    return cert


# ---------------------------------------------------------------------------
# ring-level isomorphism search and root existence


def dvr_isos(R1: DvrSpec, R2: DvrSpec):
    """All ring homomorphisms R1 -> R2 that are isomorphisms, via the roots of
    the mapped Eisenstein polynomial; empty unless (d, e) agree."""
    if R1.d != R2.d or R1.e != R2.e or R1.p != R2.p:
        return []
    s = R2.e - 1 + nu_of_e(R2.p, R2.e)
    prec = max(2 * s + 2, 4)
    out = []
    for psi in embeddings(R1.k, R2.k):
        providers = tuple(MappedCoeff(c, psi) for c in R1.coeffs)
        for root in roots_in_dvr(providers, R2, prec):
            out.append(DvrHom(R1, R2, psi, root.elem, (root.t, root.deriv_val)))
    return out


def hom_inverse(g: DvrHom) -> DvrHom:
    """Two-sided inverse of a ring isomorphism, found among Iso(R2, R1)."""
    for cand in dvr_isos(g.target, g.source):
        if compose_homs(cand, g).is_identity() and compose_homs(g, cand).is_identity():
            return cand
    raise NoRoot("homomorphism has no inverse")


class HasRootResult(Record):
    _fields = ("kind", "root", "precision")

    def __init__(self, kind: str, root: DvrElem | None, precision: int):
        # kind: "yes" | "no" | "undecided"
        set_field(self, "kind", kind)
        set_field(self, "root", root)
        set_field(self, "precision", precision)

    def __bool__(self):
        return self.kind == "yes"


def _squarefree_part(coeffs) -> list:
    """Squarefree part of a monic integer polynomial (same root set), as a
    fresh list; computed once per coefficient tuple."""
    return list(_squarefree_cached(tuple(coeffs)))


@lru_cache(maxsize=1024)
def _squarefree_cached(coeffs: tuple) -> tuple:
    def trim(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    def polymod(a, b):
        a = [Fraction(x) for x in a]
        b = [Fraction(x) for x in b]
        while len(a) >= len(b) and trim(a):
            f = a[-1] / b[-1]
            for i in range(len(b)):
                a[len(a) - len(b) + i] -= f * b[i]
            a.pop()
            trim(a)
        return a

    def gcd(a, b):
        a, b = [Fraction(x) for x in a], [Fraction(x) for x in b]
        while trim(b):
            a, b = b, polymod(a, b)
        if not a:
            return [Fraction(1)]
        return [x / a[-1] for x in a]

    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    g = gcd(list(coeffs), deriv)
    if len(g) <= 1:
        return coeffs
    # exact division of monic integer polynomials: quotient is integral
    quot, rem = [], [Fraction(c) for c in coeffs]
    for i in range(len(coeffs) - 1, len(g) - 2, -1):
        c = rem[i] / g[-1]
        quot.append(c)
        for j in range(len(g)):
            rem[i - (len(g) - 1) + j] -= c * g[j]
    quot.reverse()
    if any(c.denominator != 1 for c in quot):
        raise InconsistentResult("squarefree part is not integral")
    return tuple(int(c) for c in quot)


def has_root(R: DvrSpec, F) -> HasRootResult:
    """Decide whether the monic integer polynomial F has a root in R, by the
    certified DFS at escalating precision; exhaustion of all digit branches
    is a proof of nonexistence."""
    coeffs = [int(c) for c in F]
    if not coeffs or coeffs[-1] != 1:
        raise NotMonic("polynomial must be monic")
    coeffs = _squarefree_part(coeffs)
    prec = max(4, R.e + nu_of_e(R.p, R.e) + 1)
    if len(coeffs) == 1:
        return HasRootResult("no", None, prec)  # the constant 1 has no root
    while True:
        try:
            roots = roots_in_dvr(coeffs, R, prec)
        except PrecisionTooLow:
            prec *= 2
            if prec > ESCALATION_CAP:
                return HasRootResult("undecided", None, prec // 2)
            continue
        if roots:
            return HasRootResult("yes", roots[0].elem, roots[0].t)
        return HasRootResult("no", None, prec)
