"""Homomorphisms between finite residue rings and their certified lifts.

A homomorphism R_{1,n1} -> R_{2,n2} is stored as a residue-field embedding
psi together with the image beta of the uniformizer class: under the
presentation W(k1)[x]/(f, x^n1) those two values determine the map, and the
exhaustive-function oracle in the test suite guards this structural
shortcut.  residue_hom checks psi on every call, by evaluating k1's
defining polynomial at psi's image (resfield.eval_poly, on coordinates).
The admissible betas are the truncated roots of F = f^psi: F(beta) = 0 mod
m2^n2 and beta^n1 = 0.  Applying a homomorphism (residue or lifted) reads
no digits: it is W(psi)-semilinear and W(psi) (witt.WittMap) is Z-linear,
so it is Z-linear on flat vectors and is applied as its matrix, whose
column j*d1 + i is W(psi)(y^i) beta^j (_hom_matrix), and each image is one
integer matrix-vector product, reduced.  A residue homomorphism keeps its
matrix after the first apply; a lifted one builds it per apply.

One ball search serves enumeration, counting and lifting.  A ball a + m^r
holds the elements whose first r pi-adic digits are those of a.  At a ball,
G(T) = F(a + pi^r T) = sum_i F_i(a) pi^(ir) T^i (F_i the Hasse
derivatives) has a content c, and gbar = G/pi^c mod m is a polynomial over
the residue field k:

- an element a + pi^r T can satisfy nu(F) > c only when the first digit of
  T is a root of gbar in k, so the search branches on those roots alone, at
  most deg F of them, and a nonzero constant gbar ends the branch;
- when c >= n2, F vanishes mod m^n2 on the whole ball: enumeration expands
  the ball lexicographically, and counting adds q^(n2 - r);
- beta^n1 = 0 mod m^n2 holds exactly when the first ceil(n2/n1) digits
  vanish, so enumeration starts from the ball 0 + m^ceil(n2/n1).

A HomSet keeps the homomorphisms as these balls, a root set as a union of
balls (Berthomieu, Lecerf and Quintin), and lists, counts, tests membership
and restricts to the isomorphisms (digit 1 nonzero) on the balls alone.

Lifting runs the search down to a certification depth t.  A simple root of
gbar isolates exactly one root of F in the child ball, which Newton's
iteration refines (each step doubles the depth, and inverts F' only to the
depth of the current error); a ball that reaches radius t unseparated is
taken as it is.  One rule, _certify, refuses x when t <= nu(F'(x)), and
otherwise accepts a refined root, a ball of radius t or a composed image x
exactly when nu(F(x)) >= t + nu(F'(x)), which pins a unique root agreeing
with x to depth t, and drops it below that line.  It tests the flat vector
it is handed, and the certified root is that vector reduced to precision
t: the verdict depends only on x mod m^t, so no root is read out to digits
and lifted back.  Digits are read for text and JSON, for the search's digit
order and for the wording of a refusal.  Every search runs once,
on F materialized at the working precision t + min((m - 1)*t, Delta), m =
deg F, where Delta bounds nu(F') at the roots of F and is read off the
polynomial: the scaled different of R1 for F = f^psi, nu_R(disc F) for
has_root, none for roots_in_dvr (_roots shows that this precision decides
every readout).  Each search certifies only the roots its answer needs:
lifting searches only the ball of the roots within Krasner distance of
beta (radius _krasner_radius), and the one root certified there is the
lift; has_root stops at the first root it certifies, and doubles its depth
at most up to 2*nu_R(disc F) + 2, where every search decides.

All polynomial evaluation (search balls, Newton steps, certification, beta
admissibility) runs on the flat vectors of one dvr context: F and its Hasse
derivatives are materialized once per precision, _horner (the one
evaluation on flat vectors) evaluates them, and _raw_val reads the
valuations.  has_root searches the squarefree part that
resfield._squarefree_part gives.  No DvrElem is built per ball.  Each
Horner result ends at the working precision because its last step adds a
coefficient known to that precision, so the readouts equal those of DvrElem
arithmetic.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb
from operator import mul

from .dvr import (
    _add,
    _Context,
    _context,
    _digit_at,
    _digits,
    _digits_text,
    _div_pi_power,
    _lift,
    _mul,
    _raw_val,
    _sub,
    _unit_inv,
    DvrElem,
    DvrSpec,
    GUARD_DIGITS,
    ResidueElt,
    ResidueRingSpec,
    dvr_elem_text,
    parse_coeff,
    pi_digits,
    project,
    project_between,
    residue_ring,
    ring_spec_to_json,
)
from .errors import (
    FieldMismatch,
    IncompatibleLengths,
    InconsistentResult,
    InsufficientPrecision,
    InvalidArgument,
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
    different_val,
    krasner_bound,
    lift_precision_bound,
    nu_of_e,
)
from .record import Record
from .resfield import (
    FieldEmbedding,
    _capped_roots,
    _int_arg,
    _residues,
    _resultant,
    _squarefree_part,
    embeddings,
    enumeration_cap,
    eval_poly,
    identity_embedding,
)
from .witt import WittMap, _vp_int


# ---------------------------------------------------------------------------
# the polynomials the search solves: F = (coeffs, psi) is the monic
# polynomial whose non-leading coefficients are W(psi)(a) for the exact
# coefficients a (ExactWittCoeff) of coeffs, psi: k1 -> k2 an embedding
# into the residue field of the ring that is searched


_witt_map = lru_cache(maxsize=1024)(WittMap)  # one W(psi) per (psi, M)


def _normalize_poly(F, k) -> tuple:
    """The pair (coeffs, identity embedding of k) of a monic polynomial given
    by its full ascending coefficient list, each entry anything
    dvr.parse_coeff reads and the last the integer 1 (NotMonic otherwise);
    [1] is the constant 1 and gives no coefficients."""
    entries = list(F)
    if not entries or not isinstance(entries[-1], int) or entries[-1] != 1:
        raise NotMonic("expected the full ascending coefficient list with leading 1")
    return tuple(parse_coeff(k, c) for c in entries[:-1]), identity_embedding(k)


class _Poly:
    """A monic F = x^m + a_{m-1} x^(m-1) + ... + a_0 materialized as flat
    vectors of one context, given by the flat vectors f of a_0, ..., a_{m-1}:
    hasse[i] holds the coefficients C(j, i) a_j (i <= j < m) of the i-th
    Hasse derivative F_i below its lead C(m, i), so that F(x + u) = sum_i
    F_i(x) u^i.  F_0 is F and F_1 is F'."""

    __slots__ = ("ctx", "m", "hasse")

    def __init__(self, ctx: _Context, f: tuple):
        mod, m = ctx.mod, len(f)
        self.ctx, self.m = ctx, m
        self.hasse = tuple(
            (tuple(tuple([comb(j, i) * c % mod for c in f[j]]) for j in range(i, m)), comb(m, i))
            for i in range(m + 1)
        )

    def hasse_value(self, i: int, x) -> tuple:
        coeffs, lead = self.hasse[i]
        return _horner(self.ctx, coeffs, x, lead)


@lru_cache(maxsize=1024)
def _materialize_poly(F: tuple, R: DvrSpec, n: int) -> _Poly:
    """F = (coeffs, psi) on the flat vectors of R at precision n: each exact
    coefficient is materialized in W(k1)/p^Mc and its coordinates go through
    W(psi), which commutes with reduction mod p^Mc, so the result is exact
    at every precision.  Raises RingMismatch unless psi maps into R's
    residue field."""
    coeffs, psi = F
    if psi.target != R.k:
        raise RingMismatch("the embedding does not map into this coefficient ring")
    ctx = _context(R, n)
    w_psi = _witt_map(psi, ctx.M)
    pad = (0,) * (ctx.size - ctx.d)
    return _Poly(ctx, tuple(w_psi.map_coords(c.materialize(w_psi.source).coeffs) + pad
                            for c in coeffs))


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
# the ball search


def _ball_text(digits) -> str:
    return f"the ball {_digits_text(digits)} + m^{len(digits)}"


def _reduce_at(poly: _Poly, x, r: int, cap: int, vals: dict):
    """The content c and the reduction of G(T) = F(x + pi^r T) =
    sum_i F_i(x) pi^(ir) T^i.  Returns (c, gbar) with gbar the coordinate
    tuples of the coefficients in k of G/pi^c mod m, by degree, or
    (cap, None) when c >= cap.  vals caches the values F_i(x) by i; a term
    whose i*r already exceeds the least valuation found is not evaluated."""
    ctx, m = poly.ctx, poly.m
    best = min(cap, m * r)  # the lead term is pi^(mr)
    level = []  # the terms (i, F_i(x)) of valuation best
    for i in range(m):
        ir = i * r
        if ir > best or ir == best == cap:
            break
        v = vals.get(i)
        if v is None:
            v = vals[i] = poly.hasse_value(i, x)
        # read to best - ir + 1 once best is known to be below cap, so that a
        # term of valuation exactly best is seen
        nu, exact = _raw_val(ctx, v, best - ir + (best < cap))
        if exact:
            if nu + ir < best:
                best, level = nu + ir, []
            level.append((i, v))
    if best >= cap:
        return cap, None
    zero = (0,) * ctx.d
    gbar = [zero] * (m + 1)
    for i, v in level:
        gbar[i] = _digit_at(ctx, v, best - i * r).coeffs
    if m * r == best:
        gbar[m] = (1,) + zero[1:]
    return best, tuple(gbar)


def _ball_search(poly: _Poly, depth: int, start: tuple = (), refine: bool = False):
    """Depth-first search over the balls a + m^r (a given by its r digits)
    that can hold roots of F mod m^depth, inside the ball start + m^len(start)
    (start a tuple of digits, the centre its lift), in lexicographic order
    of the digits.  Yields (digits, x, delta), x the flat vector of the
    centre.

    At a ball, G(T) = F(a + pi^r T) has content c; gbar = G/pi^c mod m.
    x = a + pi^r T can satisfy nu(F(x)) > c only when the first digit of T
    is a root of gbar in k, so the search branches on those roots alone
    (at most deg F); a nonzero constant gbar ends the branch.  The cap is
    read once per search, and resfield._capped_roots checks every gbar
    against it before its shared cache of root sets is read, so a gbar of
    degree >= 2 is refused past the cap whoever cached its root set.

    Enumeration (refine false) yields each ball with c >= depth, on which F
    vanishes mod m^depth everywhere; delta is None.  Root finding (refine
    true) descends below those: a simple root b of gbar isolates exactly
    one root of F, which lies in R, in the ball a + teichmuller(b) pi^r +
    m^(r+1), and F' has valuation delta = c - r on all of that ball; it is
    yielded with its delta.  A ball reaching radius depth on which F
    vanishes mod m^depth is yielded with delta None.  Root finding reads
    valuations to the working precision of the context, which _roots sets
    above every content (InconsistentResult when c reaches it); it starts
    only above the depth (a start of radius >= depth raises
    InvalidArgument), because a ball at the depth off every branch of the
    whole search would be yielded although it holds no root."""
    if refine and len(start) >= depth:
        raise InvalidArgument(f"root finding to depth {depth} cannot start from {_ball_text(start)}")
    ctx = poly.ctx
    k = ctx.ring.k
    cap = enumeration_cap()
    limit = ctx.n if refine else depth
    stack = [(start, _lift(ctx, start), {}, None)]
    while stack:
        digits, x, vals, delta = stack.pop()
        r = len(digits)
        if delta is not None:
            yield digits, x, delta
            continue
        if refine and r == depth:
            fx = vals[0] if 0 in vals else poly.hasse_value(0, x)
            if not _raw_val(ctx, fx, depth)[1]:
                yield digits, x, None
            continue
        c, gbar = _reduce_at(poly, x, r, limit, vals)
        if gbar is None:
            if refine:
                raise InconsistentResult(
                    f"the content at {_ball_text(digits)} reaches the working precision {limit}")
            yield digits, x, None
            continue
        children = []
        for b, simple in _capped_roots(gbar, k, cap):
            if any(b.coeffs):
                child = (_add(ctx, x, ctx.terms[r][b.coeffs]), {})
            else:
                child = (x, vals)  # same centre, same values
            children.append((digits + (b,),) + child + (c - r if refine and simple else None,))
        stack.extend(reversed(children))


def _newton(poly: _Poly, x, delta: int, t: int) -> tuple:
    """The root of F in the isolated ball of x, to depth t, by Newton's
    x <- x - F(x)/F'(x).  On that ball nu(F'(x)) = delta and nu(F(x)) =
    delta + nu(x - root), so F(x)/F'(x) is (F(x)/pi^delta) times the inverse
    of the unit F'(x)/pi^delta, and the readout of F(x) says when x agrees
    with the root to depth t.  _div_pi_power divides both by pi^delta only
    up to the same unit, which cancels in the quotient.  In the scaled
    variable T of the ball the iteration is Newton's for a simple root mod
    m, so each step doubles the depth.  The inverse of the unit is needed
    only to depth a = nu(F(x)) - delta, the current error: the step
    F(x)/F'(x) has valuation a, so an inverse known mod m^a moves it only
    in m^(2a), and the step still leaves an error of depth at least 2a - r
    on a ball of radius r < a, as an exact step does.  _unit_inv stops at
    that depth.  Raises InconsistentResult when the working precision is
    below t + delta, which _roots rules out."""
    ctx = poly.ctx
    if t + delta > ctx.n:
        raise InconsistentResult(f"working precision {ctx.n} is below t + delta = {t + delta}")
    for _ in range(t.bit_length() + 1):
        fx = poly.hasse_value(0, x)
        nu, exact = _raw_val(ctx, fx, t + delta)
        if not exact:
            return x
        unit = _div_pi_power(ctx, poly.hasse_value(1, x), delta)
        step = _mul(ctx, _div_pi_power(ctx, fx, delta), _unit_inv(ctx, unit, nu - delta))
        x = _sub(ctx, x, step)
    raise InconsistentResult("Newton's iteration left its isolated ball")


# ---------------------------------------------------------------------------
# certified roots


class CertifiedRoot(Record):
    """A root approximation exact mod m^t: elem is the tested vector x
    reduced to precision t, and the acceptance inequality nu(F(x)) >= t +
    deriv_val forces a unique exact root in its class mod m^t."""

    _fields = ("elem", "t", "deriv_val")


def roots_in_dvr(F, R: DvrSpec, prec: int):
    """All roots in R of the monic polynomial F, given by its full ascending
    coefficient list (NotMonic unless it ends in 1), refined to depth >= prec
    and carrying Hensel-style certificates, in lexicographic order of digits.

    The ball search isolates each simple root of the reduced polynomial,
    Newton's iteration refines it to depth prec, and _certify accepts it.
    Raises PrecisionTooLow, naming the ball, when a ball of radius prec can
    be neither certified nor excluded, because prec does not exceed the
    derivative valuation there, or when prec does not exceed the derivative
    valuation of an isolated root (multiple roots, or prec too small to
    separate).
    """
    if _int_arg(prec, "prec") < 1:
        raise ValueError("prec must be >= 1")
    F = _normalize_poly(F, R.k)
    if not F[0]:
        raise ValueError("polynomial must have degree >= 1")
    return _roots(F, R, prec)


def _working_poly(F: tuple, R: DvrSpec, t: int, deriv_bound: int | None) -> _Poly:
    """F = (coeffs, psi) materialized at the working precision N = t +
    min((m - 1)*t, deriv_bound), m = deg F, deriv_bound a bound on
    nu(F'(alpha)) over the roots alpha of F (None: N = m*t); see _roots."""
    spread = (len(F[0]) - 1) * t
    return _materialize_poly(F, R, t + (spread if deriv_bound is None else min(spread, deriv_bound)))


def _roots(F: tuple, R: DvrSpec, prec: int, ball: tuple = (), first: bool = False,
           deriv_bound: int | None = None):
    """roots_in_dvr for the pair F = (coeffs, psi) of _materialize_poly,
    restricted to the roots in the ball given by its digits.  With first,
    the search stops at the first certified root, the lexicographically
    first one, and never visits the balls after it.  _certify tests
    Newton's output for an isolated root and the centre the search yields
    for a ball of radius prec, as flat vectors.

    One search runs, on F materialized once at the working precision N of
    _working_poly, and N decides every readout it takes.  Let alpha_j be
    the m roots of F, with multiplicity, and deriv_bound >= nu(F'(alpha_j)):
    - at a ball a + m^r with r < prec, the content c of F(a + pi^r T) is
      sum_j min(nu(a - alpha_j), r), so c <= m*r, and c <= r +
      nu(F'(alpha)) for the root alpha nearest a; hence c < N;
    - Newton's iteration and _certify run only once nu(F') < prec, and then
      need only prec + nu(F') <= N; a capped readout of nu(F'(x)) is at
      least N >= prec, which is a refusal."""
    poly = _working_poly(F, R, prec, deriv_bound)
    roots = []
    for found, x, delta in _ball_search(poly, prec, ball, refine=True):
        if delta is not None and delta >= prec:
            raise PrecisionTooLow(
                f"depth {prec} does not separate the root in {_ball_text(found)}: "
                f"its derivative valuation is {delta}"
            )
        if len(found) < prec:  # an isolated root: refine it
            x = _newton(poly, x, delta, prec)
        cert = _certify(poly, x, prec)
        if cert is not None:
            roots.append(cert)
            if first:
                break
    return roots


def _certify(poly: _Poly, x, t: int) -> CertifiedRoot | None:
    """The acceptance test on the flat vector x of poly's context: certified
    when nu(F(x)) >= t + nu(F'(x)) with t > nu(F'(x)), the root being x
    reduced to precision t; None when the readout of F(x) is exact below
    that line, so no root agrees with x to depth t.  Raises PrecisionTooLow,
    naming the ball of x's first t digits, when t does not exceed
    nu(F'(x)): no exclusion is sound there, since with h = root - x and
    nu(h) >= t the terms F_i(x) h^i, i >= 2, stay above t + nu(F'(x)) only
    when t > nu(F'(x)).  A readout of F(x) capped below the line would
    break the bound behind the working precision (InconsistentResult).

    The answer depends only on x mod m^t, so any representative may be
    tested.  Adding h in m^t moves F'(x) by a multiple of h, in m^t, which
    keeps every readout of nu(F'(x)) below t and every one at or above t;
    and when t > nu(F'(x)) it moves F(x) by F'(x) h + F_2(x) h^2 + ..., of
    valuation at least t + nu(F'(x)), which keeps the verdict and any
    valuation of F(x) below that line.  So the verdict, t and deriv_val
    do not depend on the representative, and the root is its class."""
    ctx = poly.ctx
    delta = _raw_val(ctx, poly.hasse_value(1, x), ctx.n)[0]
    if t <= delta:  # a capped readout is ctx.n >= t
        raise PrecisionTooLow(f"cannot certify or exclude {_ball_text(_digits(ctx, x, t))} at depth {t}")
    fv, exact = _raw_val(ctx, poly.hasse_value(0, x), ctx.n)
    if fv < t + delta:
        if exact:
            return None
        raise InconsistentResult(
            f"F at {_ball_text(_digits(ctx, x, t))} reads capped below depth {t + delta}")
    return CertifiedRoot(DvrElem(ctx, x).reduce_to(t), t, delta)


# ---------------------------------------------------------------------------
# residue-ring homomorphisms


def _hom_matrix(psi: FieldEmbedding, ctx: _Context, beta, e1: int) -> tuple:
    """The rows of the matrix of the homomorphism (psi, beta) from a ring of
    ramification index e1 into ctx's flat vectors: column j*d1 + i is the
    flat vector W(psi)(y^i) * beta^j.  The homomorphism is W(psi)-semilinear
    and W(psi) is Z-linear, so it is Z-linear on flat vectors, and the
    product of a row with any integer representative of a source vector is
    the corresponding coordinate of its image, to the precision the
    homomorphism is defined to.  Any representative of beta may be given;
    W(psi)(1) = 1, so column j*d1 is beta^j itself."""
    pad = (0,) * (ctx.size - ctx.d)
    images = [image + pad for image in _witt_map(psi, ctx.M).images[1:]]
    powers = [ctx.pi_powers[0], beta][:e1]
    while len(powers) < e1:
        powers.append(_mul(ctx, powers[-1], beta))
    cols = []
    for power in powers:
        cols += [power] + [_mul(ctx, image, power) for image in images]
    return tuple(zip(*cols))


class ResidueHom(Record):
    """Homomorphism R_{1,n1} -> R_{2,n2} as (psi, beta), applied as its
    matrix (_hom_matrix in the target's context, built on the first apply):
    row k times the source vector, reduced mod the k-th canonical modulus
    of R2/m^n2 (see dvr._canon), is coordinate k of the image's canonical
    vector."""

    _fields = ("source", "target", "psi", "beta")

    @cached_property
    def _matrix(self) -> tuple:
        ctx = self.target._ctx
        rows = _hom_matrix(self.psi, ctx, self.beta.v, self.source.ring.e)
        return tuple([tuple([c % m for c in row]) for row, m in zip(rows, ctx.res_mods)])

    def apply(self, x: ResidueElt) -> ResidueElt:
        if x.rspec != self.source:
            raise NotComposable("element not in the source ring")
        v = x.v
        terms = zip(self._matrix, self.target._ctx.res_mods)
        return ResidueElt(self.target, None, tuple([sum(map(mul, v, row)) % m for row, m in terms]))

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
            "source": self.source._json,
            "target": self.target._json,
        }


def residue_hom(
    source: ResidueRingSpec, target: ResidueRingSpec, psi: FieldEmbedding, beta: ResidueElt
) -> ResidueHom:
    """Validate (psi, beta) and build the homomorphism: psi must send the
    generator of k1 into k2 (FieldMismatch otherwise) and to a root of its
    defining polynomial, which is evaluated on every call, the mapped
    Eisenstein polynomial must kill beta and beta^n1 must vanish."""
    if psi.source != source.ring.k or psi.target != target.ring.k:
        raise ValueError("embedding endpoints do not match the ring pair")
    if psi.image_of_generator.field != psi.target:
        raise FieldMismatch("psi's image of the generator is not in its target field")
    if not eval_poly(psi.source.defining_poly, psi.image_of_generator).is_zero():
        raise ValueError("psi image is not a root of the source defining polynomial")
    if beta.rspec != target:
        raise ValueError("beta does not live in the target ring")
    if not _beta_admissible(source, target, psi, beta):
        raise ValueError("(psi, beta) does not define a homomorphism")
    return ResidueHom(source, target, psi, beta)


def _beta_admissible(source, target, psi, beta) -> bool:
    n1, n2 = source.n, target.n
    if beta.val_units() * n1 < n2:
        return False  # beta^n1 must vanish mod m2^n2
    poly = _materialize_poly((source.ring.coeffs, psi), target.ring, n2)
    value = poly.hasse_value(0, beta.v)
    return not _raw_val(poly.ctx, value, n2)[1]  # f1^psi(beta) = 0 mod m2^n2


class HomSet:
    """The homomorphisms src -> tgt as balls of betas (psi, digits), each
    ball holding its digits followed by any n2 - len(digits) more, in the
    order of the ball search per embedding.  Building one searches nothing;
    only iteration, which lists every beta, checks the enumeration cap."""

    def __init__(self, src: ResidueRingSpec, tgt: ResidueRingSpec):
        self.src, self.tgt, self._isos = src, tgt, False

    def isos(self) -> HomSet:
        """The bijective homomorphisms: equal cardinalities, so psi is
        bijective and n1 = n2 puts 0 in digit 0, and beta of valuation one,
        digit 1 nonzero; at n2 = 1 every beta, 0 included, has valuation 1."""
        isos = HomSet(self.src, self.tgt)
        isos._isos = True
        return isos

    def _empty(self) -> bool:  # isos need d1 = d2 and q1^n1 = q2^n2: equal d, q and n
        s, t = self.src, self.tgt
        return self._isos and (s.ring.d, s.ring.q, s.n) != (t.ring.d, t.ring.q, t.n)

    def _balls(self):
        src, tgt, k = self.src, self.tgt, self.tgt.ring.k
        # beta^n1 = 0 mod m^n2 exactly when the first ceil(n2/n1) digits
        # vanish, so the search starts from the ball 0 + m^ceil(n2/n1)
        zero_prefix = (k.zero(),) * -(-tgt.n // src.n)
        for psi in embeddings(src.ring.k, k):
            poly = _materialize_poly((src.ring.coeffs, psi), tgt.ring, tgt.n)
            for digits, _, _ in _ball_search(poly, tgt.n, zero_prefix):
                if not self._isos or tgt.n == 1 or len(digits) > 1 and any(digits[1].coeffs):
                    yield psi, digits
                elif len(digits) == 1:  # the children whose digit 1 is a unit
                    yield from ((psi, digits + (b,)) for b in _residues(k) if any(b.coeffs))

    def count(self) -> int:
        """Sum q2^(n2 - radius); TooLarge if it may pass the integer-text limit."""
        if self._empty():
            return 0
        q, n2 = self.tgt.ring.q, self.tgt.n
        digits_cap = sys.get_int_max_str_digits()
        # at most d1 embeddings, each with at most q^n2 betas; q^n2 >= 16^digits_cap
        # is decided without forming the power
        if digits_cap and (n2 * (q.bit_length() - 1) >= 4 * digits_cap
                           or self.src.ring.d * q ** n2 >= 10 ** digits_cap):
            raise TooLarge(f"counts up to {q}^{n2} may exceed the {digits_cap}-digit integer limit")
        return sum(q ** (n2 - len(digits)) for _, digits in self._balls())

    def __iter__(self):
        """Each ball expanded lexicographically, once the target passes the cap check."""
        if self._empty():
            return
        src, tgt = self.src, self.tgt
        tgt.check_size("target elements")
        residues = _residues(tgt.ring.k)
        for psi, digits in self._balls():
            for tail in itertools.product(residues, repeat=tgt.n - len(digits)):
                yield ResidueHom(src, tgt, psi, ResidueElt(tgt, digits + tail))

    def __contains__(self, phi: ResidueHom) -> bool:
        digits = phi.beta.digits  # some ball of phi's embedding is a prefix
        return (phi.source, phi.target) == (self.src, self.tgt) and not self._empty() and any(
            psi == phi.psi and digits[:len(d)] == d for psi, d in self._balls())


def enumerate_homs(src: ResidueRingSpec, tgt: ResidueRingSpec) -> list:
    """The list of HomSet(src, tgt)."""
    return list(HomSet(src, tgt))


def enumerate_isos(src: ResidueRingSpec, tgt: ResidueRingSpec) -> list:
    """The list of HomSet(src, tgt).isos()."""
    return list(HomSet(src, tgt).isos())


# ---------------------------------------------------------------------------
# lifted homomorphisms


class DvrHom(Record):
    """Homomorphism R1 -> R2: psi plus rho, the certified image of the
    uniformizer; certificate is the pair (t, deriv_val) of its CertifiedRoot.
    apply knows the image of x mod m^n', n' = min(x.n*e2/e1, rho.n): it
    builds the matrix (_hom_matrix) in the context of that precision, from
    rho's vector, and reduces each row times x's vector mod p^Mc there.  A
    lifted homomorphism is applied about once (compose_homs), so the matrix
    is not kept."""

    _fields = ("source", "target", "psi", "rho", "certificate")

    def apply(self, x: DvrElem) -> DvrElem:
        if x.ring != self.source:
            raise NotComposable("element not in the source ring")
        ctx = _context(self.target, min(x.n * self.target.e // self.source.e, self.rho.n))
        v, m = x.v, ctx.mod
        rows = _hom_matrix(self.psi, ctx, self.rho.v, self.source.e)
        return DvrElem(ctx, tuple([sum(map(mul, v, row)) % m for row in rows]))

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
    return a.rho.reduce_to(depth) == b.rho.reduce_to(depth)


def _image_deriv_bound(R1: DvrSpec, R2: DvrSpec) -> int:
    """nu(F'(rho)) in R2's nu-units at every root rho of F = f1^psi, the
    different of R1 scaled by e2/e1 (rounded up), as _roots takes it."""
    return -(-R2.e * different_val(R1) // R1.e)


def _krasner_radius(M1: Fraction, e2: int) -> int:
    """r0 = floor(M1*e2) + 1: for x in a ring with ramification index e2,
    nu-tilde(x) = nu(x)/e2 > M1 exactly when the integer nu(x) >= r0."""
    return M1.numerator * e2 // M1.denominator + 1


def lift_hom(phi: ResidueHom, min_prec: int | None = None) -> DvrHom:
    """Lift a residue-ring homomorphism to the rings: the unique root of the
    mapped Eisenstein polynomial within Krasner distance of beta.

    A root rho is within that distance, nu-tilde(rho - beta) > M(R1), exactly
    when nu(rho - beta) >= r0 = floor(M(R1)*e2) + 1, that is when its first
    r0 pi-digits are beta's, so the certified root search of the ball
    beta[:r0] + m^r0 is the selection: the one root it certifies is the
    lift, none raises NoRoot and several raise MultipleRoots.  Requires n2
    strictly above M(R1)*e1*e2, which puts r0 <= n2 and makes that root
    unique; refuses lower lengths even when a lift happens to exist.
    min_prec asks for extra certified digits on the image of the
    uniformizer.
    """
    R1, R2 = phi.source.ring, phi.target.ring
    n2 = phi.target.n
    M1 = krasner_bound(R1)
    bound = lift_precision_bound(R1, R2.e)
    if n2 < bound:
        raise PreconditionBound(
            f"requires n2 >= {bound}, got {n2}: a unique lift needs n2 > M(R1)*e1*e2, "
            f"with M(R1) = {M1}, e1 = {R1.e}, e2 = {R2.e}"
        )
    if R2.e % R1.e != 0:
        raise IncompatibleLengths("target ramification must be a multiple of the source's")
    deriv_bound = _image_deriv_bound(R1, R2)
    prec = n2 + 2 * deriv_bound + GUARD_DIGITS
    # the root must be certified beyond its valuation e2/e1 for the exact
    # readout checked below
    prec = max(prec, R2.e // R1.e + 1)
    if min_prec is not None:
        prec = max(prec, _int_arg(min_prec, "min_prec"))
    ball = phi.beta.digits[:_krasner_radius(M1, R2.e)]
    roots = _roots((R1.coeffs, phi.psi), R2, prec, ball, deriv_bound=deriv_bound)
    if not roots:
        raise NoRoot("no root within Krasner distance of beta: inconsistent input")
    if len(roots) > 1:
        raise MultipleRoots("several roots within Krasner distance: inconsistent input")
    chosen = roots[0]
    if pi_digits(chosen.elem, len(ball)) != ball:
        raise InconsistentResult(f"the root found lies outside {_ball_text(ball)}")
    # the residue-field square commutes by construction; the image of the
    # uniformizer must again have the right valuation
    v, exact = chosen.elem._val_units()
    if not (exact and v == R2.e // R1.e):
        raise InconsistentResult(f"image of the uniformizer has valuation {chosen.elem.valuation()}")
    return DvrHom(R1, R2, phi.psi, chosen.elem, (chosen.t, chosen.deriv_val))


def project_hom(g: DvrHom, n1: int, n2: int) -> ResidueHom:
    """The residue-ring homomorphism induced by g at lengths (n1, n2)."""
    if _int_arg(n2, "n2") * g.source.e > _int_arg(n1, "n1") * g.target.e:
        raise IncompatibleLengths(
            f"need n2*e1/e2 <= n1: {n2}*{g.source.e}/{g.target.e} > {n1}"
        )
    if g.rho.n < n2:
        raise InsufficientPrecision("certified image is shallower than n2")
    src = residue_ring(g.source, n1)
    tgt = residue_ring(g.target, n2)
    return residue_hom(src, tgt, g.psi, project(g.rho, n2))


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
        cert = _certify_at((f1.source.coeffs, psi), f2.target, rho,
                           _image_deriv_bound(f1.source, f2.target))
        return DvrHom(f1.source, f2.target, psi, cert.elem, (cert.t, cert.deriv_val))
    raise NotComposable("homomorphisms from different categories")


def _certify_at(F: tuple, R: DvrSpec, approx: DvrElem, deriv_bound: int | None = None) -> CertifiedRoot:
    """Re-certify a composed root approximation of F = (coeffs, psi) at its
    own precision, on F materialized once as _roots does."""
    t = approx.n
    cert = _certify(_working_poly(F, R, t, deriv_bound), approx.v, t)
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
        for root in _roots((R1.coeffs, psi), R2, prec, deriv_bound=_image_deriv_bound(R1, R2)):
            out.append(DvrHom(R1, R2, psi, root.elem, (root.t, root.deriv_val)))
    return out


def hom_inverse(g: DvrHom) -> DvrHom:
    """Two-sided inverse of a ring isomorphism, found among Iso(R2, R1)."""
    for cand in dvr_isos(g.target, g.source):
        if compose_homs(cand, g).is_identity() and compose_homs(g, cand).is_identity():
            return cand
    raise NoRoot("homomorphism has no inverse")


class HasRootResult(Record):
    """has_root's answer: kind is "yes" or "no"."""

    _fields = ("kind", "root", "precision")

    def __bool__(self):
        return self.kind == "yes"


@lru_cache(maxsize=1024)
def _squarefree_cached(coeffs: tuple, R: DvrSpec) -> tuple:
    """has_root's polynomial for the monic integer coefficients coeffs: its
    squarefree part f (same root set) as the pair (coeffs, identity
    embedding of k) of _materialize_poly, and nu_R(disc f) = e * v_p(disc
    f), with disc f = +-Res(f, f') a nonzero integer computed exactly (0
    for the constant 1); computed once per (coeffs, R)."""
    f = _squarefree_part(coeffs)
    disc = _resultant(f, [i * f[i] for i in range(1, len(f))]) if len(f) > 1 else 1
    return _normalize_poly(f, R.k), R.e * _vp_int(int(disc), R.p)


def has_root(R: DvrSpec, F) -> HasRootResult:
    """Decide whether the monic integer polynomial F has a root in R, by the
    certified root search on its squarefree part at a precision that
    doubles from max(4, e + nu(e) + 1) while the search raises
    PrecisionTooLow.

    The doubling stops at the first precision >= B = 2*nu_R(disc F) + 2.
    disc F = +-prod F'(rho) over the roots rho of F, each factor integral,
    so nu(F'(rho)) <= nu_R(disc F), the bound each search's working
    precision is read off; and disc F lies in the ideal (F, F') of Z[x], so
    nu(F'(x)) <= nu_R(disc F) wherever nu(F(x)) > nu_R(disc F).  A search at
    depth B or above therefore separates and certifies every root it meets
    (Hensel's lemma), and a PrecisionTooLow there raises
    InconsistentResult.

    "yes" carries the first certified root in lexicographic order of
    digits, and the search stops there: the balls after it are never
    searched, so the precision reported is that root's certificate depth,
    the first precision at which the balls before it die and it is
    certified.  "no" is a search whose balls all die, a proof of
    nonexistence, at the precision it ran at."""
    coeffs = [_int_arg(c, f"the coefficient of x^{i}") for i, c in enumerate(F)]
    if not coeffs or coeffs[-1] != 1:
        raise NotMonic("polynomial must be monic")
    F, disc_val = _squarefree_cached(tuple(coeffs), R)
    prec = max(4, R.e + nu_of_e(R.p, R.e) + 1)
    if not F[0]:
        return HasRootResult("no", None, prec)  # the constant 1 has no root
    ceiling = 2 * disc_val + 2
    while True:
        try:
            roots = _roots(F, R, prec, first=True, deriv_bound=disc_val)
        except PrecisionTooLow as exc:
            if prec >= ceiling:
                raise InconsistentResult(
                    f"the root search for {coeffs} at depth {prec}, at or above the "
                    f"ceiling 2*nu(disc) + 2 = {ceiling}, did not decide: {exc}"
                ) from None
            prec *= 2
            continue
        if roots:
            return HasRootResult("yes", roots[0].elem, roots[0].t)
        return HasRootResult("no", None, prec)
