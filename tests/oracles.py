"""Independent brute-force oracles used across the test suite.

The homomorphism oracle never trusts the (psi, beta) parameterization: it
builds, for every pair of generator images, the full element map from ring
expressions and checks both ring axioms pointwise on all element pairs.

The scan oracle keeps the (psi, beta) parameterization but none of the
search: it tests every beta in the target ring with the validator of
``residue_hom``.  Its root counterpart tests every digit vector as a
truncated root and certifies each one that passes.

The flat-ring oracle redoes the arithmetic of R/p^M, that is
(Z/p^M)[y,x]/(g(y), f(x,y)), with sympy polynomial remainders.  The
schoolbook product multiplies two flat vectors as polynomials in x with
coefficients in W(k), row by row, and reduces the result by f on each
call; the library gathers the pairwise coordinate products by a table of
structure constants built once per context.

The digit-route oracle redoes residue-ring arithmetic without canonical
vectors: lift the digit vectors to R, compute there, read the digits back.
Its homomorphism counterpart applies (psi, beta) digit by digit.  The
Horner image applies (psi, beta) to a flat vector block by block: W(psi) on
each x^j coefficient block, summed against the powers of beta by Horner's
rule; the library applies a homomorphism as one matrix-vector product.

The division oracle reads pi-adic digits by dividing by the uniformizer, in
WittElem arithmetic, instead of reading them off one coefficient each.  The
digit-by-digit oracle reads them off one coefficient block each, as the
chunk tables of the library do, but one digit at a time and with no table
of chunks.

The residue-field oracles redo F_q arithmetic on FqElem objects, one new
element per step: Horner's rule with a product and a sum per coefficient,
square-and-multiply with FqElem products, and the root set by evaluating
g and g' that way at every element.  The library runs all three on
coordinate tuples and builds an FqElem only for a value it returns.

The uniformizer oracle recomputes M(R) from the minimal polynomial of
another uniformizer, solved in WittElem arithmetic at working precision,
whose coefficient valuations are only lower bounds where the solution
vanishes; the library reads M(R) off the exact coefficients of f.  The
element constructors build ring elements from WittElem coordinates, which
the library never does.
"""

import itertools
from fractions import Fraction
from operator import mul, sub

import sympy

from ramlift.dvr import (
    _context,
    _digit_at,
    _lift,
    _reduce_mod_f,
    DvrElem,
    ResidueRingSpec,
    ValInfo,
    enumerate_elements,
    from_pi_digits,
    pi_digits,
    residue_ring,
)
from ramlift.errors import InsufficientPrecision
from ramlift.homlift import (
    ResidueHom,
    _beta_admissible,
    _certify,
    _horner,
    _materialize_poly,
    _normalize_poly,
    _witt_map,
    _working_poly,
)
from ramlift.ramification import _shifted_coeff_vals, newton_polygon
from ramlift.resfield import FqElem, _convolve, embeddings, power
from ramlift.witt import make_witt, teich_digits, teichmuller, witt_unit_inv


def horner_by_objects(poly, x):
    """An ascending polynomial with coefficients in the field of x or
    integers, at x, by Horner's rule on FqElem objects."""
    k = x.field
    acc = k.zero()
    for c in reversed(poly):
        acc = acc * x + (c if isinstance(c, FqElem) else k.from_int(c))
    return acc


def power_by_objects(x, n: int):
    """x^n by square-and-multiply on FqElem products, through the inverse
    x^(q-2) for a negative n."""
    k = x.field
    if n < 0:
        return power_by_objects(power_by_objects(x, k.q - 2), -n)
    return power(x, n, k.one(), mul)


def root_set_by_objects(g, k):
    """(root, simple) for each root in k of the polynomial g, given by its
    elements of k with a nonzero lead, in the order of k.elements(): g and
    g' evaluated by horner_by_objects at every element."""
    dg = [k.from_int(i) * c for i, c in enumerate(g)][1:]
    return [(b, not horner_by_objects(dg, b).is_zero()) for b in k.elements()
            if horner_by_objects(g, b).is_zero()]


def from_witt(R, w, n: int) -> DvrElem:
    """The element w of W(k) in R at precision n."""
    ctx = _context(R, n)
    head = ctx.wspec.from_coeffs(w.coeffs).coeffs
    return DvrElem(ctx, head + (0,) * (ctx.size - ctx.d))


def element(R, vectors, n: int) -> DvrElem:
    """sum_j c_j x^j in R at precision n, for the coordinate vectors c_j."""
    ctx = _context(R, n)
    flat = [c for v in vectors for c in ctx.wspec.from_coeffs(v).coeffs]
    return DvrElem(ctx, tuple(flat) + (0,) * (ctx.size - len(flat)))


def witt_elem_text(x) -> str:
    """Digit string "t:a_0,a_1,...,a_{M-1}" in the field's coefficient form."""
    return "t:" + ",".join(a.text() for a in teich_digits(x))


def minimal_polynomial(x: DvrElem):
    """Monic degree-e relation satisfied by x over W(k), solved from the
    power-basis coordinates of 1, x, ..., x^e at x's working precision.

    Returns the list [c_0, ..., c_{e-1}] of WittElem coefficients; they are
    exact only modulo p^Mc, so downstream consumers work with valuation
    lower bounds.
    """
    spec = x.ring
    e, d = spec.e, spec.d
    wspec = x.ctx.wspec
    powers = []
    cur = spec.one(x.n)
    for _ in range(e + 1):  # the power-basis coefficients of x^r
        powers.append([wspec.from_coeffs(cur.v[j * d:(j + 1) * d]) for j in range(e)])
        cur = cur * x
    # solve sum_r c_r x^r = -x^e coordinatewise over W/p^Mc
    rows = e
    mat = [[powers[r][i] for r in range(e)] for i in range(rows)]
    rhs = [-powers[e][i] for i in range(rows)]
    sol = [None] * e
    used_rows = []
    for col in range(e):
        pivot_row = None
        for i in range(rows):
            if i in used_rows:
                continue
            if mat[i][col].is_unit():
                pivot_row = i
                break
        if pivot_row is None:
            raise InsufficientPrecision("no unit pivot while deriving the minimal polynomial")
        used_rows.append(pivot_row)
        inv = witt_unit_inv(mat[pivot_row][col])
        mat[pivot_row] = [m * inv for m in mat[pivot_row]]
        rhs[pivot_row] = rhs[pivot_row] * inv
        for i in range(rows):
            if i != pivot_row and not mat[i][col].is_zero():
                factor = mat[i][col]
                mat[i] = [m - factor * mp for m, mp in zip(mat[i], mat[pivot_row])]
                rhs[i] = rhs[i] - factor * rhs[pivot_row]
    # back-substitute: each used row now has a single leading column
    for col, row in zip(range(e), used_rows):
        sol[col] = rhs[row]
    return sol


def krasner_bound_of_uniformizer(x: DvrElem) -> Fraction:
    """Recompute M by re-deriving the minimal polynomial of an alternative
    uniformizer x; coefficient valuations are read at working precision and
    carried as lower bounds where they are not settled.  The terms of each
    minimum in _shifted_coeff_vals are pairwise distinct, so a minimum is
    exact exactly when the exact terms alone reach it."""
    spec = x.ring
    e, p = spec.e, spec.p
    if e == 1:
        return Fraction(0)
    coeffs = minimal_polynomial(x)
    a_vals = [c.p_val() for c in coeffs]
    exact_vals = [v if v < c.ring.M else None for v, c in zip(a_vals, coeffs)]
    shifted = _shifted_coeff_vals(a_vals, e, p)
    exact_only = _shifted_coeff_vals(exact_vals, e, p)
    vals = [ValInfo(None if v is None else Fraction(v, e), v == w)
            for v, w in zip(shifted, exact_only)]
    return newton_polygon(vals).max_slope()


def scan_homs(src: ResidueRingSpec, tgt: ResidueRingSpec):
    """All homomorphisms src -> tgt in the order of enumerate_homs, by testing
    each of the q^n2 candidate betas for each embedding."""
    return [
        ResidueHom(src, tgt, psi, beta)
        for psi in embeddings(src.ring.k, tgt.ring.k)
        for beta in enumerate_elements(tgt)
        if _beta_admissible(src, tgt, psi, beta)
    ]


def scan_truncated_roots(F, R, depth: int):
    """Digit vectors of length depth whose Teichmuller sum is a root of the
    monic F mod m^depth, by testing all q^depth of them."""
    rn = residue_ring(R, depth)
    poly = _materialize_poly(_normalize_poly(F, R.k), R, depth)
    return [
        x.digits
        for x in enumerate_elements(rn)
        if not DvrElem(poly.ctx, poly.hasse_value(0, rn.lift(x).v)).valuation().exact
    ]


def scan_certified_roots(F, R, t: int):
    """The certified roots of F at depth t without the search: every
    truncated root mod m^t that scan_truncated_roots finds goes through the
    acceptance test _certify, on F at the working precision of roots_in_dvr."""
    poly = _working_poly(_normalize_poly(F, R.k), R, t, None)
    certs = (_certify(poly, _lift(poly.ctx, digits), t) for digits in scan_truncated_roots(F, R, t))
    return [c for c in certs if c is not None]


def digit_route_op(rn: ResidueRingSpec, op: str, x, y=None):
    """The digits of rn.op(x, y) for op in add, sub, neg, mul, or of x^y for
    op = pow, by DvrElem arithmetic on the Teichmuller sums of the digit
    vectors at precision n; pow multiplies y times."""
    a = from_pi_digits(x.digits, rn.ring, rn.n)
    if op == "neg":
        r = -a
    elif op == "pow":
        r = rn.ring.one(rn.n)
        for _ in range(y):
            r = r * a
    else:
        b = from_pi_digits(y.digits, rn.ring, rn.n)
        r = {"add": a + b, "sub": a - b, "mul": a * b}[op]
    return pi_digits(r, rn.n)


def digit_route_apply(psi, digits, beta: DvrElem) -> DvrElem:
    """sum teichmuller(psi(a_r)) beta^r over the pi-adic digits a_r, by
    DvrElem arithmetic at the precision of beta: the image of the element
    with these digits under the homomorphism (psi, beta), read digitwise."""
    R, n = beta.ring, beta.n
    wspec = R.wspec(n)
    acc, power = R.zero(n), R.one(n)
    for a in digits:
        acc = acc + from_witt(R, teichmuller(psi(a), wspec), n) * power
        power = power * beta
    return acc


def horner_image(psi, v, ctx, beta) -> tuple:
    """The image of the source flat vector v under the homomorphism (psi,
    beta), as a flat vector of the target context ctx: sum_j W(psi)(c_j)
    beta^j over the x^j coefficient blocks c_j of v, by Horner's rule in
    beta.  Any representatives of v and of the flat vector beta give the
    image to the precision the homomorphism is defined to."""
    w_psi = _witt_map(psi, ctx.M)
    d1 = w_psi.source.d
    pad = (0,) * (ctx.size - ctx.d)
    blocks = [w_psi.map_coords(v[j:j + d1]) + pad for j in range(0, len(v), d1)]
    return _horner(ctx, blocks, beta, 0)


def digit_by_digit_digits(ctx, v, n: int):
    """The first n pi-adic Teichmuller digits of the flat vector v of the
    context ctx: read digit r off one coefficient block (dvr._digit_at),
    subtract teichmuller(a_r) pi^r, repeat.  The differences are not
    reduced: _digit_at reads them exactly."""
    out = []
    for r in range(n):
        a = _digit_at(ctx, v, r)
        out.append(a)
        if r < n - 1 and any(a.coeffs):
            v = list(map(sub, v, ctx.terms[r][a.coeffs]))
    return tuple(out)


def divide_by_pi_digits(ring, v, n: int):
    """The first n pi-adic Teichmuller digits of the flat vector v of ring at
    precision n: take the residue a of the x^0 coefficient, subtract
    teichmuller(a), divide by pi = x, repeat.  x*u = z is solved from the
    top: u_{e-1} = -(z_0/p) w^-1 for a_0 = p*w, then u_{j-1} = z_j + u_{e-1}
    a_j; w mod p^M is a_0 mod p^(M+1) divided by p.  Each division leaves the
    top p-adic digit free; the guard digits of the precision absorb that
    choice."""
    wspec = ring.wspec(n)
    d, e = ring.d, ring.e
    f = [c.materialize(wspec) for c in ring.coeffs]
    w = ring.coeffs[0].materialize(make_witt(ring.k, wspec.M + 1)).divide_exact_by_p()
    neg_w_inv = -witt_unit_inv(wspec.from_coeffs(w.coeffs))
    z = [wspec.from_coeffs(v[j * d:(j + 1) * d]) for j in range(e)]
    digits = []
    for _ in range(n):
        a = z[0].residue()
        digits.append(a)
        top = (z[0] - teichmuller(a, wspec)).divide_exact_by_p() * neg_w_inv
        z = [z[j] + top * f[j] for j in range(1, e)] + [top]
    return tuple(digits)


def schoolbook_mul(ctx, a, b) -> tuple:
    """The product of two flat vectors of ctx by schoolbook multiplication:
    for d = 1 the convolution of the two coefficient lists, otherwise rows
    of 2d - 1 coordinates, one per power of x, each the product of two
    coefficient blocks; then one reduction by f and g."""
    e, d = ctx.e, ctx.d
    if d == 1:
        return _reduce_mod_f(ctx, _convolve(a, b))
    prod = [[0] * (2 * d - 1) for _ in range(2 * e - 1)]
    for i in range(e):
        for j in range(e):
            row = prod[i + j]
            for s, x in enumerate(a[i * d:(i + 1) * d]):
                for t, y in enumerate(b[j * d:(j + 1) * d]):
                    row[s + t] += x * y
    return _reduce_mod_f(ctx, prod)


_X, _Y = sympy.symbols("x y")


def flat_ring_op(spec, M: int, op: str, a, b):
    """a op b (op in "add", "sub", "mul") for flat vectors a, b: the e*d
    coordinates of elements of (Z/p^M)[y,x]/(g(y), f(x,y)), coordinate i of
    the x^j coefficient at index j*d + i.

    f must have integer-coordinate coefficients.  With lex order x > y the
    leading terms x^e of f and y^d of g are coprime, so {f, g} is a Groebner
    basis and the remainder is the unique normal form."""
    e, d, mod = spec.e, spec.d, spec.p ** M

    def poly(v):
        return sum(c * _X ** (idx // d) * _Y ** (idx % d) for idx, c in enumerate(v))

    g = sum(c * _Y ** i for i, c in enumerate(spec.k.defining_poly))
    f = _X ** e
    for j, coeff in enumerate(spec.coeffs):
        if coeff.kind != "int":
            raise ValueError("the oracle takes integer-coordinate coefficients only")
        f += _X ** j * sum(c * _Y ** i for i, c in enumerate(coeff.payload))
    expr = {"add": poly(a) + poly(b), "sub": poly(a) - poly(b), "mul": poly(a) * poly(b)}[op]
    _, rem = sympy.reduced(sympy.expand(expr), [f, g], _X, _Y, order="lex")
    out = [0] * (e * d)
    for (j, i), c in sympy.Poly(rem, _X, _Y).as_dict().items():
        c = sympy.Rational(c)
        if c.q != 1 or j >= e or i >= d:
            raise ValueError("remainder is not a normal form over Z")
        out[j * d + i] = int(c.p) % mod
    return tuple(out)


def _tables(rn: ResidueRingSpec):
    elems = list(enumerate_elements(rn))
    index = {x: i for i, x in enumerate(elems)}
    n = len(elems)
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            add[i][j] = index[rn.add(x, y)]
            mul[i][j] = index[rn.mul(x, y)]
    return elems, index, add, mul


def _expressions(rn, elems, index, add, mul):
    """One expression per element over the generators {1, h(theta), pi}:
    exprs[i] is ('one'|'gen'|'pi'|'zero') or ('add'|'mul', i1, i2) with both
    operands discovered earlier."""
    from ramlift.dvr import project
    from ramlift.witt import teichmuller

    spec = rn.ring
    one = index[rn.one()]
    zero = index[rn.zero()]
    wspec = spec.wspec(rn.n)
    gen = index[project(from_witt(spec, teichmuller(spec.k.generator(), wspec), rn.n), rn.n)]
    pi = index[project(spec.uniformizer(rn.n), rn.n)]
    exprs = {}
    order = []
    for idx, tag in ((zero, "zero"), (one, "one"), (gen, "gen"), (pi, "pi")):
        if idx not in exprs:
            exprs[idx] = (tag,)
            order.append(idx)
    frontier = True
    while frontier:
        frontier = False
        known = list(exprs)
        for i, j in itertools.product(known, repeat=2):
            for table, tag in ((add, "add"), (mul, "mul")):
                k = table[i][j]
                if k not in exprs:
                    exprs[k] = (tag, i, j)
                    order.append(k)
                    frontier = True
    assert len(exprs) == len(elems), "generators do not generate the ring"
    return [(idx, exprs[idx]) for idx in order]


def exhaustive_homs_as_tables(src: ResidueRingSpec, tgt: ResidueRingSpec):
    """All ring homomorphisms src -> tgt as image-index tuples, by exhausting
    generator assignments and checking the axioms on every element pair."""
    s_elems, s_index, s_add, s_mul = _tables(src)
    t_elems, t_index, t_add, t_mul = _tables(tgt)
    order = _expressions(src, s_elems, s_index, s_add, s_mul)
    t_one = t_index[tgt.one()]
    t_zero = t_index[tgt.zero()]

    def power(i, k):
        acc = t_one
        base = i
        while k:
            if k & 1:
                acc = t_mul[acc][base]
            base = t_mul[base][base]
            k >>= 1
        return acc

    def scalar(c, i):
        acc = t_zero
        base = i
        while c:
            if c & 1:
                acc = t_add[acc][base]
            base = t_add[base][base]
            c >>= 1
        return acc

    q1 = src.ring.q
    n1 = src.n
    char_exp = -(-n1 // src.ring.e)  # p^ceil(n1/e) kills the source
    gen_candidates = [i for i in range(len(t_elems)) if power(i, q1) == i]
    if src.ring.d == 1:
        gen_candidates = [t_one]
    pi_candidates = [i for i in range(len(t_elems)) if power(i, n1) == t_zero]
    found = []
    if scalar(src.ring.p ** char_exp, t_one) != t_zero:
        return found, s_elems, t_elems  # source characteristic does not map to zero
    for u, v in itertools.product(gen_candidates, pi_candidates):
        images = {}
        ok = True
        for idx, expr in order:
            if expr[0] == "zero":
                images[idx] = t_zero
            elif expr[0] == "one":
                images[idx] = t_one
            elif expr[0] == "gen":
                images[idx] = u
            elif expr[0] == "pi":
                images[idx] = v
            else:
                tag, i, j = expr
                table = t_add if tag == "add" else t_mul
                images[idx] = table[images[i]][images[j]]
        for i, j in itertools.product(range(len(s_elems)), repeat=2):
            if images[s_add[i][j]] != t_add[images[i]][images[j]]:
                ok = False
                break
            if images[s_mul[i][j]] != t_mul[images[i]][images[j]]:
                ok = False
                break
        if ok:
            found.append(tuple(images[i] for i in range(len(s_elems))))
    return sorted(set(found)), s_elems, t_elems


def hom_as_table(h, s_elems, t_index):
    return tuple(t_index[h.apply(x)] for x in s_elems)
