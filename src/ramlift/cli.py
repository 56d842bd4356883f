"""Command-line surface: ring construction from JSON specs, homomorphism
enumeration and lifting, bound tables, root existence, and named demo
fixtures with frozen expected output.

Output is JSON (sorted keys, so runs are byte-identical) unless --text asks
for human-readable tables.  Exit codes: 0 success, 2 input error, 3 resource
cap, 4 precondition violation.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .dvr import (
    _json_int,
    _json_list,
    dvr_elem_text,
    parse_dvr_elem_text,
    parse_ring_spec,
    project,
    residue_ring,
    ring_spec_to_json,
)
from .errors import PreconditionBound, RamliftError, TooLarge
from .homlift import (
    count_homs,
    enumerate_homs,
    enumerate_isos,
    has_root,
    lift_hom,
    project_hom,
    residue_hom,
)
from .ramification import (
    different_val,
    discriminant_val,
    generic_bounds,
    krasner_bound,
    lift_precision_bound,
)
from .resfield import FieldEmbedding, enumeration_cap, eval_poly


class InputError(Exception):
    """Bad command-line input (exit code 2)."""


def _load_json_arg(text: str):
    try:
        if text.startswith("@"):
            with open(text[1:], "r", encoding="utf-8") as fh:
                return json.load(fh)
        return json.loads(text)
    except OSError as exc:
        raise InputError(f"cannot read {text[1:]!r}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer beyond the interpreter's digit limit
        raise InputError(f"not valid JSON: {_too_many_digits()}") from exc


def _too_many_digits() -> str:
    return f"integer literals are limited to {sys.get_int_max_str_digits()} digits"


def _int_literal(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:
        raise InputError(_too_many_digits()) from None


def _ring_from_arg(text: str):
    obj = _load_json_arg(text)
    try:
        return parse_ring_spec(obj)
    except (RamliftError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{type(exc).__name__}: {exc}") from exc


def parse_poly_text(s: str):
    """Ascending integer coefficients of expressions like "x^2-3", without
    zero top coefficients; the zero polynomial gives []."""
    s = s.replace(" ", "")
    if not s:
        raise InputError("empty polynomial")
    # every term after the first opens with its sign, the first may too
    terms = re.split(r"(?=[+-])", s)
    if not terms[0]:
        terms.pop(0)
    coeffs: dict[int, int] = {}
    for term in terms:
        if term in ("+", "-"):
            raise InputError(f"empty term in polynomial {s!r}")
        m = re.fullmatch(r"([+-])?(\d+)?\*?(x(?:\^(\d+))?)?", term)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise InputError(f"cannot parse term {term!r}")
        c = _int_literal(m.group(2)) if m.group(2) is not None else 1
        if m.group(1) == "-":
            c = -c
        exp = 0
        if m.group(3):
            exp = _int_literal(m.group(4)) if m.group(4) else 1
        coeffs[exp] = coeffs.get(exp, 0) + c
    # terms that cancel do not count towards the degree
    deg = max((exp for exp, c in coeffs.items() if c), default=-1)
    cap = enumeration_cap()
    if deg > cap:
        raise TooLarge(f"polynomial degree {deg} exceeds the enumeration cap {cap}")
    return [coeffs.get(i, 0) for i in range(deg + 1)]


def _emit(args, payload) -> str:
    if getattr(args, "text", False):
        return _as_text(payload)
    return json.dumps(payload, sort_keys=True)


def _as_text(payload, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(payload, dict):
        lines = []
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_as_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
        return "\n".join(lines)
    if isinstance(payload, list):
        return "\n".join(_as_text(v, indent) for v in payload)
    return f"{pad}{payload}"


# ---------------------------------------------------------------------------
# subcommands


def ring_summary(R) -> dict:
    rep_m = krasner_bound(R)
    spec = ring_spec_to_json(R)
    return {
        "p": R.p,
        "q": R.q,
        "e": R.e,
        "eisenstein": spec["eisenstein"],
        "residue": spec["residue"],
        "tame": R.e % R.p != 0,
        "M": str(rep_m),
        "different": different_val(R),
        "discriminant": discriminant_val(R),
        "lift_precision_bound_self": lift_precision_bound(R, R.e),
    }


def cmd_ring(args) -> str:
    return _emit(args, ring_summary(_ring_from_arg(args.spec)))


def cmd_homs(args) -> str:
    src_ring = _ring_from_arg(args.src)
    tgt_ring = _ring_from_arg(args.tgt)
    if args.n1 < 1 or args.n2 < 1:
        raise InputError(f"lengths must be >= 1, got n1={args.n1}, n2={args.n2}")
    src = residue_ring(src_ring, args.n1)
    tgt = residue_ring(tgt_ring, args.n2)
    if args.count and not args.iso:
        return _emit(args, {"count": count_homs(src, tgt)})
    homs = enumerate_isos(src, tgt) if args.iso else enumerate_homs(src, tgt)
    if args.count:
        return _emit(args, {"count": len(homs)})
    return _emit(args, [h.to_json() for h in homs])


def _parse_hom(src_ring, tgt_ring, obj):
    try:
        n1 = obj.get("n1") or (obj.get("source") or {}).get("n")
        n2 = obj.get("n2") or (obj.get("target") or {}).get("n")
        if n1 is None or n2 is None:
            raise InputError("homomorphism JSON must carry n1/n2 lengths")
        _json_int(n1, "n1")
        _json_int(n2, "n2")
        coords = _json_list(obj["psi"]["image_of_generator"], "psi.image_of_generator")
        for c in coords:
            _json_int(c, "a psi.image_of_generator entry")
        image = tgt_ring.k.from_coeffs(coords)
        if not eval_poly(src_ring.k.defining_poly, image).is_zero():
            raise InputError("psi image is not a root of the source defining polynomial")
        psi = FieldEmbedding(src_ring.k, tgt_ring.k, image)
        beta_elem = parse_dvr_elem_text(tgt_ring, obj["beta"])
        if beta_elem.n < n2:
            raise InputError(f"beta has {beta_elem.n} digits, the target length n2 = {n2} needs {n2}")
        if beta_elem.n != n2:
            beta_elem = beta_elem.reduce_to(n2)
        beta = project(beta_elem, n2)
        return residue_hom(residue_ring(src_ring, n1), residue_ring(tgt_ring, n2), psi, beta)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad homomorphism JSON: {exc}") from exc


def cmd_lift(args) -> str:
    src_ring = _ring_from_arg(args.src)
    tgt_ring = _ring_from_arg(args.tgt)
    phi = _parse_hom(src_ring, tgt_ring, _load_json_arg(args.hom))
    g = lift_hom(phi, min_prec=args.out_prec)
    payload = g.to_json()
    n1, n2 = phi.source.n, phi.target.n
    if n2 * g.source.e <= n1 * g.target.e:
        back = project_hom(g, n1, n2)
        if back != phi:
            payload["warning"] = "projection differs from input hom"
    return _emit(args, payload)


def cmd_bounds(args) -> str:
    row = dict(generic_bounds(args.p, args.e))
    row.update({"p": args.p, "e": args.e})
    return _emit(args, row)


def cmd_hasroot(args) -> str:
    R = _ring_from_arg(args.spec)
    coeffs = parse_poly_text(args.poly)
    if not coeffs or coeffs[-1] != 1:
        raise InputError("polynomial must be monic")
    res = has_root(R, coeffs)
    payload = {"answer": res.kind, "precision": res.precision}
    if res.root is not None:
        payload["root"] = dvr_elem_text(res.root)
    return _emit(args, payload)


def cmd_demo(args) -> str:
    from .fixtures import run_fixture

    try:
        payload = run_fixture(args.id)
    except KeyError as exc:
        raise InputError(f"unknown fixture {args.id!r}") from exc
    out = _emit(args, payload)
    if payload["status"] != "PASS":
        print(out)
        raise SystemExit(1)
    return out


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: one line on stderr, exit 2."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")

    def _parse_optional(self, arg_string):
        # no option opens with "-" and a digit or x: "-3+x^2" is a polynomial
        return None if re.match(r"-[\dx]", arg_string) else super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ramlift",
        description="Exact arithmetic and homomorphism lifting for finitely "
        "ramified complete DVRs of mixed characteristic.",
    )
    parser.add_argument("--text", action="store_true", help="human-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ring = sub.add_parser("ring", help="summarize a ring given its JSON spec")
    p_ring.add_argument("spec", help="ring spec JSON (inline or @file)")
    p_ring.set_defaults(func=cmd_ring)

    p_homs = sub.add_parser("homs", help="enumerate residue-ring homomorphisms")
    p_homs.add_argument("src")
    p_homs.add_argument("tgt")
    p_homs.add_argument("n1", type=int)
    p_homs.add_argument("n2", type=int)
    p_homs.add_argument("--iso", action="store_true", help="isomorphisms only")
    p_homs.add_argument("--count", action="store_true", help="print the count only")
    p_homs.set_defaults(func=cmd_homs)

    p_lift = sub.add_parser("lift", help="lift a residue-ring homomorphism")
    p_lift.add_argument("src")
    p_lift.add_argument("tgt")
    p_lift.add_argument("hom", help="homomorphism JSON (inline or @file)")
    p_lift.add_argument("out_prec", type=int)
    p_lift.set_defaults(func=cmd_lift)

    p_bounds = sub.add_parser("bounds", help="lifting-number bounds for (p, e)")
    p_bounds.add_argument("p", type=int)
    p_bounds.add_argument("e", type=int)
    p_bounds.set_defaults(func=cmd_bounds)

    p_root = sub.add_parser("hasroot", help="decide existence of a root in the ring")
    p_root.add_argument("spec")
    p_root.add_argument("poly", help='monic integer polynomial, e.g. "x^2-3"')
    p_root.set_defaults(func=cmd_hasroot)

    p_demo = sub.add_parser("demo", help="run a named fixture and report PASS/FAIL")
    p_demo.add_argument("id")
    p_demo.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        out = args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TooLarge as exc:
        print(f"error: TooLarge: {exc}", file=sys.stderr)
        return 3
    except PreconditionBound as exc:
        print(f"error: PreconditionBound: {exc}", file=sys.stderr)
        return 4
    except RamliftError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
