"""Command-line surface: ring construction from JSON specs, homomorphism
enumeration and lifting, bound tables, root existence, and named demo
fixtures with frozen expected output.

Grammar: ``ramlift [--text] COMMAND ARGS...``, where COMMANDS gives each
command's positionals, which of them are integers, and its flags (``homs``:
--iso, --count), which may come in any order anywhere after the command.
A word that opens with "-" and a digit or x, or that holds a space, is a
positional; after "--" every word is.  Options are spelt out in full:
no abbreviation is accepted.  -h/--help prints usage on stdout.

Output is JSON (sorted keys, so runs are byte-identical) unless --text asks
for human-readable tables.  Exit codes: 0 success and help, 1 a demo
fixture that does not PASS (its record still printed), 2 input error
(usage errors included, each one line on stderr), 3 resource cap, 4
precondition violation, 120 output that cannot be written, 141 output
closed by its reader (a broken pipe); the last two print one line on
stderr, if it can be written, and no traceback.

A process runs ``run``, which ends it with os._exit once main has returned
and stdout is flushed, as each error line on stderr was when written: the
interpreter's teardown of every loaded module is skipped, since ramlift
leaves it nothing to do.  main returns its code, so it can run in-process.
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace

from .dvr import (
    _json_int,
    _json_list,
    ResidueElt,
    dvr_elem_text,
    parse_pi_digits,
    parse_ring_spec,
    residue_ring,
    ring_spec_to_json,
)
from .errors import PreconditionBound, RamliftError, TooLarge, too_many_digits
from .homlift import (
    HomSet,
    has_root,
    lift_hom,
    project_hom,
    residue_hom,
)
from .ramification import generic_bounds, lift_precision_bound, ramification_report
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
        raise InputError(f"not valid JSON: {too_many_digits()}") from exc


def _int_literal(digits: str, what: str = "") -> int:
    """int(digits), or an InputError opened by `what`; a literal longer than
    the interpreter's digit limit is named by that limit, not echoed."""
    try:
        return int(digits)
    except ValueError:
        pass
    if 0 < sys.get_int_max_str_digits() < len(digits):
        raise InputError(what + too_many_digits())
    raise InputError(f"{what}invalid int value: {digits!r}")


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
    rep = ramification_report(R)
    spec = ring_spec_to_json(R)
    return {
        "p": R.p,
        "q": R.q,
        "e": rep.e,
        "eisenstein": spec["eisenstein"],
        "residue": spec["residue"],
        "tame": rep.tame,
        "M": str(rep.M),
        "different": rep.different_val,
        "discriminant": rep.discriminant_val,
        "lift_precision_bound_self": lift_precision_bound(R, R.e),
    }


def cmd_ring(args) -> str:
    return _emit(args, ring_summary(_ring_from_arg(args.spec)))


def cmd_homs(args) -> str:
    src_ring = _ring_from_arg(args.src)
    tgt_ring = _ring_from_arg(args.tgt)
    if args.n1 < 1 or args.n2 < 1:
        raise InputError(f"lengths must be >= 1, got n1={args.n1}, n2={args.n2}")
    homs = HomSet(residue_ring(src_ring, args.n1), residue_ring(tgt_ring, args.n2))
    homs = homs.isos() if args.iso else homs
    if args.count:
        return _emit(args, {"count": homs.count()})
    return _emit(args, [h.to_json() for h in homs])


_JSON_KINDS = {dict: "an object", str: "a string"}


def _hom_field(value, kind, what: str):
    """value, when it is of the JSON kind a homomorphism needs there, else
    an InputError naming the field."""
    if not isinstance(value, kind):
        raise InputError(f"bad homomorphism JSON: {what} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def _parse_hom(src_ring, tgt_ring, obj):
    _hom_field(obj, dict, "the homomorphism")
    try:
        # source.n/target.n stand in only for an absent n1/n2
        n1 = obj["n1"] if "n1" in obj else _hom_field(obj.get("source") or {}, dict, "source").get("n")
        n2 = obj["n2"] if "n2" in obj else _hom_field(obj.get("target") or {}, dict, "target").get("n")
        if n1 is None or n2 is None:
            raise InputError("homomorphism JSON must carry n1/n2 lengths")
        _json_int(n1, "n1")
        _json_int(n2, "n2")
        coords = _json_list(_hom_field(obj["psi"], dict, "psi")["image_of_generator"],
                            "psi.image_of_generator")
        for c in coords:
            _json_int(c, "a psi.image_of_generator entry")
        image = tgt_ring.k.from_coeffs(coords)
        if not eval_poly(src_ring.k.defining_poly, image).is_zero():
            raise InputError("psi image is not a root of the source defining polynomial")
        psi = FieldEmbedding(src_ring.k, tgt_ring.k, image)
        digits = parse_pi_digits(tgt_ring.k, _hom_field(obj["beta"], str, "beta"))
        if len(digits) < n2:
            raise InputError(f"beta has {len(digits)} digits, the target length n2 = {n2} needs {n2}")
        tgt = residue_ring(tgt_ring, n2)
        return residue_hom(residue_ring(src_ring, n1), tgt, psi, ResidueElt(tgt, digits[:n2]))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad homomorphism JSON: {exc}") from exc


def cmd_lift(args) -> str:
    src_ring = _ring_from_arg(args.src)
    tgt_ring = _ring_from_arg(args.tgt)
    if args.out_prec < 1:
        raise InputError(f"out_prec must be >= 1, got {args.out_prec}")
    digits_cap = sys.get_int_max_str_digits()
    if digits_cap and args.out_prec > digits_cap:
        raise TooLarge(f"OUT_PREC {args.out_prec} exceeds the {digits_cap}-digit integer limit")
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


# ---------------------------------------------------------------------------
# command line

# name: (positionals, the integer ones, flags, summary); main calls cmd_<name>
COMMANDS = {
    "ring": (("spec",), (), (), "summarize the ring of a JSON spec (inline or @file)"),
    "homs": (("src", "tgt", "n1", "n2"), ("n1", "n2"), ("--iso", "--count"),
             "enumerate the homomorphisms src/m^n1 -> tgt/m^n2; "
             "--iso: isomorphisms only, --count: print the count only"),
    "lift": (("src", "tgt", "hom", "out_prec"), ("out_prec",), (),
             "lift a residue-ring homomorphism (JSON, inline or @file) to precision out_prec"),
    "bounds": (("p", "e"), ("p", "e"), (), "lifting-number bounds for (p, e)"),
    "hasroot": (("spec", "poly"), (), (),
                'decide whether a monic integer polynomial, e.g. "x^2-3", has a root in the ring'),
    "demo": (("id",), (), (), "run a named fixture and report PASS/FAIL"),
}


def _is_option(arg: str) -> bool:
    # no option opens with "-" and a digit or x: "-3+x^2" is a polynomial
    return arg[:1] == "-" and arg != "-" and " " not in arg and not re.match(r"-[\dx]", arg)


def _parse_args(argv):
    """(command, arguments) read from argv through COMMANDS; the arguments
    are None when -h/--help asks for usage, and so is the command when
    that usage is ramlift's."""
    text = False
    words = iter(argv)
    for name in words:
        if not _is_option(name):
            break
        if name in ("-h", "--help"):
            return None, None
        if name != "--text":
            raise InputError(f"ramlift: unrecognized arguments: {name}")
        text = True
    else:
        raise InputError("ramlift: the following arguments are required: command")
    if name not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        raise InputError(f"ramlift: argument command: invalid choice: {name!r} (choose from {choices})")
    positionals, ints, flags, _ = COMMANDS[name]
    args = {"text": text, **{flag[2:]: False for flag in flags}}
    given, unknown = [], []
    for arg in words:
        if arg == "--":
            given.extend(words)  # the rest, which ends the loop
        elif not _is_option(arg):
            given.append(arg)
        elif arg in ("-h", "--help"):
            return name, None
        elif arg in flags:
            args[arg[2:]] = True
        else:
            unknown.append(arg)
    prog = "ramlift " + name
    if len(given) < len(positionals):
        missing = ", ".join(positionals[len(given):])
        raise InputError(f"{prog}: the following arguments are required: {missing}")
    unknown += given[len(positionals):]
    if unknown:
        raise InputError(f"{prog}: unrecognized arguments: {' '.join(unknown)}")
    for key, word in zip(positionals, given):
        args[key] = _int_literal(word, f"{prog}: argument {key}: ") if key in ints else word
    return name, SimpleNamespace(**args)


def _synopsis(name: str) -> str:
    positionals, _, flags, _ = COMMANDS[name]
    return " ".join([name, "[-h]", *(f"[{flag}]" for flag in flags), *positionals])


def _usage(name=None) -> str:
    """The -h/--help text of a command, or of ramlift when name is None."""
    if name is not None:
        return f"usage: ramlift {_synopsis(name)}\n\n{COMMANDS[name][3]}"
    commands = "\n".join(f"  {_synopsis(n)}\n      {COMMANDS[n][3]}" for n in COMMANDS)
    return ("usage: ramlift [-h] [--text] COMMAND ARGS...\n\n"
            "Exact arithmetic and homomorphism lifting for finitely ramified\n"
            "complete DVRs of mixed characteristic.\n\n"
            f"commands:\n{commands}\n\n"
            "options:\n  -h, --help  show this help and exit\n  --text      human-readable output")


def main(argv=None) -> int:
    try:
        name, args = _parse_args(sys.argv[1:] if argv is None else argv)
        # looked up per call: a wrapper bound over cmd_<name> is the one that runs
        out = _usage(name) if args is None else globals()["cmd_" + name](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except InputError as exc:
        return _error(2, exc)
    except TooLarge as exc:
        return _error(3, f"TooLarge: {exc}")
    except PreconditionBound as exc:
        return _error(4, f"PreconditionBound: {exc}")
    except RamliftError as exc:
        return _error(2, f"{type(exc).__name__}: {exc}")
    print(out)
    return 0


def _error(code: int, message) -> int:
    """Write "error: message" on stderr and return code.  The line is dropped
    where stderr is None (closed by 2>&-), as print would put it on stdout, or
    cannot be written: stdout carries only output, and the code stays code."""
    if sys.stderr is not None:
        try:
            print(f"error: {message}", file=sys.stderr, flush=True)
        except OSError:
            pass
    return code


# a shell reports 141 for a process killed by SIGPIPE, and CPython exits
# 120 when it cannot flush stdout at exit
BROKEN_PIPE = 141
WRITE_FAILED = 120


def run(argv=None):
    """The process entry point: main's exit code ends the process, by
    os._exit once stdout (unless None, as under >&-) is flushed; stderr is
    line-buffered, and _error flushes each line it writes there.  Output
    that cannot be written, to a reader that closed it (BROKEN_PIPE) or for
    another reason (WRITE_FAILED), exits with one line on stderr; any other
    exception escaping main exits as usual, with its traceback and code 1."""
    try:
        code = main(argv)
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:
        code = _error(BROKEN_PIPE, "output closed by its reader (broken pipe)")
    except OSError as exc:
        code = _error(WRITE_FAILED, f"cannot write the output: {exc.strerror or exc}")
    os._exit(code)


if __name__ == "__main__":
    run()
