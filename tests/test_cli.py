import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramlift import homlift
from ramlift.cli import COMMANDS, main, parse_poly_text

S3 = '{"p":3,"residue":{"d":1,"poly":[0,1]},"eisenstein":[-3,0,1]}'
SM3 = '{"p":3,"residue":{"d":1,"poly":[0,1]},"eisenstein":[3,0,1]}'
W2 = '{"p":2,"residue":{"d":1,"poly":[0,1]},"eisenstein":[-2,0,1]}'
W10 = '{"p":2,"residue":{"d":1,"poly":[0,1]},"eisenstein":[-10,0,1]}'


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_parse_poly_text():
    assert parse_poly_text("x^2-3") == [-3, 0, 1]
    assert parse_poly_text("x^3 - 3") == [-3, 0, 0, 1]
    assert parse_poly_text("x^2+0*x-2") == [-2, 0, 1]
    assert parse_poly_text("-x+1") == [1, -1]
    assert parse_poly_text("+x^2-1") == [-1, 0, 1]
    assert parse_poly_text("x") == [0, 1]
    assert parse_poly_text("1") == [1]


@pytest.mark.parametrize("poly", ["x^2+", "x^2++1", "x^2+-1", "x^2-", "+"])
def test_hasroot_empty_term_exit_2(capsys, poly):
    rc, out, err = run(capsys, "hasroot", S3, poly)
    _one_line_exit_2(rc, err)
    assert out == "" and "empty term" in err


def test_ring_summary(capsys):
    rc, out, _ = run(capsys, "ring", S3)
    assert rc == 0
    obj = json.loads(out)
    assert obj["M"] == "1/2" and obj["different"] == 1 and obj["tame"] is True
    assert obj["lift_precision_bound_self"] == 3


def test_ring_summary_wild(capsys):
    rc, out, _ = run(capsys, "ring", W2)
    obj = json.loads(out)
    assert rc == 0
    assert obj["M"] == "3/2" and obj["different"] == 3 and obj["tame"] is False


def test_ring_rejects_non_eisenstein(capsys):
    for bad, why in (('{"p":3,"residue":{"d":1,"poly":[0,1]},"eisenstein":[-9,0,1]}',
                      "constant term has p-adic valuation 2, expected 1"),
                     ('{"p":3,"eisenstein":[0,0,1]}', "constant term is zero, expected p-adic valuation 1")):
        rc, _, err = run(capsys, "ring", bad)
        _one_line_exit_2(rc, err)
        assert f"NotEisenstein: {why}" in err


def test_ring_rejects_bad_json(capsys):
    rc, _, err = run(capsys, "ring", "{nope")
    assert rc == 2


def test_homs_counts(capsys):
    rc, out, _ = run(capsys, "homs", S3, SM3, "2", "2", "--iso", "--count")
    assert rc == 0 and json.loads(out) == {"count": 2}
    rc, out, _ = run(capsys, "homs", S3, SM3, "3", "3", "--count")
    assert rc == 0 and json.loads(out) == {"count": 0}


def test_homs_count_is_not_capped(capsys):
    # W(F4)[x]/(x^4 - 2) at n = 12 has 2^24 elements, past the cap of 10^7:
    # counts, of homs or of isos, sum balls of betas, while listings stay capped
    w4 = '{"p":2,"residue":{"d":2},"eisenstein":[-2,0,0,0,1]}'
    for extra in (["--count"], ["--iso", "--count"]):
        rc, out, err = run(capsys, "homs", w4, w4, "12", "12", *extra)
        assert (rc, json.loads(out), err) == (0, {"count": 524288}, "")
    for extra in ([], ["--iso"]):
        rc, out, err = run(capsys, "homs", w4, w4, "12", "12", *extra)
        assert rc == 3 and out == "" and "TooLarge" in err
    # x^4 + 4x + 6 and x^4 + 4x + 2 over Z2 at n = 24: 2^24 elements
    a, b = '{"p":2,"eisenstein":[6,4,0,0,1]}', '{"p":2,"eisenstein":[2,4,0,0,1]}'
    rc, out, err = run(capsys, "homs", a, b, "24", "24", "--iso", "--count")
    assert (rc, json.loads(out), err) == (0, {"count": 256}, "")


def test_homs_listing_shape(capsys):
    rc, out, _ = run(capsys, "homs", S3, SM3, "2", "2", "--iso")
    assert rc == 0
    items = json.loads(out)
    assert len(items) == 2
    assert all({"psi", "beta", "source", "target"} <= set(it) for it in items)


def test_homs_too_large(capsys, monkeypatch):
    monkeypatch.setenv("RAMLIFT_ENUM_CAP", "5")
    rc, _, err = run(capsys, "homs", S3, SM3, "2", "2")
    assert rc == 3
    assert "TooLarge" in err


def test_homs_huge_length_exit_3(capsys, monkeypatch):
    # q^n2 has 47713 digits: it is neither formed nor printed
    rc, _, err = run(capsys, "homs", S3, S3, "1", "100000")
    assert rc == 3
    assert err == "error: TooLarge: 3^100000 target elements exceed the enumeration cap 10000000\n"

    # isos between rings of unequal sizes answer before any search or cap
    # check: an unreadable cap would exit 2, a search would take minutes
    def no_search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(homlift, "_ball_search", no_search)
    for bad in ("not-a-number", "-5"):
        monkeypatch.setenv("RAMLIFT_ENUM_CAP", bad)
        rc, out, err = run(capsys, "homs", S3, S3, "1", "100000", "--iso")
        assert (rc, out, err) == (0, "[]\n", "")
        rc, out, err = run(capsys, "homs", S3, S3, "1", "100000", "--iso", "--count")
        assert (rc, json.loads(out), err) == (0, {"count": 0}, "")


def test_lift_identity(capsys):
    hom = '{"psi":{"image_of_generator":[0]},"beta":"pi:0,1,0","n1":3,"n2":3}'
    rc, out, _ = run(capsys, "lift", S3, S3, hom, "6")
    assert rc == 0
    obj = json.loads(out)
    assert obj["rho"].startswith("π:0,1,0,0")
    assert "warning" not in obj


def test_lift_twist_warns(capsys):
    hom = '{"psi":{"image_of_generator":[0]},"beta":"pi:0,1,0,1","n1":4,"n2":4}'
    rc, out, _ = run(capsys, "lift", S3, S3, hom, "8")
    assert rc == 0
    obj = json.loads(out)
    assert obj["warning"] == "projection differs from input hom"
    assert obj["rho"] == "π:0,1,0,0,0,0,0,0"


def test_lift_into_a_more_ramified_ring(capsys):
    src = '{"p":2,"eisenstein":[-2,1]}'
    tgt = '{"p":2,"eisenstein":[-2,0,0,0,1]}'
    hom = '{"psi":{"image_of_generator":[0]},"beta":"π:0,0","n1":1,"n2":2}'
    rc, out, err = run(capsys, "lift", src, tgt, hom, "1")
    assert rc == 0, err
    assert json.loads(out)["rho"] == "π:0,0,0,0,1"


def test_lift_below_bound_exit_4(capsys):
    hom = '{"psi":{"image_of_generator":[0]},"beta":"pi:0,1","n1":2,"n2":2}'
    rc, _, err = run(capsys, "lift", S3, SM3, hom, "4")
    assert rc == 4
    assert "requires n2 >= 3" in err
    # the refusal names the bound it rests on: n2 > M(R1)*e1*e2 = 2
    assert err == ("error: PreconditionBound: requires n2 >= 3, got 2: a unique lift needs "
                   "n2 > M(R1)*e1*e2, with M(R1) = 1/2, e1 = 2, e2 = 2\n")


def test_bounds(capsys):
    rc, out, _ = run(capsys, "bounds", "2", "2")
    obj = json.loads(out)
    assert rc == 0 and obj["upper"] == 7 and obj["lower"] == 3
    rc, out, _ = run(capsys, "bounds", "3", "2")
    assert json.loads(out)["tame_exact"] == 3


def test_hasroot(capsys):
    rc, out, _ = run(capsys, "hasroot", SM3, "x^2-3")
    assert rc == 0 and json.loads(out)["answer"] == "no"
    rc, out, _ = run(capsys, "hasroot", S3, "x^2-3")
    assert rc == 0 and json.loads(out)["answer"] == "yes"
    rc, out, _ = run(capsys, "hasroot", W10, "x^2-2")
    assert rc == 0 and json.loads(out)["answer"] == "no"
    # the constant 1 has no root; it is not read as x + 1
    rc, out, _ = run(capsys, "hasroot", S3, "1")
    assert rc == 0 and json.loads(out) == {"answer": "no", "precision": 4}
    # two close roots: a ball of radius t that t cannot separate is
    # refused, never dropped, so a deeper search finds one of them
    for ring, poly in ((SM3, "x^2-243x+13122"),  # (x - 81)(x - 162)
                       (W10, "x^2+12x-28"),  # (x - 2)(x + 14)
                       ('{"p":2,"eisenstein":[-2,1]}', "x^2+44x+228")):  # (x + 6)(x + 38)
        rc, out, _ = run(capsys, "hasroot", ring, poly)
        assert rc == 0 and json.loads(out)["answer"] == "yes", poly


@pytest.mark.parametrize("poly, rc", [("-3+x^2", 0), ("-x+1", 2)])
def test_hasroot_leading_minus(capsys, poly, rc):
    # a polynomial that opens with a minus sign is not read as an option; -x+1
    # is refused as not monic, as it is after "--"
    got = run(capsys, "hasroot", S3, poly)
    assert got == run(capsys, "hasroot", S3, "--", poly)
    assert got[0] == rc
    assert run(capsys, "--text", "hasroot", S3, poly)[0] == rc
    help_rc, out, _ = run(capsys, "hasroot", "--help")
    assert help_rc == 0 and "poly" in out


@pytest.mark.parametrize("poly", ["x^3-x^3+x^2-3", "x^2-3+0x^5"])
def test_hasroot_zero_top_terms_do_not_count(capsys, poly):
    # both are x^2 - 3: terms that cancel or vanish do not raise the degree
    assert parse_poly_text(poly) == [-3, 0, 1]
    assert run(capsys, "hasroot", S3, poly) == run(capsys, "hasroot", S3, "x^2-3")


@pytest.mark.parametrize("fid", ["ex-2-13-1", "ex-2-13-2", "wild-2-2", "ex-4-12", "tame-atlas"])
def test_demo_fixtures_pass(capsys, fid):
    rc, out, _ = run(capsys, "demo", fid)
    assert rc == 0
    assert json.loads(out)["status"] == "PASS"


def test_demo_unknown_fixture(capsys):
    rc, _, err = run(capsys, "demo", "nope")
    assert rc == 2


def test_demo_deterministic_output(capsys):
    _, first, _ = run(capsys, "demo", "ex-2-13-1")
    _, second, _ = run(capsys, "demo", "ex-2-13-1")
    assert first == second


def test_no_floats_in_outputs(capsys):
    for argv in (
        ["ring", S3],
        ["ring", W2],
        ["bounds", "2", "2"],
        ["demo", "ex-4-12"],
    ):
        rc, out, _ = run(capsys, *argv)
        assert rc == 0

        def walk(x):
            if isinstance(x, float):
                raise AssertionError("float leaked into CLI output")
            if isinstance(x, dict):
                for v in x.values():
                    walk(v)
            if isinstance(x, list):
                for v in x:
                    walk(v)

        walk(json.loads(out))


def test_text_mode(capsys):
    rc, out, _ = run(capsys, "--text", "ring", S3)
    assert rc == 0
    assert "M: 1/2" in out


def _child_env() -> dict:
    """The environment with this ramlift's source directory on PYTHONPATH,
    so a child process imports the same package as the tests."""
    import os

    import ramlift

    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(ramlift.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point_subprocess():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "ramlift", "demo", "tame-atlas"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "PASS"


# A process ends by os._exit, which writes no buffer: these children drop
# PYTHONUNBUFFERED, so stdout to a file or a pipe is block-buffered and only
# the entry point's flush can write it.


def _buffered_env(unbuffered: bool = False) -> dict:
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONIOENCODING"] = "utf-8"
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _script_command() -> list:
    """The installed ramlift command, as the wrapper that pip writes for
    pyproject's [project.scripts] entry calls it."""
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    module, func = re.search(r'^ramlift = "([\w.]+):(\w+)"$', text, re.M).groups()
    return ["-c", f"import sys; from {module} import {func}; sys.exit({func}())"]


_HOM_BELOW_BOUND = '{"psi":{"image_of_generator":[0]},"beta":"pi:0,1","n1":2,"n2":2}'


@pytest.mark.parametrize("argv, rc", [
    *((("demo", fid), 0) for fid in ["ex-2-13-1", "ex-2-13-2", "wild-2-2", "ex-4-12", "tame-atlas"]),
    (("--text", "hasroot", S3, "x^2-3"), 0),
    (("-h",), 0),
    (("homs", S3, S3, "0", "3"), 2),
    (("hasroot", S3, "x^99999999999"), 3),
    (("lift", S3, SM3, _HOM_BELOW_BOUND, "4"), 4),
], ids=["demo-ex-2-13-1", "demo-ex-2-13-2", "demo-wild-2-2", "demo-ex-4-12", "demo-tame-atlas",
        "text-hasroot", "help", "exit-2", "exit-3", "exit-4"])
def test_child_process_writes_what_main_returns(capsys, tmp_path, argv, rc):
    code, out, err = run(capsys, *argv)
    assert code == rc
    with open(tmp_path / "stdout", "wb") as fh:
        proc = subprocess.run([sys.executable, "-m", "ramlift", *argv], stdout=fh,
                              stderr=subprocess.PIPE, env=_buffered_env(), timeout=120)
    assert proc.returncode == rc
    assert (tmp_path / "stdout").read_bytes() == out.encode("utf-8")
    assert len(proc.stderr.splitlines()) == len(err.splitlines())


@pytest.mark.parametrize("entry", [["-m", "ramlift"], ["-m", "ramlift.cli"], "script"])
def test_every_entry_point_flushes_and_exits_with_main(tmp_path, entry):
    command = _script_command() if entry == "script" else entry
    bounds = b'{"basarab_upper": 3, "e": 2, "lower": 3, "p": 3, "tame_exact": 3, "upper": 3}\n'
    for argv, rc, out, err in ((["bounds", "3", "2"], 0, bounds, b""),
                               (["bounds", "4", "2"], 2, b"", b"error: NotPrime: 4 is not prime\n")):
        with open(tmp_path / "stdout", "wb") as fh:
            proc = subprocess.run([sys.executable, *command, *argv], stdout=fh,
                                  stderr=subprocess.PIPE, env=_buffered_env(), timeout=60)
        assert (proc.returncode, (tmp_path / "stdout").read_bytes(), proc.stderr) == (rc, out, err)


def test_run_skips_interpreter_teardown():
    # an exit hook registered before run is part of the teardown it skips
    code = ("import atexit, sys; from ramlift.cli import run; "
            "atexit.register(print, 'torn down', file=sys.stderr); run()")
    proc = subprocess.run([sys.executable, "-c", code, "bounds", "3", "2"], capture_output=True,
                          env=_buffered_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert json.loads(proc.stdout)["upper"] == 3


def _closed_pipe() -> int:
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("open_stdout, rc, line", [
    (_closed_pipe, 141, "error: output closed by its reader (broken pipe)"),
    (lambda: os.open("/dev/full", os.O_WRONLY), 120, "error: cannot write the output: No space left on device"),
], ids=["closed-pipe", "full-device"])
def test_unwritable_stdout_exits_with_one_line(unbuffered, open_stdout, rc, line):
    if open_stdout is not _closed_pipe and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    fd = open_stdout()
    try:
        proc = subprocess.run([sys.executable, "-m", "ramlift", "demo", "tame-atlas"], stdout=fd,
                              stderr=subprocess.PIPE, env=_buffered_env(unbuffered), timeout=120)
    finally:
        os.close(fd)
    assert (proc.returncode, proc.stderr.decode()) == (rc, line + "\n")


@pytest.mark.parametrize("closed, other, want", [
    (1, "stderr", b""),
    (2, "stdout", b'{"basarab_upper": 3, "e": 2, "lower": 3, "p": 3, "tame_exact": 3, "upper": 3}\n'),
], ids=["stdout", "stderr"])
def test_closed_stream_is_skipped(closed, other, want):
    # a stream closed before the start (>&- or 2>&-) is None, and only the
    # other one is flushed
    proc = subprocess.run([sys.executable, "-m", "ramlift", "bounds", "3", "2"], capture_output=True,
                          env=_buffered_env(), timeout=60, preexec_fn=lambda: os.close(closed))
    assert (proc.returncode, getattr(proc, other)) == (0, want)


def _closed_stderr():
    os.close(2)


def _full_stderr():
    fd = os.open("/dev/full", os.O_WRONLY)
    os.dup2(fd, 2)
    os.close(fd)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("stderr_at_start", [_closed_stderr, _full_stderr], ids=["closed", "full-device"])
def test_error_line_that_cannot_be_written_is_dropped(unbuffered, stderr_at_start):
    # the error line goes to stderr or nowhere, never to stdout, and a failed
    # write keeps the error's exit code
    if stderr_at_start is _full_stderr and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    proc = subprocess.run([sys.executable, "-m", "ramlift", "bounds", "4", "2"], stdout=subprocess.PIPE,
                          env=_buffered_env(unbuffered), timeout=60, preexec_fn=stderr_at_start)
    assert (proc.returncode, proc.stdout) == (2, b"")


def test_golden_output_strings(capsys):
    rc, out, _ = run(capsys, "bounds", "2", "2")
    assert out == '{"basarab_upper": 7, "e": 2, "lower": 3, "p": 2, "upper": 7}\n'
    rc, out, _ = run(capsys, "ring", S3)
    assert out == (
        '{"M": "1/2", "different": 1, "discriminant": 1, "e": 2, '
        '"eisenstein": [-3, 0, 1], "lift_precision_bound_self": 3, "p": 3, '
        '"q": 3, "residue": {"d": 1, "poly": [0, 1]}, "tame": true}\n'
    )


def test_ring_with_extension_residue_field(capsys):
    spec = '{"p":3,"residue":{"d":2,"poly":[1,0,1]},"eisenstein":[[-3,0],[0,0],1]}'
    rc, out, _ = run(capsys, "ring", spec)
    obj = json.loads(out)
    assert rc == 0 and obj["q"] == 9 and obj["M"] == "1/2"


def test_ring_with_teich_digit_coefficient(capsys):
    # "t:0,1" encodes the element 2 of W(F_2), so this is x^2 + 2
    spec = '{"p":2,"residue":{"d":1,"poly":[0,1]},"eisenstein":["t:0,1",0,1]}'
    rc, out, _ = run(capsys, "ring", spec)
    obj = json.loads(out)
    assert rc == 0 and obj["M"] == "3/2" and obj["different"] == 3


def _one_line_exit_2(rc, err):
    assert rc == 2
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_ring_missing_file_exit_2(capsys, tmp_path):
    rc, _, err = run(capsys, "ring", "@" + str(tmp_path / "missing.json"))
    _one_line_exit_2(rc, err)
    assert "missing.json" in err


def test_lift_psi_not_object_exit_2(capsys):
    # each hom, or a field of it, of the wrong JSON kind is named in one line
    for hom, field in (('{"psi":5,"beta":"pi:0,1,0","n1":3,"n2":3}', "psi must be an object"),
                       ('{"psi":[1],"beta":"pi:0,1,0","n1":3,"n2":3}', "psi must be an object"),
                       ('{"psi":{"image_of_generator":[0]},"beta":5,"n1":3,"n2":3}',
                        "beta must be a string"),
                       ('{"psi":{"image_of_generator":[0]},"beta":"pi:0,1,0","source":5}',
                        "source must be an object"),
                       ("5", "the homomorphism must be an object"),
                       ('"n1"', "the homomorphism must be an object"),
                       ("[]", "the homomorphism must be an object")):
        rc, _, err = run(capsys, "lift", S3, S3, hom, "8")
        _one_line_exit_2(rc, err)
        assert f"bad homomorphism JSON: {field}" in err, hom


@pytest.mark.parametrize("out_prec", ["0", "-5"])
def test_lift_out_prec_below_one_exit_2(capsys, out_prec):
    hom = '{"psi":{"image_of_generator":[0]},"beta":"pi:0,1,0","n1":3,"n2":3}'
    rc, out, err = run(capsys, "lift", S3, S3, hom, out_prec)
    _one_line_exit_2(rc, err)
    assert out == "" and err == f"error: out_prec must be >= 1, got {out_prec}\n"


def test_lift_out_prec_past_the_digit_limit_exit_3(capsys):
    # OUT_PREC may reach the interpreter's integer digit limit, not pass it,
    # and a limit of 0 sets none
    hom = '{"psi":{"image_of_generator":[0]},"beta":"pi:0,1,0","n1":3,"n2":3}'
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        answered = run(capsys, "lift", S3, S3, hom, "640")
        refused = run(capsys, "lift", S3, S3, hom, "641")
        sys.set_int_max_str_digits(0)
        unlimited = run(capsys, "lift", S3, S3, hom, "700")
    finally:
        sys.set_int_max_str_digits(limit)
    assert answered[0] == 0 and json.loads(answered[1])["certificate"]["t"] == 640
    assert refused == (3, "", "error: TooLarge: OUT_PREC 641 exceeds the 640-digit integer limit\n")
    assert unlimited[0] == 0 and json.loads(unlimited[1])["certificate"]["t"] == 700


def test_homs_zero_length_exit_2(capsys):
    rc, _, err = run(capsys, "homs", S3, S3, "0", "3")
    _one_line_exit_2(rc, err)


def test_homs_bad_enum_cap_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("RAMLIFT_ENUM_CAP", "abc")
    rc, _, err = run(capsys, "homs", S3, S3, "2", "2")
    _one_line_exit_2(rc, err)
    assert "RAMLIFT_ENUM_CAP" in err


def _run_limited(*argv, timeout=60):
    """The CLI in a child process limited to 512 MiB of address space and a
    timeout, so a crash or a hang fails the test and nothing else."""
    import resource
    import subprocess
    import sys

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    return subprocess.run(
        [sys.executable, "-m", "ramlift", *argv],
        capture_output=True, text=True, env=_child_env(), timeout=timeout, preexec_fn=limit,
    )


P_HUGE = 1000000007  # a ten-digit prime
S_HUGE = '{"p":%d,"eisenstein":[-%d,0,1]}' % (P_HUGE, P_HUGE)


def test_ring_huge_prime_summarizes():
    proc = _run_limited("ring", S_HUGE)
    assert proc.returncode == 0, proc.stderr
    obj = json.loads(proc.stdout)
    assert obj["q"] == P_HUGE and obj["residue"] == {"d": 1, "poly": [0, 1]}


def test_ring_large_e_summarizes():
    # x^16 + 2x^15 + ... + 2x - 2 over Z_2: the resultant cross-check must
    # not grow exponentially with the 31 x 31 Sylvester matrix
    spec = json.dumps({"p": 2, "eisenstein": [-2] + [2] * 15 + [1]})
    proc = _run_limited("ring", spec, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["discriminant"] == 16


def test_ring_huge_prime_extension_summarizes():
    spec = '{"p":%d,"residue":{"d":2},"eisenstein":[[-%d,0],[0,0],1]}' % (P_HUGE, P_HUGE)
    proc = _run_limited("ring", spec)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["q"] == P_HUGE ** 2


def test_ring_prime_beyond_exact_test_exit_2():
    p = 10 ** 30 + 57  # prime, above the deterministic Miller-Rabin range
    proc = _run_limited("ring", '{"p":%d,"eisenstein":[-%d,0,1]}' % (p, p))
    _one_line_exit_2(proc.returncode, proc.stderr)
    assert "prime" in proc.stderr


def test_hasroot_huge_prime_exit_3():
    proc = _run_limited("hasroot", S_HUGE, "x^2-2")
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1 and "TooLarge" in proc.stderr


def test_hasroot_huge_degree_exit_3():
    # the degree is checked against the enumeration cap before any
    # coefficient list is built
    proc = _run_limited("hasroot", S3, "x^99999999999")
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1 and "TooLarge" in proc.stderr


# W(F_(2^24)) with e = 1: q = 2^24 exceeds the enumeration cap of 10^7
S_2_24 = '{"p":2,"residue":{"d":24},"eisenstein":[-2,1]}'


def test_homs_count_over_a_field_past_the_cap_exit_3():
    # the 24 automorphisms of F_(2^24) are the roots of a degree-24 polynomial,
    # which are not sought among 2^24 elements
    proc = _run_limited("homs", S_2_24, S_2_24, "1", "1", "--count", timeout=20)
    assert proc.returncode == 3 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "TooLarge" in proc.stderr


def test_unramified_lift_over_a_field_past_the_cap_answers():
    # every reduced polynomial of x - 2 is linear, so the search meets no cap
    generator = [0, 1] + [0] * 22
    hom = json.dumps({"psi": {"image_of_generator": generator}, "beta": "π:0", "n1": 1, "n2": 1})
    proc = _run_limited("lift", S_2_24, S_2_24, hom, "4", timeout=20)
    assert proc.returncode == 0, proc.stderr
    obj = json.loads(proc.stdout)
    assert obj["certificate"] == {"deriv_val": 0, "t": 4}
    one = "(1" + ",0" * 23 + ")"
    zero = "(0" + ",0" * 23 + ")"
    assert obj["rho"] == f"π:{zero},{one},{zero},{zero}"  # rho = 2


@pytest.mark.parametrize("argv", [
    ("homs", S3, S3, "2", "2", "--count"),
    ("lift", S3, S3, '{"psi":{"image_of_generator":[0]},"beta":"π:0,2,0","n1":3,"n2":3}', "8"),
    ("hasroot", S3, "x^2-3"),
], ids=["homs-count", "lift", "hasroot"])
def test_bad_enum_cap_exit_2_in_every_search(monkeypatch, argv):
    # a child process starts with cold caches, so each command reads the cap;
    # a negative cap is refused as a non-integer one is, and one past the
    # interpreter's digit limit is named by that limit, not echoed
    for bad in ("abc", "-5", _NINES):
        monkeypatch.setenv("RAMLIFT_ENUM_CAP", bad)
        proc = _run_limited(*argv, timeout=20)
        _one_line_exit_2(proc.returncode, proc.stderr)
        assert "RAMLIFT_ENUM_CAP" in proc.stderr and len(proc.stderr.encode()) < 100


_NINES = "9" * 5000  # beyond the interpreter's limit for int(str)


@pytest.mark.parametrize("argv", [
    ("hasroot", S3, "x^" + _NINES),
    ("hasroot", S3, _NINES + "x^2-3"),
    ("ring", '{"p":3,"eisenstein":[-%s,0,1]}' % _NINES),
])
def test_huge_integer_literal_exit_2(capsys, argv):
    rc, out, err = run(capsys, *argv)
    _one_line_exit_2(rc, err)
    assert out == "" and "digits" in err


@pytest.mark.parametrize("argv, arg", [
    (("bounds", "3", _NINES), "argument e"),
    (("homs", S3, S3, _NINES, "2"), "argument n1"),
    (("lift", S3, S3, "{}", "-" + _NINES), "argument out_prec"),
])
def test_integer_positional_past_the_digit_limit_exit_2(capsys, argv, arg):
    # the literal is named by the limit, not echoed back
    rc, out, err = run(capsys, *argv)
    _one_line_exit_2(rc, err)
    assert out == "" and arg in err and len(err) < 100
    assert err.endswith(f"integer literals are limited to {sys.get_int_max_str_digits()} digits\n")


# -- the command line -----------------------------------------------------------

_USAGE_ERRORS = [
    ((), "command"),
    (("nope",), "'nope'"),
    (("bounds", "3"), "bounds: the following arguments are required: e"),
    (("bounds", "3", "2", "1"), "bounds: unrecognized arguments: 1"),
    (("bounds", "3", "x"), "argument e: invalid int value: 'x'"),
    (("bounds", "3", "2", "--iso"), "bounds: unrecognized arguments: --iso"),
    (("bounds", "3", "2", "--text"), "bounds: unrecognized arguments: --text"),
    (("homs", S3, S3, "2"), "homs: the following arguments are required: n2"),
    (("lift", S3, S3), "lift: the following arguments are required: hom, out_prec"),
    (("demo",), "demo: the following arguments are required: id"),
    (("homs", S3, SM3, "2", "2", "--co"), "homs: unrecognized arguments: --co"),
    (("--te", "bounds", "3", "2"), "unrecognized arguments: --te"),
]


@pytest.mark.parametrize("argv, culprit", _USAGE_ERRORS)
def test_usage_error_exit_2(capsys, argv, culprit):
    rc, out, err = run(capsys, *argv)
    _one_line_exit_2(rc, err)
    assert out == "" and err.startswith("error: ramlift") and culprit in err


@pytest.mark.parametrize("argv, command", [
    (("-h",), None),
    (("--help",), None),
    (("--text", "-h"), None),
    (("bounds", "-h"), "bounds"),
    (("hasroot", S3, "--help"), "hasroot"),
    (("homs", "--iso", "-h"), "homs"),
])
def test_help_names_every_positional(capsys, argv, command):
    rc, out, err = run(capsys, *argv)
    assert (rc, err) == (0, "") and out.startswith("usage: ramlift")
    for name in COMMANDS if command is None else [command]:
        positionals, _, flags, _ = COMMANDS[name]
        assert " ".join([name, "[-h]", *(f"[{f}]" for f in flags), *positionals]) in out


def test_flags_in_any_order_anywhere_after_the_command(capsys):
    want = run(capsys, "homs", S3, SM3, "2", "2", "--iso", "--count")
    assert want == (0, '{"count": 2}\n', "")
    for argv in (
        ("homs", S3, SM3, "2", "2", "--count", "--iso"),
        ("homs", "--count", S3, SM3, "--iso", "2", "2"),
        ("homs", S3, SM3, "2", "--count", "--iso", "--", "2"),
        ("homs", "--iso", "--count", "--iso", S3, SM3, "2", "2"),
    ):
        assert run(capsys, *argv) == want, argv


def test_negative_positionals_and_the_separator(capsys):
    # bounds reads -2 as e, which the library then refuses
    rc, out, err = run(capsys, "bounds", "3", "-2")
    _one_line_exit_2(rc, err)
    assert "argument" not in err
    want = run(capsys, "bounds", "3", "2")
    assert want[0] == 0
    for argv in (("bounds", "--", "3", "2"), ("bounds", "3", "--", "2"), ("bounds", "3", "2", "--"),
                 ("bounds", "+3", " 2 ")):
        assert run(capsys, *argv) == want, argv
    rc, out, err = run(capsys, "bounds", "3", "2", "--", "--")
    _one_line_exit_2(rc, err)
    assert "unrecognized arguments: --" in err


@pytest.mark.parametrize("spec", [
    '{"p":3.0,"eisenstein":[-3,0,1]}',
    '{"p":true,"eisenstein":[-3,0,1]}',
    '{"p":3,"residue":{"d":1.0},"eisenstein":[-3,0,1]}',
    '{"p":3,"residue":{"d":2,"poly":[1.0,0,1]},"eisenstein":[-3,0,1]}',
    '{"p":3,"eisenstein":[[-3.0],0,1]}',
    '{"p":3,"eisenstein":[-3,0,1.0]}',
    '{"p":3,"eisenstein":"x^2-3"}',
    '[3]',
])
def test_ring_spec_json_types_exit_2(capsys, spec):
    rc, out, err = run(capsys, "ring", spec)
    _one_line_exit_2(rc, err)
    assert out == ""


@pytest.mark.parametrize("spec, key", [("{}", "p"), ('{"p":3}', "eisenstein")])
def test_ring_spec_missing_field_exit_2(capsys, spec, key):
    rc, _, err = run(capsys, "ring", spec)
    _one_line_exit_2(rc, err)
    assert f'the ring spec is missing "{key}"' in err


def test_lift_psi_off_the_defining_polynomial_exit_2(capsys):
    # psi must send the generator of F3 = F_3[x]/(x) to 0, the one root of x
    hom = '{"psi":{"image_of_generator":[1]},"beta":"pi:0,1,0","n1":3,"n2":3}'
    rc, out, err = run(capsys, "lift", S3, S3, hom, "6")
    _one_line_exit_2(rc, err)
    assert out == "" and "psi image is not a root of the source defining polynomial" in err


def test_lift_hom_json_needs_integers(capsys):
    for hom in ('{"psi":{"image_of_generator":[0.0]},"beta":"pi:0,1,0","n1":3,"n2":3}',
                '{"psi":{"image_of_generator":[0]},"beta":"pi:0,1,0","n1":3.0,"n2":3}'):
        rc, _, err = run(capsys, "lift", S3, S3, hom, "6")
        _one_line_exit_2(rc, err)


def test_lift_short_beta_names_both_lengths(capsys):
    # a beta of 2 digits, or of none, cannot define a hom into R/m^3
    for beta, count in (("π:0,1", 2), ("π:", 0), ("pi:", 0)):
        hom = json.dumps({"psi": {"image_of_generator": [0]}, "beta": beta, "n1": 3, "n2": 3})
        rc, out, err = run(capsys, "lift", S3, S3, hom, "6")
        _one_line_exit_2(rc, err)
        assert out == ""
        assert f"beta has {count} digits, the target length n2 = 3 needs 3" in err


@pytest.mark.parametrize("value", [0, False])
@pytest.mark.parametrize("key, ring_key", [("n1", "source"), ("n2", "target")])
@pytest.mark.parametrize("with_ring_length", [True, False])
def test_lift_explicit_length_is_not_replaced(capsys, value, key, ring_key, with_ring_length):
    # source.n/target.n stand in for an absent n1/n2 only: a falsy length
    # given explicitly is refused by the length checks
    hom = {"psi": {"image_of_generator": [0]}, "beta": "π:0,2,0", "n1": 3, "n2": 3, key: value}
    if with_ring_length:
        hom[ring_key] = {"n": 3}
    rc, out, err = run(capsys, "lift", S3, S3, json.dumps(hom), "8")
    _one_line_exit_2(rc, err)
    assert out == ""
    assert "must carry n1/n2 lengths" not in err


def test_lift_reads_every_hom_that_homs_prints(capsys):
    # homs prints the lengths as source.n and target.n
    rc, out, _ = run(capsys, "homs", S3, S3, "3", "3")
    homs = json.loads(out)
    assert rc == 0 and homs
    for hom in homs:
        assert "n1" not in hom and hom["source"]["n"] == hom["target"]["n"] == 3
        rc, _, err = run(capsys, "lift", S3, S3, json.dumps(hom), "6")
        assert rc == 0, (hom, err)


@pytest.mark.parametrize("argv", [
    ("bounds", "1", "1"),  # p = 1 used to loop in the p-adic valuation
    ("bounds", "0", "2"),
    ("bounds", "3", "0"),
    ("bounds", "3", "-2"),
    ("bounds", "4", "2"),  # not prime
    ("ring", '{"p":3,"residue":null,"eisenstein":[-3,0,1]}'),
])
def test_malformed_input_exits_2_in_a_child(argv):
    proc = _run_limited(*argv)
    _one_line_exit_2(proc.returncode, proc.stderr)


# -- fuzzing the JSON inputs ----------------------------------------------------
# Mostly valid Eisenstein rings and homomorphisms, mixed with malformed specs:
# wrong types, floats, booleans, null, missing keys, non-prime p, bad digits.

_INT = st.integers(-6, 12)
_LEAF = st.one_of(st.none(), st.booleans(), _INT, st.floats(-4, 4), st.text(max_size=3))
_COEFF = st.one_of(
    st.sampled_from([-6, -3, -2, 0, 2, 3, 5, 6, 9]),
    st.lists(_INT, max_size=3),
    st.sampled_from(["t:0,1", "t:(1,0),0,1", "t:", "t:x", "3"]),
    _LEAF,
)
_RESIDUE = st.one_of(
    _LEAF,
    st.fixed_dictionaries({}, optional={
        "d": st.one_of(st.integers(0, 3), _LEAF),
        "poly": st.one_of(st.lists(st.integers(-2, 3), max_size=4), _LEAF),
    }),
)
_EISENSTEIN_RING = st.builds(
    lambda p, e, unit, tail: {"p": p, "eisenstein": [p * unit] + [p * c for c in tail[:e - 1]] + [1]},
    st.sampled_from([2, 3, 5]), st.integers(1, 3), st.sampled_from([-1, 1, 7]), st.lists(_INT, min_size=2, max_size=2),
)
_RING = st.one_of(
    _EISENSTEIN_RING,
    _EISENSTEIN_RING.map(lambda r: {**r, "residue": {"d": 2}}),
    _LEAF,
    st.lists(_INT, max_size=2),
    st.fixed_dictionaries({"p": st.one_of(st.sampled_from([2, 3, 5]), _LEAF)}, optional={
        "residue": _RESIDUE,
        "eisenstein": st.one_of(
            st.lists(_COEFF, min_size=1, max_size=4).map(lambda c: c + [1]),
            st.lists(_COEFF, max_size=3),
            _LEAF,
        ),
    }),
)
_BETA = st.one_of(
    st.lists(st.sampled_from(["0", "1", "2", "(1,0)", "x"]), max_size=5).map(lambda d: "π:" + ",".join(d)),
    _LEAF,
)
_HOM = st.one_of(
    st.fixed_dictionaries({
        "psi": st.sampled_from([{"image_of_generator": [0]}, {"image_of_generator": [0, 1]}]),
        "beta": st.lists(st.sampled_from(["0", "1", "2"]), min_size=1, max_size=6).map(lambda d: "π:" + ",".join(d)),
        "n1": st.integers(1, 4),
        "n2": st.integers(1, 6),
    }),
    _LEAF,
    st.fixed_dictionaries({}, optional={
        "psi": st.one_of(st.fixed_dictionaries({"image_of_generator": st.one_of(st.lists(_INT, max_size=3), _LEAF)}), _LEAF),
        "beta": _BETA,
        "n1": st.one_of(st.integers(-1, 5), _LEAF),
        "n2": st.one_of(st.integers(-1, 5), _LEAF),
    }),
)
_J = json.dumps
_N = st.integers(-1, 5).map(str)
_ARGV = st.one_of(
    st.tuples(st.just("ring"), _RING.map(_J)),
    st.tuples(st.just("homs"), _RING.map(_J), _RING.map(_J), _N, _N),
    st.tuples(st.just("hasroot"), _RING.map(_J), st.sampled_from(["x^2-3", "x-2", "x^2+1", "x^3-3", "1", "x^2+", "x^2++1"])),
    st.tuples(st.just("lift"), _RING.map(_J), _RING.map(_J), _HOM.map(_J), st.integers(-1, 8).map(str)),
    st.tuples(st.just("bounds"), st.integers(-3, 12).map(str), st.integers(-3, 5).map(str)),
)


@settings(max_examples=300, deadline=None)
@given(_ARGV)
def test_fuzzed_json_inputs_exit_cleanly(argv):
    import contextlib
    import io
    from unittest import mock

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict("os.environ", {"RAMLIFT_ENUM_CAP": "40"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    assert rc in (0, 2, 3, 4), (argv, rc, err.getvalue())
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
    if rc == 0:
        json.loads(out.getvalue(), parse_float=_no_float)


def _no_float(text):
    raise AssertionError(f"float {text} in the output")
