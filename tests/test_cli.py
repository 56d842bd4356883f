import json

import pytest

from ramlift.cli import main, parse_poly_text

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
    assert parse_poly_text("x") == [0, 1]


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
    bad = '{"p":3,"residue":{"d":1,"poly":[0,1]},"eisenstein":[-9,0,1]}'
    rc, _, err = run(capsys, "ring", bad)
    assert rc == 2
    assert "NotEisenstein" in err


def test_ring_rejects_bad_json(capsys):
    rc, _, err = run(capsys, "ring", "{nope")
    assert rc == 2


def test_homs_counts(capsys):
    rc, out, _ = run(capsys, "homs", S3, SM3, "2", "2", "--iso", "--count")
    assert rc == 0 and json.loads(out) == {"count": 2}
    rc, out, _ = run(capsys, "homs", S3, SM3, "3", "3", "--count")
    assert rc == 0 and json.loads(out) == {"count": 0}


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


def test_lift_below_bound_exit_4(capsys):
    hom = '{"psi":{"image_of_generator":[0]},"beta":"pi:0,1","n1":2,"n2":2}'
    rc, _, err = run(capsys, "lift", S3, SM3, hom, "4")
    assert rc == 4
    assert "requires n2 >= 3" in err


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


def test_module_entry_point_subprocess():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "ramlift", "demo", "tame-atlas"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "PASS"


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
    hom = '{"psi":5,"beta":"pi:0,1,0","n1":3,"n2":3}'
    rc, _, err = run(capsys, "lift", S3, S3, hom, "8")
    _one_line_exit_2(rc, err)
    assert "bad homomorphism JSON" in err


def test_homs_zero_length_exit_2(capsys):
    rc, _, err = run(capsys, "homs", S3, S3, "0", "3")
    _one_line_exit_2(rc, err)


def test_homs_bad_enum_cap_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("RAMLIFT_ENUM_CAP", "abc")
    rc, _, err = run(capsys, "homs", S3, S3, "2", "2")
    _one_line_exit_2(rc, err)
    assert "RAMLIFT_ENUM_CAP" in err


def _run_limited(*argv):
    """The CLI in a child process limited to 512 MiB of address space and a
    60 s timeout, so a crash or a hang fails the test and nothing else."""
    import os
    import resource
    import subprocess
    import sys

    import ramlift

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(ramlift.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ramlift", *argv],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=limit,
    )


P_HUGE = 1000000007  # a ten-digit prime
S_HUGE = '{"p":%d,"eisenstein":[-%d,0,1]}' % (P_HUGE, P_HUGE)


def test_ring_huge_prime_summarizes():
    proc = _run_limited("ring", S_HUGE)
    assert proc.returncode == 0, proc.stderr
    obj = json.loads(proc.stdout)
    assert obj["q"] == P_HUGE and obj["residue"] == {"d": 1, "poly": [0, 1]}


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
