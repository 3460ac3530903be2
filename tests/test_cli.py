"""End-to-end tests of the command-line interface: argument handling, exit
codes, JSON/text/table output, batch mode, and the double-point table."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qfsplit
import qfsplit.__main__
import qfsplit.cli
from qfsplit import (
    Budget,
    Ideal,
    PolynomialRing,
    PrimeField,
    enclosure_closure,
    height,
    verify_certificate,
)
from qfsplit.criteria import I_INFTY_STABILIZED, Certificate
from qfsplit.cli import (
    InputError,
    main,
    parse_grading,
    rdp_compute_row,
    rdp_rows,
)

GOLDEN = Path(__file__).parent / "golden"

CONIC = "x0*y0^2 + x1*y1^2 + x2*y2^2"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def normalized(out):
    data = json.loads(out)
    if "wall_time_ms" in data:
        data["wall_time_ms"] = 0.0
    if "steps" in data:
        data["steps"] = 0
    return data


# ---------------------------------------------------------------------------
# golden outputs
# ---------------------------------------------------------------------------


def test_golden_height_d4(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "height", "--p", "2", "--vars", "x,y,z",
            "--poly", "z^2 + x^2*y + x*y^2", "--format", "json", "--verify",
        ],
    )
    assert code == 0
    assert normalized(out) == json.loads((GOLDEN / "height_d4.json").read_text())


def test_golden_qfs_cusp(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "qfs", "--p", "2", "--vars", "x,y,z",
            "--poly", "x^3 + y^2*z", "--format", "json", "--verify",
        ],
    )
    assert code == 0
    assert json.loads(out) == json.loads((GOLDEN / "qfs_cusp.json").read_text())


def test_qfs_verify_on_a_quasi_f_split_answer_verifies_its_chain_witness(capsys):
    """D4 at p = 2 is quasi-F-split: `qfs` stops at the first level that
    escapes m^[p] and answers with the ChainWitness of that height, which
    `--verify` accepts."""
    code, out, _ = run_cli(
        capsys,
        [
            "qfs", "--p", "2", "--vars", "x,y,z",
            "--poly", "z^2 + x^2*y + x*y^2", "--format", "json", "--verify",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["qfs"] is True
    assert payload["certificate"]["kind"] == "ChainWitness"
    assert payload["verified"] is True
    assert "verify_reasons" not in payload


@pytest.mark.parametrize(
    "poly,options,expected",
    [
        ("z^2 + x^2*y + x*y^4 + x*y^3*z", ["--strategy", "qfs"], 3),  # D8^1
        ("z^2 + x^3 + y^5", ["--n-max", "2"], 4),  # E8^0
    ],
    ids=["strategy-qfs", "n-max-below-height"],
)
def test_height_verify_on_a_lower_bound_matches_qfs_verify(capsys, poly, options, expected):
    """The I_∞ route, which used to answer these with a LowerBound, reads
    the chain to its first escape: `height --verify` gives the height past
    the cutoff, and both it and `qfs --verify` verify the same ChainWitness."""
    common = ["--p", "2", "--vars", "x,y,z", "--poly", poly, "--format", "json", "--verify"]
    code, out, _ = run_cli(capsys, ["height", *common, *options])
    assert code == 0
    payload = json.loads(out)
    assert (payload["verdict"], payload["n"], payload["route"]) == ("Finite", expected, "i-infinity")
    assert payload["verified"] is True
    code, out, _ = run_cli(capsys, ["qfs", *common])
    assert code == 0
    qfs = json.loads(out)
    assert (qfs["qfs"], qfs["verified"]) == (True, True)
    assert qfs["certificate"] == payload["certificate"]


def test_golden_verify_chain_conic(capsys):
    head = "x0*y0^3*y1*y2 + x1*y0*y1^3*y2 + x2*y0*y1*y2^3"
    code, out, _ = run_cli(
        capsys,
        [
            "verify-chain", "--p", "2", "--vars", "x0,x1,x2,y0,y1,y2",
            "--poly", CONIC, "--chain", f"{head}; y0*y1*y2", "--format", "json",
        ],
    )
    assert code == 0
    assert json.loads(out) == json.loads(
        (GOLDEN / "verify_chain_conic.json").read_text()
    )


@pytest.mark.parametrize("fmt", ["md", "csv"])
def test_golden_rdp_table_p5(capsys, fmt):
    code, out, _ = run_cli(capsys, ["rdp-table", "--primes", "5", "--format", fmt])
    assert code == 0
    assert out == (GOLDEN / f"rdp_p5.{fmt}").read_text()


# ---------------------------------------------------------------------------
# exit codes and error handling
# ---------------------------------------------------------------------------


def test_parse_error_exits_one(capsys):
    code, _, err = run_cli(
        capsys, ["height", "--p", "2", "--vars", "x,y", "--poly", "x ++ y"]
    )
    assert code == 1
    assert "error:" in err


def test_non_prime_exits_one(capsys):
    code, _, err = run_cli(
        capsys, ["height", "--p", "4", "--vars", "x,y", "--poly", "x*y"]
    )
    assert code == 1
    assert "not prime" in err


def test_duplicate_variables_exit_one(capsys):
    code, _, err = run_cli(
        capsys, ["fsplit", "--p", "2", "--vars", "x,x", "--poly", "x"]
    )
    assert code == 1


def test_inhomogeneous_input_with_grading_exits_one(capsys):
    code, _, err = run_cli(
        capsys,
        [
            "height", "--p", "2", "--vars", "x,y,z",
            "--poly", "x^3 + y^2", "--grading", "1,1,1",
        ],
    )
    assert code == 1


def test_budget_abort_exits_two(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "height", "--p", "2", "--vars", "x,y,z",
            "--poly", "z^2 + x^2*y + x*y^4", "--budget", "2", "--format", "json",
        ],
    )
    assert code == 2
    data = json.loads(out)
    assert data["verdict"] == "Unknown"
    assert data["diagnostics"]


CUSP = ["--p", "2", "--vars", "x,y,z", "--poly", "x^3 + y^2*z"]
CUSP_TRAP = ["--trap", "x^2; y^2; z^2"]

# one valid command line per command that takes --budget
BUDGETED = {
    "height": ["height"] + CUSP,
    "qfs": ["qfs"] + CUSP,
    "verify-chain": ["verify-chain"] + CUSP + ["--chain", "x^3 + y^2*z"],
    "verify-infty": ["verify-infty"] + CUSP + CUSP_TRAP,
    "strata": ["strata", "--p", "3", "--nvars", "3"],
}


@pytest.mark.parametrize("command", list(BUDGETED))
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_nonpositive_budget_is_an_input_error(capsys, command, budget):
    code, out, err = run_cli(capsys, BUDGETED[command] + ["--budget", budget])
    assert code == 1
    assert out == ""
    assert "budget must be a positive number of steps" in err


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_bad_budget_variable_is_an_input_error(capsys, monkeypatch, value):
    """QFSPLIT_GB_BUDGET takes `--budget`'s rule: anything but a positive
    step count is an input error that names the variable, not a traceback
    or a budget abort at the first step."""
    with monkeypatch.context() as patch:  # unset again before the fixtures' checks
        patch.setenv("QFSPLIT_GB_BUDGET", value)
        code, out, err = run_cli(capsys, BUDGETED["height"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: QFSPLIT_GB_BUDGET must be a positive number of steps")
        proc = run_module(BUDGETED["height"])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: QFSPLIT_GB_BUDGET must be a positive")
        assert "Traceback" not in proc.stderr
        code, _, _ = run_cli(capsys, BUDGETED["height"] + ["--budget", "1000"])
        assert code == 0  # an explicit --budget does not read it


@pytest.mark.parametrize("n_max", ["0", "-3"])
def test_nonpositive_n_max_is_an_input_error(capsys, n_max):
    argv = ["height", "--p", "2", "--vars", "x,y,z", "--poly", "z^2 + x^2*y + x*y^4"]
    code, out, err = run_cli(capsys, argv + ["--n-max", n_max])
    assert code == 1
    assert out == ""
    assert "n_max must be a positive chain length" in err


@pytest.mark.parametrize(
    "argv",
    [
        BUDGETED["verify-chain"],
        BUDGETED["verify-infty"],
        BUDGETED["verify-infty"] + ["--close"],
    ],
    ids=["verify-chain", "verify-infty", "verify-infty-close"],
)
def test_verify_commands_honour_the_budget(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--budget", "1"])
    assert code == 2
    assert out == ""
    assert "budget exhausted" in err


SEARCH = ["search", "--p", "3", "--nvars", "3", "--target", "2"]


def test_search_stops_when_its_budget_runs_out(capsys):
    """`search` spends one budget on all of its samples. At --budget 1 the
    first sample's graded run answers Unknown after 2 steps, and the search
    stops there with exit 2; it does not sample on to report `found: False`
    with exit 0. The same holds through `python -m qfsplit`, and a budget of
    2 lets that sample through."""
    expected = (2, "", "error: budget exhausted after 2 steps\n")
    assert run_cli(capsys, SEARCH + ["--budget", "1"]) == expected
    proc = run_module(SEARCH + ["--budget", "1"])
    assert (proc.returncode, proc.stdout, proc.stderr) == expected
    code, out, _ = run_cli(capsys, SEARCH + ["--budget", "2"])
    assert code == 0 and out.startswith("found: True")


@pytest.mark.parametrize(
    "argv",
    [
        ["height", "--p", "5", "--vars", "x,y", "--bogus"],
        ["height", "--vars", "x,y", "--poly", "x*y"],
        ["height", "--p", "five", "--vars", "x,y", "--poly", "x*y"],
        ["nonsense"],
        ["fsplit"] + CUSP + ["--budget", "5"],
        ["fsplit"] + CUSP + ["--verify"],
        ["qfs"] + CUSP + ["--n-max", "3"],
        ["height"] + CUSP + ["--weights", "1,1,1"],
        BUDGETED["verify-chain"] + ["--verify"],
        BUDGETED["verify-infty"] + ["--n-max", "3"],
    ],
    ids=[
        "unknown-flag", "missing-p", "bad-int", "unknown-command", "fsplit-budget",
        "fsplit-verify", "qfs-n-max", "height-weights", "verify-chain-verify",
        "verify-infty-n-max",
    ],
)
def test_usage_error_exits_one(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["height", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_failed_verification_still_exits_zero(capsys):
    """A chain that does not verify is a computed answer, not an error."""
    code, out, _ = run_cli(
        capsys,
        [
            "verify-chain", "--p", "2", "--vars", "x0,x1,x2,y0,y1,y2",
            "--poly", CONIC, "--chain", "x0*y1*y2*x0*y0^2", "--format", "json",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is False
    assert data["reasons"]


ZERO = ["--p", "3", "--vars", "x,y,z", "--poly"]


@pytest.mark.parametrize(
    "argv",
    [
        ["height"] + ZERO + ["0"],
        ["height"] + ZERO + ["0", "--verify"],
        ["fsplit"] + ZERO + ["x - x"],
        ["qfs"] + ZERO + ["0"],
        ["height"] + ZERO + ["x^3 + y^2*z; 0"],
        ["verify-chain"] + ZERO + ["0", "--chain", "x"],
        ["verify-infty"] + ZERO + ["0", "--trap", "x^3"],
    ],
    ids=[
        "height", "height-verify", "fsplit", "qfs", "height-system", "verify-chain", "verify-infty",
    ],
)
def test_zero_generator_is_an_input_error(capsys, argv):
    """No regular sequence has a zero element: S/(0) = S is F-split, so no
    command may answer for it, and none may die with a traceback."""
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert "error: a zero generator is not part of a regular sequence" in err


@pytest.mark.parametrize("serial", [True, False], ids=["serial", "parallel"])
def test_batch_zero_generator_is_an_error_line(capsys, tmp_path, serial):
    """A record with a zero generator is an error line; the good records
    around it keep their reports, serial or parallel."""
    zero = {"command": "qfs", "p": 3, "vars": ["x", "y", "z"], "polys": ["0"]}
    path = write_jobs(tmp_path, [GOOD_RECORD, zero, GOOD_RECORD])
    mode = ["--serial"] if serial else ["--workers", "2"]
    code, out, _ = run_cli(capsys, ["batch", path] + mode)
    assert code == 1
    data = json.loads(out)
    assert [j["exit"] for j in data["jobs"]] == [0, 1, 0]
    assert data["jobs"][0]["report"] == data["jobs"][2]["report"] == {"fsplit": False}
    assert "zero generator" in data["jobs"][1]["report"]["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-chain", "--p", "2", "--vars", "x", "--chain", "x"],
        ["verify-infty", "--p", "2", "--vars", "x", "--trap", "x"],
    ],
    ids=["verify-chain", "verify-infty"],
)
def test_verify_without_poly_is_an_input_error(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert f"error: {argv[0]} needs at least one polynomial" in err


def test_rdp_table_rejects_unknown_prime(capsys):
    code, _, err = run_cli(capsys, ["rdp-table", "--primes", "7"])
    assert code == 1
    assert "choose among 2,3,5" in err


# a prime far past the field range: trial division up to its square root
# would run for minutes, so the range check must come first
HUGE_PRIME = 1000000000000000003


@pytest.mark.parametrize(
    "argv",
    [
        ["fsplit", "--p", str(HUGE_PRIME), "--vars", "x", "--poly", "x"],
        ["strata", "--p", "3", "--nvars", "1"],
        ["strata", "--p", "3", "--nvars", "3", "--h-max", "0"],
        ["search", "--p", "3", "--nvars", "1", "--target", "2"],
        ["rdp-table", "--primes", "2,x"],
    ],
    ids=["huge-prime", "strata-nvars", "strata-h-max", "search-nvars", "rdp-primes"],
)
def test_bad_input_is_an_error_line(argv):
    proc = run_module(argv, timeout=30)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["search", "--p", "3", "--nvars", "3", "--target", "2", "--samples", "-1"], "--samples"),
        (["search", "--p", "3", "--nvars", "3", "--target", "2", "--samples", "0"], "--samples"),
        (["search", "--p", "3", "--nvars", "3", "--target", "0"], "--target"),
        (["rdp-table", "--primes", "2", "--n-bound", "1"], "--n-bound"),
        (["rdp-table", "--primes", "2", "--n-bound", "0"], "--n-bound"),
        (["rdp-table", "--primes", "2", "--n-bound", "-3"], "--n-bound"),
    ],
    ids=["samples-negative", "samples-zero", "target-zero", "n-bound-1", "n-bound-0",
         "n-bound-negative"],
)
def test_out_of_range_count_is_an_input_error(capsys, argv, flag):
    """A count that would make the command do nothing, or silently drop rows,
    is an error line naming the flag, not a report with exit 0."""
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {flag} must be")
    assert "Traceback" not in err


def test_batch_record_with_huge_prime_is_an_error(tmp_path):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps([dict(GOOD_RECORD, p=HUGE_PRIME)]))
    proc = run_module(["batch", str(path), "--serial"], timeout=30)
    assert proc.returncode == 1
    report = json.loads(proc.stdout)["jobs"][0]
    assert report["exit"] == 1
    assert "field characteristic must be" in report["report"]["error"]


# ---------------------------------------------------------------------------
# individual commands
# ---------------------------------------------------------------------------


def test_height_text_format(capsys):
    code, out, _ = run_cli(
        capsys,
        ["height", "--p", "2", "--vars", "x,y,z", "--poly", "x^3 + y^3 + z^3"],
    )
    assert code == 0
    assert "verdict: Finite" in out
    assert "n: 2" in out


def test_height_complete_intersection_warns(capsys):
    """An inhomogeneous system is not checked, so a note says so."""
    code, out, err = run_cli(
        capsys,
        [
            "height", "--p", "2", "--vars", "x,y,z,w",
            "--poly", "x^3 + y^3 + z^3; w + x^2", "--format", "json",
        ],
    )
    assert code == 0
    assert "regular sequence" in err
    assert json.loads(out)["verdict"] == "Finite"


SEXTIC = ["--p", "2", "--vars", "x,y,z,w,u,s"]
CUBIC_PAIR = ["--p", "2", "--vars", "x0,x1,x2,y0,y1,y2"]

# homogeneous complete intersections: (command line, verdict, height)
REGULAR_SEQUENCES = {
    "sextic-g1-section": (
        SEXTIC + ["--poly", "x*y*s^2 + z*w*u^2 + y^3*w + x^3*z; s"], "Finite", 2,
    ),
    "sextic-g2-section": (
        SEXTIC + ["--poly", "x*y*s^2 + z*w*u^2 + z^3*u + y^3*w + x^3*z; s"], "Finite", 2,
    ),
    "cubic-fiber-product": (
        CUBIC_PAIR + ["--poly", "x0^3 + x1^3 + x2^3; y0^3 + y0*y1*y2 + y1^2*y2 + y2^3"],
        "Finite", 2,
    ),
}


@pytest.mark.parametrize("case", list(REGULAR_SEQUENCES))
def test_regular_sequence_runs_without_the_note(capsys, case):
    argv, verdict, n = REGULAR_SEQUENCES[case]
    code, out, err = run_cli(capsys, ["height"] + argv + ["--format", "json"])
    assert code == 0
    assert err == ""
    assert (json.loads(out)["verdict"], json.loads(out)["n"]) == (verdict, n)


def test_regular_sequence_check_spends_its_own_budget(capsys):
    """The check's steps are not counted in the result."""
    argv, _, _ = REGULAR_SEQUENCES["sextic-g1-section"]
    code, out, _ = run_cli(capsys, ["height"] + argv + ["--format", "json"])
    assert code == 0
    ring = PolynomialRing(PrimeField(2), tuple("xyzwus"))
    direct = height(
        [ring.parse("x*y*s^2 + z*w*u^2 + y^3*w + x^3*z"), ring.variable("s")], n_max=10
    )
    assert json.loads(out)["steps"] == direct.steps


# homogeneous systems that are not regular sequences: (generators, error)
NOT_REGULAR = {
    "repeated": ("x; x", "'x' is a zero divisor modulo the generators before it"),
    "common-factor": ("x*y; x*z", "'x*z' is a zero divisor modulo the generators before it"),
    "constant": ("x*y; 1", "generator '1' is constant"),
}


@pytest.mark.parametrize("command", ["height", "qfs", "fsplit"])
@pytest.mark.parametrize("case", list(NOT_REGULAR))
def test_non_regular_sequence_is_an_input_error(capsys, command, case):
    polys, message = NOT_REGULAR[case]
    code, out, err = run_cli(
        capsys, [command, "--p", "2", "--vars", "x,y,z", "--poly", polys]
    )
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        [command, "--p", "2", "--vars", "x,y,z", "--poly", polys]
        for command in ("height", "qfs", "fsplit")
        for polys in ("1", "x*y + z; 1")
    ]
    + [
        ["verify-chain", "--p", "2", "--vars", "x,y,z", "--poly", "1", "--chain", "1"],
        ["verify-infty", "--p", "2", "--vars", "x,y,z", "--poly", "1", "--trap", "x^2"],
    ],
    ids=[
        f"{command}-{case}"
        for command in ("height", "qfs", "fsplit")
        for case in ("alone", "inhomogeneous")
    ]
    + ["verify-chain", "verify-infty"],
)
def test_a_constant_generator_is_an_input_error(capsys, argv):
    """A constant generator is refused wherever `--poly` is read, alone or
    beside an inhomogeneous one, as it is beside a homogeneous one: S/(1) is
    the zero ring, so there is no height to certify.  A constant alone used
    to answer Finite 1 on the fedder route with the chain ["1"]."""
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert err == "error: generator '1' is constant, so the generators are not a regular sequence\n"


def test_regular_sequence_check_budget_abort_exits_two(capsys):
    code, out, err = run_cli(
        capsys,
        ["height", "--p", "2", "--vars", "x,y,z", "--poly", "x*y; x*z", "--budget", "3"],
    )
    assert code == 2
    assert out == ""
    assert "budget exhausted" in err


def test_fsplit_command(capsys):
    code, out, _ = run_cli(
        capsys, ["fsplit", "--p", "5", "--vars", "x,y", "--poly", "x*y"]
    )
    assert code == 0
    assert "fsplit: True" in out


def test_verify_infty_with_closure(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "verify-infty", "--p", "2", "--vars", "x,y,z,w,u,s",
            "--poly", "x*y*s^2 + z*w*u^2 + y^3*w + x^3*z",
            "--trap", "y*s^2 + x^2*z; z*u^2 + y^3",
            "--close", "--format", "json",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert len(data["closure_generators"]) >= 2


def test_verify_infty_close_re_derives_the_closure_basis(capsys):
    """`--close` checks the closure as any trap ideal is checked, through
    `verify_certificate` on its generators: the verifier forms the basis
    again (9 steps on the cusp at p = 2, where reading the basis the chain
    cached took 5), so the command needs the closure's steps and those
    steps, all from its one `--budget`, and one step fewer aborts."""
    ring = PolynomialRing(PrimeField(2), ("x", "y", "z"))
    f = ring.parse("x^3 + y^2*z")
    I = Ideal(ring, [f])
    budget = Budget()
    closure = enclosure_closure(I, [f], budget)
    closing = budget.steps
    cert = Certificate(I_INFTY_STABILIZED, {"generators": list(closure.gens)})
    assert verify_certificate(I, cert, budget)
    assert budget.steps - closing == 9
    argv = ["verify-infty"] + CUSP + ["--trap", str(f), "--close", "--budget"]
    code, out, _ = run_cli(capsys, argv + [str(budget.steps)])
    assert code == 0 and "verified: True" in out
    code, out, err = run_cli(capsys, argv + [str(budget.steps - 1)])
    assert (code, out) == (2, "") and "budget exhausted" in err


def cusp_past_the_limit():
    """f = z^2 + x^3 + y^K at p = 3 with K = 2^30 − 1, and f^{p−1} = f^2,
    which fits the exponent limit; checking a chain or a trap that holds it
    passes the limit (Δ₁(f^2) alone needs exponents up to p(p−1)·K)."""
    ring = PolynomialRing(PrimeField(3), ("x", "y", "z"))
    f = ring.parse("z^2 + x^3 + y^1073741823")
    return f, f**2


@pytest.mark.parametrize("command", ["verify-chain", "verify-infty"])
def test_a_check_past_the_exponent_limit_is_a_failed_verification(capsys, command):
    """A certificate whose check needs exponents past the limit cannot be
    re-verified, and every command says so as `verify_certificate` does:
    `verified: False` with the limit reason and exit 0, not an input error."""
    f, fp1 = cusp_past_the_limit()
    given = ["--chain", f"{fp1}; y"] if command == "verify-chain" else ["--trap", str(fp1)]
    argv = [command, "--p", "3", "--vars", "x,y,z", "--poly", str(f), *given, "--format", "json"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["verified"] is False
    assert len(data["reasons"]) == 1
    assert "cannot be re-verified within the exponent limit 2147483647" in data["reasons"][0]


FSPLIT_CUBIC = "x^3 + x*y*z + y^2*z + z^3"  # F-split at p = 2: the chain [f] verifies
PRODUCT_XY = ["product", "--p", "2", "--x-vars", "x0,x1,x2", "--y-vars", "y0,y1,y2"]
PRODUCT_G1 = "x0^3 + x0*x1*x2 + x1^2*x2 + x2^3"
PRODUCT_ORDINARY = "y0^3 + y0*y1*y2 + y1^2*y2 + y2^3"
# text reports of the commands that re-check a certificate: (argv, keys in order)
TEXT_REPORTS = {
    "verify-chain": (BUDGETED["verify-chain"], ["verified", "chain_length", "reasons"]),
    "verify-chain-passes": (
        ["verify-chain", "--p", "2", "--vars", "x,y,z", "--poly", FSPLIT_CUBIC,
         "--chain", FSPLIT_CUBIC],
        ["verified", "chain_length"],
    ),
    "verify-infty": (BUDGETED["verify-infty"], ["verified", "reasons"]),
    "verify-infty-close": (
        BUDGETED["verify-infty"] + ["--close"], ["closure_generators", "verified", "reasons"]
    ),
    "verify-infty-close-passes": (
        ["verify-infty"] + CUSP + ["--trap", "x^3 + y^2*z", "--close"],
        ["closure_generators", "verified"],
    ),
    "product": (
        PRODUCT_XY + ["--chain", PRODUCT_G1, "--splitting", PRODUCT_ORDINARY,
                      "--x-poly", PRODUCT_G1, "--y-poly", PRODUCT_ORDINARY],
        ["witnesses", "n", "verified"],
    ),
    "product-raw": (
        PRODUCT_XY + ["--chain", PRODUCT_G1, "--splitting", PRODUCT_ORDINARY], ["witnesses", "n"]
    ),
}


@pytest.mark.parametrize("case", list(TEXT_REPORTS))
def test_text_reports_keep_their_key_order(capsys, case):
    """The text format prints a report's keys in the order the command
    builds them, so the order is part of the output: `verified` leads
    `verify-chain`'s report and follows the closure and the witnesses."""
    argv, keys = TEXT_REPORTS[case]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert [line.split(": ", 1)[0] for line in out.splitlines()] == keys
    verified = [line for line in out.splitlines() if line.startswith("verified: ")]
    assert verified == ([f"verified: {'reasons' not in keys}"] if "verified" in keys else [])


def test_verify_infty_raw_trap_fails(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "verify-infty", "--p", "2", "--vars", "x,y,z,w,u,s",
            "--poly", "x*y*s^2 + z*w*u^2 + y^3*w + x^3*z",
            "--trap", "y*s^2 + x^2*z; z*u^2 + y^3",
            "--format", "json",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is False and data["reasons"]


def test_product_command_verifies(capsys):
    ordinary = "y0^3 + y0*y1*y2 + y1^2*y2 + y2^3"
    g1 = "x0^3 + x0*x1*x2 + x1^2*x2 + x2^3"
    code, out, _ = run_cli(
        capsys,
        [
            "product", "--p", "2",
            "--x-vars", "x0,x1,x2", "--y-vars", "y0,y1,y2",
            "--chain", g1, "--splitting", ordinary,
            "--x-poly", g1, "--y-poly", ordinary,
            "--format", "json",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 1 and data["verified"] is True


@pytest.mark.parametrize("given", ["--x-poly", "--y-poly"])
def test_product_refuses_half_a_factor_pair(capsys, given):
    """The exact chain and its verification need both factor equations;
    either one alone is an input error, not a silent fall back to the raw
    tensor pairs."""
    ordinary = "y0^3 + y0*y1*y2 + y1^2*y2 + y2^3"
    g1 = "x0^3 + x0*x1*x2 + x1^2*x2 + x2^3"
    code, out, err = run_cli(
        capsys,
        [
            "product", "--p", "2",
            "--x-vars", "x0,x1,x2", "--y-vars", "y0,y1,y2",
            "--chain", g1, "--splitting", ordinary,
            given, g1 if given == "--x-poly" else ordinary,
            "--format", "json",
        ],
    )
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "--x-poly and --y-poly" in err


def test_height_verify_on_a_height_four_k3_quartic(capsys):
    """The verifier rebuilds Δ₁(f^{p−1})^{1+3+9} capped at 3^4−1 level by
    level, so a height-4 quartic re-verifies in well under a second."""
    quartic = "x*y^3 + x*y^2*z + 2*x*y*z^2 + z^4 + x*z^2*w + y*z^2*w + x^2*w^2 + y*w^3 + w^4"
    code, out, _ = run_cli(
        capsys,
        ["height", "--p", "3", "--vars", "x,y,z,w", "--poly", quartic,
         "--verify", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 4 and data["verified"] is True


def test_product_rejects_collapsing_input(capsys):
    code, _, err = run_cli(
        capsys,
        [
            "product", "--p", "2",
            "--x-vars", "x0,x1,x2", "--y-vars", "y0,y1,y2",
            "--chain", "x0^3 + x1^3 + x2^3",
            "--splitting", "y0^3 + y1^3 + y2^3",
        ],
    )
    assert code == 1
    assert "error:" in err


def test_strata_command(capsys):
    code, out, _ = run_cli(
        capsys,
        ["strata", "--p", "2", "--nvars", "3", "--h-max", "2", "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["monomials"] == 10
    assert data["b"] == ["a111"]


def test_search_command(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "search", "--p", "2", "--nvars", "3", "--target", "2",
            "--samples", "200", "--format", "json",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["found"] is True
    assert data["report"]["verdict"] == "Finite" and data["report"]["n"] == 2


# ---------------------------------------------------------------------------
# grading parsing and the table generator
# ---------------------------------------------------------------------------


def test_parse_grading_single_row():
    g = parse_grading("1,1,2", 3)
    assert g.rows == ((1, 1, 2),)


def test_parse_grading_multirow_both_separators():
    assert parse_grading("1,1,1|0,0,1", 3) == parse_grading("1,1,1;0,0,1", 3)


@pytest.mark.parametrize("text", ["", "1,2", "1,a,2", "1,1,1|1,1"])
def test_parse_grading_rejects(text):
    with pytest.raises(InputError):
        parse_grading(text, 3)


def test_rdp_rows_census():
    rows = rdp_rows((2, 3, 5), 8)
    assert len(rows) == 90
    assert len(rdp_rows((5,), 8)) == 2
    assert len(rdp_rows((3,), 8)) == 7
    # p = 2: D-pairs for 2 <= n <= 8 with r < n, plus 11 E-rows
    assert len(rdp_rows((2,), 8)) == 2 * sum(range(2, 9)) + 11
    types = {r["type"] for r in rows}
    assert {"D4^0", "D5^0", "D16^7", "E8^0"} <= types


def test_rdp_expected_heights_follow_log_formula():
    for row in rdp_rows((2,), 5):
        if row["type"].startswith("D"):
            digits = int(row["type"][1:].split("^")[0])
            r = int(row["type"].split("^")[1])
            n = digits // 2
            assert row["expected"] == math.ceil(math.log2(n - r)) + 1


def test_rdp_compute_row_matches():
    out = rdp_compute_row({"p": 3, "type": "E6^0", "f": "z^2 + x^3 + y^4", "expected": 2})
    assert out["computed"] == 2 and out["match"] is True


# ---------------------------------------------------------------------------
# batch mode
# ---------------------------------------------------------------------------


def write_jobs(tmp_path, records):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(records))
    return str(path)


def test_batch_two_good_jobs(capsys, tmp_path):
    jobs = [
        {"command": "fsplit", "p": 2, "vars": ["x", "y", "z"],
         "polys": ["x^3 + x*y*z + y^2*z + z^3"]},
        {"command": "height", "p": 2, "vars": ["x", "y", "z"],
         "polys": ["x^3 + y^3 + z^3"], "options": {"n_max": 4}},
    ]
    code, out, _ = run_cli(capsys, ["batch", write_jobs(tmp_path, jobs), "--serial"])
    assert code == 0
    data = json.loads(out)
    assert [j["exit"] for j in data["jobs"]] == [0, 0]
    assert data["jobs"][0]["report"]["fsplit"] is True
    assert data["jobs"][1]["report"]["n"] == 2


def test_batch_empty_list(capsys, tmp_path):
    code, out, _ = run_cli(capsys, ["batch", write_jobs(tmp_path, [])])
    assert code == 0
    assert json.loads(out) == {"jobs": [], "exit": 0}


def test_batch_isolates_bad_job(capsys, tmp_path):
    jobs = [
        {"command": "fsplit", "p": 2, "vars": ["x"], "polys": ["x"]},
        {"command": "fsplit", "p": 6, "vars": ["x"], "polys": ["x"]},
        {"command": "nosuch", "p": 2, "vars": ["x"], "polys": ["x"]},
    ]
    code, out, _ = run_cli(capsys, ["batch", write_jobs(tmp_path, jobs), "--serial"])
    assert code == 1
    data = json.loads(out)
    assert [j["exit"] for j in data["jobs"]] == [0, 1, 1]
    assert "error" in data["jobs"][1]["report"]


def test_batch_aggregate_is_worst_code(capsys, tmp_path):
    jobs = [
        {"command": "fsplit", "p": 2, "vars": ["x"], "polys": ["x"]},
        {"command": "height", "p": 2, "vars": ["x", "y", "z"],
         "polys": ["z^2 + x^2*y + x*y^4"], "options": {"budget": 2, "n_max": 6}},
    ]
    code, out, _ = run_cli(capsys, ["batch", write_jobs(tmp_path, jobs), "--serial"])
    assert code == 2
    data = json.loads(out)
    assert [j["exit"] for j in data["jobs"]] == [0, 2]


def test_batch_rejects_nonpositive_budget(capsys, tmp_path):
    jobs = [
        {"command": cmd, "p": 2, "vars": ["x", "y", "z"],
         "polys": ["x^3 + y^2*z"], "options": {"budget": budget}}
        for cmd in ("height", "qfs") for budget in (0, -1)
    ]
    code, out, _ = run_cli(capsys, ["batch", write_jobs(tmp_path, jobs), "--serial"])
    assert code == 1
    data = json.loads(out)
    assert [j["exit"] for j in data["jobs"]] == [1, 1, 1, 1]
    assert all("budget must be" in j["report"]["error"] for j in data["jobs"])


# (command, options, part of the error) for batch records whose options the
# command's flags would not accept
BAD_OPTIONS = {
    "misspelled": ("height", {"nmax": 1, "stratgy": "local"}, "height takes no option 'nmax'"),
    "fsplit-budget": ("fsplit", {"budget": 5}, "fsplit takes no option 'budget'"),
    "fsplit-verify": ("fsplit", {"verify": True}, "fsplit takes no option 'verify'"),
    "qfs-n-max": ("qfs", {"n_max": 3}, "qfs takes no option 'n_max'"),
    "qfs-strategy": ("qfs", {"strategy": "local"}, "qfs takes no option 'strategy'"),
    "n-max-zero": ("height", {"n_max": 0}, "n_max must be a positive chain length"),
    "n-max-negative": ("height", {"n_max": -3}, "n_max must be a positive chain length"),
    "n-max-text": ("height", {"n_max": "3"}, "n_max must be a positive chain length"),
    "budget-boolean": ("qfs", {"budget": True}, "budget must be a positive number of steps"),
    "verify-number": ("qfs", {"verify": 1}, "verify must be true or false"),
    "strategy-unknown": ("height", {"strategy": "fastest"}, "strategy must be one of"),
    "not-an-object": ("height", [["n_max", 3]], "job options must be an object"),
}


@pytest.mark.parametrize("case", list(BAD_OPTIONS))
def test_batch_rejects_bad_options(capsys, tmp_path, case):
    command, options, message = BAD_OPTIONS[case]
    jobs = [
        {"command": "fsplit", "p": 2, "vars": ["x"], "polys": ["x"]},
        {"command": command, "p": 2, "vars": ["x", "y", "z"],
         "polys": ["x^3 + y^2*z"], "options": options},
    ]
    code, out, _ = run_cli(capsys, ["batch", write_jobs(tmp_path, jobs), "--serial"])
    assert code == 1
    data = json.loads(out)
    assert [j["exit"] for j in data["jobs"]] == [0, 1]
    assert message in data["jobs"][1]["report"]["error"]


def test_batch_accepts_the_flags_options(capsys, tmp_path):
    cusp = {"p": 2, "vars": ["x", "y", "z"], "polys": ["x^3 + y^2*z"]}
    jobs = [
        dict(cusp, command="height",
             options={"n_max": 4, "budget": 10000, "verify": True, "strategy": "local"}),
        dict(cusp, command="qfs", options={"budget": 10000, "verify": False}),
        dict(cusp, command="fsplit", options={}),
    ]
    code, out, _ = run_cli(capsys, ["batch", write_jobs(tmp_path, jobs), "--serial"])
    assert code == 0
    data = json.loads(out)
    assert data["jobs"][0]["report"]["route"] == "local-chain"
    assert data["jobs"][0]["report"]["verified"] is True
    assert data["jobs"][1]["report"]["qfs"] is False
    assert data["jobs"][2]["report"]["fsplit"] is False


def test_batch_rejects_non_regular_sequences(capsys, tmp_path):
    jobs = [{"command": "fsplit", "p": 2, "vars": ["x"], "polys": ["x"]}] + [
        {"command": "height", "p": 2, "vars": ["x", "y", "z"], "polys": polys.split("; ")}
        for polys, _ in NOT_REGULAR.values()
    ]
    code, out, _ = run_cli(capsys, ["batch", write_jobs(tmp_path, jobs), "--serial"])
    assert code == 1
    data = json.loads(out)
    assert [j["exit"] for j in data["jobs"]] == [0, 1, 1, 1]
    for job, (_, message) in zip(data["jobs"][1:], NOT_REGULAR.values()):
        assert message in job["report"]["error"]


GOOD_RECORD = {"command": "fsplit", "p": 2, "vars": ["x", "y", "z"], "polys": ["x^3 + y^2*z"]}

# batch records with a field of the wrong type: (record, part of the error)
STRINGS = "must be a list of strings"
INT_ROWS = "job field grading must be a list of lists of integers"
BAD_RECORDS = {
    "command-number": (dict(GOOD_RECORD, command=3), "job field command must be a string"),
    "p-text": (dict(GOOD_RECORD, p="two"), "job field p must be an integer"),
    "p-float": (dict(GOOD_RECORD, p=2.7), "job field p must be an integer"),
    "p-boolean": (dict(GOOD_RECORD, p=True), "job field p must be an integer"),
    "vars-text": (dict(GOOD_RECORD, vars="x,y,z"), "job field vars " + STRINGS),
    "vars-number": (dict(GOOD_RECORD, vars=["x", 1]), "job field vars " + STRINGS),
    "polys-text": (dict(GOOD_RECORD, polys="x*y + x^2"), "job field polys " + STRINGS),
    "polys-number": (dict(GOOD_RECORD, polys=[3]), "job field polys " + STRINGS),
    "grading-text-entry": (dict(GOOD_RECORD, grading=[[1, "a", 1]]), INT_ROWS),
    "grading-flat": (dict(GOOD_RECORD, grading=[1, 1, 1]), INT_ROWS),
    "grading-float": (dict(GOOD_RECORD, grading=[[1, 1.5, 1]]), INT_ROWS),
    "record-not-object": (["fsplit", 2], "job record must be an object"),
}


@pytest.mark.parametrize("case", list(BAD_RECORDS))
def test_batch_rejects_bad_field_types(capsys, tmp_path, case):
    record, message = BAD_RECORDS[case]
    code, out, _ = run_cli(
        capsys, ["batch", write_jobs(tmp_path, [GOOD_RECORD, record]), "--serial"]
    )
    assert code == 1
    data = json.loads(out)
    assert [j["exit"] for j in data["jobs"]] == [0, 1]
    assert message in data["jobs"][1]["report"]["error"]


def test_batch_parallel_matches_serial(capsys, tmp_path):
    jobs = [
        {"command": "qfs", "p": p, "vars": ["x", "y", "z"], "polys": ["x^3 + y^2*z"]}
        for p in (2, 3)
    ]
    path = write_jobs(tmp_path, jobs)
    code_s, out_s, _ = run_cli(capsys, ["batch", path, "--serial"])
    code_p, out_p, _ = run_cli(capsys, ["batch", path, "--workers", "2"])
    assert code_s == code_p == 0
    assert json.loads(out_s) == json.loads(out_p)


def test_batch_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["batch", str(tmp_path / "nope.json")])
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_batch_rejects_nonpositive_workers(capsys, tmp_path, workers):
    path = write_jobs(tmp_path, [GOOD_RECORD, GOOD_RECORD])
    code, out, err = run_cli(capsys, ["batch", path, "--workers", workers])
    assert code == 1
    assert out == ""
    assert err.startswith("error: --workers must be")
    assert "Traceback" not in err


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size it is asked
    for and maps in this process, so no worker is ever started."""

    sizes: list = []

    def __init__(self, max_workers=None):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "argv,size",
    [(["--workers", "64"], 2), (["--workers", "1"], 1), ([], min(os.cpu_count() or 1, 2))],
    ids=["many", "one", "default"],
)
def test_batch_pool_has_at_most_one_worker_per_job(capsys, tmp_path, monkeypatch, argv, size):
    # the batch driver imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    path = write_jobs(tmp_path, [GOOD_RECORD, GOOD_RECORD])
    code, out, _ = run_cli(capsys, ["batch", path, *argv])
    assert code == 0
    assert [job["exit"] for job in json.loads(out)["jobs"]] == [0, 0]
    assert RecordingPool.sizes == [size]


# ---------------------------------------------------------------------------
# console script
# ---------------------------------------------------------------------------


def run_child(args, timeout=60):
    """``python args`` in a child interpreter."""
    # Put the directory holding the imported package first on PYTHONPATH, so
    # the child interpreter runs the same code from any working directory.
    env = dict(os.environ)
    src = str(Path(qfsplit.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


def run_module(argv, timeout=60):
    """``python -m qfsplit argv`` in a child interpreter."""
    return run_child(["-m", "qfsplit", *argv], timeout)


def test_importing_the_cli_loads_no_process_pool():
    """Only a parallel batch needs the process pool: a fresh interpreter
    that imports `qfsplit.cli` has not loaded `multiprocessing`."""
    code = "import sys, qfsplit.cli; print(sorted(m for m in sys.modules if 'multiprocessing' in m))"
    proc = run_child(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_script_smoke():
    assert qfsplit.__main__.main is qfsplit.cli.main
    proc = run_module(["fsplit", "--p", "5", "--vars", "x,y", "--poly", "x*y"])
    assert proc.returncode == 0
    assert "fsplit: True" in proc.stdout


@pytest.mark.skipif(
    shutil.which("qfsplit") is None,
    reason="qfsplit console script not installed (pip install -e .)",
)
def test_installed_console_script():
    proc = subprocess.run(
        ["qfsplit", "fsplit", "--p", "5", "--vars", "x,y", "--poly", "x*y"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "fsplit: True" in proc.stdout
