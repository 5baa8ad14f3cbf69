"""End-to-end tests of the command-line surface: exit codes, formats,
determinism, and agreement with the library routes."""

from __future__ import annotations

import argparse
import csv
import importlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sqavoid import bounds, cli, progression
from sqavoid.cli import main
from sqavoid.formats import SCHEMA_VERSION
from sqavoid.lowerbound import build_instance
from sqavoid.sweep import SweepConfig

F = Fraction
ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv: str) -> tuple[int, list[dict], str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines()]
    return code, records, captured.err


# ------------------------------------------------------------ exit codes


@pytest.fixture
def cold_parser():
    """Start and end the test with no parser built, so none outlives its patches."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_verify_square_free_exits_zero(capsys):
    code, recs, _ = run(
        capsys, "verify", "--q1", "13", "--q2", "15", "--x1", "12", "--x2", "1", "--t", "338"
    )
    assert code == 0
    assert recs[0]["kind"] == "SquareFree"
    assert recs[0]["brute_force"] == "agree"
    assert recs[0]["schema_version"] == SCHEMA_VERSION


def test_verify_witness_exits_one(capsys):
    code, recs, _ = run(
        capsys, "verify", "--q1", "3", "--q2", "5", "--x1", "2", "--x2", "2", "--t", "25"
    )
    assert code == 1
    assert recs[0]["kind"] == "Witness"
    assert (recs[0]["x1"], recs[0]["x2"], recs[0]["n"]) == ("2", "-1", "1")


def test_square_free_verify_walks_the_roots_once(capsys, monkeypatch):
    calls = []
    walk = progression.find_square_witness

    def counted(a, t):
        calls.append((a, t))
        return walk(a, t)

    monkeypatch.setattr(progression, "find_square_witness", counted)
    monkeypatch.setattr(cli, "find_square_witness", counted, raising=False)
    code, recs, _ = run(
        capsys, "verify", "--q1", "13", "--q2", "15", "--x1", "12", "--x2", "1", "--t", "338"
    )
    assert code == 0 and recs[0]["kind"] == "SquareFree"
    assert len(calls) == 1


def test_witness_command_matches_verify(capsys):
    code, recs, _ = run(
        capsys, "witness", "--q1", "3", "--q2", "5", "--x1", "2", "--x2", "2", "--t", "25"
    )
    assert code == 1 and recs[0]["kind"] == "Witness"
    code, recs, _ = run(
        capsys, "witness", "--q1", "13", "--q2", "15", "--x1", "12", "--x2", "1", "--t", "338"
    )
    assert code == 0 and recs[0]["kind"] == "SquareFree"


def test_witness_reads_rows_along_either_axis(capsys):
    # 3 rows of fixed x1, against 10^12 roots or 2*10^8 + 1 rows of fixed x2.
    code, recs, _ = run(
        capsys, "witness", "--q1", str(10**24 + 7), "--q2", "5", "--x1", "1",
        "--x2", "100000000", "--t", str(10**62),
    )
    assert code == 1 and recs[0]["kind"] == "Witness"
    assert (recs[0]["x1"], recs[0]["x2"], recs[0]["n"]) == ("0", "5", "5")
    # The paper's non-residue box for p = 10^13 + 37 (n(p) = 2), transposed.
    p = 10**13 + 37
    code, recs, _ = run(
        capsys, "witness", "--q1", str(p + 2), "--q2", str(p), "--x1", "1",
        "--x2", str(p - 1), "--t", str(2 * p * p),
    )
    assert code == 0 and recs[0]["kind"] == "SquareFree"
    assert recs[0]["n_max"] == str(p)


def test_domain_error_exits_two(capsys):
    code, recs, err = run(
        capsys, "witness", "--q1", "0", "--q2", "5", "--x1", "1", "--x2", "1", "--t", "10"
    )
    assert code == 2
    assert recs[0]["kind"] == "Error"
    assert "error" in recs[0] and "message" in recs[0]
    assert err.startswith("error:")


def test_usage_error_exits_two(capsys):
    assert main(["witness", "--q1", "3"]) == 2  # missing required arguments
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_usage_errors_name_the_expected_type(capsys):
    for argv, message in (
        ("witness --q1 3 --q2 5 --x1 1/0 --x2 1 --t 10", "argument --x1: invalid rational value: '1/0'"),
        ("witness --q1 3x --q2 5 --x1 1 --x2 1 --t 10", "argument --q1: invalid integer value: '3x'"),
    ):
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: {message}" in captured.err


def test_huge_sweep_t_is_refused_with_exit_two(capsys):
    code, recs, _ = run(capsys, "sweep", "--t", str(10**19))
    assert code == 2
    assert (recs[0]["kind"], recs[0]["error"]) == ("Error", "DomainError")


def test_unbounded_sweep_budget_is_refused_with_exit_two(capsys, monkeypatch):
    sweep_module = importlib.import_module("sqavoid.sweep")  # the package's `sweep` is the function
    walks = []
    monkeypatch.setattr(sweep_module, "max_radius", lambda *args: walks.append(args))
    code, recs, _ = run(capsys, "sweep", "--t", "1000", "--budget", str(10**18))
    assert code == 2 and walks == []
    assert (recs[0]["kind"], recs[0]["error"]) == ("Error", "DomainError")


def test_walk_past_the_root_limit_exits_two(capsys, monkeypatch):
    # The square-free lower-bound box for p = 1009 has 21 rows and needs
    # 1,013 roots: a limit of 20 refuses both routes, and 21 admits the rows.
    inst = build_instance(1009)
    box = ["--q1", "1009", "--q2", str(inst.q), "--x1", str(inst.x1bound), "--x2", str(inst.x2bound)]
    box += ["--t", str(inst.t)]
    monkeypatch.setattr(progression, "ROOT_WALK_LIMIT", 20)
    for command in ("witness", "verify"):
        code, recs, _ = run(capsys, command, *box)
        assert code == 2, command
        assert (recs[0]["kind"], recs[0]["error"]) == ("Error", "TooLarge")
    monkeypatch.setattr(progression, "ROOT_WALK_LIMIT", 21)
    for command in ("witness", "verify"):
        code, recs, _ = run(capsys, command, *box)
        assert (code, recs[0]["kind"]) == (0, "SquareFree"), command


_CERTIFY_UNDER_O = """
import json, sys
from sqavoid import progression
from sqavoid.cli import main
if __debug__:
    sys.exit("expected to run under python -O")

def run(command, q1, q2, x1, x2, t):
    argv = [command, "--q1", str(q1), "--q2", str(q2), "--x1", x1, "--x2", x2, "--t", str(t)]
    return main(argv)

for p in (1013, 29989):
    # p = 5 (mod 8): x2 != 0 gives the non-residues +-2 (mod p).
    print(json.dumps([p, run("verify", p, p + 2, str(p - 1), "1", 2 * p * p)]))
    print(json.dumps([p, run("verify", p, p + 2, f"{6 * p}/5", "9/7", p * p + p)]))
# Square-free with n_hi = 1014 roots and 3 rows: a limit of 2 refuses both
# routes, and at 1013, one root short, the rows answer.
progression.ROOT_WALK_LIMIT = 2
for command in ("witness", "verify"):
    print(json.dumps(["limit", run(command, 1013, 4054, "1012", "1", 1014 * 1015)]))
progression.ROOT_WALK_LIMIT = 1013
print(json.dumps(["rows", run("witness", 1013, 4054, "1012", "1", 1014 * 1015)]))
"""


def test_verify_exit_codes_under_python_O(run_python):
    proc = run_python("-O", "-c", _CERTIFY_UNDER_O)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    codes = [line for line in lines if isinstance(line, list)]
    records = [line for line in lines if isinstance(line, dict)]
    expected = [[1013, 0], [1013, 1], [29989, 0], [29989, 1], ["limit", 2], ["limit", 2], ["rows", 0]]
    assert codes == expected
    kinds = [(r["kind"], r.get("brute_force"), r.get("error")) for r in records]
    free, planted = ("SquareFree", "agree", None), ("Witness", "agree", None)
    too_large = ("Error", None, "TooLarge")
    assert kinds == [free, planted, free, planted, too_large, too_large, ("SquareFree", None, None)]
    for r, p in zip(records[1:4:2], (1013, 29989)):
        assert (r["x1"], r["x2"], r["n"]) == (str(p), "0", str(p))


_FORGED_REDUCE = """
import sys
from sqavoid import cli, lattice
if sys.flags.optimize != int(sys.argv[1]):
    sys.exit(f"expected optimize flag {sys.argv[1]}, got {sys.flags.optimize}")
honest = lattice.box_minima

def forged(lat, u_ratio):
    # v + u = (2500002, 2500001) attains lambda2 too, with a larger key than v.
    (lam1_sq, u), (lam2_sq, v) = honest(lat, u_ratio)
    return (lam1_sq, u), (lam2_sq, (v[0] + u[0], v[1] + u[1]))

lattice.box_minima = forged
box = ["--q1", "5000003", "--q2", "5000003", "--x1", "1", "--x2", "1", "--t", str(10**14)]
sys.exit(cli.main(["reduce", *box]))
"""


def test_reduce_exits_two_on_a_step_that_fails_its_certificate(run_python):
    # The ball of lambda2 spans 2,500,002 rows, past the replay's guard: the
    # step's exact checks, run as it is built, must refuse the forged v.
    for flags in (["-O"], []):
        proc = run_python(*flags, "-c", _FORGED_REDUCE, str(len(flags)))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        (rec,) = [json.loads(line) for line in proc.stdout.splitlines()]
        assert (rec["kind"], rec["error"]) == ("Error", "VerificationFailed"), rec
        assert rec["message"].endswith("fails minima-certified"), rec


def test_unexpected_exception_exits_two_not_one(capsys, monkeypatch):
    # Exit 1 means "witness found": an internal failure must never produce it.
    def overflow(args):
        raise OverflowError("int too large to convert")

    monkeypatch.setitem(cli._HANDLERS, "lower", overflow)
    code, recs, err = run(capsys, "lower", "--p", "13")
    assert code == 2
    assert (recs[0]["kind"], recs[0]["error"]) == ("Error", "OverflowError")
    assert err.startswith("error:")


def test_flags_belong_to_the_one_command_that_reads_them(capsys):
    box = ["--q1", "3", "--q2", "5", "--x1", "2", "--x2", "2", "--t", "25"]
    assert main(["witness", *box, "--guard", "5"]) == 2
    assert main(["verify", *box, "--seed", "5"]) == 2
    assert main(["reduce", *box, "--c0", "16"]) == 2
    capsys.readouterr()


def test_exponent_empty_region_exits_two(capsys):
    code, recs, _ = run(capsys, "exponent", "--grid", "4", "--b-max", "-1")
    assert code == 2
    assert (recs[0]["kind"], recs[0]["error"]) == ("Error", "DomainError")


def test_lower_rejects_bad_prime_with_exit_two(capsys):
    code, recs, _ = run(capsys, "lower", "--p", "12")
    assert code == 2 and recs[0]["kind"] == "Error"
    assert recs[0]["error"] == "BadPrime"


@pytest.mark.parametrize(
    "argv",
    [
        "witness --q1 3 --q2 5 --x1 1/0 --x2 2 --t 25",
        "verify --q1 3 --q2 5 --x1 2 --x2 3/0 --t 25",
        "reduce --q1 12 --q2 20 --x1 9 --x2 3/0 --t 10000",
        "exponent --grid 4 --b-max 1/0",
    ],
)
def test_zero_denominator_is_a_usage_error(capsys, argv):
    # Exit 1 means a witness; a rational flag that is not a number is a usage error.
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --" in captured.err and "/0'" in captured.err


def test_unopenable_output_exits_two(capsys, tmp_path, run_python):
    for path in (tmp_path / "missing" / "out.jsonl", tmp_path):
        assert main(["lower", "--p", "13", "--output", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert not (tmp_path / "missing").exists()
    proc = run_python("-m", "sqavoid.cli", "lower", "--p", "13", "--output", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


def cli_process(*argv: str, stdout) -> subprocess.Popen:
    """`python -m sqavoid.cli argv` on the checkout's src, writing its records to stdout.

    Its stdout is buffered, as a shell gives it, whatever PYTHONUNBUFFERED says.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.Popen(
        [sys.executable, "-m", "sqavoid.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )


def test_closed_pipe_exits_two():
    # About 190 kB of records, far past a pipe's buffer: the reader takes the
    # first line and closes the pipe while the command still writes.
    with cli_process("scan-nqr", "--p-max", "20000", stdout=subprocess.PIPE) as proc:
        first = json.loads(proc.stdout.readline())
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert first["kind"] == "NonResidue" and first["p"] == "13"
    assert code == 2
    assert err == "error: [Errno 32] Broken pipe\n"
    # One short record, which fits a buffer: the pipe is closed long before
    # the interpreter has started, so the command's own flush must fail.
    box = ["--q1", "13", "--q2", "15", "--x1", "12", "--x2", "1", "--t", "338"]
    with cli_process("witness", *box, stdout=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert code == 2
    assert err == "error: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(sys.platform != "linux", reason="/dev/full is a Linux device")
def test_full_disk_exits_two(capsys, run_python):
    box = ["--q1", "13", "--q2", "15", "--x1", "12", "--x2", "1", "--t", "338"]
    assert main(["witness", *box, "--output", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: [Errno 28] No space left on device\n"
    proc = run_python("-m", "sqavoid.cli", "witness", *box, "--output", "/dev/full")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: [Errno 28] No space left on device\n"
    # The same with stdout itself on the full device.
    with open("/dev/full", "w") as full, cli_process("witness", *box, stdout=full) as proc:
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert code == 2
    assert err == "error: [Errno 28] No space left on device\n"


@pytest.mark.skipif(sys.platform != "linux", reason="/dev/full is a Linux device")
def test_unwritable_stderr_keeps_the_verdict(capsys, monkeypatch):
    # A summary or error line that stderr cannot take is dropped, and the
    # exit code stays the verdict's: 0 for a square-free box, 1 for a
    # witness (13*13 at --x1 13), 2 for an error.
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(28, "No space left on device")

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    box = ["--q1", "13", "--q2", "15", "--x2", "1", "--t", "338"]
    for x1, code, kind in (("12", 0, "SquareFree"), ("13", 1, "Witness")):
        for command in ("witness", "verify"):
            argv = [command, *box, "--x1", x1]
            with open("/dev/full", "w") as full:
                proc = subprocess.run(
                    [sys.executable, "-m", "sqavoid.cli", *argv],
                    stdout=subprocess.PIPE, stderr=full, text=True, env=env, cwd=ROOT, timeout=120,
                )
            assert (proc.returncode, json.loads(proc.stdout)["kind"]) == (code, kind), argv
            monkeypatch.setattr(sys, "stderr", Full())
            assert main(argv) == code
            monkeypatch.undo()
            assert json.loads(capsys.readouterr().out)["kind"] == kind
    monkeypatch.setattr(sys, "stderr", Full())
    assert main(["witness", *box, "--x1", "12", "--output", str(ROOT / "no-such-dir" / "out")]) == 2
    assert main(["witness", *box, "--x1", "12", "--q1", "0"]) == 2


# ------------------------------------------------------- frozen payloads


def test_construct_frozen_example(capsys):
    code, recs, _ = run(capsys, "construct", "--q1", "5", "--q2", "7", "--n-cap", "3")
    assert code == 0
    rec = recs[0]
    assert rec["kind"] == "SmallSquare"
    assert (rec["b"], rec["c"], rec["c_bar"]) == ("2", "2", "3")
    assert (rec["n"], rec["m"], rec["approx_d"]) == ("2", "-1", "1")
    assert json.loads(rec["witness"]) == {"x1": "-2", "x2": "2", "n": "2"}


def test_reduce_frozen_chain(capsys):
    code, recs, _ = run(
        capsys, "reduce", "--q1", "12", "--q2", "20", "--x1", "9", "--x2", "9", "--t", "10000"
    )
    assert code == 0
    step, chain = recs
    assert step["kind"] == "ReductionStep" and step["mode"] == "divide_out"
    assert step["d"] == "4"
    assert step["swapped"] == "false" and step["lam1_sq"] == ""
    assert chain["kind"] == "ReductionChain"
    assert chain["termination"] == "coprime"
    assert (chain["final_q1"], chain["final_q2"]) == ("3", "5")
    assert chain["final_x1bound"] == "9/4"
    assert chain["final_t"] == "625"


REDUCE_FROZEN = {
    # A divide-out: d = 4 comes straight out of both steps (mode
    # "divide_out", not swapped, no lambdas), leaving the coprime box
    # (3, 5, 9/4, 9/4) at t = 625.
    ("12 20 9 9 10000", "jsonl"): (
        '{"d": "4", "index": "0", "kind": "ReductionStep", "lam1_sq": "", "lam2_sq": "", '
        '"mode": "divide_out", "p1": "3", "p2": "5", "qt1": "3", "qt2": "5", "schema_version": "1", '
        '"swapped": "false", "u": "[\\"4\\", \\"0\\"]", "u_ratio": "1", "v": "[\\"0\\", \\"4\\"]", '
        '"xt1_floor": "2", "xt1_sq": "81/16", "xt2_floor": "2", "xt2_sq": "81/16"}\n'
        '{"final_q1": "3", "final_q2": "5", "final_t": "625", "final_x1bound": "9/4", '
        '"final_x2bound": "9/4", "kind": "ReductionChain", "schema_version": "1", "steps": "1", '
        '"termination": "coprime"}\n'
    ),
    ("12 20 9 9 10000", "csv"): (
        "schema_version,kind,index,mode,swapped,d,qt1,qt2,u_ratio,lam1_sq,lam2_sq,u,v,p1,p2,"
        "xt1_sq,xt2_sq,xt1_floor,xt2_floor,steps,termination,final_q1,final_q2,final_x1bound,"
        "final_x2bound,final_t\n"
        '1,ReductionStep,0,divide_out,false,4,3,5,1,,,"[""4"", ""0""]","[""0"", ""4""]",3,5,'
        "81/16,81/16,2,2,,,,,,,\n"
        "1,ReductionChain,,,,,,,,,,,,,,,,,,1,coprime,3,5,9/4,9/4,625\n"
    ),
    # A lattice step: d = 17 goes through the gauge minima.
    ("34 51 30 30 1000000", "jsonl"): (
        '{"d": "17", "index": "0", "kind": "ReductionStep", "lam1_sq": "9", "lam2_sq": "16", '
        '"mode": "lattice", "p1": "0", "p2": "1", "qt1": "2", "qt2": "3", "schema_version": "1", '
        '"swapped": "false", "u": "[\\"3\\", \\"-2\\"]", "u_ratio": "1", "v": "[\\"4\\", \\"3\\"]", '
        '"xt1_floor": "5", "xt1_sq": "25", "xt2_floor": "3", "xt2_sq": "225/16"}\n'
        '{"final_q1": "1", "final_q2": "1", "final_t": "3460", "final_x1bound": "0", '
        '"final_x2bound": "3", "kind": "ReductionChain", "schema_version": "1", "steps": "1", '
        '"termination": "coprime"}\n'
    ),
    ("34 51 30 30 1000000", "csv"): (
        "schema_version,kind,index,mode,swapped,d,qt1,qt2,u_ratio,lam1_sq,lam2_sq,u,v,p1,p2,"
        "xt1_sq,xt2_sq,xt1_floor,xt2_floor,steps,termination,final_q1,final_q2,final_x1bound,"
        "final_x2bound,final_t\n"
        '1,ReductionStep,0,lattice,false,17,2,3,1,9,16,"[""3"", ""-2""]","[""4"", ""3""]",0,1,'
        "25,225/16,5,3,,,,,,,\n"
        "1,ReductionChain,,,,,,,,,,,,,,,,,,1,coprime,1,1,0,3,3460\n"
    ),
    # A lattice step whose second minimum's gauge ball spans 2,500,002 rows:
    # lam1^2 = 1 at u = (1, -1), lam2^2 = 2500002^2 at v = (2500001, 2500002).
    ("5000003 5000003 1 1 100000000000000", "jsonl"): (
        '{"d": "5000003", "index": "0", "kind": "ReductionStep", "lam1_sq": "1", '
        '"lam2_sq": "6250010000004", "mode": "lattice", "p1": "0", "p2": "1", "qt1": "1", "qt2": "1", '
        '"schema_version": "1", "swapped": "false", "u": "[\\"1\\", \\"-1\\"]", "u_ratio": "1", '
        '"v": "[\\"2500001\\", \\"2500002\\"]", "xt1_floor": "0", "xt1_sq": "1/4", "xt2_floor": "0", '
        '"xt2_sq": "1/25000040000016"}\n'
        '{"final_q1": "1", "final_q2": "1", "final_t": "3", "final_x1bound": "0", '
        '"final_x2bound": "0", "kind": "ReductionChain", "schema_version": "1", "steps": "1", '
        '"termination": "coprime"}\n'
    ),
    ("5000003 5000003 1 1 100000000000000", "csv"): (
        "schema_version,kind,index,mode,swapped,d,qt1,qt2,u_ratio,lam1_sq,lam2_sq,u,v,p1,p2,"
        "xt1_sq,xt2_sq,xt1_floor,xt2_floor,steps,termination,final_q1,final_q2,final_x1bound,"
        "final_x2bound,final_t\n"
        '1,ReductionStep,0,lattice,false,5000003,1,1,1,1,6250010000004,"[""1"", ""-1""]",'
        '"[""2500001"", ""2500002""]",0,1,1/4,1/25000040000016,0,0,,,,,,,\n'
        "1,ReductionChain,,,,,,,,,,,,,,,,,,1,coprime,1,1,0,0,3\n"
    ),
    # No step: coprime steps leave nothing to reduce.
    ("3 5 9 9 10000", "jsonl"): (
        '{"final_q1": "3", "final_q2": "5", "final_t": "10000", "final_x1bound": "9", '
        '"final_x2bound": "9", "kind": "ReductionChain", "schema_version": "1", "steps": "0", '
        '"termination": "coprime"}\n'
    ),
    ("3 5 9 9 10000", "csv"): (
        "schema_version,kind,steps,termination,final_q1,final_q2,final_x1bound,final_x2bound,final_t\n"
        "1,ReductionChain,0,coprime,3,5,9,9,10000\n"
    ),
}


@pytest.mark.parametrize("box, fmt", sorted(REDUCE_FROZEN), ids=str)
def test_reduce_frozen_bytes(capsys, box, fmt):
    # The whole stdout, so the CSV column order (first-seen keys) is pinned too.
    q1, q2, x1, x2, t = box.split()
    code = main(["reduce", "--q1", q1, "--q2", q2, "--x1", x1, "--x2", x2, "--t", t, "--format", fmt])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == REDUCE_FROZEN[box, fmt]
    steps = "0" if box.startswith("3 ") else "1"
    assert captured.err == f"{steps} step(s), terminated: coprime\n"


@pytest.mark.parametrize(
    "box, message",
    [
        ("12 20 -9 9", "radii must be non-negative"),
        ("-3 5 2 2", "steps must be positive, got (-3, 5)"),
        ("0 0 2 2", "steps must be positive, got (0, 0)"),
    ],
)
def test_reduce_refuses_the_boxes_witness_refuses(capsys, box, message):
    flags = [f for flag, x in zip(("--q1", "--q2", "--x1", "--x2"), box.split()) for f in (flag, x)]
    for command in ("witness", "reduce"):
        code, recs, err = run(capsys, command, *flags, "--t", "10000")
        assert code == 2, command
        assert recs == [
            {"kind": "Error", "error": "DomainError", "message": message, "schema_version": SCHEMA_VERSION}
        ]
        assert err == f"error: {message}\n"


def test_lower_frozen_instance(capsys):
    code, recs, _ = run(capsys, "lower", "--p", "13")
    assert code == 0
    inst = recs[0]
    assert inst["kind"] == "LowerBound"
    assert (inst["q"], inst["x1bound"], inst["x2bound"]) == ("15", "12", "1")
    assert inst["t"] == "338" and inst["size"] == "75"
    assert inst["certificate_ok"] == "true" and inst["proper"] == "true"
    assert F(inst["size_vs_t"]) == F(75, 36)
    steps = [r for r in recs[1:] if r["kind"] == "CertificateStep"]
    assert len(steps) == 4 and all(s["passed"] == "true" for s in steps)


def test_exponent_supremum_row(capsys):
    code, recs, _ = run(capsys, "exponent", "--grid", "54")
    assert code == 0
    sup = recs[-1]
    assert sup["kind"] == "ExponentSupremum"
    assert sup["supremum"] == "20/27"
    assert sup["argmax"] == "16/27,2/3"
    point_kinds = {r["kind"] for r in recs[:-1]}
    assert point_kinds == {"ExponentPoint"}


def test_exponent_evaluates_each_point_once(capsys, monkeypatch):
    # Each `case_exponent` call builds one CaseReport, under whatever name
    # the caller imported the function.
    calls = []
    case_report = bounds.CaseReport

    def counted(point, *fields):
        calls.append(point)
        return case_report(point, *fields)

    monkeypatch.setattr(bounds, "CaseReport", counted)
    code, recs, _ = run(capsys, "exponent", "--grid", "54")
    assert code == 0 and len(recs) - 1 == 55 * 56 // 2
    # The 1,540 grid points plus the 4 boundary vertices off the grid:
    # (0, 4/7), (4/7, 4/7), (8/13, 8/13) and (52/81, 52/81).
    assert len(calls) == len(set(calls)) == 1540 + 4


def oracle_exponent(grid: int, component: str, b_max: Fraction | None) -> list[dict]:
    """The `exponent` records, one `case_exponent` call per grid (i, j) with
    i <= j, and the supremum over those points and the boundary vertices."""

    def evaluate(point):
        rep = bounds.case_exponent(point)
        return {
            "overall": (rep.exponent, rep.case_label),
            "case1": (rep.case1, rep.case1_label),
            "case2": (rep.case2, rep.case2_label),
        }[component]

    out = []
    for i in range(grid + 1):
        for j in range(i, grid + 1):
            a, b = F(i, grid), F(j, grid)
            if b_max is not None and b > b_max:
                continue
            val, label = evaluate(bounds.ExponentPoint(a, b))
            out.append(
                {
                    "schema_version": SCHEMA_VERSION,
                    "kind": "ExponentPoint",
                    "a": str(a),
                    "b": str(b),
                    "exponent": str(val),
                    "case": label,
                }
            )
    vertices = {
        v
        for v in bounds._boundary_vertices()
        if (v.a * grid).denominator != 1 or (v.b * grid).denominator != 1
    }
    values = [(F(r["a"]), F(r["b"]), F(r["exponent"])) for r in out]
    values += [(v.a, v.b, evaluate(v)[0]) for v in vertices if b_max is None or v.b <= b_max]
    top = max(val for _, _, val in values)
    attaining = [(a, b) for a, b, val in values if val == top]
    corner = max(attaining, key=lambda p: (p[1], p[0]))
    out.append(
        {
            "schema_version": SCHEMA_VERSION,
            "kind": "ExponentSupremum",
            "supremum": str(top),
            "grid": str(grid),
            "component": component,
            "b_max": "" if b_max is None else str(b_max),
            "argmax": f"{corner[0]},{corner[1]}",
            "argmax_count": str(len(attaining)),
        }
    )
    return out


@pytest.mark.parametrize("grid", [1, 7, 27, 54])
def test_exponent_records_match_grid_oracle(capsys, grid):
    for component in ("overall", "case1", "case2"):
        for b_max in (None, F(0), F(4, 7)):
            argv = ["exponent", "--grid", str(grid), "--component", component]
            if b_max is not None:
                argv += ["--b-max", str(b_max)]
            code, recs, _ = run(capsys, *argv)
            assert code == 0 and recs == oracle_exponent(grid, component, b_max)


def test_exponent_restricted_region(capsys):
    code, recs, _ = run(
        capsys, "exponent", "--grid", "54", "--b-max", "4/7", "--component", "case1"
    )
    assert code == 0
    assert recs[-1]["supremum"] == "5/7"
    assert all(F(r["b"]) <= F(4, 7) for r in recs[:-1])


def test_scan_nqr_rows(capsys):
    code, recs, _ = run(capsys, "scan-nqr", "--p-max", "100")
    assert code == 0
    rows = [r for r in recs if r["kind"] == "NonResidue"]
    assert [(r["p"], r["nqr"]) for r in rows][:3] == [("13", "2"), ("17", "3"), ("29", "2")]
    summary = recs[-1]
    assert summary["kind"] == "NonResidueSummary"
    assert summary["count"] == "10" and summary["max_nqr"] == "5"


def test_sweep_records(capsys):
    code, recs, _ = run(
        capsys, "sweep", "--t", "10000", "--seed", "3", "--budget", "40"
    )
    assert code == 0
    fams = [r for r in recs if r["kind"] == "FamilyBest"]
    best = recs[-1]
    assert best["kind"] == "SweepBest"
    assert {r["family"] for r in fams} == {"one_d", "lower_bound", "random_local"}
    assert int(best["size"]) == max(int(r["size"]) for r in fams)
    assert "." in best["ratio_to_T_20_27"]  # decimal string, not a float


def test_sweep_flags_default_to_the_sweep_config():
    args = cli.build_parser().parse_args(["sweep", "--t", "1000"])
    assert (args.families, args.budget, args.seed) == (
        ",".join(SweepConfig.families), SweepConfig.budget, SweepConfig.seed
    )
    assert SweepConfig(t=1000, families=tuple(args.families.split(",")), budget=args.budget, seed=args.seed) == (
        SweepConfig(t=1000)
    )


# ------------------------------------------------------ formats & files

SMALL_CALLS = [
    "witness --q1 3 --q2 5 --x1 2 --x2 2 --t 25",
    "witness --q1 13 --q2 15 --x1 12 --x2 1 --t 338",
    "verify --q1 13 --q2 15 --x1 12 --x2 1 --t 338",
    "verify --q1 3 --q2 5 --x1 2 --x2 2 --t 25 --guard 3",
    "construct --q1 5 --q2 7 --n-cap 3",
    "reduce --q1 6 --q2 10 --x1 4 --x2 4 --t 10000",
    "reduce --q1 3400 --q2 5100 --x1 300 --x2 170 --t 100000000",
    "lower --p 13",
    "scan-nqr --p-max 100",
    "exponent --grid 6 --b-max 2/3",
    "sweep --t 10000 --seed 3 --budget 20",
    "witness --q1 0 --q2 5 --x1 1 --x2 1 --t 10",
]


def test_every_field_follows_the_string_rules(capsys, monkeypatch):
    # Booleans, missing values and nested fields are strings in both formats.
    assert {call.split()[0] for call in SMALL_CALLS} == set(cli._HANDLERS)

    def check(call):
        main(call.split())
        for line in capsys.readouterr().out.splitlines():
            rec = json.loads(line)
            assert all(isinstance(v, str) for v in rec.values()), (call, rec)
        main(call.split() + ["--format", "csv"])
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert len(rows) >= 2, call
        assert not any(cell in ("True", "False", "None") for row in rows for cell in row), call

    for call in SMALL_CALLS:
        check(call)
    monkeypatch.setattr(cli, "brute_force_witness", lambda a, t, guard: None)
    check("verify --q1 3 --q2 5 --x1 2 --x2 2 --t 25")  # a RouteMismatch record


def test_csv_format_round_trip(capsys, tmp_path):
    out = tmp_path / "scan.csv"
    code = main(["scan-nqr", "--p-max", "100", "--format", "csv", "--output", str(out)])
    capsys.readouterr()
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 11  # 10 primes + summary
    assert rows[0]["p"] == "13" and rows[0]["nqr"] == "2"
    assert rows[0]["schema_version"] == SCHEMA_VERSION


def test_output_file_and_byte_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["sweep", "--t", "5000", "--seed", "11", "--budget", "30"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes()  # non-empty


def test_big_integers_survive_as_decimal_strings(capsys):
    big = str(10**30)
    code, recs, _ = run(
        capsys, "witness", "--q1", big, "--q2", str(10**30 + 1), "--x1", "2", "--x2", "2",
        "--t", str(10**62),
    )
    assert code in (0, 1)
    rec = recs[0]
    assert rec["q1"] == big  # exact decimal round-trip, no float mangling
    json.dumps(rec)  # and still valid JSON


def test_verify_is_exact_past_int64(capsys):
    # 7*q1 = 1 (mod 2^64), and 2^63 + 7 does not fit an int64 at all.
    for q1 in ("7905747460161236407", str(2**63 + 7)):
        code, recs, _ = run(
            capsys, "verify", "--q1", q1, "--q2", "1000000", "--x1", "8", "--x2", "16", "--t", "100"
        )
        assert code == 0
        assert (recs[0]["kind"], recs[0]["brute_force"]) == ("SquareFree", "agree")


def test_cli_import_loads_no_numpy(run_python):
    proc = run_python(
        "-c",
        "import sqavoid.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verify_guard_skip_path(capsys):
    # A box bigger than the guard: brute force must be skipped, not wrong.
    code, recs, _ = run(
        capsys, "verify", "--q1", "1000003", "--q2", "1000033", "--x1", "60000",
        "--x2", "60000", "--t", "1000000", "--guard", "1000000",
    )
    assert recs[0]["brute_force"] == "skipped-guard"
    assert code in (0, 1)


def test_negative_guard_exits_two(capsys):
    box = ["--q1", "3", "--q2", "5", "--x1", "2", "--x2", "2", "--t", "25"]
    code, recs, _ = run(capsys, "verify", *box, "--guard", "-5")
    assert code == 2
    assert (recs[0]["kind"], recs[0]["error"]) == ("Error", "DomainError")
    code, recs, _ = run(capsys, "verify", *box, "--guard", "0")  # 0 still means skip
    assert (code, recs[0]["kind"], recs[0]["brute_force"]) == (1, "Witness", "skipped-guard")


def test_guard_past_the_oracle_limit_exits_two(capsys):
    box = ["--q1", "3", "--q2", "5", "--x1", "2", "--x2", "2", "--t", "25"]
    code, recs, _ = run(capsys, "verify", *box, "--guard", "1000000000000")
    assert (code, len(recs)) == (2, 1)
    assert (recs[0]["kind"], recs[0]["error"]) == ("Error", "DomainError")
    code, recs, _ = run(capsys, "verify", *box, "--guard", str(progression.BRUTE_FORCE_GUARD))
    assert (code, recs[0]["kind"], recs[0]["brute_force"]) == (1, "Witness", "agree")


@pytest.mark.parametrize("guard", [-1, progression.BRUTE_FORCE_GUARD + 1])
def test_bad_guard_is_refused_before_any_search(capsys, monkeypatch, guard):
    searches = []
    monkeypatch.setattr(cli, "certify_box", lambda *box: searches.append(box))
    code, recs, _ = run(
        capsys, "verify", "--q1", "13", "--q2", "15", "--x1", "12", "--x2", "1", "--t", "338",
        "--guard", str(guard),
    )
    assert (code, searches) == (2, [])
    message = f"guard must be in 0..{progression.BRUTE_FORCE_GUARD}, got {guard}"
    assert recs == [
        {"schema_version": SCHEMA_VERSION, "kind": "Error", "error": "DomainError", "message": message}
    ]


def test_lower_bound_box_past_10_9_is_certified(run_python):
    # p = 1,000,000,009: 21 rows, where the root walk alone would need about
    # 10^9 roots, past ROOT_WALK_LIMIT.
    box = ["--q1", "1000000009", "--q2", "1000000020", "--x1", "1000000008", "--x2", "10"]
    box += ["--t", "2000000036000000162"]
    for command, brute in (("witness", None), ("verify", "skipped-guard")):
        proc = run_python("-m", "sqavoid.cli", command, *box, timeout=10)
        assert proc.returncode == 0, proc.stderr
        rec = json.loads(proc.stdout)
        assert (rec["kind"], rec.get("brute_force")) == ("SquareFree", brute)
        assert rec["n_max"] == "1000000013"


# The child's own peak RSS: ru_maxrss would also count the forking parent's
# peak, which Linux carries across exec.
_VERIFY_PEAK_RSS = """
import re
from sqavoid.cli import main
box = ["--q1", "50000001", "--q2", "1", "--x1", "49999999", "--x2", "0", "--t", "2500000100000000"]
code = main(["verify", *box])
with open("/proc/self/status") as f:
    print(code, int(re.search(r"VmHWM:\\s*(\\d+) kB", f.read())[1]) * 1024)
"""


def test_verify_at_the_guard_limit_runs_in_bounded_memory(run_python):
    # 99,999,999 pairs, just inside the guard, with squares up to 2.5*10^15:
    # a set of the 5*10^7 squares below the cap would take gigabytes.
    proc = run_python("-c", _VERIFY_PEAK_RSS, timeout=60)
    assert proc.returncode == 0, proc.stderr
    record, last = proc.stdout.splitlines()
    code, peak = map(int, last.split())
    assert code == 0 and json.loads(record)["brute_force"] == "agree"
    assert peak < 64 * 2**20, peak


# ------------------------------------------------------ one parser per process


def count_parsers(monkeypatch) -> list[int]:
    """Count `argparse.ArgumentParser` constructions from here on, subparsers included."""
    built = [0]
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


def test_one_parser_serves_every_call(capsys, monkeypatch, cold_parser):
    built = count_parsers(monkeypatch)
    box = ["--q1", "3", "--q2", "5", "--x1", "2", "--x2", "2", "--t", "25"]
    assert main(["verify", *box]) == 1
    assert built[0] > 0  # the warm-up call built the parser
    built[0] = 0
    assert main(["witness", *box]) == 1
    assert main(["lower", "--p", "13"]) == 0
    assert main(["exponent", "--grid", "2"]) == 0
    capsys.readouterr()
    assert built[0] == 0


def call_outputs(capsys, tmp_path, calls, *, fresh) -> list[tuple]:
    """(exit code, stdout, stderr, --output file) of each call, in one process.

    With `fresh` every call gets a newly built parser; without, the calls
    share the process's one parser.
    """
    out = []
    for argv in calls:
        if fresh:
            cli._parser.cache_clear()
        code = main(list(argv))
        captured = capsys.readouterr()
        target, written = tmp_path / "out.txt", None
        if target.exists():
            written = target.read_text()
            target.unlink()
        out.append((code, captured.out, captured.err, written))
    return out


def test_no_parse_state_leaks_between_calls(capsys, tmp_path, cold_parser):
    box = ["--q1", "3", "--q2", "5", "--x1", "2", "--x2", "2", "--t", "25"]
    sequences = [
        [["verify", *box, "--guard", "0"], ["verify", *box]],
        [["lower", "--p", "13", "--format", "csv"], ["lower", "--p", "13"]],
        [["lower", "--p", "13", "--output", str(tmp_path / "out.txt")], ["lower", "--p", "13"]],
        [["verify", *box[:-2]], ["verify", *box]],
        [["verify", "--help"], ["verify", *box]],
        [["sweep", "--families", "one_d", "--t", "1000"], ["sweep", "--t", "1000"]],
    ]
    firsts = []
    for calls in sequences:
        cli._parser.cache_clear()
        shared = call_outputs(capsys, tmp_path, calls, fresh=False)
        assert shared == call_outputs(capsys, tmp_path, calls, fresh=True), calls[0]
        firsts.append(shared[0])
        (_, out0, _, _), (code1, out1, _, file1) = shared
        assert file1 is None and out1  # the second call writes to stdout
        last = [json.loads(line) for line in out1.splitlines()]  # and as JSON lines
        if calls[0][0] == "verify":
            assert (code1, last[0]["brute_force"]) == (1, "agree")
        if calls[0][0] == "sweep":
            assert sorted(r["family"] for r in last[:-1]) == ["lower_bound", "one_d", "random_local"]
            assert len(out0.splitlines()) == 2  # one_d's best and the overall best
    # What each first call did, so the pairs above test the paths they name.
    guarded, as_csv, to_file, usage, helped, _ = firsts
    assert json.loads(guarded[1])["brute_force"] == "skipped-guard"
    assert as_csv[1].startswith("schema_version,kind,")
    assert to_file[1] == "" and to_file[3].startswith('{"certificate_ok"')
    assert usage[0] == 2 and "the following arguments are required: --t" in usage[2]
    assert helped[0] == 0 and helped[1].startswith("usage: sqavoid verify")


def test_importing_the_cli_builds_no_parser(run_python):
    # The parser is built on first use, so it never adds to the import time.
    proc = run_python(
        "-c",
        "import argparse\n"
        "built, init = 0, argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    global built\n"
        "    built += 1\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import sqavoid.cli\n"
        "print(built)\n"
        "sqavoid.cli._parser()\n"
        "print(built > 0)\n",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "True"]


def test_unbounded_exponent_grid_is_refused_with_exit_two(capsys, monkeypatch):
    points = []
    case_exponent = bounds.case_exponent

    def counted(point):
        points.append(point)
        return case_exponent(point)

    monkeypatch.setattr(bounds, "case_exponent", counted)
    code, recs, err = run(capsys, "exponent", "--grid", str(10**12))
    assert code == 2 and points == []
    assert (recs[0]["kind"], recs[0]["error"]) == ("Error", "DomainError")
    assert err.startswith("error:")
    code, recs, _ = run(capsys, "exponent", "--grid", str(bounds.MAX_GRID + 1))
    assert code == 2 and points == []
    assert (recs[0]["kind"], recs[0]["error"]) == ("Error", "DomainError")
