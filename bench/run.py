"""Benchmark of sqavoid's three costly jobs: certify, survey and sweep.

    python3 bench/run.py --workload certify --seed 1 --seconds 15 --trace 0

Run from anywhere; the package is imported from `src/` beside this
directory, and the run refuses to start (exit 2) when it is not there.  The
load is one process with no threads.  The last line of standard output is
one JSON object: `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones of BENCHMARK.json; with
`--trace 1` they are its per-layer ones, and the spans are written to
`bench/out/trace-<workload>.{json,bin}`.  Details are in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import tracing
import workloads
from speed import MODULE_REF_S, Speed, calibration_module

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# After an idle spell the VM starts processes slowly for a few seconds, which
# no calibration sees: the first imports are not measured.
SETUP_WARMUP = 6
SETUP_SAMPLES = 9
# Times `import sqavoid.cli` in a fresh interpreter, then, in the same
# process, the unmarshal and exec of a fixed synthetic module (the median of
# three), which the import is scaled by.
IMPORT_PROBE = """
import marshal, statistics, sys, time
sys.path.insert(0, sys.argv[1])
blob = open(sys.argv[2], "rb").read()
t = time.perf_counter()
import sqavoid.cli
dt = time.perf_counter() - t
runs = []
for _ in range(3):
    t = time.perf_counter()
    exec(marshal.loads(blob), {})
    runs.append(time.perf_counter() - t)
print(sqavoid.__file__)
print(repr(dt))
print(repr(statistics.median(runs)))
"""

COUNTED = (
    "progression.find_square_witness",
    "progression.certify_square_free",
    "progression.brute_force_witness",
    "cli.main",
    "small_squares.construct_small_square",
    "arith.iroot",
    "arith.least_qnr",
    "lowerbound.build_instance",
)
SELF_TIMED = (
    "progression.find_square_witness",
    "progression.brute_force_witness",
    "cli.main",
    "small_squares.construct_small_square",
    "small_squares.balanced_n",
    "small_squares.small_square_survey",
    "arith.iroot",
    "arith.least_qnr",
    "arith.is_prime",
    "lowerbound.build_instance",
    "lowerbound.residue_certificate",
    "sweep.sweep",
)


class SetupError(Exception):
    pass


def _from_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def setup_seconds() -> float:
    """Median time to import sqavoid.cli (numpy included) in a fresh interpreter.

    Every `sqavoid` command pays this before it does any work.  The
    unmeasured imports first fill the bytecode cache, which users pay once
    per install, not once per call.  The cache lives in bench/out/pycache
    and is written whatever PYTHONDONTWRITEBYTECODE says, so the figure
    does not depend on the caller's environment.
    """
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    module = out / "calibration_module.bin"
    module.write_bytes(marshal.dumps(compile(calibration_module(), "<calibration>", "exec")))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(out / "pycache")
    samples = []
    for i in range(SETUP_WARMUP + SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(module)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SetupError(f"importing sqavoid failed:\n{proc.stderr}")
        where, dt, module_s = proc.stdout.split()
        if not _from_src(where):
            raise SetupError(f"sqavoid was imported from {where}, not {SRC}")
        if i >= SETUP_WARMUP:
            samples.append(float(dt) * MODULE_REF_S / float(module_s))
    return statistics.median(samples)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(p, setup_s: float, rss_mib: float) -> dict[str, float]:
    return {
        "ops_per_s": p.ops_per_s(),
        "op_p50_ms": p.p50_s() * 1e3,
        "setup_s": setup_s,
        "peak_rss_mib": rss_mib,
    }


def per_layer(workload, jobs, tracer, traced, untraced) -> tuple[dict[str, float], list[str]]:
    funcs = tracer.per_function()
    m = {f"{name}.calls": funcs[name][0] for name in COUNTED}
    m |= {f"{name}.self_s": funcs[name][1] for name in SELF_TIMED}

    roots = touched = 0
    for key, count in tracer.keys["progression.find_square_witness"].items():
        r, c = tracing.walk_counts(*key)
        roots += r * count
        touched += c * count
    m["progression.roots_walked"] = roots
    m["progression.candidates_touched"] = touched
    m["progression.candidates_per_root"] = touched / roots if roots else 0.0
    m["small_squares.b_candidates"] = sum(
        tracing.b_candidates(q1, b) * count
        for (q1, b), count in tracer.keys["small_squares.construct_small_square"].items()
    )

    problems = []
    layers = dict.fromkeys(
        [f"sweep.{f}.{k}" for f in ("one_d", "lower_bound", "random_local") for k in ("search_s", "verify_s")]
        + ["sweep.one_d.alloc_peak_mib"],
        0.0,
    )
    probes = feasible = 0
    if workload == "sweep":
        layers, problems = workloads.sweep_layers(jobs, untraced)
        # certify_square_free inside sweep: random_local's feasibility probes,
        # plus one square-free re-certification per reported family.
        emitted = sum(len(r.family_bests) for r in traced.outputs if not isinstance(r, str))
        verdicts: Counter = tracer.keys["progression.certify_square_free"]
        probes = sum(verdicts.values()) - emitted
        feasible = verdicts["square_free"] - emitted
    m |= layers
    m["sweep.random_local.probes"] = probes
    m["sweep.random_local.feasible_share"] = feasible / probes if probes else 0.0
    m["trace.overhead_ratio"] = traced.ops_per_s() / untraced.ops_per_s()
    m["machine.calib_s"] = untraced.speed.calib_s()
    return m, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("certify", "survey", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "sqavoid" / "__init__.py").is_file():
        print(f"bench: no sqavoid package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    sys.path.insert(0, str(SRC))
    import sqavoid.cli  # the workloads reach the package's modules through sys.modules

    if not _from_src(sqavoid.__file__):
        print(f"bench: sqavoid was imported from {sqavoid.__file__}, not {SRC}", file=sys.stderr)
        return 2

    make_jobs, count, run, check = workloads.WORKLOADS[args.workload]
    jobs = make_jobs(args.seed, args.seconds)
    attempted = count(jobs)

    untraced = run(jobs, Speed())
    rss_mib = peak_rss_mib()
    try:
        setup_s = setup_seconds()
    except (SetupError, subprocess.TimeoutExpired) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    metrics = end_to_end(untraced, setup_s, rss_mib)
    problems = check(jobs, untraced)
    failed = attempted - untraced.completed

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            # No timer here: a calibration loop inside a span would count as that layer's time.
            traced = run(jobs, Speed(timer=False))
        finally:
            tracer.enabled = False
        try:
            problems += check(jobs, traced)
            if traced.completed != untraced.completed:
                problems.append(f"traced pass completed {traced.completed}, untraced {untraced.completed}")
            metrics, more = per_layer(args.workload, jobs, tracer, traced, untraced)
            problems += more
        finally:
            tracer.uninstall()
        tracer.write(HERE / "out" / f"trace-{args.workload}")

    mismatch = set(units) ^ set(metrics)
    if mismatch:
        raise SystemExit(f"bench: metrics and BENCHMARK.json disagree on {sorted(mismatch)}")
    for msg in problems[:20]:
        print(f"bench: CHECK FAILED: {msg}", file=sys.stderr)
    print(
        f"bench: {args.workload} seed={args.seed}: {attempted} ops, {failed} failed, "
        f"{len(problems)} check problems; raw {untraced.completed / untraced.wall:.6g} op/s, "
        f"p50 {statistics.median(untraced.latencies) * 1e3:.6g} ms; calib {untraced.speed.calib_s():.6f} s",
        file=sys.stderr,
    )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
