"""The three workloads: their inputs, one measured pass, and output checks.

Each workload does a fixed amount of work for a given (seed, seconds): the
job list is sized from `seconds` by a reference rate, not by a clock, so two
runs with the same arguments do the same operations.  Inputs vary smoothly
in size across a run (stratified over the range, then shuffled), so the
median operation is steady from seed to seed.  No operation reuses a result
of another: every p, T, pair and sweep seed is used once per run.

The program is reached through `sys.modules` at call time, so a pass run
while `tracing.Tracer` is installed calls the traced wrappers.

Times are scaled to a reference machine speed by `speed.Speed`; the
calibration loops it runs are taken out of every measured time.
"""

from __future__ import annotations

import io
import math
import statistics
import sys
import tracemalloc
from array import array
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from time import perf_counter

import checks
from speed import Speed

# Work per second of --seconds, measured at the reference speed (see README).
CERTIFY_ROUNDS_PER_S = 24
SURVEY_PAIRS_PER_S = 60_000
SWEEP_S_PER_OP = 1.75

CERTIFY_P = (1_000, 30_000)
SURVEY_Q_MAX = 2_000
SWEEP_T = (5_000_000, 10_000_000)


@dataclass
class Pass:
    """One measured pass over a job list; times are raw, calibration excluded."""

    latencies: array
    starts: array  # perf_counter at each operation's start and end
    ends: array
    wall: float
    completed: int
    speed: Speed
    outputs: list

    def ops_per_s(self) -> float:
        return self.completed / self.wall * self.speed.slowness()

    def p50_s(self) -> float:
        local = self.speed.local_slowness(self.starts, self.ends)
        return statistics.median(lat / s for lat, s in zip(self.latencies, local))


def _mod(name: str):
    return sys.modules[f"sqavoid.{name}"]


# ------------------------------------------------------------------ certify


def _primes_5_mod_8(lo: int, hi: int) -> list[int]:
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(hi) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, hi + 1, i)))
    return [p for p in range(lo, hi + 1) if sieve[p] and p % 8 == 5]


def certify_jobs(seed: int, seconds: int) -> list[tuple]:
    """Boxes (q1, q2, x1bound, x2bound, t) for `sqavoid verify`, two per round.

    Primes p = 5 (mod 8) have 2 as their least non-residue, so the
    non-residue box is (p, p + 2, p - 1, 1) = build_instance(p).progression,
    square-free at T = 2p^2, and its brute-force box grows smoothly with p.
    The witness box widens x1's radius past p: values with x2 != 0 are
    +-2 (mod p), non-residues, so the least square is p^2 at (p, 0).
    """
    rng = Random(f"certify-{seed}")
    primes = _primes_5_mod_8(*CERTIFY_P)
    rounds = max(1, min(len(primes) // 2, round(seconds * CERTIFY_ROUNDS_PER_S)))
    jobs = []
    for i in range(rounds):
        stratum = primes[i * len(primes) // rounds : (i + 1) * len(primes) // rounds]
        pa, pb = rng.sample(stratum, 2)
        jobs.append((pa, pa + 2, Fraction(pa - 1), Fraction(1), 2 * pa * pa))
        x1bound = Fraction(rng.randrange(5 * pb, 5 * pb + 5 * (pb // 4) + 1), 5)
        x2bound = Fraction(rng.randrange(7, 14), 7)
        jobs.append((pb, pb + 2, x1bound, x2bound, pb * pb + rng.randrange(pb * pb + 1)))
    rng.shuffle(jobs)
    return jobs


def _each(jobs, speed: Speed, op) -> Pass:
    """Times op(job) for each job in turn; op returns (completed, output)."""
    latencies, starts, ends = array("d"), array("d"), array("d")
    outputs, completed = [], 0
    with speed:
        start, spent = perf_counter(), speed.spent
        for job in jobs:
            before = speed.spent
            t0 = perf_counter()
            ok, out = op(job)
            t1 = perf_counter()
            latencies.append(t1 - t0 - (speed.spent - before))
            starts.append(t0)
            ends.append(t1)
            outputs.append(out)
            completed += ok
        wall = perf_counter() - start - (speed.spent - spent)
    return Pass(latencies, starts, ends, wall, completed, speed, outputs)


def certify_run(jobs, speed: Speed) -> Pass:
    cli = _mod("cli")

    def verify(job):
        q1, q2, x1, x2, t = job
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(["verify", "--q1", str(q1), "--q2", str(q2), "--x1", str(x1), "--x2", str(x2), "--t", str(t)])
            except Exception as e:  # an escaped exception is a failed operation
                code = repr(e)
        return code in (0, 1), (code, out.getvalue())

    return _each(jobs, speed, verify)


def certify_check(jobs, p: Pass) -> list[str]:
    problems = []
    for job, (code, out) in zip(jobs, p.outputs):
        if code in (0, 1):
            problems += [f"verify {job}: {msg}" for msg in checks.check_verify(job, code, out)]
    return problems


# ------------------------------------------------------------------- survey


def survey_jobs(seed: int, seconds: int) -> list[tuple[int, int]]:
    """One band (q_min, q_max) of the survey, ending near q = 2000.

    Coprime pairs fill about 0.304 of the triangle q_min <= q1 <= q2 <= q_max,
    so its side is chosen for seconds * SURVEY_PAIRS_PER_S pairs.
    """
    rng = Random(f"survey-{seed}")
    q_max = SURVEY_Q_MAX - rng.randrange(64)
    side = math.isqrt(round(seconds * SURVEY_PAIRS_PER_S / 0.304))
    return [(max(2, q_max - side + 1), q_max)]


def survey_attempted(jobs) -> int:
    return sum(checks.coprime_pairs(*band) for band in jobs)


def survey_run(jobs, speed: Speed) -> Pass:
    """One op is one pair: the time from one on_row callback's return to the next call."""
    ss = _mod("small_squares")
    latencies, starts, ends = array("d"), array("d"), array("d")
    outputs = []
    with speed:
        start, spent = perf_counter(), speed.spent
        for q_min, q_max in jobs:
            q1s, q2s, caps, ns, x1s, x2s = (array("q") for _ in range(6))
            last, last_spent = perf_counter(), speed.spent

            def on_row(row):
                nonlocal last, last_spent
                now = perf_counter()
                latencies.append(now - last - (speed.spent - last_spent))
                starts.append(last)
                ends.append(now)
                q1s.append(row[0])
                q2s.append(row[1])
                caps.append(row[2])
                ns.append(row[4])
                x1s.append(row[5])
                x2s.append(row[6])
                last_spent = speed.spent
                last = perf_counter()

            try:
                report = ss.small_square_survey(q_max, q_min=q_min, on_row=on_row)
            except Exception as e:  # the pairs not reached count as failed
                report = repr(e)
            outputs.append((report, (q1s, q2s, caps, ns, x1s, x2s)))
        wall = perf_counter() - start - (speed.spent - spent)
    return Pass(latencies, starts, ends, wall, len(latencies), speed, outputs)


def survey_check(jobs, p: Pass) -> list[str]:
    problems = []
    for (q_min, q_max), (report, cols) in zip(jobs, p.outputs):
        problems += checks.check_survey(q_min, q_max, zip(*cols))
        if isinstance(report, str):
            continue
        if not report.pairs == report.n_in_range == len(cols[0]):
            problems.append(f"report counts {report.pairs} pairs, {report.n_in_range} in range, {len(cols[0])} rows")
    return problems


# -------------------------------------------------------------------- sweep


def sweep_jobs(seed: int, seconds: int) -> list[tuple[int, int]]:
    """(T, sweep seed) pairs, T stratified over SWEEP_T with a small jitter."""
    rng = Random(f"sweep-{seed}")
    k = max(3, round(seconds / SWEEP_S_PER_OP))
    lo, hi = SWEEP_T
    step = (hi - lo) // k
    seeds = rng.sample(range(1 << 30), k)
    jobs = [
        (lo + i * step + step // 2 + rng.randrange(-step // 20, step // 20 + 1), s)
        for i, s in enumerate(seeds)
    ]
    rng.shuffle(jobs)
    return jobs


def sweep_run(jobs, speed: Speed) -> Pass:
    sw = _mod("sweep")

    def one(job):
        t, s = job
        try:
            return True, sw.sweep(sw.SweepConfig(t=t, seed=s))
        except Exception as e:  # a refused sweep is a failed operation
            return False, repr(e)

    return _each(jobs, speed, one)


def _flat(fb) -> tuple[str, int, int, int, int, int]:
    a = fb.progression
    return (fb.family, a.q1, a.q2, math.floor(a.x1bound), math.floor(a.x2bound), fb.size)


def sweep_check(jobs, p: Pass) -> list[str]:
    problems = []
    for (t, s), result in zip(jobs, p.outputs):
        if isinstance(result, str):
            continue
        found = checks.check_sweep(t, [_flat(fb) for fb in result.family_bests], _flat(result.best))
        problems += [f"sweep T={t} seed={s}: {msg}" for msg in found]
    return problems


def sweep_layers(jobs, p: Pass) -> tuple[dict[str, float], list[str]]:
    """Per-family search and verify time, and one_d's allocation peak.

    Each family is swept alone; its verify time is this benchmark's own call
    of certify_square_free on the box it reported (the check sweep runs at
    emission), and its search time is the rest of the single-family sweep.
    """
    sw, prog = _mod("sweep"), _mod("progression")
    search, verify, problems = Counter(), Counter(), []
    for (t, s), result in zip(jobs, p.outputs):
        if isinstance(result, str):
            continue
        for fb in result.family_bests:
            t0 = perf_counter()
            alone = sw.sweep(sw.SweepConfig(t=t, families=(fb.family,), seed=s))
            t1 = perf_counter()
            prog.certify_square_free(alone.best.progression, t)
            t2 = perf_counter()
            verify[fb.family] += t2 - t1
            search[fb.family] += (t1 - t0) - (t2 - t1)
            if _flat(alone.best) != _flat(fb):
                problems.append(f"sweep T={t} seed={s}: {fb.family} alone gave {_flat(alone.best)}, not {_flat(fb)}")
    metrics = {}
    for family in ("one_d", "lower_bound", "random_local"):
        metrics[f"sweep.{family}.search_s"] = search[family]
        metrics[f"sweep.{family}.verify_s"] = verify[family]
    metrics["sweep.one_d.alloc_peak_mib"] = _one_d_alloc_peak(*max(jobs)) / 2**20
    return metrics, problems


def _one_d_alloc_peak(t: int, s: int) -> int:
    """Peak bytes traced by tracemalloc while one_d searches at the largest T.

    Tracing is paused inside sweep's emission re-certification: that walk
    allocates only small ints (its peak is the search's, long freed), but
    tracing its tens of millions of allocations would take minutes.
    """
    sw = _mod("sweep")
    certify = sw.certify_square_free
    peaks = []

    def untraced_certify(*args, **kwargs):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        try:
            return certify(*args, **kwargs)
        finally:
            tracemalloc.start()

    sw.certify_square_free = untraced_certify
    tracemalloc.start()
    try:
        sw.sweep(sw.SweepConfig(t=t, families=("one_d",), seed=s))
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
        sw.certify_square_free = certify
    return max(peaks)


WORKLOADS = {
    "certify": (certify_jobs, len, certify_run, certify_check),
    "survey": (survey_jobs, survey_attempted, survey_run, survey_check),
    "sweep": (sweep_jobs, len, sweep_run, sweep_check),
}
