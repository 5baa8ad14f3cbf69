"""Command-line surface for the square-avoidance toolkit.

Eight subcommands map onto the library modules:

* ``witness``   - minimal square witness for a progression, or a
                  square-free certificate (exit 1 when a witness exists).
* ``verify``    - the same question answered twice with the agreement
                  recorded: guarded brute force first, so a --guard it
                  refuses stops the command before any search, then the
                  verdict of ``witness``.
* ``construct`` - the small-square constructive witness with its full
                  arithmetic trace.
* ``reduce``    - the gcd reduction of `reduce_box`: a record for its
                  `.step`, if it takes one, and a record for where it ends.
* ``lower``     - the non-residue instance for a prime with its machine
                  certificate.
* ``scan-nqr``  - least non-residues over primes 1 mod 4, with records.
* ``exponent``  - the piecewise exponent surface on a grid plus its
                  supremum row.
* ``sweep``     - the extremal-search harness over candidate families.

All integer input and output travels as decimal strings of arbitrary
length (JSON numbers would silently lose precision past 2^53).  Every
record field is encoded by `sqavoid.formats`: `record` for a library
record, `value` for a single field, so JSONL and CSV carry the same
strings.  Records go to --output (default stdout) as JSON lines or CSV; a
short human summary goes to stderr.  Exit codes: 0 success/certified,
1 witness found, 2 usage, domain or internal error, an --output that
cannot be opened (tried before the command runs), or records that cannot
be written, such as to a closed pipe or a full disk.  Field names and
columns are documented in docs/schema.md and stamped with schema_version.

`main` parses with one parser per process, built on its first call (not at
import) and reused by every later call; `build_parser` still returns a
fresh parser each time it is called.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys
from fractions import Fraction

from .arith import TooLarge
from .bounds import COMPONENTS, exponent_surface, surface_supremum
from .formats import SCHEMA_VERSION, record, value
from .lattice import reduce_box
from .lowerbound import (
    MIN_PRIME,
    build_instance,
    least_nonresidue_scan,
    residue_certificate,
    size_vs_t,
)
from .progression import (
    BRUTE_FORCE_GUARD,
    TwoDAP,
    brute_force_witness,
    certify_box,
    is_proper,
)
from .small_squares import balanced_n, construct_small_square
from .sweep import FAMILIES, MAX_BUDGET, SweepConfig, sweep

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_ERROR = 2


# argparse names a type function in its usage errors ("invalid integer
# value: '3x'"), so these carry the plain names.
def integer(s: str) -> int:
    return int(s, 10)


def rational(s: str) -> Fraction:
    try:
        return Fraction(s)
    except ZeroDivisionError:  # argparse reports a ValueError as a usage error
        raise ValueError(s) from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None, help="write records here instead of stdout")
    common.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")

    p = argparse.ArgumentParser(
        prog="sqavoid",
        description="exact arithmetic for square-avoiding two-dimensional progressions",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def box_args(sp):
        sp.add_argument("--q1", type=integer, required=True)
        sp.add_argument("--q2", type=integer, required=True)
        sp.add_argument("--x1", type=rational, required=True)
        sp.add_argument("--x2", type=rational, required=True)
        sp.add_argument("--t", type=integer, required=True)

    box_args(sub.add_parser("witness", parents=[common], help="minimal square witness"))
    sp = sub.add_parser("verify", parents=[common], help="dual-route square-freeness check")
    box_args(sp)
    sp.add_argument("--guard", type=integer, default=BRUTE_FORCE_GUARD, help="brute-force pair cap")

    sp = sub.add_parser("construct", parents=[common], help="small-square witness with trace")
    sp.add_argument("--q1", type=integer, required=True)
    sp.add_argument("--q2", type=integer, required=True)
    sp.add_argument("--n-cap", type=integer, default=None, help="root budget; default balances the steps")

    sp = sub.add_parser("reduce", parents=[common], help="gcd reduction")
    box_args(sp)

    sp = sub.add_parser("lower", parents=[common], help="non-residue instance for a prime")
    sp.add_argument("--p", type=integer, required=True)

    sp = sub.add_parser("scan-nqr", parents=[common], help="least non-residue scan")
    sp.add_argument("--p-max", type=integer, required=True)
    sp.add_argument("--p-min", type=integer, default=MIN_PRIME)

    sp = sub.add_parser("exponent", parents=[common], help="exponent surface and supremum")
    sp.add_argument("--grid", type=integer, required=True)
    sp.add_argument("--b-max", type=rational, default=None)
    sp.add_argument("--component", choices=COMPONENTS, default="overall")

    sp = sub.add_parser("sweep", parents=[common], help="extremal-search harness")
    sp.add_argument("--t", type=integer, required=True)
    sp.add_argument(
        "--families",
        default=",".join(SweepConfig.families),
        help=f"comma-separated subset of {{{','.join(FAMILIES)}}}",
    )
    sp.add_argument(
        "--budget",
        type=integer,
        default=SweepConfig.budget,
        help=f"random_local's coprime step pairs (1..{MAX_BUDGET}), at most one max_radius row walk "
        "each, most rows settled without a modular square root",
    )
    sp.add_argument("--seed", type=integer, default=SweepConfig.seed, help="seed for random_local's search")

    return p


# parse_args reads the parser and leaves it as it was, so one serves every call.
_parser = functools.cache(build_parser)


# ------------------------------------------------------------- handlers


def _verdict(a: TwoDAP, t: int):
    """`certify_box`'s verdict on a at t: the certificate, the `witness`
    command's record and exit code, and the head of its summary."""
    cert = certify_box(a, t)
    w = cert.witness
    base = record(a) | {"t": value(t)}
    if w is None:
        rec = {"kind": "SquareFree"} | base | {"n_max": value(cert.n_max)}
        return cert, rec, EXIT_OK, f"square-free up to {t}"
    return cert, {"kind": "Witness"} | base | record(w), EXIT_WITNESS, f"witness ({w.x1}, {w.x2}, {w.n})"


def _cmd_witness(args):
    cert, rec, code, head = _verdict(TwoDAP(args.q1, args.q2, args.x1, args.x2), args.t)
    return [rec], code, head if cert.kind == "witness" else f"{head} (roots to {cert.n_max})"


def _cmd_verify(args):
    a = TwoDAP(args.q1, args.q2, args.x1, args.x2)
    # The oracle runs first, so a --guard it refuses stops the command before any search.
    try:
        bw, checked = brute_force_witness(a, args.t, guard=args.guard), True
    except TooLarge:
        bw, checked = None, False
    cert, rec, code, head = _verdict(a, args.t)
    w = cert.witness
    if checked and bw != w:
        rec = {"kind": "Error", "error": "RouteMismatch"} | record(a) | {"t": value(args.t)} | {
            "certified_route": json.dumps(None if w is None else record(w)),
            "brute_route": json.dumps(None if bw is None else record(bw)),
        }
        return [rec], EXIT_ERROR, "internal disagreement between routes"
    brute = "agree" if checked else "skipped-guard"
    return [rec | {"brute_force": brute}], code, f"{head}; brute force: {brute}"


def _cmd_construct(args):
    n_cap = args.n_cap if args.n_cap is not None else balanced_n(args.q1, args.q2)
    trace = construct_small_square(args.q1, args.q2, n_cap)
    rec = {"kind": "SmallSquare"} | record(trace)
    w = trace.witness
    return [rec], EXIT_OK, f"n = {trace.n} <= {n_cap}: ({w.x1})*q1 + ({w.x2})*q2 = {trace.n}^2"


def _cmd_reduce(args):
    result = reduce_box(args.q1, args.q2, args.x1, args.x2, args.t)
    steps = [result.step] if result.step else []
    records = [{"kind": "ReductionStep", "index": "0"} | record(step) for step in steps]
    # The ReductionChain record counts the step above and flattens the final box.
    records.append(
        {"kind": "ReductionChain", "steps": value(len(steps)), "termination": result.termination}
        | {f"final_{name}": field for name, field in record(result.final).items()}
        | {"final_t": value(result.final_t)}
    )
    return records, EXIT_OK, f"{len(steps)} step(s), terminated: {result.termination}"


def _cmd_lower(args):
    inst = build_instance(args.p)
    cert = residue_certificate(inst)
    records = [
        {"kind": "LowerBound"}
        | record(inst)
        | {
            "certificate_ok": value(cert.ok),
            "size_vs_t": value(size_vs_t(inst)),
            "proper": value(is_proper(inst.progression)),
        }
    ]
    for name, passed, detail in cert.steps:
        records.append(
            {"kind": "CertificateStep", "step": name, "passed": value(passed), "detail": detail}
        )
    code = EXIT_OK if cert.ok else EXIT_ERROR
    return records, code, f"p={inst.p}: size {inst.size}, certificate {'ok' if cert.ok else 'FAILED'}"


def _cmd_scan_nqr(args):
    recs = least_nonresidue_scan(args.p_max, args.p_min)
    records = [{"kind": "NonResidue"} | record(r) for r in recs]
    if recs:
        top = max(recs, key=lambda r: (r.nqr, -r.p))
        records.append(
            {
                "kind": "NonResidueSummary",
                "count": value(len(recs)),
                "max_nqr": value(top.nqr),
                "argmax_p": value(top.p),
                "max_burgess_ratio": value(max(r.burgess_ratio for r in recs)),
            }
        )
    return records, EXIT_OK, f"{len(recs)} primes scanned"


def _record_grid_points(surface, grid, records):
    """Pass an `exponent_surface` walk through whole, since every point counts
    toward the supremum, and append a record for each on-grid point."""
    for point, exponent, label in surface:
        if point.on_grid(grid):
            rec = {"kind": "ExponentPoint"} | record(point)
            records.append(rec | {"exponent": value(exponent), "case": label})
        yield point, exponent, label


def _cmd_exponent(args):
    records = []
    surface = exponent_surface(args.grid, b_max=args.b_max, component=args.component)
    sup, points = surface_supremum(_record_grid_points(surface, args.grid, records))
    # The bound is flat on a whole region; the distinguished corner is the
    # attaining point of maximal (b, a), past which the exponent drops.
    corner = max(points, key=lambda p: (p.b, p.a))
    records.append(
        {
            "kind": "ExponentSupremum",
            "supremum": value(sup),
            "grid": value(args.grid),
            "component": args.component,
            "b_max": value(args.b_max),
            "argmax": f"{value(corner.a)},{value(corner.b)}",
            "argmax_count": value(len(points)),
        }
    )
    return records, EXIT_OK, f"supremum {sup} over {len(records) - 1} grid points"


def _cmd_sweep(args):
    config = SweepConfig(
        t=args.t,
        families=tuple(f for f in args.families.split(",") if f),
        budget=args.budget,
        seed=args.seed,
    )
    result = sweep(config)

    def box(kind, fb):
        return {"kind": kind, "family": fb.family, "size": value(fb.size)} | record(fb.progression)

    best = result.best
    records = [box("FamilyBest", fb) for fb in result.family_bests]
    records.append(box("SweepBest", best) | {
        "t": value(config.t),
        "ratio_to_T_20_27": value(result.ratio_to_t_20_27),
        "ratio_to_sqrtT_logT": value(result.ratio_to_sqrt_t_log_t),
    })
    return (
        records,
        EXIT_OK,
        f"best: {best.family} size {best.size} at ({best.progression.q1}, {best.progression.q2})",
    )


_HANDLERS = {
    "witness": _cmd_witness,
    "verify": _cmd_verify,
    "construct": _cmd_construct,
    "reduce": _cmd_reduce,
    "lower": _cmd_lower,
    "scan-nqr": _cmd_scan_nqr,
    "exponent": _cmd_exponent,
    "sweep": _cmd_sweep,
}


# ------------------------------------------------------------- emission


def _emit(records: list[dict], fmt: str, stream) -> None:
    stamped = [{"schema_version": SCHEMA_VERSION} | r for r in records]
    if fmt == "jsonl" or not stamped:  # a run with no records writes no CSV header either
        for rec in stamped:
            stream.write(json.dumps(rec, sort_keys=True))
            stream.write("\n")
        return
    columns = list(dict.fromkeys(key for rec in stamped for key in rec))
    writer = csv.DictWriter(stream, columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(stamped)


def _say(line: str) -> None:
    """Print a line to stderr, or nothing if stderr cannot take it (2>/dev/full):
    the exit code, not this line, is the verdict."""
    with contextlib.suppress(OSError):
        print(line, file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        out = open(args.output, "w", encoding="utf-8", newline="") if args.output else None
    except OSError as e:
        _say(f"error: {e}")
        return EXIT_ERROR
    try:
        with out or contextlib.nullcontext(sys.stdout) as stream:
            try:
                records, code, summary = _HANDLERS[args.command](args)
            except Exception as e:  # exit 1 means a witness, so any failure maps to exit 2
                records = [{"kind": "Error", "error": type(e).__name__, "message": str(e)}]
                code, summary = EXIT_ERROR, f"error: {e}"
            _emit(records, args.format, stream)
            stream.flush()
    except OSError as e:  # the records could not be written: a closed pipe, a full disk
        if out is None:
            # Point stdout at devnull, so the flush at exit does not fail again.
            # A stdout with no descriptor (a StringIO, say) has nothing to point.
            with contextlib.suppress(OSError):
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
        _say(f"error: {e}")
        return EXIT_ERROR
    _say(summary)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
