"""Spans around sqavoid's public functions, recorded from outside the package.

`Tracer.install` replaces each function in TRACED by a wrapper, both in the
module that defines it and wherever a sqavoid module (the package namespace
included) bound it by name, so calls from one module into another are seen
too.  Spans are kept in flat arrays in memory, with parent links, and written
out by `Tracer.write` when the run ends.  A span's self time is its duration
minus the time covered by its child spans.

Count metrics are computed from each call's arguments and results, not from
counters inside the program: `keys` extracts a small hashable summary of a
call, and the summaries are tallied.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

TRACED = (
    ("cli", "main"),
    ("progression", "find_square_witness"),
    ("progression", "certify_square_free"),
    ("progression", "brute_force_witness"),
    ("small_squares", "small_square_survey"),
    ("small_squares", "construct_small_square"),
    ("small_squares", "balanced_n"),
    ("arith", "iroot"),
    ("arith", "least_qnr"),
    ("arith", "is_prime"),
    ("lowerbound", "build_instance"),
    ("lowerbound", "residue_certificate"),
    ("sweep", "sweep"),
)


def _witness_key(args, kwargs, result):
    a, t = args[0], args[1] if len(args) > 1 else kwargs["t"]
    return (a.q1, a.q2, math.floor(a.x1bound), math.floor(a.x2bound), t, None if result is None else result.n)


# Call summaries that count metrics are computed from.
KEYS = {
    "progression.find_square_witness": _witness_key,
    "progression.certify_square_free": lambda args, kwargs, result: result.kind,
    "small_squares.construct_small_square": lambda args, kwargs, result: (result.q1, result.b),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.stack: list[int] = []
        self.keys: dict[str, Counter] = {name: Counter() for name in KEYS}
        self.enabled = True
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        key = KEYS.get(name)
        tally = self.keys.get(name)
        name_id, parent, start, end, child, stack = (
            self.name_id, self.parent, self.start, self.end, self.child, self.stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(start)
            up = stack[-1] if stack else -1
            name_id.append(nid)
            parent.append(up)
            start.append(0.0)
            end.append(0.0)
            child.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                if up >= 0:
                    child[up] += t1 - t0
            if key is not None:
                tally[key(args, kwargs, result)] += 1
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "sqavoid" or n.startswith("sqavoid.")]
        for mod_name, fn_name in TRACED:
            home = sys.modules[f"sqavoid.{mod_name}"]
            orig = getattr(home, fn_name)
            traced = self._wrap(f"{mod_name}.{fn_name}", orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, attr, orig))
                        setattr(m, attr, traced)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._undo):
            setattr(m, attr, orig)
        self._undo.clear()

    def per_function(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self time in seconds)."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for nid, t0, t1, c in zip(self.name_id, self.start, self.end, self.child):
            calls[nid] += 1
            self_s[nid] += (t1 - t0) - c
        return {n: (calls[i], self_s[i]) for i, n in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Spans as `<path>.json` (names, layout) and `<path>.bin` (the arrays)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = (self.name_id, self.parent, self.start, self.end)
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in arrays:
                arr.tofile(fh)
        layout = {
            "spans": len(self.start),
            "names": self.names,
            "arrays": [
                {"field": f, "typecode": a.typecode, "itemsize": a.itemsize}
                for f, a in zip(("name_id", "parent", "start_s", "end_s"), arrays)
            ],
        }
        path.with_suffix(".json").write_text(json.dumps(layout, indent=1) + "\n")


def walk_counts(q1: int, q2: int, b1: int, b2: int, t: int, n_hit: int | None) -> tuple[int, int]:
    """(roots walked, residue-class candidates touched) by one witness search.

    The search walks n = 1 .. n_hit (or to isqrt(min(t, value bound)) when
    nothing is hit); for each n with d | n^2 it touches every x1 in
    [-b1, b1] congruent to (n^2/d) * (q1/d)^-1 modulo q2/d, d = gcd(q1, q2).
    """
    cap = min(t, b1 * q1 + b2 * q2)
    if cap < 1:
        return 0, 0
    last = math.isqrt(cap) if n_hit is None else n_hit
    d = math.gcd(q1, q2)
    q1d, q2d = q1 // d, q2 // d
    if q2d == 1:
        return last, sum(1 for n in range(1, last + 1) if n * n % d == 0) * (2 * b1 + 1)
    inv = pow(q1d, -1, q2d)
    touched = 0
    for n in range(1, last + 1):
        nn = n * n
        if nn % d:
            continue
        x0 = (nn // d) % q2d * inv % q2d
        touched += (b1 - x0) // q2d - (-b1 - 1 - x0) // q2d
    return last, touched


def b_candidates(q1: int, b: int) -> int:
    """Multipliers tried by the construction's scan (1, -1, 2, -2, ...) before settling on b."""
    coprime_below = sum(1 for mag in range(1, abs(b)) if math.gcd(mag, q1) == 1)
    return 2 * coprime_below + (1 if b > 0 else 2)
