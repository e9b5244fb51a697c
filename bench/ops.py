"""Operations, the closed-loop runner, and oracle arithmetic.

An operation is one library call with a verdict class: ``accept`` when
the input is valid and the result is checked against a closed form,
``reject`` when the input is invalid and the reported witness is
re-verified on the benchmark's own copy of the input. The checks here
never call torsorkit; they use the benchmark's own arithmetic, so a
wrong library answer shows as a failed operation.

Latencies are normalized to the host's speed. The benchmark runs on
shared machines whose speed drifts by a third over seconds to minutes
(other tenants on the same cores), which swamps the bounds a regression
check needs. A fixed pure-Python reference kernel is timed right before
every operation, and the operation's wall time is scaled by
``REFERENCE_S / reference time``: on a host running at the reference
speed the latency is unchanged, on a host running 30 % slow it is
divided by 1.3. Library changes cannot touch the kernel, so a faster or
slower library shows in full.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

REFERENCE_S = 0.3e-3  # the reference kernel's time at full speed on the 2-core Xeon host it was tuned on

_REFERENCE_TABLE = tuple(tuple((a * 7 + b * 3) % 80 for b in range(80)) for a in range(80))


def reference_kernel() -> int:
    """A fixed table walk in pure Python, like the library's own inner loops."""
    t = _REFERENCE_TABLE
    return sum(sum(t[row[h]][h] for h in range(80)) for row in t)


@dataclass(frozen=True)
class Op:
    kind: str                      # stable label, e.g. "affine_torsor(2,8)"
    verdict: str                   # "accept" or "reject"
    run: Callable[[], Any]
    check: Callable[[Any], bool]   # gets the return value or the raised exception


def accept(kind: str, run, check) -> Op:
    """A valid input: the call must return, and ``check`` must hold on the result."""
    return Op(kind, "accept", run, lambda out: not isinstance(out, Exception) and check(out))


def reject(kind: str, run, error, verify) -> Op:
    """An invalid input: the call must raise ``error`` whose witness ``verify`` confirms."""
    return Op(kind, "reject", run, lambda out: isinstance(out, error) and verify(out))


def reject_value(kind: str, run, check) -> Op:
    """An invalid input answered by a returned verdict (a failing report, NotTrivial, ...)."""
    return Op(kind, "reject", run, lambda out: not isinstance(out, Exception) and check(out))


def reference_time(repeats: int = 9) -> float:
    """Median seconds of the reference kernel, for normalizing a span that is not one operation."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[repeats // 2]


def run_op(op: Op) -> tuple[float, float, bool, Any]:
    """Time the reference kernel, then one call; the check runs outside the timed region.

    Returns (call seconds, reference seconds, check passed, result or exception).
    """
    t0 = time.perf_counter()
    reference_kernel()
    t1 = time.perf_counter()
    try:
        out = op.run()
    except Exception as err:  # a library bug must count as a failed operation, not end the run
        out = err
    dt = time.perf_counter() - t1
    try:
        ok = bool(op.check(out))
    except Exception:  # a check that cannot even read the result is a wrong result
        ok = False
    return dt, t1 - t0, ok, out


class Tally:
    """Normalized latencies per verdict class, host slowdowns, attempted/failed counts."""

    def __init__(self):
        self.latencies: dict[str, list[float]] = {"accept": [], "reject": []}
        self.slowdowns: list[float] = []   # reference time / REFERENCE_S, one per operation
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, op: Op, dt: float, ref: float, ok: bool, out) -> None:
        self.latencies[op.verdict].append(dt * REFERENCE_S / ref)
        self.slowdowns.append(ref / REFERENCE_S)
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op.kind} ({op.verdict}): {out!r}"[:300])


def run_rounds(ops: list[Op], tally: Tally, *, rounds: int | None = None, seconds: float | None = None) -> None:
    """Closed loop, one client: whole rounds until ``rounds`` or ``seconds`` is reached.

    Only whole rounds run, so every run has the same operation mix and
    the percentiles fall at the same operation kinds on every seed.
    """
    start = time.perf_counter()
    done = 0
    while True:
        for op in ops:
            tally.record(op, *run_op(op))
        done += 1
        if rounds is not None and done >= rounds:
            return
        if seconds is not None and time.perf_counter() - start >= seconds:
            return


# ---- oracle arithmetic (independent of torsorkit) ----

def digits(idx: int, p: int, n: int) -> list[int]:
    out = []
    for _ in range(n):
        out.append(idx % p)
        idx //= p
    return out


def undigits(ds, p: int) -> int:
    return sum(d * p**i for i, d in enumerate(ds))


def vector_add_table(p: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Cayley table of F_p^n under any base-p positional encoding."""
    vecs = [digits(i, p, n) for i in range(p**n)]
    return tuple(
        tuple(undigits([(a + b) % p for a, b in zip(u, v)], p) for v in vecs)
        for u in vecs
    )


def gl_order(p: int, n: int) -> int:
    out = 1
    for k in range(n):
        out *= p**n - p**k
    return out


def table_identity(table) -> int:
    n = len(table)
    return next(e for e in range(n) if all(table[e][g] == g for g in range(n)))


def table_inverse(table) -> list[int]:
    e = table_identity(table)
    return [next(h for h in range(len(table)) if table[g][h] == e) for g in range(len(table))]


def conjugacy_class_sizes(table) -> list[int]:
    inv = table_inverse(table)
    seen: set[int] = set()
    sizes = []
    for g in range(len(table)):
        if g in seen:
            continue
        cls = {table[table[h][g]][inv[h]] for h in range(len(table))}
        seen |= cls
        sizes.append(len(cls))
    return sorted(sizes)


def conjugate(table, a: int, b: int) -> bool:
    inv = table_inverse(table)
    return any(table[table[h][a]][inv[h]] == b for h in range(len(table)))


def closure(table, gens) -> list[int]:
    """The subgroup generated by ``gens`` (a finite monoid closure is a subgroup)."""
    members = {table_identity(table)} | set(gens)
    frontier = list(members)
    while frontier:
        a = frontier.pop()
        for b in list(members):
            for c in (table[a][b], table[b][a]):
                if c not in members:
                    members.add(c)
                    frontier.append(c)
    return sorted(members)


def swap_in_row(table, row: int, c1: int, c2: int) -> list[list[int]]:
    out = [list(r) for r in table]
    out[row][c1], out[row][c2] = out[row][c2], out[row][c1]
    return out


def associativity_fails(table, g: int, h: int, k: int) -> bool:
    return table[table[g][h]][k] != table[g][table[h][k]]


def compatibility_fails(act, cayley, g: int, h: int, x: int) -> bool:
    return act[cayley[g][h]][x] != act[g][act[h][x]]


def orbit_of(act, x: int) -> set[int]:
    return {row[x] for row in act}
