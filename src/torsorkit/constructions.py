"""The four example torsor families over prime fields and finite groups.

Affine spaces as translation torsors, solution sets of linear systems as
kernel torsors, cosets as right-subgroup torsors, and ordered bases as
general-linear torsors. Every constructor returns a fully validated
torsor; vectors over F_p are encoded as base-p integers so that
lexicographic tuple order equals numeric order. All tables are built on
int arrays by one mixed-radix codec (``_digits`` / ``_codes``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .actions import Torsor, as_torsor, build_action, left_translation_action, right_action_as_left
from .errors import (
    DimensionMismatch,
    EmptySolutionSet,
    InternalError,
    MalformedTable,
    NotPrime,
    TooLarge,
)
from .groups import FiniteGroup, Subgroup, build_group, subgroup_as_group

AFFINE_MAX_POINTS = 256
SOLUTION_MAX_VECTORS = 4096
BASIS_SUPPORTED = {(2, 2), (3, 2), (2, 3)}


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, int(p**0.5) + 1))


def _require_prime(p: int):
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime", p=p)


@dataclass(frozen=True)
class PrimeFieldMatrix:
    p: int
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class LinearSolveResult:
    """Particular solution (if consistent) plus a reduced kernel basis."""

    particular: tuple[int, ...] | None
    kernel_basis: tuple[tuple[int, ...], ...]
    kernel_size: int


def prime_field_matrix(p: int, entries) -> PrimeFieldMatrix:
    """Reduce the entries mod a validated prime and fix the shape."""
    _require_prime(p)
    rows = [list(r) for r in entries]
    if not rows or not rows[0]:
        raise MalformedTable("matrix must have at least one row and column")
    cols = len(rows[0])
    if any(len(r) != cols for r in rows):
        raise MalformedTable("ragged matrix rows")
    reduced = tuple(tuple(int(v) % p for v in r) for r in rows)
    return PrimeFieldMatrix(p=p, rows=len(rows), cols=cols, entries=reduced)


def encode_vector(vec, p: int) -> int:
    out = 0
    for v in vec:
        out = out * p + v
    return out


def decode_vector(idx: int, p: int, n: int) -> tuple[int, ...]:
    digits = []
    for _ in range(n):
        digits.append(idx % p)
        idx //= p
    return tuple(reversed(digits))


def _digits(codes, p: int, width: int) -> np.ndarray:
    """Base-p digits of each code along a new last axis, most significant first."""
    return np.asarray(codes)[..., None] // p ** np.arange(width - 1, -1, -1) % p


def _codes(digits: np.ndarray, p: int) -> np.ndarray:
    """The inverse of ``_digits``: base-p value of the last axis."""
    return digits @ p ** np.arange(digits.shape[-1] - 1, -1, -1)


def _sum_codes(a: np.ndarray, b: np.ndarray, p: int, width: int) -> np.ndarray:
    """Codes of a[i] + b[j] in F_p^width: the integer sum, less p^(k+1) where digit k carries."""
    da, db = _digits(a, p, width), _digits(b, p, width)
    # codes stay below the size guards (at most 4096), so int32 holds them at half the traffic
    out = np.add.outer(a, b).astype(np.int32)
    for k in range(width):
        out -= (np.add.outer(da[:, k], db[:, k]) >= p) * np.int32(p ** (width - k))
    return out


def _positions(codes: np.ndarray, size: int) -> np.ndarray:
    """Lookup from code to its position in ``codes``; -1 for codes not listed."""
    pos = np.full(size, -1, dtype=np.int32)
    pos[codes] = np.arange(len(codes))
    return pos


def gaussian_solve(T: PrimeFieldMatrix, w) -> LinearSolveResult:
    """Row-reduce [T|w] over F_p.

    The particular solution sets all free variables to zero; the kernel
    basis has one vector per free column, ordered by ascending column, so
    the pivot pattern is strictly increasing.
    """
    p = T.p
    w = [int(v) % p for v in w]
    if len(w) != T.rows:
        raise DimensionMismatch(
            f"rhs length {len(w)} != {T.rows} rows", got=len(w), expected=T.rows
        )
    aug = np.array([list(r) + [wv] for r, wv in zip(T.entries, w)], dtype=np.int64)
    nrows, ncols = T.rows, T.cols
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if aug[i, c] % p), None)
        if pivot is None:
            continue
        aug[[r, pivot]] = aug[[pivot, r]]
        inv = pow(int(aug[r, c]), p - 2, p)
        aug[r] = (aug[r] * inv) % p
        for i in range(nrows):
            if i != r and aug[i, c] % p:
                aug[i] = (aug[i] - aug[i, c] * aug[r]) % p
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    consistent = not any(aug[i, ncols] % p for i in range(r, nrows))
    free_cols = [c for c in range(ncols) if c not in pivot_cols]

    particular = None
    if consistent:
        sol = [0] * ncols
        for i, c in enumerate(pivot_cols):
            sol[c] = int(aug[i, ncols]) % p
        particular = tuple(sol)
        if not all(
            sum(T.entries[i][j] * particular[j] for j in range(ncols)) % p == w[i]
            for i in range(nrows)
        ):
            raise InternalError("the particular solution does not solve the system")

    basis = []
    for f in free_cols:
        vec = [0] * ncols
        vec[f] = 1
        for i, c in enumerate(pivot_cols):
            vec[c] = (-int(aug[i, f])) % p
        if not all(
            sum(T.entries[i][j] * vec[j] for j in range(ncols)) % p == 0
            for i in range(nrows)
        ):
            raise InternalError(f"kernel vector for free column {f} is not in the kernel")
        basis.append(tuple(vec))

    return LinearSolveResult(
        particular=particular,
        kernel_basis=tuple(basis),
        kernel_size=p ** len(basis),
    )


def affine_torsor(p: int, n: int) -> Torsor:
    """F_p^n acting on itself by translation; points share the vector encoding."""
    _require_prime(p)
    if n < 1:
        raise MalformedTable(f"dimension must be positive, got {n}", n=n)
    if p**n > AFFINE_MAX_POINTS:
        raise TooLarge(f"p^n = {p ** n} exceeds {AFFINE_MAX_POINTS}", size=p**n)
    vectors = np.arange(p**n)
    group = build_group(p**n, _sum_codes(vectors, vectors, p, n))
    return as_torsor(left_translation_action(group))


def solution_torsor(T: PrimeFieldMatrix, w) -> Torsor:
    """The solution set of T(v)=w as a torsor under the additive kernel.

    Both the solutions and the kernel are enumerated by brute force over
    F_p^cols, independent of gaussian_solve.
    """
    p = T.p
    w = tuple(int(v) % p for v in w)
    if len(w) != T.rows:
        raise DimensionMismatch(
            f"rhs length {len(w)} != {T.rows} rows", got=len(w), expected=T.rows
        )
    if p**T.cols > SOLUTION_MAX_VECTORS:
        raise TooLarge(f"p^cols = {p ** T.cols} exceeds {SOLUTION_MAX_VECTORS}", size=p**T.cols)
    size = p**T.cols
    images = _digits(np.arange(size), p, T.cols) @ np.array(T.entries).T % p
    solutions = np.flatnonzero((images == w).all(axis=1))
    kernel = np.flatnonzero((images == 0).all(axis=1))
    if not solutions.size:
        raise EmptySolutionSet("the system T(v)=w has no solution")
    kernel_pos, solution_pos = _positions(kernel, size), _positions(solutions, size)
    group = build_group(len(kernel), kernel_pos[_sum_codes(kernel, kernel, p, T.cols)])
    act = solution_pos[_sum_codes(kernel, solutions, p, T.cols)]
    return as_torsor(build_action(group, len(solutions), act))


def coset_torsor(group: FiniteGroup, H: Subgroup, g: int) -> Torsor:
    """The left coset gH as a torsor under H acting by right multiplication.

    The right action is normalized through right_action_as_left, so the
    acting group is opposite(H) reindexed to 0..|H|-1.
    """
    if not 0 <= g < group.order:
        raise MalformedTable(f"coset representative {g} out of range", element=g)
    points = sorted({group.cayley[g][h] for h in H.members})
    index = {x: i for i, x in enumerate(points)}
    hgrp = subgroup_as_group(H)
    right = [
        [index[group.cayley[x][H.members[j]]] for j in range(len(H.members))]
        for x in points
    ]
    action = right_action_as_left(hgrp, len(points), right)
    return as_torsor(action)


def _det_mod_p(mats: np.ndarray, p: int) -> np.ndarray:
    """Determinants mod p of a stack of n x n matrices, by the Leibniz formula."""
    n = mats.shape[-1]
    rows = np.arange(n)
    det = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        det = det + (-1) ** inversions * mats[..., rows, perm].prod(axis=-1)
    return det % p


def _matrix_codes(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Row-major codes of every product a[i] @ b[j] over F_p."""
    prods = np.matmul(a[:, None], b[None, :]) % p
    return _codes(prods.reshape(len(a), len(b), -1), p)


def general_linear_group(p: int, n: int):
    """All invertible n x n matrices over F_p in lexicographic (row-major) order."""
    size = p ** (n * n)
    everything = _digits(np.arange(size), p, n * n).reshape(size, n, n)
    codes = np.flatnonzero(_det_mod_p(everything, p))
    mats = everything[codes]
    table = _positions(codes, size)[_matrix_codes(mats, mats, p)]
    return build_group(len(mats), table), [tuple(map(tuple, m)) for m in mats.tolist()]


def basis_torsor(p: int, n: int) -> Torsor:
    """Ordered bases of F_p^n as a torsor under GL_n(F_p).

    Bases are n-tuples of independent vectors ordered lexicographically by
    their encoded entries; matrices act componentwise on basis vectors.
    A basis is the invertible matrix whose rows are its vectors, in the
    same order as the group's matrices, and M sends that matrix B to
    B @ M^T.
    """
    _require_prime(p)
    if (p, n) not in BASIS_SUPPORTED:
        raise TooLarge(
            f"(p,n)=({p},{n}) not supported; exhaustive validation is desk-scale only",
            p=p,
            n=n,
        )
    group, mats = general_linear_group(p, n)
    mats = np.array(mats)
    codes = _codes(mats.reshape(len(mats), -1), p)
    act = _positions(codes, p ** (n * n))[_matrix_codes(mats, mats.transpose(0, 2, 1), p).T]
    return as_torsor(build_action(group, len(mats), act))


def count_ordered_bases(p: int, n: int) -> int:
    """The product formula for |GL_n(F_p)|, used as a cross-check."""
    out = 1
    for k in range(n):
        out *= p**n - p**k
    return out
