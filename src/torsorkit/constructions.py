"""The four example torsor families over prime fields and finite groups.

Affine spaces as translation torsors, solution sets of linear systems as
kernel torsors, cosets as right-subgroup torsors, and ordered bases as
general-linear torsors. A group built from scratch (F_p^n, a kernel, GL_n)
is decided once; every other law and action is carried from it, the action
as the group acting on itself renamed by k -> k.x0, and as_torsor re-checks
each output. Vectors over F_p are base-p integers, so lexicographic order
is numeric order; one codec (``_digits`` / ``_codes``) builds every table.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .actions import Torsor, _regular_at, as_torsor, left_translation_action
from .errors import (
    DimensionMismatch,
    EmptySolutionSet,
    InternalError,
    MalformedTable,
    Mismatch,
    NotPrime,
    TooLarge,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    _first,
    _is_index,
    _is_int,
    _positions,
    build_group,
    opposite_group,
    subgroup_as_group,
)

AFFINE_MAX_POINTS = 256
SOLUTION_MAX_VECTORS = 4096
BASIS_MAX_MATRICES = 512  # the n x n matrices over F_p that general_linear_group enumerates
CODE_MAX = 2**63 - 1  # vector codes are int64, so p^n must fit in one

# The first 13 primes, and the least odd composite that passes the strong probable-prime test to
# every one of them as a base (Sorenson & Webster, Math. Comp. 86, 2017): below it the test is exact.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BASES_EXACT_BELOW = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Decide primality by the strong probable-prime (Miller-Rabin) test to the bases 2, 3, ..., 41.

    Exact, not probabilistic, below 3 317 044 064 679 887 385 961 981;
    from there on TooLarge names p and that bound. Thirteen modular
    powers, so any p in range is decided in microseconds.
    """
    p = operator.index(p)
    if p < 2:
        return False
    if p >= _PRIME_BASES_EXACT_BELOW:
        raise TooLarge(
            f"primality of {p} is decided only below {_PRIME_BASES_EXACT_BELOW}",
            p=p,
            bound=_PRIME_BASES_EXACT_BELOW,
        )
    for q in _PRIME_BASES:
        if p % q == 0:
            return p == q
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in _PRIME_BASES:
        x = pow(a, odd, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int):
    if not _is_int(p):
        raise MalformedTable(f"p = {p!r} is not an integer", p=p)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime", p=p)


def _require_dimension(n: int):
    if not _is_int(n) or n < 1:
        raise MalformedTable(f"dimension must be a positive integer, got {n!r}", n=n)


def _guard_power(p: int, n: int, bound: int, what: str) -> int:
    """p^n within ``bound``, else TooLarge; past n = bound.bit_length() it names p and n, never forming p^n."""
    if n > bound.bit_length():
        raise TooLarge(f"{what} = {p}^{n} exceeds {bound}", p=p, n=n)
    if p**n > bound:
        raise TooLarge(f"{what} = {p ** n} exceeds {bound}", size=p**n)
    return p**n


# Below 2^_PRINTABLE_BITS a number has at most 617 digits, which Python prints under any
# int_max_str_digits setting (the least it allows is 640).
_PRINTABLE_BITS = 2048


def _guard_count(base: int, count: int, bound: int, what: str, count_name: str) -> int:
    """base^count within ``bound``, else TooLarge naming its size, or, decided from the exponent first
    where that size would not print, naming ``base`` as ``order`` and ``count`` as ``count_name``."""
    if base > 1 and count * base.bit_length() > _PRINTABLE_BITS:
        raise TooLarge(f"{base}^{count} {what} exceed {bound}", order=base, **{count_name: count})
    size = base**count
    if size > bound:
        raise TooLarge(f"{size} {what} exceed {bound}", size=size)
    return size


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


def _residues(values, p: int, what: str, **where) -> tuple[int, ...]:
    """Integer entries reduced mod p; MalformedTable names the first non-integer."""
    values = tuple(values)
    for i, v in enumerate(values):
        if not _is_int(v):
            raise MalformedTable(f"{what} entry {i} = {v!r} is not an integer", **where, index=i)
    return tuple(int(v) % p for v in values)


def _rhs(T: PrimeFieldMatrix, w) -> tuple[int, ...]:
    w = _residues(w, T.p, "rhs")
    if len(w) != T.rows:
        raise DimensionMismatch(
            f"rhs length {len(w)} != {T.rows} rows", got=len(w), expected=T.rows
        )
    return w


def prime_field_matrix(p: int, entries) -> PrimeFieldMatrix:
    """Reduce the integer entries mod a validated prime and fix the shape."""
    _require_prime(p)
    rows = [list(r) for r in entries]
    if not rows or not rows[0]:
        raise MalformedTable("matrix must have at least one row and column")
    cols = len(rows[0])
    ragged = next((i for i, r in enumerate(rows) if len(r) != cols), None)
    if ragged is not None:
        raise MalformedTable(f"matrix row {ragged} has length {len(rows[ragged])}, expected {cols}", row=ragged)
    reduced = tuple(_residues(r, p, f"row {i}", row=i) for i, r in enumerate(rows))
    return PrimeFieldMatrix(p=p, rows=len(rows), cols=cols, entries=reduced)


def _require_codes(p: int, n: int) -> int:
    _require_prime(p)
    _require_dimension(n)
    return _guard_power(p, n, CODE_MAX, "p^n")


def encode_vector(vec, p: int) -> int:
    vec = tuple(vec)
    _require_codes(p, len(vec))
    for pos, v in enumerate(vec):
        if not _is_index(v, p):
            raise MalformedTable(f"vector entry {pos} = {v!r} is not a digit mod {p}", position=pos)
    return int(_codes(np.asarray(vec, dtype=np.int64), p))


def decode_vector(idx: int, p: int, n: int) -> tuple[int, ...]:
    if not _is_index(idx, _require_codes(p, n)):
        raise MalformedTable(f"vector code {idx!r} out of range for F_{p}^{n}", code=idx)
    return tuple(_digits(idx, p, n).tolist())


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


def _row_reduce(mats, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon forms mod p of a stack of matrices, and each one's pivot columns.

    Gauss-Jordan elimination on the whole stack at once, column by column:
    the pivot is the first row at or below the current rank with a nonzero
    entry, swapped up and scaled to 1. A matrix has full rank exactly when
    every row gets a pivot.
    """
    a = np.array(mats, dtype=np.int64) % p
    *batch, rows, cols = a.shape
    a = a.reshape(-1, rows, cols)
    rank = np.zeros(len(a), dtype=np.intp)
    pivots = np.zeros((len(a), cols), dtype=bool)
    for c in range(cols):
        candidates = (a[:, :, c] != 0) & (np.arange(rows) >= rank[:, None])
        live = np.flatnonzero(candidates.any(axis=1))
        r, src = rank[live], candidates[live].argmax(axis=1)
        a[live, src], a[live, r] = a[live, r], a[live, src]
        values, where = np.unique(a[live, r, c], return_inverse=True)
        inverse = np.array([pow(v, -1, p) for v in values.tolist()], dtype=np.int64)
        a[live, r] = a[live, r] * inverse[where][:, None] % p
        factor = a[live, :, c]
        factor[np.arange(len(live)), r] = 0
        a[live] = (a[live] - factor[:, :, None] * a[live, r][:, None, :]) % p
        pivots[live, c] = True
        rank[live] += 1
    return a.reshape(*batch, rows, cols), pivots.reshape(*batch, cols)


def gaussian_solve(T: PrimeFieldMatrix, w) -> LinearSolveResult:
    """Row-reduce [T|w] over F_p.

    The particular solution sets all free variables to zero; the kernel
    basis has one vector per free column, ordered by ascending column, so
    the pivot pattern is strictly increasing. A pivot in the w column
    means the system is inconsistent.
    """
    p = T.p
    w = _rhs(T, w)
    entries = np.array(T.entries)
    aug, pivots = _row_reduce(np.column_stack([entries, w]), p)
    pivot_cols, free_cols = np.flatnonzero(pivots[:-1]), np.flatnonzero(~pivots[:-1])
    rank = len(pivot_cols)

    particular = None
    if not pivots[-1]:
        sol = np.zeros(T.cols, dtype=np.int64)
        sol[pivot_cols] = aug[:rank, -1]
        if ((entries @ sol - w) % p).any():
            raise InternalError("the particular solution does not solve the system")
        particular = tuple(sol.tolist())

    basis = np.zeros((len(free_cols), T.cols), dtype=np.int64)
    basis[np.arange(len(free_cols)), free_cols] = 1
    basis[:, pivot_cols] = -aug[:rank, free_cols].T % p
    bad = _first((basis @ entries.T % p).any(axis=1))
    if bad is not None:
        raise InternalError(f"kernel vector for free column {free_cols[bad[0]]} is not in the kernel")

    return LinearSolveResult(
        particular=particular,
        kernel_basis=tuple(map(tuple, basis.tolist())),
        kernel_size=p ** len(basis),
    )


def affine_torsor(p: int, n: int) -> Torsor:
    """F_p^n acting on itself by translation; points share the vector encoding."""
    _require_prime(p)
    _require_dimension(n)
    size = _guard_power(p, n, AFFINE_MAX_POINTS, "p^n")
    vectors = np.arange(size)
    group = build_group(size, _sum_codes(vectors, vectors, p, n))
    return as_torsor(left_translation_action(group))


def solution_torsor(T: PrimeFieldMatrix, w) -> Torsor:
    """The solution set of T(v)=w as a torsor under the additive kernel.

    Both the solutions and the kernel are enumerated by brute force over
    F_p^cols, independent of gaussian_solve.
    """
    p = T.p
    w = _rhs(T, w)
    size = _guard_power(p, T.cols, SOLUTION_MAX_VECTORS, "p^cols")
    images = _digits(np.arange(size), p, T.cols) @ np.array(T.entries).T % p
    solutions = np.flatnonzero((images == w).all(axis=1))
    kernel = np.flatnonzero((images == 0).all(axis=1))
    if not solutions.size:
        raise EmptySolutionSet("the system T(v)=w has no solution")
    kernel_pos, solution_pos = _positions(kernel, size), _positions(solutions, size)
    group = build_group(len(kernel), kernel_pos[_sum_codes(kernel, kernel, p, T.cols)])
    points = solution_pos[_sum_codes(kernel, solutions[:1], p, T.cols)[:, 0]]  # k -> k + least solution
    return as_torsor(_regular_at(group, points))


def coset_torsor(group: FiniteGroup, H: Subgroup, g: int) -> Torsor:
    """The left coset gH as a torsor under H acting by right multiplication.

    That is opposite(H) acting on itself, h_k renamed the position of g*h_k in the sorted coset.
    """
    if not _is_index(g, group.order):
        raise MalformedTable(f"coset representative {g!r} out of range", element=g)
    if H.parent != group:
        raise Mismatch("the subgroup is not a subgroup of this group")
    acting = opposite_group(subgroup_as_group(H))
    coset = group.array[g, list(H.members)]
    return as_torsor(_regular_at(acting, np.searchsorted(np.sort(coset), coset)))


def general_linear_group(p: int, n: int):
    """All invertible n x n matrices over F_p in lexicographic (row-major) order. The p^(n*n) enumerated
    are at most BASIS_MAX_MATRICES, decided from the exponent first: (2,2), (3,2), (2,3), (p,1) for p <= 509."""
    _require_prime(p)
    _require_dimension(n)
    if n * n > BASIS_MAX_MATRICES.bit_length() or p ** (n * n) > BASIS_MAX_MATRICES:
        raise TooLarge(f"(p,n)=({p},{n}): p^(n*n) matrices exceed {BASIS_MAX_MATRICES}", p=p, n=n)
    size = p ** (n * n)
    everything = _digits(np.arange(size), p, n * n).reshape(size, n, n)
    codes = np.flatnonzero(_row_reduce(everything, p)[1].all(axis=1))
    mats = everything[codes]
    prods = np.matmul(mats[:, None], mats[None, :]) % p
    table = _positions(codes, size)[_codes(prods.reshape(len(mats), len(mats), -1), p)]
    return build_group(len(mats), table), [tuple(map(tuple, m)) for m in mats.tolist()]


def basis_torsor(p: int, n: int) -> Torsor:
    """Ordered bases of F_p^n as a torsor under GL_n(F_p).

    Bases are n-tuples of independent vectors ordered lexicographically by
    their encoded entries; matrices act componentwise on basis vectors.
    A basis is the invertible matrix B whose rows are its vectors, and M
    sends B to B @ M^T, so the transposes (M @ B^T)^T make the action the
    group acting on itself with M renamed the position of M^T. p, n and
    the BASIS_MAX_MATRICES bound are checked by general_linear_group.
    """
    group, mats = general_linear_group(p, n)
    mats = np.array(mats)
    codes = _codes(mats.reshape(len(mats), -1), p)
    points = _positions(codes, p ** (n * n))[_codes(mats.transpose(0, 2, 1).reshape(len(mats), -1), p)]
    return as_torsor(_regular_at(group, points))


def count_ordered_bases(p: int, n: int) -> int:
    """The product formula for |GL_n(F_p)|, used as a cross-check."""
    out = 1
    for k in range(n):
        out *= p**n - p**k
    return out
