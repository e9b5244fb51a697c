"""Validation errors carrying structured witnesses.

Every failure names the violated axiom and the offending indices, so
reports and CLI output can point at the exact counterexample instead of
a bare message.
"""

from __future__ import annotations

import operator


class TorsorError(Exception):
    """Base class; ``data`` holds the witness fields for the violation."""

    axiom = "error"

    def __init__(self, message: str, **data):
        super().__init__(message)
        self.data = data

    def witness(self) -> dict:
        out = {"axiom": self.axiom}
        out.update(self.data)
        return out


# tables and groups

class MalformedTable(TorsorError):
    axiom = "malformed-table"


class NoIdentity(TorsorError):
    axiom = "identity-existence"


class NonAssociative(TorsorError):
    axiom = "associativity"


class NoInverse(TorsorError):
    axiom = "inverse-existence"


class UnknownName(TorsorError):
    axiom = "catalog-name"


class NotClosed(TorsorError):
    axiom = "subgroup-closure"


class MissingIdentity(TorsorError):
    axiom = "subgroup-identity"


class MissingInverse(TorsorError):
    axiom = "subgroup-inverse"


# actions and torsors

class IdentityAxiomViolated(TorsorError):
    axiom = "action-identity"


class CompatibilityViolated(TorsorError):
    axiom = "action-compatibility"


class PointOutOfRange(TorsorError):
    axiom = "point-range"


class EmptySet(TorsorError):
    axiom = "nonempty"


class NotFree(TorsorError):
    axiom = "freeness"


class NotTransitive(TorsorError):
    axiom = "transitivity"


class RightIdentityViolated(TorsorError):
    axiom = "right-action-identity"


class RightCompatibilityViolated(TorsorError):
    axiom = "right-action-compatibility"


# prime-field constructions

class DimensionMismatch(TorsorError):
    axiom = "dimension"


class NotPrime(TorsorError):
    axiom = "prime-modulus"


class TooLarge(TorsorError):
    axiom = "size-guard"


def _guard(base: int, exponent: int, budget: int, what: str, **operands) -> int:
    """base^exponent within ``budget``, else TooLarge naming ``budget``: the one size guard. Decided from
    the exponent first: past 2^2048 the power is never formed and the witness names the caller's
    ``operands``; below it, the power as ``size`` (at most 617 digits, which print under any
    int_max_str_digits setting: the least Python allows is 640)."""
    base, exponent = operator.index(base), operator.index(exponent)  # numpy ints would wrap
    if base > 1 and exponent * base.bit_length() > 2048:
        named = ", ".join(f"{k}={v}" for k, v in operands.items())
        raise TooLarge(f"{what} ({named}) exceeds {budget}", **operands, budget=budget)
    size = base**exponent
    if size > budget:
        raise TooLarge(f"{what}: {size} exceeds {budget}", size=size, budget=budget)
    return size


class EmptySolutionSet(TorsorError):
    axiom = "solvability"


# nerves and cocycles

class TripleWithoutEdge(TorsorError):
    axiom = "nerve-incidence"


class MissingEdgeValue(TorsorError):
    axiom = "cocycle-totality"


class TripleViolation(TorsorError):
    axiom = "cocycle-triple"


class Mismatch(TorsorError):
    axiom = "mismatch"


class NotAPath(TorsorError):
    axiom = "path-edges"


class PathNotClosed(TorsorError):
    axiom = "path-closed"


# finite spaces and sheaves

class NotClosedUnderUnion(TorsorError):
    axiom = "topology-union"


class NotClosedUnderIntersection(TorsorError):
    axiom = "topology-intersection"


class MissingEmpty(TorsorError):
    axiom = "topology-empty"


class MissingWhole(TorsorError):
    axiom = "topology-whole"


class CoverIncomplete(TorsorError):
    axiom = "cover"


class NoLocalSection(TorsorError):
    axiom = "local-section"


class UnknownOpen(TorsorError):
    axiom = "open-range"


class NotASheafTorsor(TorsorError):
    """Raised when a sheaf action fails validation; carries the full report."""

    axiom = "sheaf-torsor"

    def __init__(self, message: str, report=None, **data):
        super().__init__(message, **data)
        self.report = report


class InternalError(Exception):
    """A broken internal invariant: a bug in torsorkit, never a verdict on the input.

    Deliberately not a TorsorError, so no caller can mistake it for a
    witness. Raised explicitly instead of ``assert`` so the check also
    runs under ``python -O``.
    """
