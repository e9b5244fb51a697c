"""Brute-force cocycle enumerators, the oracles for gauge-fixed classification.

The library classifies cocycles without trying every edge assignment;
these helpers do try every one, so tests can compare against them.
"""

import itertools

import torsorkit as tk
from torsorkit.cocycles import _guard_candidates
from torsorkit.errors import TripleViolation


def all_cochains(nerve, group):
    """Every cochain, identity outside edge-incident opens (others act trivially)."""
    incident = sorted({i for e in nerve.edges for i in e})
    base = [group.identity] * nerve.num_opens
    for combo in itertools.product(group.elements(), repeat=len(incident)):
        h = list(base)
        for pos, val in zip(incident, combo):
            h[pos] = val
        yield tk.make_cochain(nerve, group, h)


def enumerate_cocycles(nerve, group):
    """All valid cocycles in lexicographic edge-value order."""
    _guard_candidates(nerve, group)
    out = []
    for combo in itertools.product(group.elements(), repeat=len(nerve.edges)):
        assignment = dict(zip(nerve.edges, combo))
        try:
            out.append(tk.check_cocycle(nerve, group, assignment))
        except TripleViolation:
            continue
    return out
