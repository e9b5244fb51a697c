"""Brute-force cocycle enumerators, the oracles for gauge-fixed classification.

The library classifies cocycles without trying every edge assignment;
these helpers do try every one, so tests can compare against them. The
``find_trivialization`` and ``are_equivalent`` below are the earlier
implementations, each with its own tree propagation, kept so the shared
propagation can be compared against them output for output. They walk
``reference_forest``, a breadth-first search written from scratch, which
is also the oracle for the forest each nerve keeps.
"""

import itertools

import torsorkit as tk
from torsorkit.cocycles import CLASS_ENUM_MAX, NotEquivalent, NotTrivial, _Component, _require_same
from torsorkit.errors import TooLarge, TripleViolation


def reference_forest(nerve):
    """One breadth-first tree per component of the edge graph, rooted at its least open.

    Neighbours are visited in ascending order and components come in the
    order of their roots; each component's other edges keep the nerve's
    edge order. Opens on no edge form no component.
    """
    neighbours = {}
    for i, j in nerve.edges:
        neighbours.setdefault(i, set()).add(j)
        neighbours.setdefault(j, set()).add(i)
    placed, forest = set(), []
    for root in sorted(neighbours):
        if root in placed:
            continue
        placed.add(root)
        opens, tree, head = [root], [], 0
        while head < len(opens):
            u = opens[head]
            head += 1
            for v in sorted(neighbours[u]):
                if v not in placed:
                    placed.add(v)
                    opens.append(v)
                    tree.append((u, v))
        in_tree = {frozenset(e) for e in tree}
        cotree = [e for e in nerve.edges if e[0] in opens and frozenset(e) not in in_tree]
        forest.append(_Component(root, tuple(opens), tuple(tree), tuple(cotree)))
    return tuple(forest)


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
    """All valid cocycles in lexicographic edge-value order, within the library's |G|^edges bound."""
    size = group.order ** len(nerve.edges)
    if size > CLASS_ENUM_MAX:
        raise TooLarge(f"{size} edge assignments exceed {CLASS_ENUM_MAX}", size=size, budget=CLASS_ENUM_MAX)
    out = []
    for combo in itertools.product(group.elements(), repeat=len(nerve.edges)):
        assignment = dict(zip(nerve.edges, combo))
        try:
            out.append(tk.check_cocycle(nerve, group, assignment))
        except TripleViolation:
            continue
    return out


def find_trivialization(c):
    """A cochain h with g_ij = h_i * h_j^-1 on every edge, or NotTrivial (its own propagation)."""
    grp = c.group
    h = [grp.identity] * c.nerve.num_opens
    for comp in reference_forest(c.nerve):
        for u, v in comp.tree:
            h[v] = grp.mul(c.value(v, u), h[u])
    for i, j in c.nerve.edges:
        if c.g[(i, j)] != grp.mul(h[i], grp.inv(h[j])):
            return NotTrivial(violating_edge=(i, j))
    return tk.make_cochain(c.nerve, grp, h)


def are_equivalent(c1, c2):
    """A cochain h with c2_ij = h_i * c1_ij * h_j^-1, or NotEquivalent.

    Per component h_v = A_v * r * B_v, with A and B transported from the
    root and the first root value r in element order that passes every
    non-tree edge.
    """
    _require_same(c1, c2.nerve, c2.group)
    grp = c1.group
    mul, inv = grp.mul, grp.inv
    h = [grp.identity] * c1.nerve.num_opens
    for comp in reference_forest(c1.nerve):
        a = {comp.root: grp.identity}
        b = {comp.root: grp.identity}
        for u, v in comp.tree:
            a[v] = mul(c2.value(v, u), a[u])
            b[v] = mul(b[u], c1.value(u, v))
        for r in grp.elements():
            if all(
                c2.g[(i, j)]
                == mul(mul(mul(a[i], mul(r, b[i])), c1.g[(i, j)]), inv(mul(a[j], mul(r, b[j]))))
                for (i, j) in comp.cotree
            ):
                break
        else:
            return NotEquivalent()
        for v in comp.opens:
            h[v] = mul(a[v], mul(r, b[v]))
    return tk.make_cochain(c1.nerve, grp, h)
