"""The four seeded workloads, each one round of accept and reject operations.

A builder turns a seed into one round: the inputs are generated and
validated here, in set-up, and the round is what the closed loop repeats.
Operation sizes are fixed per slot and the seed only picks values that
leave the work unchanged (rows to corrupt, twists, relabelings,
coefficients), so the seed changes what is checked but not how much
work a round is. The counts per kind are chosen so that the median and
p90 of each verdict class fall among operations of about the same cost,
not on the edge between two kinds of very different cost, where the
percentile would jump with small changes in timing.

``tiny`` keeps one small instance of each operation kind; the
self-test uses it.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import torsorkit as tk
from torsorkit import errors

from ops import (
    Op,
    accept,
    associativity_fails,
    closure,
    compatibility_fails,
    conjugacy_class_sizes,
    conjugate,
    gl_order,
    orbit_of,
    reject,
    reject_value,
    swap_in_row,
    table_identity,
    table_inverse,
    vector_add_table,
)


@dataclass
class Workload:
    ops: list[Op]                    # one round, in run order
    warmup: list[Op]                 # run once in set-up, untimed
    cli: "CliRunner | None" = None   # only the cli workload spawns children


def mix(ops: list[Op]) -> dict:
    """Operation kinds and accept/reject counts of one round."""
    kinds: dict[str, int] = {}
    for op in ops:
        key = f"{op.verdict}:{op.kind.split('[')[0]}"
        kinds[key] = kinds.get(key, 0) + 1
    n_acc = sum(op.verdict == "accept" for op in ops)
    return {"ops_per_round": len(ops), "accept": n_acc, "reject": len(ops) - n_acc, "kinds": kinds}


# ---------------------------------------------------------------- tables

def _nonassoc_reject(kind, table):
    n = len(table)
    return reject(
        kind,
        lambda: tk.build_group(n, table),
        errors.NonAssociative,
        lambda e: associativity_fails(table, e.data["g"], e.data["h"], e.data["k"]),
    )


def _compat_reject(kind, group, cayley, act):
    return reject(
        kind,
        lambda: tk.build_action(group, len(act[0]), act),
        errors.CompatibilityViolated,
        lambda e: compatibility_fails(act, cayley, e.data["g"], e.data["h"], e.data["x"]),
    )


def _rank_system(rng, p: int, cols: int, rank: int):
    """A rank-``rank`` system over F_p plus one dependent row, and a solvable rhs."""
    pivots = sorted(rng.sample(range(cols), rank))
    rows = []
    for pc in pivots:
        row = [rng.randrange(p) for _ in range(cols)]
        for other in pivots:
            row[other] = 0
        row[pc] = 1
        rows.append(row)
    scale = rng.randrange(1, p)
    rows.append([scale * sum(col) % p for col in zip(*rows)])
    v0 = [rng.randrange(p) for _ in range(cols)]
    w = [sum(a * b for a, b in zip(row, v0)) % p for row in rows]
    return rows, w


def build_tables(seed: int, workdir: Path, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    affine_sizes = [(2, 3)] if tiny else [(2, 8), (3, 5), (5, 3), (13, 2)]
    # (p, cols, rank): kernels of 64, 128, 256 and 81 elements
    systems = [(2, 4, 1)] if tiny else [(2, 7, 1), (2, 9, 2), (2, 9, 1), (3, 5, 1)]
    bases = [(2, 2)] if tiny else [(3, 2), (2, 3)]
    big_p, big_n = (2, 3) if tiny else (2, 8)

    tables = {pn: vector_add_table(*pn) for pn in set(affine_sizes) | {(big_p, big_n)}}
    acc, rej = [], []

    for p, n in affine_sizes:
        want = tables[(p, n)]
        acc.append(accept(
            f"affine_torsor({p},{n})",
            lambda p=p, n=n: tk.affine_torsor(p, n),
            lambda t, want=want: t.group.order == len(want) and t.set_size == len(want) and t.act == want,
        ))

    for p, cols, rank in systems:
        rows, w = _rank_system(rng, p, cols, rank)
        matrix = tk.prime_field_matrix(p, rows)
        size = p ** (cols - rank)
        acc.append(accept(
            f"solution_torsor[F{p},kernel={size}]",
            lambda m=matrix, w=w: tk.solution_torsor(m, w),
            lambda t, size=size: t.group.order == size and t.set_size == size,
        ))

    for p, n in bases:
        size = gl_order(p, n)
        acc.append(accept(
            f"basis_torsor({p},{n})",
            lambda p=p, n=n: tk.basis_torsor(p, n),
            lambda t, size=size: t.group.order == size and t.set_size == size,
        ))

    s4 = tk.catalog_group("symmetric(4)")
    members = closure(s4.cayley, [rng.randrange(1, 24)])
    sub = tk.build_subgroup(s4, members)
    acc.append(accept(
        f"coset_torsor[symmetric(4),|H|={len(members)}]",
        lambda g=rng.randrange(24): tk.coset_torsor(s4, sub, g),
        lambda t, k=len(members): t.group.order == k and t.set_size == k,
    ))

    big = tk.affine_torsor(big_p, big_n)
    order = big.set_size
    inv = table_inverse(tables[(big_p, big_n)])
    add = tables[(big_p, big_n)]
    for x0 in rng.sample(range(order), 2):
        # transported law through the basepoint x0: x * y = x + y - x0
        law = tuple(tuple(add[add[x][y]][inv[x0]] for y in range(order)) for x in range(order))
        acc.append(accept(
            f"transported_group[{order}]",
            lambda x0=x0: tk.transported_group(big, x0),
            lambda g, x0=x0, law=law: g.identity == x0 and g.cayley == law,
        ))
    # two transporter queries make 15 accepts a round: p90 then falls mid-way through the samples
    # of the second-slowest operation instead of near its edge
    for _ in range(2):
        x, y = rng.randrange(order), rng.randrange(order)
        acc.append(accept(
            f"transporter[{order}]",
            lambda x=x, y=y: tk.transporter(big, x, y),
            lambda g, want=add[y][inv[x]]: g == want,
        ))

    # reject: one seeded swap inside a non-identity row (off the identity column for Cayley tables).
    # Sizes are chosen so that most rejects cost about the same and p50 falls inside them.
    for p, n in ([(2, 3)] if tiny else [(2, 8), (3, 5)]):
        table = tables[(p, n)]
        m = len(table)
        c1, c2 = rng.sample(range(1, m), 2)
        rej.append(_nonassoc_reject(f"build_group[corrupt,{m}]", swap_in_row(table, rng.randrange(1, m), c1, c2)))
    for _ in range(1 if tiny else 7):
        c1, c2 = rng.sample(range(order), 2)
        act = swap_in_row(add, rng.randrange(1, order), c1, c2)
        rej.append(_compat_reject(f"build_action[corrupt,{order}]", big.group, add, act))

    # two disjoint copies of the big torsor under a seeded relabeling: a valid action, not transitive
    perm = list(range(2 * order))
    rng.shuffle(perm)
    doubled = [[0] * (2 * order) for _ in range(order)]
    for g in range(order):
        for pt in range(2 * order):
            doubled[g][perm[pt]] = perm[add[g][pt % order] + order * (pt // order)]
    doubled_action = tk.build_action(big.group, 2 * order, doubled)
    for _ in range(1 if tiny else 3):
        c1, c2 = rng.sample(range(2 * order), 2)
        act = swap_in_row(doubled, rng.randrange(1, order), c1, c2)
        rej.append(_compat_reject(f"build_action[corrupt,{2 * order}]", big.group, add, act))

    def not_transitive(e, act=doubled):
        return e.data["y"] not in orbit_of(act, e.data["x"])

    for _ in range(1 if tiny else 2):
        rej.append(reject(
            f"as_torsor[not-transitive,{2 * order}]",
            lambda: tk.as_torsor(doubled_action), errors.NotTransitive, not_transitive,
        ))

    # reject: left cosets of a seeded nontrivial subgroup of symmetric(4) (not free)
    members = closure(s4.cayley, [rng.randrange(1, 24)])
    coset_action = tk.coset_action(s4, tk.build_subgroup(s4, members))
    rej.append(reject(
        f"as_torsor[not-free,{coset_action.set_size}]",
        lambda: tk.as_torsor(coset_action),
        errors.NotFree,
        lambda e: e.data["g"] != s4.identity and coset_action.act[e.data["g"]][e.data["x"]] == e.data["x"],
    ))

    return Workload(ops=acc + rej, warmup=[acc[-1], rej[-1]])


# ---------------------------------------------------------------- sheaves

SHAPES = {
    "discrete4": (4, [(0,), (1,), (2,), (3,)]),
    "pseudocircle": (4, [(0,), (1,), (0, 1, 2), (0, 1, 3)]),
    "chain4": (4, [(0,), (0, 1), (0, 1, 2)]),
    "vee3": (3, [(0,), (1,)]),
    "split4": (4, [(0, 1), (2, 3)]),
}


def _topology_size(n: int, gens) -> int:
    """Number of opens of the topology generated by ``gens`` (own closure)."""
    sets = {frozenset(), frozenset(range(n))} | {frozenset(g) for g in gens}
    while True:
        new = {a | b for a in sets for b in sets} | {a & b for a in sets for b in sets}
        if new <= sets:
            return len(sets)
        sets |= new


def _relabeled_space(rng, shape: str):
    n, gens = SHAPES[shape]
    perm = list(range(n))
    rng.shuffle(perm)
    gens = [tuple(perm[p] for p in g) for g in gens]
    return tk.close_under_ops(n, gens), _topology_size(n, gens)


def _restrict(restrict, u, s, v):
    return s if u == v else restrict[(u, v)][s]


def _gluing_wrong(sheaf_opens, sizes, restrict, w) -> bool:
    index = {frozenset(o): i for i, o in enumerate(sheaf_opens)}
    u, cover, family = w["open"], w["cover"], w["family"]
    for (a, fa), (b, fb) in itertools.combinations(zip(cover, family), 2):
        m = index[frozenset(sheaf_opens[a]) & frozenset(sheaf_opens[b])]
        if _restrict(restrict, a, fa, m) != _restrict(restrict, b, fb, m):
            return False  # the reported family is not compatible
    gluers = sum(
        all(_restrict(restrict, u, s, m) == f for m, f in zip(cover, family))
        for s in range(sizes[u])
    )
    return gluers == w["gluings"] != 1


def _sheaf_witness_ok(space, sizes, restrict, w) -> bool:
    if w["axiom"] == "functoriality":
        u, v, x, s = w["u"], w["v"], w["w"], w["section"]
        return _restrict(restrict, v, _restrict(restrict, u, s, v), x) != _restrict(restrict, u, s, x)
    if w["axiom"] == "gluing":
        return _gluing_wrong(space.opens, sizes, restrict, w)
    return False


def _corrupt_restriction(rng, sheaf):
    """Break functoriality on a seeded chain w < v < u with w nonempty."""
    opens = [frozenset(o) for o in sheaf.space.opens]
    chains = [
        (u, v, w)
        for u, v, w in itertools.permutations(range(len(opens)), 3)
        if opens[w] and opens[w] < opens[v] < opens[u] and sheaf.sizes[w] >= 2
    ]
    u, v, w = rng.choice(chains)
    s = rng.randrange(sheaf.sizes[u])
    good = _restrict(sheaf.restrict, v, _restrict(sheaf.restrict, u, s, v), w)
    restrict = {k: list(t) for k, t in sheaf.restrict.items()}
    restrict[(u, w)][s] = rng.choice([t for t in range(sheaf.sizes[w]) if t != good])
    restrict = {k: tuple(t) for k, t in restrict.items()}
    return tk.SheafOfSets(space=sheaf.space, sizes=sheaf.sizes, restrict=restrict)


def _action_witness_ok(action, w) -> bool:
    gs, fs, act = action.groups, action.sets, action.act
    axiom = w["axiom"]
    if axiom == "action-compatibility":
        u = w["open"]
        cay = gs.groups[u].cayley
        return compatibility_fails(act[u], cay, w["g"], w["h"], w["x"])
    if axiom == "action-identity":
        u = w["open"]
        return act[u][gs.groups[u].identity][w["x"]] != w["x"]
    if axiom == "action-restriction":
        u, v, g, s = w["u"], w["v"], w["g"], w["s"]
        lhs = _restrict(fs.restrict, u, act[u][g][s], v)
        rhs = act[v][_restrict(gs.sets.restrict, u, g, v)][_restrict(fs.restrict, u, s, v)]
        return lhs != rhs
    if axiom == "local-transport":
        u, m = w["open"], w["min_open"]
        rs = _restrict(fs.restrict, u, w["s"], m)
        rt = _restrict(fs.restrict, u, w["t"], m)
        count = sum(act[m][a][rs] == rt for a in range(gs.sets.sizes[m]))
        return count == w["transports"] != 1
    return False


def _corrupt_action(rng, action):
    """Swap two entries in the row of a seeded non-involution on a seeded open."""
    fs, gs = action.sets, action.groups
    candidates = []
    for u in range(len(fs.sizes)):
        grp = gs.groups[u]
        if fs.sizes[u] < 2:
            continue
        for g in range(grp.order):
            if grp.cayley[g][g] != grp.identity:
                candidates.append((u, g))
    u, g = rng.choice(candidates)
    x1, x2 = rng.sample(range(fs.sizes[u]), 2)
    act = [list(map(list, t)) for t in action.act]
    act[u][g][x1], act[u][g][x2] = act[u][g][x2], act[u][g][x1]
    act = tuple(tuple(tuple(r) for r in t) for t in act)
    return tk.SheafAction(groups=gs, sets=fs, act=act)


def _arc_sizes(torsor):
    opens = torsor.space.opens
    return [torsor.sets.sizes[opens.index(arc)] for arc in ((0, 1, 2), (0, 1, 3))]


def _pseudocircle_ok(torsor, order: int, trivial: bool) -> bool:
    whole = torsor.sets.sizes[-1]
    return whole == (order if trivial else 0) and _arc_sizes(torsor) == [order, order]


def build_sheaves(seed: int, workdir: Path, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    names = ["cyclic(2)", "symmetric(3)"] if tiny else [
        n for n in tk.catalog_names() if tk.catalog_group(n).order <= 12
    ]
    groups = {n: tk.catalog_group(n) for n in set(names) | {"cyclic(2)", "cyclic(3)", "cyclic(4)", "cyclic(6)", "symmetric(4)"}}
    acc, rej = [], []

    def descent(name, twist):
        return lambda: tk.glue_from_cocycle(tk.pseudocircle_descent_datum(groups[name], twist))

    for name in names:
        grp = groups[name]
        acc.append(accept(f"pseudocircle_glue[{name},e]", descent(name, grp.identity),
                          lambda t, k=grp.order: _pseudocircle_ok(t, k, True)))
        if grp.order > 1:
            twist = rng.choice([g for g in grp.elements() if g != grp.identity])
            acc.append(accept(f"pseudocircle_glue[{name},twisted]", descent(name, twist),
                              lambda t, k=grp.order: _pseudocircle_ok(t, k, False)))

    for name in (["symmetric(3)"] if tiny else ["symmetric(3)", "cyclic(6)"]):
        grp = tk.catalog_group(name)
        twist = rng.randrange(grp.order)
        base = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(grp, twist))
        cover = tuple(base.space.opens.index(arc) for arc in ((0, 1, 2), (0, 1, 3)))
        chosen = (rng.randrange(grp.order), rng.randrange(grp.order))

        def round_trip(base=base, cover=cover, chosen=chosen):
            datum = tk.extract_cocycle(base, cover, chosen)
            datum = tk.build_descent_datum(datum.groups, datum.cover, datum.transition)
            return tk.glue_from_cocycle(datum)

        acc.append(accept(f"descent_round_trip[{name}]", round_trip,
                          lambda t, k=grp.order, triv=twist == grp.identity: _pseudocircle_ok(t, k, triv)))

    sheaf_cases = [("vee3", "cyclic(2)")] if tiny else [
        ("discrete4", "cyclic(2)"), ("pseudocircle", "cyclic(3)"), ("chain4", "cyclic(3)"),
        ("vee3", "cyclic(3)"), ("split4", "cyclic(4)"),
    ]
    for shape, name in sheaf_cases:
        space, n_opens = _relabeled_space(rng, shape)
        gs = tk.constant_group_sheaf(space, groups[name])
        acc.append(accept(f"is_sheaf[{shape},{name}]", lambda s=gs.sets: tk.is_sheaf(s),
                          lambda r, k=n_opens: r.passed and r.counts["opens"] == k))
    for shape, name in ([("vee3", "cyclic(2)")] if tiny else [
        ("pseudocircle", "cyclic(3)"), ("chain4", "cyclic(3)"), ("split4", "cyclic(4)"),
    ]):
        space, n_opens = _relabeled_space(rng, shape)
        gs = tk.constant_group_sheaf(space, groups[name])
        acc.append(accept(f"is_sheaf_of_groups[{shape},{name}]", lambda g=gs: tk.is_sheaf_of_groups(g),
                          lambda r, k=n_opens: r.passed and r.counts["opens"] == k))

    point_torsor = tk.affine_torsor(3, 2)
    acc.append(accept("lift_point_torsor[9]", lambda: tk.lift_point_torsor(point_torsor),
                      lambda t: t.sets.sizes == (1, 9) and t.groups.sets.sizes == (1, 9)))

    # reject: a restriction map corrupted to break functoriality
    for shape in (["vee3"] if tiny else ["pseudocircle"] * 5 + ["chain4"] * 2 + ["vee3"] * 2):
        space, _ = _relabeled_space(rng, shape)
        bad = _corrupt_restriction(rng, tk.constant_group_sheaf(space, groups["cyclic(6)"]).sets)
        rej.append(reject_value(
            f"is_sheaf[corrupt,{shape}]", lambda b=bad: tk.is_sheaf(b),
            lambda r, b=bad: not r.passed and all(_sheaf_witness_ok(b.space, b.sizes, b.restrict, w) for w in r.witnesses),
        ))

    # reject: an action table corrupted on one open of a glued torsor; the three order-6 ones are
    # the slowest rejects, so p90 falls among them
    for i, name in enumerate(["symmetric(3)"] if tiny else
                             ["cyclic(3)", "cyclic(4)", "cyclic(5)", "cyclic(6)", "symmetric(3)", "cyclic(7)", "symmetric(3)"]):
        grp = tk.catalog_group(name)
        glued = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(grp, rng.randrange(grp.order)))
        bad = _corrupt_action(rng, glued.action)
        if i % 3 == 2:
            rej.append(reject_value(
                f"is_sheaf_torsor[corrupt,{name}]", lambda b=bad: tk.is_sheaf_torsor(b),
                lambda r, b=bad: not r.passed and all(_action_witness_ok(b, w) for w in r.witnesses),
            ))
        else:
            rej.append(reject(
                f"as_sheaf_torsor[corrupt,{name}]", lambda b=bad: tk.as_sheaf_torsor(b), errors.NotASheafTorsor,
                lambda e, b=bad: all(_action_witness_ok(b, w) for w in e.report.witnesses),
            ))

    # reject: section counts beyond the constant-sheaf guard
    s4 = groups["symmetric(4)"]
    rej.append(reject(
        "pseudocircle_descent_datum[symmetric(4)]", lambda: tk.pseudocircle_descent_datum(s4, 0),
        errors.TooLarge, lambda e: e.data["size"] == 24**2 > 512,
    ))
    n = rng.randrange(9, 13)
    discrete3 = tk.close_under_ops(3, [(0,), (1,), (2,)])
    big_cyclic = tk.catalog_group(f"cyclic({n})")
    rej.append(reject(
        "constant_group_sheaf[discrete3,cyclic(n>=9)]", lambda: tk.constant_group_sheaf(discrete3, big_cyclic),
        errors.TooLarge, lambda e: e.data["size"] == n**3 > 512,
    ))

    return Workload(ops=acc + rej, warmup=[acc[0], rej[-1]])


# ---------------------------------------------------------------- cocycles

def _cycle(k):
    return k, [(i, (i + 1) % k) for i in range(k)], []


def _simplex(k):
    return k, list(itertools.combinations(range(k), 2)), list(itertools.combinations(range(k), 3))


def _matching(k):
    return 2 * k, [(2 * i, 2 * i + 1) for i in range(k)], []


NERVES = {
    "cycle3": _cycle(3), "cycle4": _cycle(4), "cycle5": _cycle(5), "cycle400": _cycle(400),
    "triangle": _simplex(3), "K4": _simplex(4), "K12": _simplex(12),
    "match2": _matching(2), "match3": _matching(3),
}

# (group, nerve) pairs for equivalence_classes, all within the 4096-candidate guard
CLASSIFY = [
    ("cyclic(3)", "cycle3"), ("cyclic(4)", "cycle4"), ("cyclic(5)", "cycle4"), ("cyclic(6)", "cycle4"),
    ("symmetric(3)", "cycle4"), ("cyclic(2)", "cycle5"), ("klein_four", "cycle5"), ("cyclic(4)", "cycle5"),
    ("cyclic(8)", "cycle3"), ("cyclic(5)", "cycle5"),
    ("cyclic(4)", "triangle"), ("cyclic(8)", "triangle"), ("symmetric(3)", "triangle"),
    ("klein_four", "K4"), ("cyclic(4)", "K4"), ("cyclic(3)", "K4"),
    ("cyclic(3)", "match3"), ("cyclic(4)", "match3"), ("klein_four", "match3"), ("symmetric(3)", "match2"),
    ("cyclic(5)", "match3"), ("symmetric(3)", "match3"), ("cyclic(8)", "match2"), ("cyclic(7)", "match2"),
    ("cyclic(7)", "cycle4"),
]


class NerveSpec:
    """The benchmark's own copy of a (seeded, relabeled) nerve, plus the library's."""

    def __init__(self, rng, shape: str, relabel: bool = True):
        n, edges, triples = NERVES[shape]
        perm = list(range(n))
        if relabel:
            rng.shuffle(perm)
        self.shape = shape
        self.path = [perm[i] for i in range(n)] + [perm[0]]   # closed walk on cycle nerves
        self.edges = sorted(tuple(sorted((perm[i], perm[j]))) for i, j in edges)
        triples = [tuple(sorted(perm[v] for v in t)) for t in triples]
        self.lib = tk.build_nerve(n, self.edges, triples)
        self.num_opens = n


def _value(table, inv, g, a, b, e):
    if a == b:
        return e
    return g[(a, b)] if a < b else inv[g[(b, a)]]


def _triple_fails(table, g, i, j, k) -> bool:
    inv, e = table_inverse(table), table_identity(table)
    return table[_value(table, inv, g, i, j, e)][_value(table, inv, g, j, k, e)] != _value(table, inv, g, i, k, e)


def _holonomy(table, g, path):
    inv, e = table_inverse(table), table_identity(table)
    acc = e
    for a, b in zip(path, path[1:]):
        acc = table[acc][_value(table, inv, g, a, b, e)]
    return acc


def _act(table, g, h):
    """The coboundary action h . g on edge values: h_i * g_ij * h_j^-1."""
    inv = table_inverse(table)
    return {(i, j): table[table[h[i]][v]][inv[h[j]]] for (i, j), v in g.items()}


def _is_gauge(table, g_from, g_to, h) -> bool:
    return _act(table, g_from, h) == g_to


def _classes_ok(classes, grp_table, nerve: NerveSpec) -> bool:
    order, edges = len(grp_table), len(nerve.edges)
    if nerve.shape.startswith("cycle"):
        want = sorted(c * order ** (edges - 1) for c in conjugacy_class_sizes(grp_table))
    elif nerve.shape.startswith("match"):
        want = [order**edges]
    else:
        want = [order ** (nerve.num_opens - 1)]
    return sorted(c.size for c in classes) == want and all(
        c.representative.edge_values() == c.members[0] and len(c.members) == c.size for c in classes
    )


def build_cocycles(seed: int, workdir: Path, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    classify = [("cyclic(2)", "cycle3"), ("cyclic(2)", "triangle"), ("cyclic(2)", "match2")] if tiny else CLASSIFY
    groups = {n: tk.catalog_group(n) for n in {g for g, _ in classify} | {"symmetric(3)", "symmetric(4)"}}
    acc, rej = [], []

    for name, shape in classify:
        nerve = NerveSpec(rng, shape)
        acc.append(accept(
            f"equivalence_classes[{shape},{name}]",
            lambda n=nerve.lib, g=groups[name]: tk.equivalence_classes(n, g),
            lambda out, t=groups[name].cayley, n=nerve: _classes_ok(out, t, n),
        ))

    # The query nerves keep their labels: the one non-tree edge of a cycle then sits at the same
    # place in edge order on every seed, and so does the scan that finds it.
    qname = "symmetric(3)" if tiny else "symmetric(4)"
    grp = groups[qname]
    table, order = grp.cayley, grp.order
    cyc_shape, simplex_shape = ("cycle4", "triangle") if tiny else ("cycle400", "K12")

    def rand_cochain(n):
        return [rng.randrange(order) for _ in range(n)]

    def coboundary(nerve):
        base = {e: table_identity(table) for e in nerve.edges}
        return _act(table, base, rand_cochain(nerve.num_opens))

    def random_cocycle(nerve):
        return {e: rng.randrange(order) for e in nerve.edges}

    reps = 1 if tiny else 2
    for _ in range(reps):
        nerve = NerveSpec(rng, cyc_shape, relabel=False)
        values = random_cocycle(nerve)
        c = tk.check_cocycle(nerve.lib, grp, values)
        acc.append(accept(f"holonomy[{cyc_shape}]", lambda c=c, p=nerve.path: tk.holonomy(c, p),
                          lambda out, v=values, p=nerve.path: out == _holonomy(table, v, p)))

        h = rand_cochain(nerve.num_opens)
        moved = _act(table, values, h)
        c2 = tk.check_cocycle(nerve.lib, grp, moved)
        acc.append(accept(f"are_equivalent[{cyc_shape}]", lambda a=c, b=c2: tk.are_equivalent(a, b),
                          lambda out, a=values, b=moved: isinstance(out, tk.Cochain) and _is_gauge(table, a, b, out.h)))

        triv = coboundary(nerve)
        ct = tk.check_cocycle(nerve.lib, grp, triv)
        ident = {e: table_identity(table) for e in nerve.edges}
        acc.append(accept(f"find_trivialization[{cyc_shape}]", lambda c=ct: tk.find_trivialization(c),
                          lambda out, v=triv, i=ident: isinstance(out, tk.Cochain) and _is_gauge(table, i, v, out.h)))

    simplex = NerveSpec(rng, simplex_shape)
    valid = coboundary(simplex)
    acc.append(accept(f"check_cocycle[{simplex_shape}]", lambda: tk.check_cocycle(simplex.lib, grp, valid),
                      lambda out: out.g == valid))

    e = table_identity(table)
    # 6 + 6 + 5 rejects: p50 falls among the find_trivialization ones, p90 among are_equivalent
    n_violations, n_nontrivial, n_inequivalent = (1, 1, 1) if tiny else (6, 6, 5)
    for _ in range(n_violations):
        nerve = NerveSpec(rng, simplex_shape)
        bad = coboundary(nerve)
        edge = nerve.edges[-1]  # a fixed position, so the scan to the witness is the same length on every seed
        bad[edge] = rng.choice([v for v in range(order) if v != bad[edge]])
        rej.append(reject(f"check_cocycle[violation,{simplex_shape}]",
                          lambda n=nerve.lib, b=bad: tk.check_cocycle(n, grp, b),
                          errors.TripleViolation,
                          lambda err, b=bad: _triple_fails(table, b, err.data["i"], err.data["j"], err.data["k"])))

    for _ in range(n_nontrivial):
        nerve = NerveSpec(rng, cyc_shape, relabel=False)
        values = random_cocycle(nerve)
        while _holonomy(table, values, nerve.path) == e:
            values = random_cocycle(nerve)
        c = tk.check_cocycle(nerve.lib, grp, values)
        rej.append(reject_value(
            f"find_trivialization[nontrivial,{cyc_shape}]", lambda c=c: tk.find_trivialization(c),
            lambda out, v=values, n=nerve: isinstance(out, tk.NotTrivial)
            and tuple(out.violating_edge) in n.edges and _holonomy(table, v, n.path) != e,
        ))

    for _ in range(n_inequivalent):
        nerve = NerveSpec(rng, cyc_shape, relabel=False)
        a, b = random_cocycle(nerve), random_cocycle(nerve)
        while conjugate(table, _holonomy(table, a, nerve.path), _holonomy(table, b, nerve.path)):
            b = random_cocycle(nerve)
        ca, cb = tk.check_cocycle(nerve.lib, grp, a), tk.check_cocycle(nerve.lib, grp, b)
        rej.append(reject_value(
            f"are_equivalent[inequivalent,{cyc_shape}]", lambda x=ca, y=cb: tk.are_equivalent(x, y),
            lambda out, a=a, b=b, p=nerve.path: isinstance(out, tk.NotEquivalent)
            and not conjugate(table, _holonomy(table, a, p), _holonomy(table, b, p)),
        ))

    return Workload(ops=acc + rej, warmup=[acc[0], rej[0]])


# ---------------------------------------------------------------- cli

class CliRunner:
    """Runs one ``python -m torsorkit`` child per call, closed loop.

    With ``tracer`` set, children run through ``cli_child.py``, which
    wraps the library inside the child and writes its spans to a file
    that is merged here.
    """

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.tracer = None
        self.seen: dict[tuple, bytes] = {}

    def __call__(self, argv):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "torsorkit", *argv]
        else:
            spans = self.workdir / "child_spans.json"
            cmd = [sys.executable, str(self.root / "bench" / "cli_child.py"), str(spans), *argv]
        spawned = time.monotonic()
        proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True, timeout=120)
        if self.tracer is not None:
            self.tracer.merge_child(json.loads(spans.read_text()), spawned)
        return proc

    def deterministic(self, argv, proc) -> bool:
        """Stdout must be byte-identical across repeats of the same command."""
        key = tuple(argv)
        first = self.seen.setdefault(key, proc.stdout)
        return first == proc.stdout


def _report(proc):
    return json.loads(proc.stdout)


def build_cli(seed: int, workdir: Path, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    runner = CliRunner(Path(__file__).resolve().parents[1], workdir)
    p, n = (2, 3) if tiny else (2, 8)
    add = vector_add_table(p, n)
    order = len(add)
    inv = table_inverse(add)

    def write(name, obj):
        path = workdir / name
        path.write_text(json.dumps(obj))
        return name

    grp_obj = {"order": order, "cayley": [list(r) for r in add]}
    affine_obj = {"group": grp_obj, "set_size": order, "act": grp_obj["cayley"]}
    torsor_file = write("affine.json", affine_obj)

    bad_group = swap_in_row(add, rng.randrange(1, order), *rng.sample(range(1, order), 2))
    bad_group_file = write("bad_group.json", {"order": order, "cayley": bad_group})
    bad_acts = [swap_in_row(add, rng.randrange(1, order), *rng.sample(range(order), 2)) for _ in range(2)]
    bad_action_files = [write(f"bad_action{i}.json", {"group": grp_obj, "set_size": order, "act": act})
                        for i, act in enumerate(bad_acts)]
    schema_file = write("schema_bad.json", {"order": 3})

    s3 = tk.catalog_group("symmetric(3)")
    s3_table = s3.cayley
    psc_name = rng.choice(["cyclic(6)", "symmetric(3)"])
    psc = tk.catalog_group(psc_name)
    space = {"points": 4, "opens": [[], [0], [1], [0, 1], [0, 1, 2], [0, 1, 3], [0, 1, 2, 3]]}
    twist = rng.randrange(1, psc.order)
    # section ids of the constant sheaf on the two-component overlap: identity * |G| + twist
    trivial_file = write("psc_trivial.json", {"space": space, "group": psc_name, "cover": [4, 5], "transition": {"0,1": 0}})
    twisted_file = write("psc_twisted.json", {"space": space, "group": psc_name, "cover": [4, 5], "transition": {"0,1": twist}})
    s4_file = write("psc_s4.json", {"space": space, "group": "symmetric(4)", "cover": [4, 5], "transition": {"0,1": 0}})

    k = 4 if tiny else 5
    cyc = NerveSpec(rng, f"cycle{k}")
    values = {e: rng.randrange(6) for e in cyc.edges}
    nerve_obj = {"opens": cyc.num_opens, "edges": [list(e) for e in cyc.edges], "triples": []}
    good_file = write("cocycle.json", {"nerve": nerve_obj, "group": "symmetric(3)",
                                       "g": {f"{i},{j}": v for (i, j), v in values.items()}})
    classes_file = write("classes.json", {"nerve": {"opens": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]},
                                          "group": "symmetric(3)"})
    too_big_file = write("too_big.json", {"nerve": {"opens": 6, "edges": [[i, (i + 1) % 6] for i in range(6)]},
                                          "group": "symmetric(3)"})

    tri = NerveSpec(rng, "triangle")
    bad_tri = {e: rng.randrange(6) for e in tri.edges}
    while not any(_triple_fails(s3_table, bad_tri, *t) for t in itertools.permutations(range(3))):
        bad_tri = {e: rng.randrange(6) for e in tri.edges}
    bad_cocycle_file = write("bad_cocycle.json", {
        "nerve": {"opens": 3, "edges": [list(e) for e in tri.edges], "triples": [[0, 1, 2]]},
        "group": "symmetric(3)", "g": {f"{i},{j}": v for (i, j), v in bad_tri.items()}})

    s4 = tk.catalog_group("symmetric(4)")
    coset = tk.coset_action(s4, tk.build_subgroup(s4, closure(s4.cayley, [rng.randrange(1, 24)])))
    notfree_file = write("not_free.json", {"group": "symmetric(4)", "set_size": coset.set_size,
                                           "act": [list(r) for r in coset.act]})
    (workdir / "out").mkdir(exist_ok=True)

    def op(verdict, kind, argv, check):
        def run():
            return runner(argv)

        def full_check(proc):
            return runner.deterministic(argv, proc) and check(proc)

        return Op(kind, verdict, run, lambda out: not isinstance(out, Exception) and full_check(out))

    x, y = rng.randrange(order), rng.randrange(order)
    hol_path = ",".join(map(str, cyc.path))
    acc = [
        op("accept", "check torsor", ["check", "torsor", torsor_file, "--json"],
           lambda r: r.returncode == 0 and _report(r)["counts"]["points"] == order),
        op("accept", "query transporter", ["query", "transporter", str(x), str(y), torsor_file, "--json"],
           lambda r: r.returncode == 0 and _report(r)["counts"]["element"] == add[y][inv[x]]),
        op("accept", "query orbit", ["query", "orbit", str(x), torsor_file, "--json"],
           lambda r: r.returncode == 0 and _report(r)["counts"]["size"] == order),
        op("accept", "query stabilizer", ["query", "stabilizer", str(y), torsor_file, "--json"],
           lambda r: r.returncode == 0 and _report(r)["counts"]["stabilizer"] == [0]),
        # twice, so that the two slowest accept operations are alike and p90 falls between them
        *(op("accept", "generate affine", ["generate", "affine", str(p), str(n), "-o", f"out/affine{i}.json"],
             lambda r, i=i: r.returncode == 0 and _gen_ok(workdir / "out" / f"affine{i}.json", affine_obj, runner))
          for i in range(2)),
        op("accept", "query global-sections trivial", ["query", "global-sections", trivial_file, "--json"],
           lambda r: r.returncode == 0 and _report(r)["counts"]["global_sections"] == psc.order),
        op("accept", "query global-sections twisted", ["query", "global-sections", twisted_file, "--json"],
           lambda r: r.returncode == 0 and _report(r)["counts"]["global_sections"] == 0),
        op("accept", "query classes", ["query", "classes", classes_file, "--json"],
           lambda r: r.returncode == 0 and sorted(_report(r)["counts"]["sizes"])
           == sorted(c * 6**3 for c in conjugacy_class_sizes(s3_table))),
        op("accept", "check cocycle", ["check", "cocycle", good_file, "--json"],
           lambda r: r.returncode == 0 and _report(r)["counts"] == {"edges": k, "opens": k}),
        op("accept", "query holonomy", ["query", "holonomy", hol_path, good_file, "--json"],
           lambda r: r.returncode == 0 and _report(r)["counts"]["element"] == _holonomy(s3_table, values, cyc.path)),
    ]

    def witness(r, axiom):
        rep = _report(r)
        w = rep["witnesses"][0]
        return r.returncode == 1 and rep["verdict"] == "fail" and w["axiom"] == axiom and w

    rej = [
        op("reject", "check group corrupt", ["check", "group", bad_group_file, "--json"],
           lambda r: (w := witness(r, "associativity")) and associativity_fails(bad_group, w["g"], w["h"], w["k"])),
        # two corrupted action tables: the slowest rejects, so p90 falls among them
        *(op("reject", "check action corrupt", ["check", "action", path, "--json"],
             lambda r, act=act: (w := witness(r, "action-compatibility")) and compatibility_fails(act, add, w["g"], w["h"], w["x"]))
          for path, act in zip(bad_action_files, bad_acts)),
        op("reject", "check cocycle violation", ["check", "cocycle", bad_cocycle_file, "--json"],
           lambda r: (w := witness(r, "cocycle-triple")) and _triple_fails(s3_table, bad_tri, w["i"], w["j"], w["k"])),
        op("reject", "check group schema", ["check", "group", schema_file, "--json"],
           lambda r: r.returncode == 2 and r.stdout == b"" and r.stderr.startswith(b"error:")),
        op("reject", "query classes too large", ["query", "classes", too_big_file, "--json"],
           lambda r: (w := witness(r, "size-guard")) and w["size"] == 6**6 > 4096),
        op("reject", "check torsor not free", ["check", "torsor", notfree_file, "--json"],
           lambda r: (w := witness(r, "freeness")) and w["g"] != s4.identity and coset.act[w["g"]][w["x"]] == w["x"]),
        op("reject", "query global-sections too large", ["query", "global-sections", s4_file, "--json"],
           lambda r: (w := witness(r, "size-guard")) and w["size"] == 24**2 > 512),
    ]
    return Workload(ops=acc + rej, warmup=[acc[1], rej[3]], cli=runner)


def _gen_ok(path: Path, want, runner: CliRunner) -> bool:
    data = path.read_bytes()
    first = runner.seen.setdefault(("generated", str(path)), data)
    return data == first and json.loads(data) == want


BUILDERS = {
    "tables": build_tables,
    "sheaves": build_sheaves,
    "cocycles": build_cocycles,
    "cli": build_cli,
}
