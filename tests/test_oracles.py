"""Brute-force oracles for the table validators and the F_p table builders.

The validators vectorize every check and decide associativity and action
compatibility by Light's test over a generating set, falling back to the
lexicographic scan. The plain loops here decide the same axioms cell by
cell, in the same order, and must give the same verdict with the same
witness: the first bad row or cell, the least identity-axiom point, the
lexicographically least (g, h, k) or (g, h, x), the least element without
an inverse, the least (g, x) fixed by a non-identity element. Light's
test runs at every order; the scan runs where it fails, and where the
greedy search needs more generators than a group could (the monoids).

The pure-Python table builders below are the reference for the
vectorized mixed-radix codec in ``constructions``; they must agree cell
for cell.

``close_under_ops`` lists the unions of the minimal opens U_x; the
reference is the fixed-point union/intersection closure, and the spaces
or witnesses must be equal. ``connected_components`` grows along the
preorder; the reference is the definition (no split into two disjoint,
nonempty, relatively open parts).

``is_sheaf`` decides gluing on the minimal-open cover of each open; the
reference below tries every cover, and the verdicts must agree.

``equivalence_classes`` fixes the gauge on a spanning forest; the
reference closes each cocycle's orbit under every cochain, and the
classes must agree in representatives, sizes, members and order.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import torsorkit as tk
from torsorkit import errors
from torsorkit.actions import _transports
from torsorkit.groups import _first, _transport
from torsorkit.sheaves import SheafOfSets, _compatible_families, _locate
from torsorkit.spaces import MAX_OPENS

from cocycle_oracles import all_cochains, enumerate_cocycles

ORACLE = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# ---------------------------------------------------------------- reference validators


def _is_index(v, bound):
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and 0 <= v < bound


def ref_malformed(rows, height, width, bound):
    """Witness data of the first bad row or cell in row-major order, or None."""
    if len(rows) != height:
        return {"rows": len(rows)}
    for i, row in enumerate(rows):
        if len(row) != width:
            return {"row": i}
        for j, v in enumerate(row):
            if not _is_index(v, bound):
                return {"row": i, "position": j}
    return None


def ref_compatibility(act, cayley):
    """Lexicographically least (g, h, x) with (g*h).x != g.(h.x): the plain n^3 scan."""
    n, m = len(cayley), len(act[0])
    for g in range(n):
        for h in range(n):
            for x in range(m):
                if act[cayley[g][h]][x] != act[g][act[h][x]]:
                    return g, h, x
    return None


def ref_group_verdict(order, rows):
    """(error class or None, witness data) in build_group's order of checks."""
    bad = ref_malformed(rows, order, order, order)
    if bad is not None:
        return errors.MalformedTable, bad
    e = next(
        (e for e in range(order) if all(rows[e][g] == g == rows[g][e] for g in range(order))),
        None,
    )
    if e is None:
        return errors.NoIdentity, {}
    bad = ref_compatibility(rows, rows)
    if bad is not None:
        return errors.NonAssociative, dict(zip("ghk", bad))
    inverse = []
    for g in range(order):
        inv = next((h for h in range(order) if rows[g][h] == e == rows[h][g]), None)
        if inv is None:
            return errors.NoInverse, {"element": g}
        inverse.append(inv)
    return None, {"identity": e, "inverse": tuple(inverse)}


def ref_action_verdict(group, set_size, rows):
    bad = ref_malformed(rows, group.order, set_size, set_size)
    if bad is not None:
        return errors.MalformedTable, bad
    x = next((x for x in range(set_size) if rows[group.identity][x] != x), None)
    if x is not None:
        return errors.IdentityAxiomViolated, {"x": x}
    bad = ref_compatibility(rows, group.cayley)
    if bad is not None:
        return errors.CompatibilityViolated, dict(zip("ghx", bad))
    return None, {}


def ref_is_free(action):
    e = action.group.identity
    for g in range(action.group.order):
        for x in range(action.set_size):
            if g != e and action.act[g][x] == x:
                return False, (g, x)
    return True, None


def group_verdict(order, rows):
    try:
        g = tk.build_group(order, rows)
    except errors.TorsorError as err:
        return type(err), err.data
    assert g.cayley == tuple(tuple(r) for r in rows)
    assert all(type(v) is int for r in g.cayley for v in r)
    return None, {"identity": g.identity, "inverse": g.inverse}


def action_verdict(group, set_size, rows):
    try:
        action = tk.build_action(group, set_size, rows)
    except errors.TorsorError as err:
        return type(err), err.data
    assert action.act == tuple(tuple(r) for r in rows)
    return None, {}


# ---------------------------------------------------------------- table sources


def product(a, b):
    """Cayley table of the direct product, (x, y) encoded as x * |b| + y."""
    m = len(b)
    return [
        [a[i // m][j // m] * m + b[i % m][j % m] for j in range(len(a) * m)]
        for i in range(len(a) * m)
    ]


def relabel(table, perm):
    """The isomorphic table with element x renamed perm[x]."""
    out = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, v in enumerate(row):
            out[perm[a]][perm[b]] = perm[v]
    return out


def swap(table, row, c1, c2):
    out = [list(r) for r in table]
    out[row][c1], out[row][c2] = out[row][c2], out[row][c1]
    return out


def max_monoid(k):
    """({0..k-1}, max): associative with identity 0, and no element but 0 is invertible."""
    return [[max(a, b) for b in range(k)] for a in range(k)]


# order 1 is left out: a swap needs two distinct cells in a row
GROUPS = [g.cayley for g in map(tk.catalog_group, tk.catalog_names()) if g.order > 1]
BASES = GROUPS + [max_monoid(2), max_monoid(3)]


@st.composite
def associative_tables(draw, bases=BASES, max_order=48):
    """A relabeled product of up to four catalog groups or max-monoids.

    Half of the draws aim at order 24 or more, so large tables are sampled
    too. The max-monoids give tables where ``_generators`` returns None, and
    ``corrupted_tables`` tables where Light's test fails: both take the scan.
    """
    target = draw(st.sampled_from([1, 24]))
    table = draw(st.sampled_from(bases))
    for _ in range(3):
        fits = [b for b in bases if len(table) * len(b) <= max_order]
        if not fits or (len(table) >= target and draw(st.booleans())):
            break
        table = product(table, draw(st.sampled_from(fits)))
    return relabel(table, draw(st.permutations(range(len(table)))))


@st.composite
def corrupted_tables(draw):
    """Group and monoid tables, half of them with two cells of one row swapped."""
    table = draw(associative_tables())
    n = len(table)
    if draw(st.booleans()):
        row = draw(st.integers(0, n - 1))
        c1, c2 = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        table = swap(table, row, c1, c2)
    return table


@st.composite
def latin_loops(draw):
    """A group table with one intercalate switched: a Latin square with an identity, rarely a group.

    An intercalate is a 2 x 2 subsquare a b / b a; exchanging its symbols
    keeps every row and column a permutation. One that avoids the identity's
    row and column keeps the identity too.
    """
    table = draw(associative_tables(bases=GROUPS))
    n = len(table)
    e = table.index(list(range(n)))
    where = [{v: c for c, v in enumerate(row)} for row in table]
    quads = [
        (r1, r2, c1, c2)
        for r1, r2 in itertools.combinations(range(n), 2)
        for c1 in range(n)
        for c2 in [where[r1][table[r2][c1]]]
        if table[r2][c2] == table[r1][c1] and e not in (r1, r2, c1, c2)
    ]
    if quads:
        r1, r2, c1, c2 = draw(st.sampled_from(quads))
        table = swap(swap(table, r1, c1, c2), r2, c1, c2)
    return table


@st.composite
def identity_tables(draw):
    """An arbitrary small table whose row and column e are the identity's."""
    n = draw(st.integers(1, 5))
    e = draw(st.integers(0, n - 1))
    table = [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
    for x in range(n):
        table[e][x] = table[x][e] = x
    return table


class Flag(int):
    """An int subclass: read as the plain int it equals."""


class OnlyIndex:
    """An object with ``__index__`` and nothing else: no integer, though ``struct`` would pack it."""

    def __index__(self):
        return 1

    def __repr__(self):
        return "OnlyIndex()"


CELLS = st.one_of(
    st.integers(-2, 6),
    st.integers(-2, 6).map(np.int64),
    st.integers(0, 6).map(np.uint8),
    st.integers(-2, 6).map(Flag),
    # bool, np.True_ and a 0-d array would read as 1 under numpy's dtype inference, and OnlyIndex under
    # struct; 2**31 and -2**63 - 1 lie just past int32 and int64
    st.sampled_from([True, False, np.True_, np.array(1), np.float64(1.0), 1.0, 2.9, "0", None, OnlyIndex(),
                     2**31, -2**63 - 1, 2**70]),
)


@st.composite
def malformed_rows(draw, height, width):
    """Mostly well-shaped rows of mostly valid cells, with ragged rows and odd cells mixed in."""
    rows = []
    for _ in range(draw(st.sampled_from([height] * 4 + [height - 1, height + 1]))):
        length = draw(st.sampled_from([width] * 6 + [width - 1, width + 1]))
        valid = st.integers(0, width - 1)
        rows.append([
            draw(st.one_of(valid, CELLS) if draw(st.booleans()) else valid)
            for _ in range(max(length, 0))
        ])
    return rows


# ---------------------------------------------------------------- group verdicts


@ORACLE
@given(corrupted_tables())
def test_group_verdicts_match_the_n3_scan(table):
    assert group_verdict(len(table), table) == ref_group_verdict(len(table), table)


@ORACLE
@given(latin_loops())
def test_latin_square_verdicts_match_the_n3_scan(table):
    assert group_verdict(len(table), table) == ref_group_verdict(len(table), table)


@ORACLE
@given(identity_tables())
def test_arbitrary_table_verdicts_match_the_n3_scan(table):
    assert group_verdict(len(table), table) == ref_group_verdict(len(table), table)


@ORACLE
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), malformed_rows(n, n))))
def test_malformed_group_tables_report_the_first_bad_cell(case):
    n, rows = case
    assert group_verdict(n, rows) == ref_group_verdict(n, rows)


def _elementary_abelian(k):
    return [[a ^ b for b in range(2**k)] for a in range(2**k)]


@pytest.mark.parametrize("table", [
    # six generators, Light passes
    _elementary_abelian(6),
    # Light fails, the scan finds the witness
    swap(_elementary_abelian(6), 37, 5, 50),
    swap(_elementary_abelian(6), 63, 0, 63),
    # Light passes, then an element has no inverse
    product(tk.catalog_group("cyclic(12)").cayley, max_monoid(2)),
    # more generators than a group could need: the scan decides
    max_monoid(30),
    swap(product(tk.catalog_group("symmetric(4)").cayley, max_monoid(3)), 70, 1, 2),
])
def test_verdicts_past_the_light_threshold(table):
    assert len(table) >= 24  # larger than every catalog group but symmetric(4)
    assert group_verdict(len(table), table) == ref_group_verdict(len(table), table)


@pytest.mark.parametrize("cell", [
    True, False, np.True_, 1.0, "1", None, 2**70, -1, 3,
    *(pytest.param(cell, id=repr(cell)) for cell in (np.array(1), np.float64(1.0), OnlyIndex(), 2**31, -2**63 - 1)),
])
def test_fast_path_rejects_every_non_index_cell(cell):
    # each bad value stands in an otherwise valid cyclic(3) table, also as the only bad cell
    rows = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    rows[1][2] = cell
    assert group_verdict(3, rows) == (errors.MalformedTable, {"row": 1, "position": 2})
    assert action_verdict(tk.catalog_group("cyclic(3)"), 3, rows) == (
        errors.MalformedTable, {"row": 1, "position": 2}
    )


# ---------------------------------------------------------------- action verdicts


@st.composite
def actions(draw):
    """(group, set_size, table): left multiplication on 1-2 relabeled copies, often corrupted."""
    cayley = draw(associative_tables(bases=GROUPS, max_order=36))
    group = tk.build_group(len(cayley), cayley)
    n, copies = group.order, draw(st.integers(1, 2))
    m = n * copies
    perm = draw(st.permutations(range(m)))
    table = [[0] * m for _ in range(n)]
    for g in range(n):
        for pt in range(m):
            table[g][perm[pt]] = perm[group.cayley[g][pt % n] + n * (pt // n)]
    if draw(st.booleans()):
        row = draw(st.integers(0, n - 1))
        c1, c2 = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        table = swap(table, row, c1, c2)
    return group, m, table


@ORACLE
@given(actions())
def test_action_verdicts_match_the_n3_scan(case):
    group, m, table = case
    assert action_verdict(group, m, table) == ref_action_verdict(group, m, table)


def ref_right_verdict(group, set_size, rows):
    """Right identity, then the least (x, g, h) with (x*g)*h != x*(g*h)."""
    x = next((x for x in range(set_size) if rows[x][group.identity] != x), None)
    if x is not None:
        return errors.RightIdentityViolated, {"x": x}
    for x in range(set_size):
        for g in range(group.order):
            for h in range(group.order):
                if rows[rows[x][g]][h] != rows[x][group.cayley[g][h]]:
                    return errors.RightCompatibilityViolated, {"x": x, "g": g, "h": h}
    return None, {}


@ORACLE
@given(actions())
def test_right_action_verdicts_match_the_n3_scan(case):
    # a left action of G read as [point][element] is a right action of the opposite group
    group, m, left = case
    op = tk.opposite_group(group)
    rows = [[left[g][x] for g in range(group.order)] for x in range(m)]
    try:
        action = tk.right_action_as_left(op, m, rows)
    except errors.TorsorError as err:
        got = type(err), err.data
    else:
        got = None, {}
        assert action.act == tuple(map(tuple, left))
    assert got == ref_right_verdict(op, m, rows)


@ORACLE
@given(
    st.sampled_from(["cyclic(2)", "cyclic(3)", "klein_four", "symmetric(3)"]).flatmap(
        lambda name: st.tuples(
            st.just(tk.catalog_group(name)),
            st.integers(1, 4).flatmap(
                lambda m: st.tuples(st.just(m), malformed_rows(tk.catalog_group(name).order, m))
            ),
        )
    )
)
def test_malformed_action_tables_report_the_first_bad_cell(case):
    group, (m, rows) = case
    assert action_verdict(group, m, rows) == ref_action_verdict(group, m, rows)


@ORACLE
@given(st.sampled_from(GROUPS), st.data())
def test_small_arbitrary_action_verdicts_match(cayley, data):
    group = tk.build_group(len(cayley), cayley)
    m = data.draw(st.integers(1, 4))
    rows = [[data.draw(st.integers(0, m - 1)) for _ in range(m)] for _ in range(group.order)]
    if data.draw(st.booleans()):
        rows[group.identity] = list(range(m))
    assert action_verdict(group, m, rows) == ref_action_verdict(group, m, rows)


@ORACLE
@given(associative_tables(bases=GROUPS), st.booleans())
def test_is_free_matches_the_scan(cayley, conjugate):
    # conjugation fixes the identity and every centralizer: never free unless trivial;
    # left multiplication is always free
    group = tk.build_group(len(cayley), cayley)
    n = group.order
    if conjugate:
        table = [[cayley[cayley[g][x]][group.inverse[g]] for x in range(n)] for g in range(n)]
    else:
        table = cayley
    action = tk.build_action(group, n, table)
    assert tk.is_free(action) == ref_is_free(action)
    free, wit = ref_is_free(action)
    if free:
        assert tk.as_torsor(action).set_size == n
    else:
        with pytest.raises(errors.NotFree) as exc:
            tk.as_torsor(action)
        assert (exc.value.data["g"], exc.value.data["x"]) == wit


# ---------------------------------------------------------------- reference table builders


def ref_decode(idx, p, n):
    digits = []
    for _ in range(n):
        digits.append(idx % p)
        idx //= p
    return tuple(reversed(digits))


def ref_encode(vec, p):
    out = 0
    for v in vec:
        out = out * p + v
    return out


def ref_additive_table(vectors, p):
    index = {v: i for i, v in enumerate(vectors)}
    return [
        [index[tuple((a + b) % p for a, b in zip(u, v))] for v in vectors]
        for u in vectors
    ]


def ref_solution_tables(p, rows, w):
    """(kernel table, action table) by brute force, or None when there is no solution."""
    cols = len(rows[0])
    solutions, kernel = [], []
    for i in range(p**cols):
        vec = ref_decode(i, p, cols)
        image = tuple(sum(r[j] * vec[j] for j in range(cols)) % p for r in rows)
        if image == tuple(v % p for v in w):
            solutions.append(vec)
        if not any(image):
            kernel.append(vec)
    if not solutions:
        return None
    sol_index = {v: i for i, v in enumerate(solutions)}
    act = [
        [sol_index[tuple((a + b) % p for a, b in zip(u, s))] for s in solutions]
        for u in kernel
    ]
    return ref_additive_table(kernel, p), act


def ref_det(mat, p):
    m = [row[:] for row in mat]
    n = len(m)
    det = 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] % p), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = (det * m[c][c]) % p
        inv = pow(m[c][c], p - 2, p)
        for r in range(c + 1, n):
            factor = (m[r][c] * inv) % p
            if factor:
                m[r] = [(a - factor * b) % p for a, b in zip(m[r], m[c])]
    return det % p


def ref_general_linear(p, n):
    mats = []
    for flat in itertools.product(range(p), repeat=n * n):
        mat = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
        if ref_det(mat, p):
            mats.append(tuple(tuple(row) for row in mat))
    index = {m: i for i, m in enumerate(mats)}
    table = [
        [
            index[tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n))
                for i in range(n)
            )]
            for b in mats
        ]
        for a in mats
    ]
    return table, mats


def ref_basis_action(p, n, mats):
    vectors = [ref_decode(i, p, n) for i in range(p**n)]
    bases = [
        combo
        for combo in itertools.product(range(p**n), repeat=n)
        if ref_det([list(vectors[i]) for i in combo], p)
    ]
    index = {b: i for i, b in enumerate(bases)}

    def apply(mat, v):
        vec = vectors[v]
        return ref_encode(tuple(sum(mat[i][j] * vec[j] for j in range(n)) % p for i in range(n)), p)

    return [[index[tuple(apply(mat, v) for v in basis)] for basis in bases] for mat in mats]


@pytest.mark.parametrize("p,n", [(2, 1), (2, 3), (2, 6), (3, 1), (3, 3), (5, 2), (7, 2), (13, 2)])
def test_affine_tables_match_reference(p, n):
    t = tk.affine_torsor(p, n)
    table = ref_additive_table([ref_decode(i, p, n) for i in range(p**n)], p)
    assert t.group.cayley == tuple(map(tuple, table))
    assert t.act == t.group.cayley


@ORACLE
@given(st.sampled_from([2, 3, 5]), st.data())
def test_solution_tables_match_reference(p, data):
    cols = data.draw(st.integers(1, {2: 6, 3: 4, 5: 3}[p]))
    nrows = data.draw(st.integers(1, 3))
    rows = [[data.draw(st.integers(0, p - 1)) for _ in range(cols)] for _ in range(nrows)]
    w = [data.draw(st.integers(0, p - 1)) for _ in range(nrows)]
    ref = ref_solution_tables(p, rows, w)
    T = tk.prime_field_matrix(p, rows)
    if ref is None:
        with pytest.raises(errors.EmptySolutionSet):
            tk.solution_torsor(T, w)
        return
    t = tk.solution_torsor(T, w)
    assert t.group.cayley == tuple(map(tuple, ref[0]))
    assert t.act == tuple(map(tuple, ref[1]))


# the three pairs with n >= 2 within BASIS_MAX_MATRICES, and two with n = 1, where GL_1(F_p) = F_p^*
@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (2, 1), (5, 1)])
def test_general_linear_and_basis_tables_match_reference(p, n):
    table, mats = ref_general_linear(p, n)
    group, got = tk.general_linear_group(p, n)
    assert got == mats
    assert group.cayley == tuple(map(tuple, table))
    assert tk.basis_torsor(p, n).act == tuple(map(tuple, ref_basis_action(p, n, mats)))


# ---------------------------------------------------------------- renamings

CATALOG = [tk.catalog_group(name) for name in tk.catalog_names()]  # orders up to 24


def ref_renamed(group, members):
    """build_group on the law of ``group`` over ``members`` with members[i] renamed i."""
    index = {m: i for i, m in enumerate(members)}
    return tk.build_group(len(members), [[index[group.cayley[a][b]] for b in members] for a in members])


def ref_closure(group, gens):
    """The subgroup generated by ``gens``: the identity and gens, multiplied until nothing new appears."""
    members = {group.identity, *gens}
    while True:
        more = {group.cayley[a][b] for a in members for b in members} - members
        if not more:
            return sorted(members)
        members |= more


@ORACLE
@given(st.sampled_from(CATALOG), st.data())
def test_transport_along_a_permutation_matches_build_group(group, data):
    perm = data.draw(st.permutations(range(group.order)))
    assert _transport(group, perm) == ref_renamed(group, perm)


@ORACLE
@given(st.sampled_from(CATALOG), st.data())
def test_transport_onto_a_subgroup_matches_build_group(group, data):
    gens = data.draw(st.lists(st.integers(0, group.order - 1), max_size=3))
    members = data.draw(st.permutations(ref_closure(group, gens)))
    want = ref_renamed(group, members)
    assert _transport(group, members) == want
    assert tk.subgroup_as_group(tk.Subgroup(group, tuple(members))) == want


# ---------------------------------------------------------------- finite spaces


def ref_close_under_ops(num_points, generators):
    """The fixed-point closure under pairwise union and intersection, then build_space."""
    sets = {frozenset(), frozenset(range(num_points))} | {frozenset(g) for g in generators}
    changed = True
    while changed:
        changed = False
        current = list(sets)
        for i, a in enumerate(current):
            for b in current[i + 1 :]:
                for c in (a | b, a & b):
                    if c not in sets:
                        sets.add(c)
                        changed = True
    return tk.build_space(num_points, [tuple(sorted(s)) for s in sets])


def outcome(build, *args):
    """The built value, or the error class and witness data it raised."""
    try:
        return build(*args)
    except errors.TorsorError as err:
        return type(err), err.data


@st.composite
def generator_families(draw):
    """Generators on at most 5 points, with repeated points and opens and points out of range."""
    n = draw(st.integers(0, 5))
    points = st.integers(-1, n + 1) if n == 0 or draw(st.booleans()) else st.integers(0, n - 1)
    gens = draw(st.lists(st.lists(points, max_size=n + 2), max_size=7))
    repeats = draw(st.lists(st.sampled_from(gens), max_size=2)) if gens else []
    return n, gens + repeats


@ORACLE
@given(generator_families())
def test_close_under_ops_matches_the_fixed_point_closure(case):
    # at most 5 points: at most 2^5 opens, so every drawn family lies within MAX_OPENS
    n, gens = case
    assert outcome(tk.close_under_ops, n, gens) == outcome(ref_close_under_ops, n, gens)


@st.composite
def families(draw):
    """Generators on at most 8 points: up to 2^8 opens, on either side of MAX_OPENS."""
    n = draw(st.integers(1, 8))
    return n, draw(st.lists(st.frozensets(st.integers(0, n - 1)), max_size=8))


@ORACLE
@given(families())
# drawn families seldom pass MAX_OPENS: 7 discrete points and 4 disjoint two-point chains do (128, 81 opens)
@example((7, [frozenset({i}) for i in range(7)]))
@example((8, [frozenset({2 * i}) for i in range(4)] + [frozenset({2 * i, 2 * i + 1}) for i in range(4)]))
def test_the_open_count_is_the_number_of_listed_unions(case):
    # the unions of the U_x, listed one U_x at a time in canonical order; past the budget, TooLarge names
    # the unions listed at the first step that passes it, a lower bound on the opens
    n, gens = case
    meets = {frozenset(range(n)).intersection(*(g for g in gens if x in g)) for x in range(n)}
    unions, listed = {frozenset()}, []
    for m in sorted(meets, key=lambda m: (len(m), sorted(m))):
        unions |= {u | m for u in unions}
        listed.append(len(unions))
    if len(unions) <= MAX_OPENS:
        assert len(tk.close_under_ops(n, gens).opens) == len(unions)
    else:
        size = min(c for c in listed if c > MAX_OPENS)
        assert MAX_OPENS < size <= min(2 * MAX_OPENS, len(unions))
        assert outcome(tk.close_under_ops, n, gens) == (errors.TooLarge, {"size": size, "budget": MAX_OPENS})


def ref_is_connected(space, subset):
    """No split of the subset into two disjoint, nonempty parts, each open in the subspace."""
    relative = {frozenset(o) & subset for o in space.opens}
    return not any(part and part != subset and subset - part in relative for part in relative)


@st.composite
def spaces_and_subsets(draw):
    """A topology generated on at most 5 points, and a subset of its points."""
    n = draw(st.integers(1, 5))
    space = tk.close_under_ops(n, draw(st.lists(st.frozensets(st.integers(0, n - 1)), max_size=6)))
    return space, draw(st.frozensets(st.integers(0, n - 1)))


@ORACLE
@given(spaces_and_subsets())
def test_connected_components_match_the_definition(case):
    space, subset = case
    comps = tk.connected_components(space, subset)
    assert sorted(p for c in comps for p in c) == sorted(subset)
    assert [c[0] for c in comps] == sorted(c[0] for c in comps)
    relative = {frozenset(o) & subset for o in space.opens}
    for c in map(frozenset, comps):
        # connected, and open (so closed) in the subset: no connected part of it is larger
        assert ref_is_connected(space, c) and c in relative


@ORACLE
@given(spaces_and_subsets())
def test_minimal_opens_and_components_are_read_off_the_opens(case):
    space, _ = case
    for x, m in enumerate(space.minimal):
        assert m == frozenset.intersection(*(frozenset(o) for o in space.opens if x in o))
        assert space.opens[space.minimal_open[x]] == tuple(sorted(m))
    assert space.components == tuple(tk.connected_components(space, o) for o in space.opens)


# ---------------------------------------------------------------- sheaf gluing


def ref_is_sheaf(sheaf):
    """Locality and gluing over every cover of every open, for a functorial presheaf.

    Each cover is reduced to its maximal antichain, which has the same
    compatible families, and each antichain is decided once.
    """
    space = sheaf.space
    opens = [frozenset(o) for o in space.opens]
    for u, target in enumerate(opens):
        if not target:
            if sheaf.sizes[u] != 1:
                return False
            continue
        candidates = [v for v, o in enumerate(opens) if o and o <= target]
        checked = set()
        for mask in range(1, 2 ** len(candidates)):
            members = [candidates[i] for i in range(len(candidates)) if mask >> i & 1]
            if frozenset().union(*(opens[m] for m in members)) != target:
                continue
            cover = tuple(m for m in members if not any(opens[m] < opens[n] for n in members))
            if cover in checked:
                continue
            checked.add(cover)
            for family in itertools.product(*(sheaf.sections(m) for m in cover)):
                compatible = all(
                    sheaf.restrict_section(a, fa, w) == sheaf.restrict_section(b, fb, w)
                    for (a, fa), (b, fb) in itertools.combinations(zip(cover, family), 2)
                    for w in [space.open_index[opens[a] & opens[b]]]
                )
                if compatible and gluings(sheaf, u, cover, family) != 1:
                    return False
    return True


def gluings(sheaf, u, cover, family):
    return sum(
        all(sheaf.restrict_section(u, s, m) == f for m, f in zip(cover, family))
        for s in sheaf.sections(u)
    )


def presheaf(space, sections, restrict):
    """A SheafOfSets from hashable sections per open and a restriction function."""
    index = [{s: i for i, s in enumerate(secs)} for secs in sections]
    table = {
        (u, v): tuple(index[v][restrict(s, u, v)] for s in sections[u])
        for u, ou in enumerate(space.opens)
        for v, ov in enumerate(space.opens)
        if u != v and set(ov) <= set(ou)
    }
    return SheafOfSets(space=space, sizes=tuple(map(len, sections)), restrict=table)


@st.composite
def small_spaces(draw):
    """The topology generated by one drawn open around each of at most 4 points."""
    n = draw(st.integers(1, 4))
    return tk.close_under_ops(
        n, [{x} | draw(st.frozensets(st.integers(0, n - 1))) for x in range(n)]
    )


@st.composite
def function_presheaves(draw):
    """Sets of functions U -> {0, 1}, closed under restriction: gluing may fail, locality holds.

    A function on U is the tuple of its values on U's sorted points. Each
    open keeps all functions or a drawn subset, plus every restriction of
    the functions kept on larger opens.
    """
    space = draw(small_spaces())

    def restrict(f, u, v):
        values = dict(zip(space.opens[u], f))
        return tuple(values[p] for p in space.opens[v])

    kept = [set() for _ in space.opens]
    for u in reversed(range(len(space.opens))):  # larger opens first
        every = list(itertools.product(range(2), repeat=len(space.opens[u])))
        if draw(st.booleans()):
            kept[u].update(every)
        else:
            mask = draw(st.lists(st.booleans(), min_size=len(every), max_size=len(every)))
            kept[u].update(f for f, keep in zip(every, mask) if keep)
        for v, ov in enumerate(space.opens):
            if v != u and set(ov) <= set(space.opens[u]):
                kept[v].update(restrict(f, u, v) for f in kept[u])
    kept[space.empty_index].add(())
    return space, [sorted(k) for k in kept], restrict


@st.composite
def presheaves(draw):
    """Function presheaves, half of them with a tag bit on the opens containing a drawn open.

    A tagged open holds (f, bit); restriction keeps the bit between tagged
    opens and drops it into untagged ones, which is functorial because the
    set is up-closed, and breaks locality on any tagged open that some
    untagged opens cover.
    """
    space, sections, restrict = draw(function_presheaves())
    if draw(st.booleans()):
        opens = [frozenset(o) for o in space.opens]
        seed = opens[draw(st.sampled_from(range(len(opens) - 1, 0, -1)))]
        tagged = {u for u, o in enumerate(opens) if seed <= o}
        sections = [
            [(f, bit) for f in secs for bit in (0, 1)] if u in tagged else [(f, 0) for f in secs]
            for u, secs in enumerate(sections)
        ]
        base = restrict

        def restrict(s, u, v):
            return base(s[0], u, v), s[1] if v in tagged else 0

    return presheaf(space, sections, restrict)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(presheaves())
def test_is_sheaf_matches_the_all_covers_reference(sheaf):
    rep = tk.is_sheaf(sheaf)
    assert rep.passed == ref_is_sheaf(sheaf)
    for w in rep.witnesses:
        assert w["axiom"] == "gluing"
        space, cover, family = sheaf.space, w["cover"], w["family"]
        for (a, fa), (b, fb) in itertools.combinations(zip(cover, family), 2):
            m = space.intersection_index(a, b)
            assert sheaf.restrict_section(a, fa, m) == sheaf.restrict_section(b, fb, m)
        assert w["gluings"] == gluings(sheaf, w["open"], cover, family) != 1


# ---------------------------------------------------------------- the sheaf layer, cell by cell
#
# The pure-Python sheaf layer as it was before the int-array rewrite: the
# constant sheaf, the descent glue and the three validators. Sizes, tables,
# verdicts and witnesses of the library must match these exactly.


def _ref_restrict(sheaf, u, s, v):
    return s if u == v else sheaf.restrict[(u, v)][s]


def _ref_proper_pairs(space):
    for u, ou in enumerate(space.opens):
        for v, ov in enumerate(space.opens):
            if v != u and frozenset(ov) <= frozenset(ou):
                yield u, v


def _ref_minimal_cover(space, u):
    members = sorted({space.minimal_open[x] for x in space.opens[u]})
    sets = {m: frozenset(space.opens[m]) for m in members}
    return tuple(m for m in members if not any(sets[m] < sets[n] for n in members))


def _ref_families(sheaf, members):
    """Backtracking enumeration of the families agreeing on pairwise overlaps."""
    space = sheaf.space

    def extend(assigned):
        if len(assigned) == len(members):
            yield tuple(assigned)
            return
        m = members[len(assigned)]
        for s in range(sheaf.sizes[m]):
            if all(
                _ref_restrict(sheaf, m, s, w) == _ref_restrict(sheaf, q, f, w)
                for q, f in zip(members, assigned)
                for w in [space.intersection_index(q, m)]
            ):
                yield from extend(assigned + [s])

    yield from extend([])


def ref_constant_group_sheaf(space, group):
    """(sizes, group tables, restriction tables) by tuple arithmetic."""
    comps = [tk.connected_components(space, o) for o in space.opens]
    sizes = [group.order ** len(c) for c in comps]
    # the guard bounds the G^k tables built for k >= 2 components
    if any(s > tk.sheaves.CONSTANT_SECTIONS_MAX for s, c in zip(sizes, comps) if len(c) >= 2):
        return errors.TooLarge
    code = lambda vals: sum(v * group.order ** (len(vals) - 1 - i) for i, v in enumerate(vals))  # noqa: E731
    tables = []
    for c in comps:
        tuples = list(itertools.product(range(group.order), repeat=len(c)))
        tables.append(tuple(
            tuple(code([group.cayley[a][b] for a, b in zip(s, t)]) for t in tuples) for s in tuples
        ))
    restrict = {}
    for u, v in _ref_proper_pairs(space):
        holder = [next(i for i, cu in enumerate(comps[u]) if cv[0] in cu) for cv in comps[v]]
        tuples = itertools.product(range(group.order), repeat=len(comps[u]))
        restrict[(u, v)] = tuple(code([vals[m] for m in holder]) for vals in tuples)
    return tuple(sizes), tuple(tables), restrict


def ref_restriction_read(space, sizes, restrict):
    """Witness data of the first missing, misshapen or bad-celled restriction table in pair order, or None."""
    for u, v in _ref_proper_pairs(space):
        table = restrict.get((u, v))
        if table is None or len(table) != sizes[u]:
            return {"u": u, "v": v}
        bad = next((pos for pos, s in enumerate(table) if not _is_index(s, sizes[v])), None)
        if bad is not None:
            return {"u": u, "v": v, "position": bad}
    return None


def ref_act_read(gs, fs, act):
    """Witness data of the first bad row or cell of the action tables, in open order, or None."""
    for u, table in enumerate(act):
        bad = ref_malformed(table, gs.groups[u].order, fs.sizes[u], fs.sizes[u])
        if bad is not None:
            return {"open": u, **bad}
    return None


def built(make):
    """(``make()``, None), or (None, the witness data of the MalformedTable it raises)."""
    try:
        return make(), None
    except errors.MalformedTable as err:
        return None, err.data


def ref_sheaf_witnesses(sheaf):
    space = sheaf.space
    out = []
    for u, v in _ref_proper_pairs(space):
        for w, ow in enumerate(space.opens):
            if w in (u, v) or not frozenset(ow) <= frozenset(space.opens[v]):
                continue
            for s in range(sheaf.sizes[u]):
                via = _ref_restrict(sheaf, v, _ref_restrict(sheaf, u, s, v), w)
                if via != _ref_restrict(sheaf, u, s, w):
                    out.append({"axiom": "functoriality", "u": u, "v": v, "w": w, "section": s})
                    break
    for u, target in enumerate(space.opens):
        if not target:
            if sheaf.sizes[u] != 1:
                out.append({"axiom": "empty-sections", "open": u, "sections": sheaf.sizes[u]})
            continue
        cover = _ref_minimal_cover(space, u)
        for family in _ref_families(sheaf, cover):
            n = gluings(sheaf, u, cover, family)
            if n != 1:
                out.append({
                    "axiom": "gluing", "open": u, "cover": list(cover), "family": list(family),
                    "gluings": n,
                })
                break
    return out


def ref_group_sheaf_witnesses(gs):
    out = ref_sheaf_witnesses(gs.sets)
    out += [{"axiom": "group-order", "open": u} for u, g in enumerate(gs.groups) if g.order != gs.sets.sizes[u]]
    if out:
        return out
    for u, v in _ref_proper_pairs(gs.space):
        gu, gv = gs.groups[u], gs.groups[v]
        hits = (
            (s, t)
            for s in range(gu.order)
            for t in range(gu.order)
            if _ref_restrict(gs.sets, u, gu.mul(s, t), v)
            != gv.mul(_ref_restrict(gs.sets, u, s, v), _ref_restrict(gs.sets, u, t, v))
        )
        bad = next(hits, None)
        if bad is not None:
            out.append({"axiom": "restriction-hom", "u": u, "v": v, "s": bad[0], "t": bad[1]})
    return out


def ref_torsor_witnesses(action):
    gs, fs = action.groups, action.sets
    space = fs.space
    out = []
    for u in range(len(space.opens)):
        grp, size, table = gs.groups[u], fs.sizes[u], action.act[u]
        if any(table[grp.identity][x] != x for x in range(size)):
            x = next(x for x in range(size) if table[grp.identity][x] != x)
            out.append({"axiom": "action-identity", "open": u, "x": x})
        elif size and ref_compatibility(table, grp.cayley) is not None:
            g, h, x = ref_compatibility(table, grp.cayley)
            out.append({"axiom": "action-compatibility", "open": u, "g": g, "h": h, "x": x})
    if out:
        return out
    out = [
        {"axiom": "group-order", "sheaf": "groups", "open": u}
        for u, g in enumerate(gs.groups)
        if g.order != gs.sets.sizes[u]
    ]
    if out:
        return out
    for u, v in _ref_proper_pairs(space):
        hits = (
            (a, s)
            for a in range(gs.sets.sizes[u])
            for s in range(fs.sizes[u])
            if _ref_restrict(fs, u, action.act[u][a][s], v)
            != action.act[v][_ref_restrict(gs.sets, u, a, v)][_ref_restrict(fs, u, s, v)]
        )
        bad = next(hits, None)
        if bad is not None:
            out.append({"axiom": "action-restriction", "u": u, "v": v, "g": bad[0], "s": bad[1]})
    if out:
        return out
    for x in range(space.num_points):
        m = space.minimal_open[x]
        if fs.sizes[m] < 1:
            out.append({"axiom": "locally-nonempty", "point": x, "open": m})
    for u, target in enumerate(space.opens):
        if not target:
            continue
        for m in _ref_minimal_cover(space, u):
            pairs = (
                (s, t, c)
                for s in range(fs.sizes[u])
                for t in range(fs.sizes[u])
                for c in [sum(
                    action.act[m][a][_ref_restrict(fs, u, s, m)] == _ref_restrict(fs, u, t, m)
                    for a in range(gs.sets.sizes[m])
                )]
                if c != 1
            )
            bad = next(pairs, None)
            if bad is not None:
                s, t, c = bad
                out.append({
                    "axiom": "local-transport", "open": u, "s": s, "t": t, "min_open": m,
                    "transports": c,
                })
    return out


def ref_glue(datum):
    """(sizes, restriction tables, action tables) of the glued sheaf, by tuple arithmetic."""
    gs, cover = datum.groups, datum.cover
    space = gs.space
    k = len(cover)
    charts = [[space.intersection_index(u, c) for c in cover] for u in range(len(space.opens))]

    def agrees(chart, f, j, s):
        """s_i|w == g_ij * s|w on w = chart[i] n chart[j], for each entry f[i] of the prefix f."""
        for i in range(j):
            w = space.intersection_index(chart[i], chart[j])
            pair = space.intersection_index(cover[i], cover[j])
            g_ij = _ref_restrict(gs.sets, pair, datum.value(i, j), w)
            rhs = gs.groups[w].mul(g_ij, _ref_restrict(gs.sets, chart[j], s, w))
            if _ref_restrict(gs.sets, chart[i], f[i], w) != rhs:
                return False
        return True

    families = []
    for chart in charts:
        # backtracking: a prefix grows only by the sections that agree with each of its entries
        fams = [()]
        for j, c in enumerate(chart):
            fams = [f + (s,) for f in fams for s in range(gs.sets.sizes[c]) if agrees(chart, f, j, s)]
        families.append(fams)
    index = [{f: n for n, f in enumerate(fams)} for fams in families]
    restrict = {
        (u, v): tuple(
            index[v][tuple(_ref_restrict(gs.sets, charts[u][i], f[i], charts[v][i]) for i in range(k))]
            for f in families[u]
        )
        for u, v in _ref_proper_pairs(space)
    }
    act = []
    for u, chart in enumerate(charts):
        act.append(tuple(
            tuple(
                index[u][tuple(
                    gs.groups[c].mul(f[i], gs.groups[c].inv(_ref_restrict(gs.sets, u, a, c)))
                    for i, c in enumerate(chart)
                )]
                for f in families[u]
            )
            for a in range(gs.sets.sizes[u])
        ))
    return tuple(len(f) for f in families), restrict, tuple(act)


def _report(rep):
    return rep.passed, [dict(w) for w in rep.witnesses]


def ref_torsor_report(action):
    """The reference verdict, with the local-transport witnesses of minimal opens only.

    The reference decides local transport on every open U above a minimal
    open m; a failing pair on U restricts to a failing pair on m, which
    comes first in open order, so the library decides it on m alone.
    """
    want = ref_torsor_witnesses(action)
    kept = [w for w in want if w["axiom"] != "local-transport" or w["open"] == w["min_open"]]
    return not want, kept


def assert_validators_match(action):
    """Every validator against its reference on one sheaf action."""
    sheaf = ref_sheaf_witnesses(action.sets)
    groups = ref_group_sheaf_witnesses(action.groups)
    assert _report(tk.is_sheaf(action.sets)) == (not sheaf, sheaf)
    assert _report(tk.is_sheaf_of_groups(action.groups)) == (not groups, groups)
    assert _report(tk.is_sheaf_torsor(action)) == ref_torsor_report(action)


SMALL_GROUPS = [n for n in tk.catalog_names() if tk.catalog_group(n).order <= 6]


def three_arm():
    """Four points; three arms {0, i} glued at the common point 0."""
    return tk.close_under_ops(4, [(0, 1), (0, 2), (0, 3)])


@st.composite
def descent_inputs(draw, max_cover=3, names=SMALL_GROUPS):
    """A constant group sheaf on a small space (or the three-arm space), a cover and free transitions.

    The group is one of ``names``. The cover has at most ``max_cover``
    drawn opens, plus the minimal opens of points they miss. The sheaf is
    None when it is too large to build.
    """
    space = draw(st.one_of(small_spaces(), st.just(three_arm())))
    group = tk.catalog_group(draw(st.sampled_from(names)))
    try:
        gs = tk.constant_group_sheaf(space, group)
    except errors.TooLarge:
        return space, group, None, None, None
    nonempty = [u for u, o in enumerate(space.opens) if o]
    cover = draw(st.lists(st.sampled_from(nonempty), min_size=1, max_size=max_cover))
    for x in range(space.num_points):
        if not any(x in space.opens[c] for c in cover):
            cover.append(space.minimal_open[x])
    pairs = itertools.combinations(range(len(cover)), 2)
    drawn = {
        (i, j): draw(st.integers(0, gs.sets.sizes[space.intersection_index(cover[i], cover[j])] - 1))
        for i, j in pairs
    }
    return space, group, gs, cover, drawn


@st.composite
def descent_data(draw):
    """A descent datum from ``descent_inputs``, or None where the sheaf is too large.

    When the drawn transitions break a triple identity, the coboundary of
    a drawn cochain (always a cocycle) replaces them.
    """
    space, group, gs, cover, drawn = draw(descent_inputs())
    if gs is None:
        return space, group, None
    try:
        return space, group, tk.build_descent_datum(gs, cover, drawn)
    except errors.TripleViolation:
        pass
    return space, group, tk.build_descent_datum(gs, cover, draw(coboundaries(gs, cover)))


@st.composite
def coboundaries(draw, gs, cover):
    """Transitions h_i|w * h_j|w^-1 of a drawn cochain (h_i in G(cover[i])): always a cocycle."""
    space = gs.space
    h = [draw(st.integers(0, gs.sets.sizes[c] - 1)) for c in cover]
    out = {}
    for i, j in itertools.combinations(range(len(cover)), 2):
        w = space.intersection_index(cover[i], cover[j])
        hi, hj = (gs.restrict_section(cover[n], h[n], w) for n in (i, j))
        out[(i, j)] = gs.groups[w].mul(hi, gs.groups[w].inv(hj))
    return out


def ref_triple_violation(gs, cover, transition):
    """The first (a, b, c) over every ordering of distinct cover positions with g_ab * g_bc != g_ac."""
    space = gs.space

    def overlap(*positions):
        points = (frozenset(space.opens[cover[i]]) for i in positions)
        return space.open_index[frozenset.intersection(*points)]

    def value(i, j):
        w = overlap(i, j)
        return w, transition[(i, j)] if i < j else gs.groups[w].inv(transition[(j, i)])

    for a, b, c in itertools.permutations(range(len(cover)), 3):
        w = overlap(a, b, c)
        (ab, g_ab), (bc, g_bc), (ac, g_ac) = value(a, b), value(b, c), value(a, c)
        lhs = gs.groups[w].mul(_ref_restrict(gs.sets, ab, g_ab, w), _ref_restrict(gs.sets, bc, g_bc, w))
        if lhs != _ref_restrict(gs.sets, ac, g_ac, w):
            return a, b, c
    return None


# symmetric(3) is the one nonabelian group here: only it tells g_ab * g_bc from g_bc * g_ab
ORDERING_GROUPS = ["cyclic(2)", "cyclic(3)", "symmetric(3)"]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(descent_inputs(max_cover=5, names=ORDERING_GROUPS), st.booleans(), st.data())
def test_build_descent_datum_matches_all_orderings(case, cocycle, data):
    _, _, gs, cover, drawn = case
    assume(gs is not None)
    if cocycle:
        drawn = data.draw(coboundaries(gs, cover))
    want = ref_triple_violation(gs, cover, drawn)
    if want is None:
        assert tk.build_descent_datum(gs, cover, drawn).transition == drawn
        return
    with pytest.raises(errors.TripleViolation) as exc:
        tk.build_descent_datum(gs, cover, drawn)
    assert (exc.value.data["i"], exc.value.data["j"], exc.value.data["k"]) == want


@pytest.mark.parametrize("name", SMALL_GROUPS)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_spaces())
def test_constant_group_sheaf_matches_reference(name, space):
    group = tk.catalog_group(name)
    want = ref_constant_group_sheaf(space, group)
    if want is errors.TooLarge:
        with pytest.raises(errors.TooLarge):
            tk.constant_group_sheaf(space, group)
        return
    gs = tk.constant_group_sheaf(space, group)
    assert (gs.sets.sizes, tuple(g.cayley for g in gs.groups), gs.sets.restrict) == want


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(descent_data())
def test_glue_matches_reference(case):
    space, group, datum = case
    if datum is None:
        return
    want = ref_glue(datum)
    if want is errors.TooLarge:
        with pytest.raises(errors.TooLarge):
            tk.glue_from_cocycle(datum)
        return
    torsor = tk.glue_from_cocycle(datum)
    assert (torsor.sets.sizes, torsor.sets.restrict, torsor.action.act) == want
    assert_validators_match(torsor.action)


@pytest.mark.parametrize("name", [n for n in tk.catalog_names() if tk.catalog_group(n).order <= 12])
def test_benchmark_pseudocircle_glues_match_reference(name):
    group = tk.catalog_group(name)
    for twist in sorted({group.identity, group.order - 1}):
        torsor = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(group, twist))
        want = ref_glue(tk.pseudocircle_descent_datum(group, twist))
        assert (torsor.sets.sizes, torsor.sets.restrict, torsor.action.act) == want


@st.composite
def corrupted_restrictions(draw, sheaf, hows=("cell", "cell", "cell", "range", "short", "missing")):
    """The restriction tables of ``sheaf`` with one changed: a cell set in or out of range, or the
    table shortened or missing. Only the first three leave a sheaf that can be built."""
    key = draw(st.sampled_from(sorted(sheaf.restrict)))
    table = list(sheaf.restrict[key])
    how = draw(st.sampled_from(hows))
    if how == "missing":
        return {k: t for k, t in sheaf.restrict.items() if k != key}
    if how == "short" or not table:
        table = table[:-1]
    else:
        row = draw(st.integers(0, len(table) - 1))
        bound = sheaf.sizes[key[1]]
        table[row] = bound if how == "range" else draw(st.integers(0, max(bound - 1, 0)))
    return {**sheaf.restrict, key: tuple(table)}


def corrupted_sheaf(sheaf, restrict):
    return SheafOfSets(space=sheaf.space, sizes=sheaf.sizes, restrict=restrict)


@st.composite
def corrupted_actions(draw):
    """(G, F, act) of a glued torsor with one action, restriction or group table changed; ``act`` is
    built into an action by the caller. A row cut short or a cell out of range is malformed."""
    _, _, datum = draw(descent_data())
    assume(datum is not None and ref_glue(datum) is not errors.TooLarge)
    action = tk.glue_from_cocycle(datum).action
    gs, fs = action.groups, action.sets
    how = draw(st.sampled_from(["swap", "swap", "cell", "row", "conjugate", "conjugate", "sets", "groups", "relabel"]))
    act = [list(map(list, t)) for t in action.act]
    if how == "conjugate":
        # a valid action on one open, its points renamed: only the restrictions can notice
        u = draw(st.sampled_from([u for u in range(len(act)) if fs.sizes[u] >= 2] or [0]))
        perm = draw(st.permutations(range(fs.sizes[u])))
        back = {y: x for x, y in enumerate(perm)}
        act[u] = [[perm[row[back[x]]] for x in range(len(row))] for row in act[u]]
        return gs, fs, tuple(tuple(map(tuple, t)) for t in act)
    if how in ("swap", "cell", "row"):
        opens = [u for u in range(len(act)) if fs.sizes[u] >= 1 and gs.sets.sizes[u] >= 1]
        u = draw(st.sampled_from(opens))
        g = draw(st.integers(0, len(act[u]) - 1))
        row = act[u][g]
        if how == "swap":
            x, y = draw(st.integers(0, len(row) - 1)), draw(st.integers(0, len(row) - 1))
            row[x], row[y] = row[y], row[x]
        elif how == "cell":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.integers(0, len(row)))
        else:
            row.pop()
        return gs, fs, tuple(tuple(map(tuple, t)) for t in act)
    if how == "sets":
        assume(any(fs.restrict.values()))
        return gs, corrupted_sheaf(fs, draw(corrupted_restrictions(fs, hows=("cell",)))), action.act
    # a group of G(u) relabeled by a permutation, or replaced by one of another order
    u = draw(st.sampled_from(range(len(gs.groups))))
    grp = gs.groups[u]
    if how == "groups":
        other = draw(st.sampled_from(SMALL_GROUPS))
        replaced = tk.catalog_group(other)
    else:
        perm = draw(st.permutations(range(grp.order)))
        replaced = tk.build_group(grp.order, relabel(grp.cayley, perm))
    groups = gs.groups[:u] + (replaced,) + gs.groups[u + 1:]
    return tk.SheafOfGroups(sets=gs.sets, groups=groups), fs, action.act


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(corrupted_actions())
def test_validators_match_reference_on_corrupted_torsors(case):
    # a malformed table raises where it enters; the action built from the others gets the reference report
    gs, fs, act = case
    action, bad = built(lambda: tk.SheafAction(groups=gs, sets=fs, act=act))
    assert bad == ref_act_read(gs, fs, act)
    if action is not None:
        assert_validators_match(action)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_spaces(), st.sampled_from(SMALL_GROUPS), st.data())
def test_is_sheaf_matches_reference_on_corrupted_restrictions(space, name, data):
    try:
        gs = tk.constant_group_sheaf(space, tk.catalog_group(name))
    except errors.TooLarge:
        return
    assume(gs.sets.restrict)
    restrict = data.draw(corrupted_restrictions(gs.sets))
    sheaf, bad = built(lambda: corrupted_sheaf(gs.sets, restrict))
    assert bad == ref_restriction_read(space, gs.sets.sizes, restrict)
    if sheaf is None:
        return
    want = ref_sheaf_witnesses(sheaf)
    assert _report(tk.is_sheaf(sheaf)) == (not want, want)
    groups = tk.SheafOfGroups(sets=sheaf, groups=gs.groups)
    want = ref_group_sheaf_witnesses(groups)
    assert _report(tk.is_sheaf_of_groups(groups)) == (not want, want)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(presheaves())
def test_is_sheaf_matches_reference_on_presheaves(sheaf):
    want = ref_sheaf_witnesses(sheaf)
    assert _report(tk.is_sheaf(sheaf)) == (not want, want)


# ---------------------------------------------------------------- one pass per open, one for all chains


@st.composite
def agreements(draw):
    """Section counts of a cover of 1-3 members and, for each pair i < j, the two tables whose equal
    entries make f_i and f_j agree, over few values, so that many pairs agree and many do not."""
    sizes = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    values = draw(st.integers(1, 3))
    table = lambda n: np.array(draw(st.lists(st.integers(0, values - 1), min_size=n, max_size=n)), dtype=np.int32)  # noqa: E731
    agree = {(i, j): (table(sizes[i]), table(sizes[j])) for i, j in itertools.combinations(range(len(sizes)), 2)}
    return sizes, agree


@settings(max_examples=200, deadline=None)
@given(agreements())
def test_compatible_families_are_the_product_filtered_and_locate_finds_each_candidate(case):
    sizes, agree = case
    product = list(itertools.product(*map(range, sizes)))
    want = [f for f in product if all(left[f[i]] == right[f[j]] for (i, j), (left, right) in agree.items())]
    rows, lookups = _compatible_families(sizes, agree, 4**3)  # no step starts from more prefixes
    assert rows.tolist() == [list(f) for f in want]
    # every tuple of the product, a miss included, is found at its family's row, or at -1
    columns = [np.array([f[i] for f in product], dtype=np.intp) for i in range(len(sizes))]
    row_of = {f: r for r, f in enumerate(want)}
    assert _locate(lookups, sizes, columns).tolist() == [row_of.get(f, -1) for f in product]


@settings(max_examples=200, deadline=None)
@given(agreements(), st.integers(0, 17))
def test_compatible_families_refuse_at_the_first_step_from_more_prefixes_than_the_bound(case, bound):
    sizes, agree = case
    # the compatible prefixes over members 0..m-1 that the step adding member m starts from, by brute force
    starts = [
        sum(
            all(left[f[i]] == right[f[j]] for (i, j), (left, right) in agree.items() if j < m)
            for f in itertools.product(*map(range, sizes[:m]))
        )
        for m in range(1, len(sizes))
    ]
    over = next((n for n in starts if n > bound), None)
    if over is None:
        rows, _ = _compatible_families(sizes, agree, bound)
        assert rows.tolist() == _compatible_families(sizes, agree, 4**3)[0].tolist()
    else:
        with pytest.raises(errors.TooLarge) as exc:
            _compatible_families(sizes, agree, bound)
        assert exc.value.witness() == {"axiom": "size-guard", "size": over, "budget": bound}


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_transports_of_a_non_square_table_keep_the_least_cell_other_than_one(order, n, data):
    assume(order != n)
    rows = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=order, max_size=order))
    full = np.zeros((n, n), dtype=np.intp)  # [x, y] -> the number of g with g.x = y, cell by cell
    for row in rows:
        for x, y in enumerate(row):
            full[x, y] += 1
    counts = _transports(np.array(rows, dtype=np.int32))
    s, t = _first(counts != 1)
    assert (s, t) == _first(full != 1)
    assert counts[s, t] == full[s, t]


MANY_CHAINS = {
    "discrete4": tk.close_under_ops(4, [(0,), (1,), (2,), (3,)]),
    "chain4": tk.close_under_ops(4, [(0,), (0, 1), (0, 1, 2)]),
    "pseudocircle": tk.pseudocircle(),
    "pseudocircle+point": tk.close_under_ops(5, [(0,), (1,), (0, 1, 2), (0, 1, 3), (4,)]),  # 138 chains
}


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.sampled_from(sorted(MANY_CHAINS)), st.sampled_from(["cyclic(2)", "cyclic(3)"]), st.data())
def test_many_failing_chains_are_witnessed_in_the_reference_order(shape, name, data):
    space = MANY_CHAINS[shape]
    sets = tk.constant_group_sheaf(space, tk.catalog_group(name)).sets
    restrict = dict(sets.restrict)
    keys = [(u, v) for u, v in restrict if sets.sizes[v] >= 2]  # a cell there can take another value
    for key in data.draw(st.lists(st.sampled_from(keys), min_size=2, max_size=5)):
        table, n = list(restrict[key]), sets.sizes[key[1]]
        s = data.draw(st.integers(0, len(table) - 1))
        table[s] = (table[s] + data.draw(st.integers(1, n - 1))) % n
        restrict[key] = tuple(table)
    sheaf = SheafOfSets(space=space, sizes=sets.sizes, restrict=restrict)
    want = ref_sheaf_witnesses(sheaf)
    assume(sum(w["axiom"] == "functoriality" for w in want) >= 2)
    assert _report(tk.is_sheaf(sheaf)) == (False, want)


def _cyclic_subgroup(group, g):
    members, x = {group.identity}, g
    while x not in members:
        members.add(x)
        x = group.mul(x, g)
    return tk.build_subgroup(group, members)


@st.composite
def coset_unions(draw):
    """A group acting on a relabeled disjoint union of 1-3 coset spaces: free or transitive, or neither."""
    group = tk.catalog_group(draw(st.sampled_from(SMALL_GROUPS)))
    orbits = [
        tk.coset_action(group, _cyclic_subgroup(group, draw(st.integers(0, group.order - 1))))
        for _ in range(draw(st.integers(1, 3)))
    ]
    offsets = list(itertools.accumulate([0] + [o.set_size for o in orbits]))
    size = offsets[-1]
    perm = draw(st.permutations(range(size)))
    table = [[0] * size for _ in range(group.order)]
    for orbit, base in zip(orbits, offsets):
        for g in range(group.order):
            for x in range(orbit.set_size):
                table[g][perm[base + x]] = perm[base + orbit.act[g][x]]
    return tk.build_action(group, size, table)


def doubled(action):
    """Two copies of each F(U), acted on and restricted copy by copy: never transitive."""
    fs = action.sets
    n = fs.sizes
    restrict = {
        (u, v): tuple(t) + tuple(x + n[v] for x in t) for (u, v), t in fs.restrict.items()
    }
    act = tuple(
        tuple(tuple(row) + tuple(x + n[u] for x in row) for row in table)
        for u, table in enumerate(action.act)
    )
    sets = SheafOfSets(space=fs.space, sizes=tuple(2 * k for k in n), restrict=restrict)
    return tk.SheafAction(groups=action.groups, sets=sets, act=act)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(coset_unions())
def test_is_sheaf_torsor_matches_reference_on_lifted_actions(action):
    lifted = tk.lift_point_action(action)
    assert _report(tk.is_sheaf_torsor(lifted)) == ref_torsor_report(lifted)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(descent_data())
def test_is_sheaf_torsor_matches_reference_on_doubled_torsors(case):
    _, _, datum = case
    assume(datum is not None and ref_glue(datum) is not errors.TooLarge)
    action = doubled(tk.glue_from_cocycle(datum).action)
    assert _report(tk.is_sheaf_torsor(action)) == ref_torsor_report(action)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_spaces(), st.sampled_from(SMALL_GROUPS), st.data())
def test_is_sheaf_of_groups_matches_reference_on_relabeled_groups(space, name, data):
    try:
        gs = tk.constant_group_sheaf(space, tk.catalog_group(name))
    except errors.TooLarge:
        return
    u = data.draw(st.sampled_from(range(len(gs.groups))))
    grp = gs.groups[u]
    # the identity stays put, so the first bad (s, t) is not always the diagonal (e, e)
    moved = data.draw(st.permutations([g for g in grp.elements() if g != grp.identity]))
    perm = [grp.identity if g == grp.identity else moved.pop() for g in grp.elements()]
    relabeled = tk.build_group(len(perm), relabel(grp.cayley, perm))
    groups = tk.SheafOfGroups(sets=gs.sets, groups=gs.groups[:u] + (relabeled,) + gs.groups[u + 1:])
    want = ref_group_sheaf_witnesses(groups)
    assert _report(tk.is_sheaf_of_groups(groups)) == (not want, want)


# ---------------------------------------------------------------- cocycle classification


def ref_equivalence_classes(nerve, group):
    """Close each unseen cocycle under the full cochain action, in lexicographic order.

    Representatives are lexicographically least, so classes come in the
    order of their representatives.
    """
    cocycles = enumerate_cocycles(nerve, group)
    valid = {c.edge_values() for c in cocycles}
    seen = set()
    classes = []
    cochains = list(all_cochains(nerve, group))
    for c in cocycles:
        key = c.edge_values()
        if key in seen:
            continue
        orbit = {tk.apply_coboundary(c, h).edge_values() for h in cochains}
        assert orbit <= valid and key in orbit
        seen.update(orbit)
        classes.append((key, len(orbit), tuple(sorted(orbit))))
    return classes


def classes_as_tuples(classes):
    return [(c.representative.edge_values(), c.size, c.members) for c in classes]


@st.composite
def classified_nerves(draw):
    """A group and a nerve: random edges, any triples their edges allow.

    Edges are drawn independently, so nerves come with several components
    and isolated opens. The number of opens is at most 6 for cyclic(2),
    where class order first differs from the order in which the gauge-fixed
    cocycles are found, 5 for orders 3 and 4 and 4 for symmetric(3), which
    keeps the reference's |G|^opens cochains per class few.
    """
    name = draw(st.sampled_from(["cyclic(2)", "cyclic(3)", "klein_four", "cyclic(4)", "symmetric(3)"]))
    group = tk.catalog_group(name)
    n = draw(st.integers(1, {2: 6, 3: 5, 4: 5, 6: 4}[group.order]))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [p for p in pairs if draw(st.booleans())]
    allowed = [
        t for t in itertools.combinations(range(n), 3)
        if all(p in edges for p in itertools.combinations(t, 2))
    ]
    triples = [t for t in allowed if draw(st.booleans())]
    return tk.build_nerve(n, edges, triples), group


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(classified_nerves())
def test_equivalence_classes_match_the_orbit_closure(case):
    nerve, group = case
    if group.order ** len(nerve.edges) > tk.cocycles.CLASS_ENUM_MAX:
        with pytest.raises(errors.TooLarge) as exc:
            tk.equivalence_classes(nerve, group)
        assert exc.value.data["size"] == group.order ** len(nerve.edges)
        return
    assert classes_as_tuples(tk.equivalence_classes(nerve, group)) == ref_equivalence_classes(
        nerve, group
    )


def _cycle(k):
    return tk.build_nerve(k, [(i, (i + 1) % k) for i in range(k)])


def _simplex(k):
    return tk.build_nerve(
        k, itertools.combinations(range(k), 2), itertools.combinations(range(k), 3)
    )


def _matching(k):
    return tk.build_nerve(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])


# the (group, nerve) pairs that bench/workloads.py classifies
BENCH_NERVES = {
    "cycle3": _cycle(3), "cycle4": _cycle(4), "cycle5": _cycle(5), "triangle": _simplex(3),
    "K4": _simplex(4), "match2": _matching(2), "match3": _matching(3),
}
BENCH_CLASSIFY = [
    ("cyclic(3)", "cycle3"), ("cyclic(4)", "cycle4"), ("cyclic(5)", "cycle4"), ("cyclic(6)", "cycle4"),
    ("symmetric(3)", "cycle4"), ("cyclic(2)", "cycle5"), ("klein_four", "cycle5"), ("cyclic(4)", "cycle5"),
    ("cyclic(8)", "cycle3"), ("cyclic(5)", "cycle5"),
    ("cyclic(4)", "triangle"), ("cyclic(8)", "triangle"), ("symmetric(3)", "triangle"),
    ("klein_four", "K4"), ("cyclic(4)", "K4"), ("cyclic(3)", "K4"),
    ("cyclic(3)", "match3"), ("cyclic(4)", "match3"), ("klein_four", "match3"), ("symmetric(3)", "match2"),
    ("cyclic(5)", "match3"), ("symmetric(3)", "match3"), ("cyclic(8)", "match2"), ("cyclic(7)", "match2"),
    ("cyclic(7)", "cycle4"),
]


@pytest.mark.parametrize("name,shape", BENCH_CLASSIFY)
def test_benchmark_classifications_match_the_orbit_closure(name, shape):
    nerve, group = BENCH_NERVES[shape], tk.catalog_group(name)
    assert classes_as_tuples(tk.equivalence_classes(nerve, group)) == ref_equivalence_classes(
        nerve, group
    )
