"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value is computed by an oracle independent of the code
path under test (brute-force enumeration, exhaustive search) or frozen
from such a computation.
"""

import itertools
import random
from pathlib import Path

import torsorkit as tk
from torsorkit.cocycles import NotTrivial

from cocycle_oracles import enumerate_cocycles
from test_cli import GENERATE_CASES, REPORT_CASES, run_cli

GOLDEN = Path(__file__).parent / "golden"

CATALOG_LE_8 = [
    "cyclic(1)", "cyclic(2)", "cyclic(3)", "cyclic(4)", "cyclic(5)",
    "cyclic(6)", "cyclic(7)", "cyclic(8)", "klein_four",
    "symmetric(1)", "symmetric(2)", "symmetric(3)",
]


def all_subgroups(group):
    """Every subgroup, found by filtering all member subsets (desk scale)."""
    out = []
    elements = list(group.elements())
    for r in range(1, group.order + 1):
        for members in itertools.combinations(elements, r):
            mset = set(members)
            if group.identity not in mset:
                continue
            if all(group.cayley[a][b] in mset for a in members for b in members):
                out.append(tk.build_subgroup(group, members))
    return out


def random_action(group, subgroups, max_points, rng):
    """A seeded random action: disjoint coset orbits under a random relabeling."""
    m = rng.randint(1, max_points)
    chosen = []
    remaining = m
    while remaining:
        options = [s for s in subgroups if group.order // len(s.members) <= remaining]
        sub = rng.choice(options)
        chosen.append(sub)
        remaining -= group.order // len(sub.members)
    blocks = [tk.coset_action(group, sub) for sub in chosen]
    act = [[None] * m for _ in group.elements()]
    offset = 0
    relabel = list(range(m))
    rng.shuffle(relabel)
    for block in blocks:
        for g in group.elements():
            for x in range(block.set_size):
                act[g][relabel[offset + x]] = relabel[offset + block.act[g][x]]
        offset += block.set_size
    return tk.build_action(group, m, act)


def unique_transport_everywhere(action):
    """Brute-force oracle for: every (x,y) has exactly one transporting element."""
    for x in range(action.set_size):
        for y in range(action.set_size):
            hits = sum(1 for g in action.group.elements() if action.act[g][x] == y)
            if hits != 1:
                return False
    return True


def random_torsor(rng):
    """A relabeled left-translation torsor of a random small catalog group."""
    group = tk.catalog_group(rng.choice(CATALOG_LE_8))
    relabel = list(range(group.order))
    rng.shuffle(relabel)
    inverse = [0] * group.order
    for i, v in enumerate(relabel):
        inverse[v] = i
    act = [
        [relabel[group.cayley[g][inverse[x]]] for x in range(group.order)]
        for g in group.elements()
    ]
    return tk.as_torsor(tk.build_action(group, group.order, act))


def transporter_identities_hold(torsor):
    grp = torsor.group
    m = torsor.set_size
    for x in range(m):
        assert tk.transporter(torsor, x, x) == grp.identity
        for y in range(m):
            assert grp.inv(tk.transporter(torsor, x, y)) == tk.transporter(torsor, y, x)
            for z in range(m):
                assert grp.mul(
                    tk.transporter(torsor, y, z), tk.transporter(torsor, x, y)
                ) == tk.transporter(torsor, x, z)
    return True


def test_criterion_1_unique_transport_oracle():
    """Free+transitive agrees with the unique-transport brute force everywhere."""
    rng = random.Random(42)
    groups = {name: tk.catalog_group(name) for name in CATALOG_LE_8}
    subgroups = {name: all_subgroups(g) for name, g in groups.items()}
    checked = 0
    disagreements = 0
    for trial in range(200):
        name = CATALOG_LE_8[trial % len(CATALOG_LE_8)]
        action = random_action(groups[name], subgroups[name], 5, rng)
        free, _ = tk.is_free(action)
        trans, _ = tk.is_transitive(action)
        if (free and trans) != unique_transport_everywhere(action):
            disagreements += 1
        checked += 1
    s3 = groups["symmetric(3)"]
    for sub in subgroups["symmetric(3)"]:
        action = tk.coset_action(s3, sub)
        free, _ = tk.is_free(action)
        trans, _ = tk.is_transitive(action)
        if (free and trans) != unique_transport_everywhere(action):
            disagreements += 1
        checked += 1
    assert disagreements == 0
    print(f"ACCEPTANCE 1 PASS: unique-transport oracle agrees on {checked} actions")


def test_criterion_2_transporter_identity_suite():
    rng = random.Random(7)
    torsors = [
        tk.affine_torsor(2, 1),
        tk.affine_torsor(2, 2),
        tk.affine_torsor(3, 1),
        tk.affine_torsor(3, 2),
        tk.basis_torsor(2, 2),
    ]
    s3 = tk.catalog_group("symmetric(3)")
    for sub in all_subgroups(s3):
        for g in s3.elements():
            torsors.append(tk.coset_torsor(s3, sub, g))
    torsors.extend(random_torsor(rng) for _ in range(50))
    for torsor in torsors:
        assert transporter_identities_hold(torsor)
    print(f"ACCEPTANCE 2 PASS: transporter identities on {len(torsors)} torsors")


def test_criterion_3_elementary_property_suite():
    rng = random.Random(11)
    groups = {name: tk.catalog_group(name) for name in CATALOG_LE_8}
    subgroups = {name: all_subgroups(g) for name, g in groups.items()}

    # freeness equals trivial stabilizers; transitivity equals one full orbit
    sample_actions = [
        random_action(groups[name], subgroups[name], 5, rng)
        for name in CATALOG_LE_8 for _ in range(3)
    ]
    for action in sample_actions:
        free, _ = tk.is_free(action)
        assert free == all(
            tk.stabilizer(action, x) == (action.group.identity,)
            for x in range(action.set_size)
        )
        trans, _ = tk.is_transitive(action)
        full = tuple(range(action.set_size))
        assert trans == (tk.orbit(action, 0) == full)
        assert all(
            (tk.orbit(action, x) == full) == trans for x in range(action.set_size)
        )

    # free plus transitive gives unique transport, checked directly
    for action in sample_actions:
        free, _ = tk.is_free(action)
        trans, _ = tk.is_transitive(action)
        if free and trans:
            assert unique_transport_everywhere(action)

    torsors = [random_torsor(rng) for _ in range(10)]

    # the basepoint map g -> g.x0 is a bijection
    for torsor in torsors:
        for x0 in range(torsor.set_size):
            triv = tk.trivialization(torsor, x0)
            assert sorted(triv.to_points) == list(range(torsor.set_size))
            assert sorted(triv.to_group) == list(range(torsor.group.order))

    # changing basepoint translates the parametrization by tr(x0,x1)
    for torsor in torsors[:5]:
        for x0 in range(torsor.set_size):
            for x1 in range(torsor.set_size):
                change = tk.basepoint_change(torsor, x0, x1)
                assert change.report.passed
                h = change.element
                for g in torsor.group.elements():
                    assert torsor.act[g][x1] == torsor.act[torsor.group.cayley[g][h]][x0]

    # transporter identities
    assert transporter_identities_hold(torsors[0])

    # affine-space axioms, exhaustively
    for p, n in ((2, 2), (3, 2)):
        t = tk.affine_torsor(p, n)
        e = t.group.identity
        size = t.set_size
        assert all(t.act[e][a] == a for a in range(size))
        for v in range(size):
            for w in range(size):
                for a in range(size):
                    assert t.act[w][t.act[v][a]] == t.act[t.group.cayley[w][v]][a]
        for a in range(size):
            for b in range(size):
                assert sum(1 for v in range(size) if t.act[v][a] == b) == 1

    # solutions differ by homogeneous solutions
    cases = [(3, [[1, 1]], [1]), (2, [[1, 1, 0], [0, 1, 1]], [1, 0]), (5, [[2, 3]], [4])]
    for p, rows, w in cases:
        T = tk.prime_field_matrix(p, rows)
        res = tk.gaussian_solve(T, w)
        torsor = tk.solution_torsor(T, w)
        assert torsor.set_size == res.kernel_size

    # every left coset is a torsor under its subgroup
    s3 = groups["symmetric(3)"]
    for sub in subgroups["symmetric(3)"]:
        for g in s3.elements():
            torsor = tk.coset_torsor(s3, sub, g)
            assert torsor.set_size == len(sub.members)

    # ordered bases form a torsor under the general linear group
    for p, n in ((2, 2), (3, 2)):
        t = tk.basis_torsor(p, n)
        assert t.set_size == t.group.order == tk.count_ordered_bases(p, n)

    # the transported law is a group with the basepoint as identity,
    # and distinct basepoints give distinct laws once there are two points
    for torsor in torsors[:5]:
        if torsor.set_size < 2:
            continue
        laws = [tk.transported_group(torsor, x0) for x0 in range(torsor.set_size)]
        for x0, law in enumerate(laws):
            assert law.identity == x0
        for a in range(len(laws)):
            for b in range(a + 1, len(laws)):
                assert laws[a].cayley != laws[b].cayley

    # the difference map y -> tr(x0,y) is the inverse coordinate system
    for torsor in torsors[:5]:
        for x0 in range(torsor.set_size):
            triv = tk.trivialization(torsor, x0)
            for y in range(torsor.set_size):
                assert triv.to_group[y] == tk.transporter(torsor, x0, y)

    print("ACCEPTANCE 3 PASS: elementary property suite holds "
          "(stabilizers, orbits, bijections, basepoint change, families)")


def test_criterion_4_construction_counts():
    # solution family: frozen from enumerating all 9 vectors of F_3^2
    T = tk.prime_field_matrix(3, [[1, 1]])
    sols = [
        v for v in itertools.product(range(3), repeat=2)
        if (v[0] + v[1]) % 3 == 1
    ]
    assert len(sols) == 3
    torsor = tk.solution_torsor(T, [1])
    assert torsor.set_size == 3
    assert torsor.group.order == 3

    # basis family: brute-force count of invertible 2x2 matrices over F_2
    invertible = [
        m for m in itertools.product(range(2), repeat=4)
        if (m[0] * m[3] - m[1] * m[2]) % 2
    ]
    assert len(invertible) == 6
    bt = tk.basis_torsor(2, 2)
    assert bt.set_size == 6
    assert bt.group.order == 6

    at = tk.affine_torsor(3, 2)
    assert at.set_size == 9
    for x in range(9):
        assert tk.stabilizer(at.action, x) == (at.group.identity,)
    print("ACCEPTANCE 4 PASS: construction counts match enumeration oracles")


def _oracle_partition(nerve, group):
    """Classes by exhaustive enumeration of all cocycles and all cochains."""
    valid = []
    for combo in itertools.product(group.elements(), repeat=len(nerve.edges)):
        values = dict(zip(nerve.edges, combo))
        ok = True
        for t in nerve.triples:
            for a, b, c in itertools.permutations(t):
                def val(i, j):
                    if i == j:
                        return group.identity
                    if i < j:
                        return values[(i, j)]
                    return group.inv(values[(j, i)])
                if group.mul(val(a, b), val(b, c)) != val(a, c):
                    ok = False
        if ok:
            valid.append(combo)
    valid_set = set(valid)
    classes = []
    seen = set()
    for combo in valid:
        if combo in seen:
            continue
        orbit = set()
        for h in itertools.product(group.elements(), repeat=nerve.num_opens):
            image = tuple(
                group.mul(group.mul(h[i], v), group.inv(h[j]))
                for (i, j), v in zip(nerve.edges, combo)
            )
            assert image in valid_set
            orbit.add(image)
        seen |= orbit
        classes.append(orbit)
    return classes


def test_criterion_5_cocycle_classification():
    c3 = tk.build_nerve(3, [(0, 1), (0, 2), (1, 2)])
    triangle = tk.build_nerve(3, [(0, 1), (0, 2), (1, 2)], [(0, 1, 2)])
    z2 = tk.catalog_group("cyclic(2)")
    s3 = tk.catalog_group("symmetric(3)")

    cases = [
        (c3, z2, 2, [4, 4]),
        (c3, s3, 3, None),
        (triangle, z2, 1, [4]),
    ]
    for nerve, group, expect_count, expect_sizes in cases:
        classes = tk.equivalence_classes(nerve, group)
        oracle = _oracle_partition(nerve, group)
        assert len(classes) == len(oracle) == expect_count
        got_sizes = sorted(c.size for c in classes)
        assert got_sizes == sorted(len(o) for o in oracle)
        if expect_sizes is not None:
            assert got_sizes == expect_sizes
        oracle_keyed = {min(o): o for o in oracle}
        for cls in classes:
            assert set(cls.members) == oracle_keyed[cls.members[0]]
    print("ACCEPTANCE 5 PASS: classification matches the exhaustive oracle")


def test_criterion_6_triviality_iff_identity_holonomy():
    c3 = tk.build_nerve(3, [(0, 1), (0, 2), (1, 2)])
    checked = 0
    for name in ("cyclic(2)", "cyclic(3)", "symmetric(3)"):
        group = tk.catalog_group(name)
        for c in enumerate_cocycles(c3, group):
            trivial = not isinstance(tk.find_trivialization(c), NotTrivial)
            hol = tk.holonomy(c, [0, 1, 2, 0])
            # independent oracle: brute force over all cochains
            brute = any(
                all(
                    c.g[(i, j)] == group.mul(h[i], group.inv(h[j]))
                    for (i, j) in c3.edges
                )
                for h in itertools.product(group.elements(), repeat=3)
            )
            assert trivial == (hol == group.identity) == brute
            checked += 1
    assert checked == 8 + 27 + 216
    print(f"ACCEPTANCE 6 PASS: triviality equals identity holonomy on {checked} cocycles")


def _oracle_section_counts(group, twist):
    """Independent enumeration of compatible families on the pseudocircle.

    Components and restrictions are recomputed from scratch here: sections
    over an arc are single group values (arcs are connected), sections over
    the overlap are pairs (one per isolated open point).
    """
    arcs = [(0, 1, 2), (0, 1, 3)]
    counts = {}
    # over an arc U_i: families (s_i on U_i, s_j on U_i n U_j = overlap)
    for which in (0, 1):
        n = 0
        for s_own in group.elements():
            for s_other in itertools.product(group.elements(), repeat=2):
                own_pair = (s_own, s_own)  # constant restricted to two points
                g_pair = (group.identity, twist)
                if which == 0:
                    lhs, rhs = own_pair, s_other
                else:
                    lhs, rhs = s_other, own_pair
                if all(
                    lhs[c] == group.mul(g_pair[c], rhs[c]) for c in range(2)
                ):
                    n += 1
        counts[arcs[which]] = n
    # over X: both coordinates are constants
    n = 0
    for s1 in group.elements():
        for s2 in group.elements():
            if all(s1 == group.mul(g, s2) for g in (group.identity, twist)):
                n += 1
    counts["X"] = n
    return counts


def test_criterion_7_global_obstruction():
    z2 = tk.catalog_group("cyclic(2)")
    psc = tk.pseudocircle()
    u1, u2 = psc.index_of((0, 1, 2)), psc.index_of((0, 1, 3))
    for twist, expected in ((1, (2, 2, 0)), (0, (2, 2, 2))):
        torsor = tk.glue_from_cocycle(tk.pseudocircle_descent_datum(z2, twist))
        got = (
            len(tk.sections(torsor, u1)),
            len(tk.sections(torsor, u2)),
            len(tk.global_sections(torsor)),
        )
        assert got == expected
        oracle = _oracle_section_counts(z2, twist)
        assert got == (oracle[(0, 1, 2)], oracle[(0, 1, 3)], oracle["X"])
    print("ACCEPTANCE 7 PASS: twisted (2,2,0) and trivial (2,2,2) section counts")


def test_criterion_8_descent_round_trip():
    rng = random.Random(2024)
    psc = tk.pseudocircle()
    three_arm = tk.close_under_ops(4, [(0, 1), (0, 2), (0, 3)])
    group_names = ("cyclic(2)", "cyclic(3)", "symmetric(3)")
    done = 0
    for trial in range(20):
        group = tk.catalog_group(group_names[trial % 3])
        if trial % 2 == 0:
            space = psc
            gs = tk.constant_group_sheaf(space, group)
            cover = (space.index_of((0, 1, 2)), space.index_of((0, 1, 3)))
            w = space.intersection_index(*cover)
            transition = {(0, 1): rng.randrange(gs.sets.sizes[w])}
        else:
            space = three_arm
            gs = tk.constant_group_sheaf(space, group)
            cover = (
                space.index_of((0, 1)),
                space.index_of((0, 2)),
                space.index_of((0, 3)),
            )
            g01 = rng.randrange(group.order)
            g12 = rng.randrange(group.order)
            transition = {
                (0, 1): g01,
                (1, 2): g12,
                (0, 2): group.mul(g01, g12),
            }
        datum = tk.build_descent_datum(gs, cover, transition)
        torsor = tk.glue_from_cocycle(datum)
        chosen = [rng.randrange(torsor.sets.sizes[c]) for c in cover]
        extracted = tk.extract_cocycle(torsor, cover, chosen)

        # direct substitution: some sheaf cochain h satisfies the coboundary
        # formula g'_ij = h_i g_ij h_j^-1 edgewise on every overlap
        pairs = [
            (i, j)
            for i in range(len(cover))
            for j in range(i + 1, len(cover))
        ]
        found = False
        for h in itertools.product(*(gs.sections(u) for u in cover)):
            ok = True
            for i, j in pairs:
                w = space.intersection_index(cover[i], cover[j])
                grp = gs.groups[w]
                hi = gs.restrict_section(cover[i], h[i], w)
                hj = gs.restrict_section(cover[j], h[j], w)
                want = grp.mul(grp.mul(hi, datum.value(i, j)), grp.inv(hj))
                if extracted.value(i, j) != want:
                    ok = False
                    break
            if ok:
                found = True
                break
        assert found, f"round trip {trial} is not coboundary-equivalent"
        done += 1
    assert done == 20
    print("ACCEPTANCE 8 PASS: 20 seeded descent round trips are coboundary-equivalent")


def test_criterion_9_one_point_degeneration():
    s3 = tk.catalog_group("symmetric(3)")
    catalog = [
        tk.affine_torsor(2, 1),
        tk.affine_torsor(3, 1),
        tk.affine_torsor(2, 2),
        tk.affine_torsor(3, 2),
        tk.basis_torsor(2, 2),
        tk.solution_torsor(tk.prime_field_matrix(3, [[1, 1]]), [1]),
    ]
    for sub in all_subgroups(s3):
        for g in s3.elements():
            catalog.append(tk.coset_torsor(s3, sub, g))
    for torsor in catalog:
        lifted = tk.lift_point_torsor(torsor)
        assert tk.is_sheaf_torsor(lifted.action).passed

    z2 = tk.catalog_group("cyclic(2)")
    broken = [
        tk.build_action(z2, 2, [[0, 1], [0, 1]]),              # trivial: not free
        tk.coset_action(s3, tk.build_subgroup(s3, [0, 2])),    # not free
        tk.build_action(z2, 4, [[0, 1, 2, 3], [1, 0, 3, 2]]),  # not transitive
    ]
    for action in broken:
        rep = tk.is_sheaf_torsor(tk.lift_point_action(action))
        assert not rep.passed
        assert rep.witnesses
    print(
        f"ACCEPTANCE 9 PASS: {len(catalog)} lifted torsors pass, "
        f"{len(broken)} broken actions fail with witnesses"
    )


def test_criterion_10_cli_determinism(tmp_path):
    gen = tmp_path / "gen"
    gen.mkdir()
    for name, argv in GENERATE_CASES:
        first, second = gen / name, gen / ("again_" + name)
        code1, out1, _ = run_cli(argv + ["-o", str(first)])
        code2, out2, _ = run_cli(argv + ["-o", str(second)])
        assert code1 == code2 == 0
        assert out1 == out2
        body = first.read_bytes()
        assert body == second.read_bytes()
        assert body == (GOLDEN / name).read_bytes()
    for name, argv, expected_code in REPORT_CASES:
        argv = [a.format(gen=gen) for a in argv]
        code1, out1, _ = run_cli(argv)
        code2, out2, _ = run_cli(argv)
        assert code1 == code2 == expected_code
        assert out1 == out2
        assert out1 == (GOLDEN / name).read_text(encoding="utf-8")
    print(
        f"ACCEPTANCE 10 PASS: {len(GENERATE_CASES)} generate families and "
        f"{len(REPORT_CASES)} check/query verbs are byte-identical across runs"
    )
