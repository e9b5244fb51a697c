"""Prime-field solving and the four example torsor families."""

import itertools
import time

import pytest

import torsorkit as tk
from torsorkit.actions import _regular_at
from torsorkit.errors import (
    DimensionMismatch,
    EmptySolutionSet,
    MalformedTable,
    Mismatch,
    NotPrime,
    TooLarge,
)


def brute_solutions(p, rows, w):
    """Enumerate all of F_p^cols and keep the solutions; the test-side oracle."""
    cols = len(rows[0])
    out = []
    for vec in itertools.product(range(p), repeat=cols):
        if all(sum(r[j] * vec[j] for j in range(cols)) % p == wi for r, wi in zip(rows, w)):
            out.append(vec)
    return out


def test_prime_field_matrix_reduces():
    T = tk.prime_field_matrix(3, [[4, -1]])
    assert T.entries == ((1, 2),)


def test_prime_field_matrix_rejects_composite():
    with pytest.raises(NotPrime):
        tk.prime_field_matrix(4, [[1]])


def test_gaussian_solve_line_in_f3():
    T = tk.prime_field_matrix(3, [[1, 1]])
    res = tk.gaussian_solve(T, [1])
    assert res.particular == (1, 0)
    assert res.kernel_basis == ((2, 1),)
    assert res.kernel_size == 3
    # frozen from the 9-vector enumeration oracle
    assert brute_solutions(3, [[1, 1]], [1]) == [(0, 1), (1, 0), (2, 2)]


def test_gaussian_solve_invertible_f2():
    T = tk.prime_field_matrix(2, [[1, 0], [0, 1]])
    res = tk.gaussian_solve(T, [1, 1])
    assert res.particular == (1, 1)
    assert res.kernel_basis == ()
    assert res.kernel_size == 1


def test_gaussian_solve_inconsistent():
    T = tk.prime_field_matrix(2, [[0, 0]])
    res = tk.gaussian_solve(T, [1])
    assert res.particular is None
    assert res.kernel_size == 4


def test_gaussian_solve_dimension_mismatch():
    T = tk.prime_field_matrix(2, [[1, 0]])
    with pytest.raises(DimensionMismatch):
        tk.gaussian_solve(T, [1, 0])


def test_gaussian_pivot_pattern_strictly_increasing():
    T = tk.prime_field_matrix(5, [[1, 2, 3, 4], [2, 4, 1, 3]])
    res = tk.gaussian_solve(T, [0, 0])
    basis = res.kernel_basis
    # each vector owns one free column: entry 1 there, all other vectors 0
    free_positions = []
    for k, vec in enumerate(basis):
        owned = [
            i
            for i, v in enumerate(vec)
            if v == 1 and all(other[i] == 0 for m, other in enumerate(basis) if m != k)
        ]
        assert owned
        free_positions.append(owned[-1])
    assert free_positions == sorted(free_positions)
    assert len(set(free_positions)) == len(free_positions)


@pytest.mark.parametrize("p,rows,w", [
    (2, [[1, 1, 0], [0, 1, 1]], [1, 0]),
    (3, [[1, 2], [2, 1]], [1, 1]),
    (3, [[0, 0]], [0]),
    (5, [[1, 2, 3]], [4]),
])
def test_gaussian_solve_against_enumeration(p, rows, w):
    T = tk.prime_field_matrix(p, rows)
    res = tk.gaussian_solve(T, w)
    expected = brute_solutions(p, rows, w)
    if expected:
        assert res.particular in expected
        assert res.kernel_size == len(expected)
    else:
        assert res.particular is None


def test_affine_torsor_small(z3):
    t = tk.affine_torsor(3, 1)
    assert t.set_size == 3
    assert t.act == tk.build_action(z3, 3, z3.cayley).act


def test_affine_torsor_9_points_trivial_stabilizers():
    t = tk.affine_torsor(3, 2)
    assert t.set_size == 9
    for x in range(9):
        assert tk.stabilizer(t.action, x) == (t.group.identity,)


def test_affine_torsor_2_cubed():
    t = tk.affine_torsor(2, 3)
    assert t.set_size == 8
    assert t.group.order == 8


def test_affine_space_axioms_exhaustively():
    # a+0=a, (a+v)+w=a+(v+w), unique difference, directly on the tables
    t = tk.affine_torsor(2, 2)
    e = t.group.identity
    for a in range(4):
        assert t.act[e][a] == a
    for v in range(4):
        for w in range(4):
            for a in range(4):
                assert t.act[w][t.act[v][a]] == t.act[t.group.cayley[w][v]][a]
    for a in range(4):
        for b in range(4):
            diffs = [v for v in range(4) if t.act[v][a] == b]
            assert len(diffs) == 1


def test_affine_torsor_guards():
    with pytest.raises(NotPrime):
        tk.affine_torsor(4, 1)
    with pytest.raises(TooLarge):
        tk.affine_torsor(2, 9)


@pytest.mark.parametrize("p,n,data", [
    (2, 9, {"size": 512, "budget": 256}),  # p^n below 2^2048 is formed and named
    (3, 10**9, {"p": 3, "n": 10**9, "budget": 256}),  # past it p^n is never formed
    (1000000007, 500, {"p": 1000000007, "n": 500, "budget": 256}),  # a 4500-digit p^n would not even print
])
def test_affine_guard_decides_from_the_exponent_first(p, n, data):
    with pytest.raises(TooLarge) as exc:
        tk.affine_torsor(p, n)
    assert exc.value.data == data
    assert "exceeds 256" in str(exc.value)


def test_solution_torsor_line_in_f3():
    T = tk.prime_field_matrix(3, [[1, 1]])
    t = tk.solution_torsor(T, [1])
    assert t.set_size == 3
    assert t.group.order == 3


def test_solution_torsor_unique_solution():
    T = tk.prime_field_matrix(2, [[1, 0], [0, 1]])
    t = tk.solution_torsor(T, [0, 0])
    assert t.set_size == 1
    assert t.group.order == 1


def test_solution_torsor_empty():
    T = tk.prime_field_matrix(2, [[0, 0]])
    with pytest.raises(EmptySolutionSet):
        tk.solution_torsor(T, [1])


def test_solution_torsor_order_1024():
    # 2^11 vectors, a kernel of order 1024: validation is O(n^2 log n), so this is quick
    t = tk.solution_torsor(tk.prime_field_matrix(2, [[1] * 11]), [1])
    assert t.group.order == t.set_size == 1024
    assert len(t.group.cayley) == 1024


def test_solution_torsor_too_large():
    T = tk.prime_field_matrix(2, [[1] * 13])
    with pytest.raises(TooLarge):
        tk.solution_torsor(T, [1])


@pytest.mark.parametrize("p,cols,data", [
    (2, 13, {"size": 2**13, "budget": 4096}),
    (2, 14, {"size": 2**14, "budget": 4096}),
    (1000000007, 500, {"p": 1000000007, "n": 500, "budget": 4096}),
])
def test_solution_guard_decides_from_the_exponent_first(p, cols, data):
    with pytest.raises(TooLarge) as exc:
        tk.solution_torsor(tk.prime_field_matrix(p, [[1] * cols]), [1])
    assert exc.value.data == data
    assert "exceeds 4096" in str(exc.value)


@pytest.mark.parametrize("p,rows,w", [
    (2, [[1, 1, 0], [0, 1, 1]], [1, 0]),
    (3, [[1, 2], [2, 1]], [1, 2]),
    (3, [[1, 0, 2]], [2]),
])
def test_solution_count_matches_kernel_size(p, rows, w):
    T = tk.prime_field_matrix(p, rows)
    t = tk.solution_torsor(T, w)
    assert t.set_size == tk.gaussian_solve(T, w).kernel_size
    assert t.set_size == len(brute_solutions(p, rows, w))


def test_coset_torsor_s3(s3):
    # identity plus the transposition of the first two letters, translated by
    # the transposition of the outer letters: a 2-point torsor
    H = tk.build_subgroup(s3, [0, 2])
    t = tk.coset_torsor(s3, H, 5)
    assert t.set_size == 2
    assert t.group.order == 2


def test_coset_torsor_whole_group(s3):
    H = tk.build_subgroup(s3, range(6))
    t = tk.coset_torsor(s3, H, s3.identity)
    assert t.set_size == 6


def test_coset_torsor_trivial_subgroup(s3):
    H = tk.trivial_subgroup(s3)
    for g in range(6):
        assert tk.coset_torsor(s3, H, g).set_size == 1


@pytest.mark.parametrize("group,parent,members", [
    ("symmetric(4)", "cyclic(4)", [0, 1, 2, 3]),  # members in range: read as elements of S4
    ("cyclic(4)", "symmetric(3)", [0, 3, 4]),     # members out of range for C4
    ("symmetric(4)", "symmetric(3)", [0, 1]),     # silently read as elements of S4
])
def test_coset_torsor_rejects_a_subgroup_of_another_group(group, parent, members):
    H = tk.build_subgroup(tk.catalog_group(parent), members)
    with pytest.raises(Mismatch):
        tk.coset_torsor(tk.catalog_group(group), H, 0)


def test_cosets_partition_the_group(s3):
    for members in ([0, 1], [0, 2], [0, 5], [0, 3, 4]):
        H = tk.build_subgroup(s3, members)
        cosets = tk.coset_list(s3, H)
        assert all(len(c) == len(members) for c in cosets)
        flat = sorted(x for c in cosets for x in c)
        assert flat == list(range(6))


def test_basis_torsor_2_2():
    t = tk.basis_torsor(2, 2)
    assert t.set_size == 6
    assert t.group.order == 6


def test_basis_torsor_3_2_counts():
    t = tk.basis_torsor(3, 2)
    assert t.set_size == 48
    # independent oracle: brute-force count of invertible 2x2 matrices mod 3
    count = 0
    for a, b, c, d in itertools.product(range(3), repeat=4):
        if (a * d - b * c) % 3:
            count += 1
    assert count == 48 == tk.count_ordered_bases(3, 2)


def test_basis_torsor_identity_fixes_standard_basis():
    t = tk.basis_torsor(2, 2)
    e = t.group.identity
    for x in range(t.set_size):
        assert t.act[e][x] == x
    free, _ = tk.is_free(t.action)
    assert free


def test_basis_torsor_2_3_boundary():
    # the largest supported basis family
    t = tk.basis_torsor(2, 3)
    assert t.set_size == t.group.order == tk.count_ordered_bases(2, 3) == 168


def test_affine_torsor_guard_boundary():
    assert tk.affine_torsor(2, 8).set_size == 256


@pytest.mark.parametrize("p,n,order", [(2, 3, 168), (2, 1, 1), (5, 1, 4), (509, 1, 508)])
def test_basis_torsor_within_the_matrix_bound(p, n, order):
    # p^(n*n) <= BASIS_MAX_MATRICES = 512; for n = 1, GL_1(F_p) = F_p^* acting on the nonzero scalars
    t = tk.basis_torsor(p, n)
    assert t.group.order == t.set_size == order == tk.count_ordered_bases(p, n)


@pytest.mark.parametrize("p,n,fields", [
    pytest.param(5, 2, {"size": 625}, id="5-2"),
    pytest.param(2, 4, {"size": 2**16}, id="2-4"),
    pytest.param(521, 1, {"size": 521}, id="521-1"),
    pytest.param(3, 3, {"size": 3**9}, id="3-3"),
    # p and n are named once p^(n*n) would pass 2^2048, and the power is never formed
    pytest.param(2, 10**9, {"p": 2, "n": 10**9}, id="2-1000000000"),
    pytest.param(1000000007, 500, {"p": 1000000007, "n": 500}, id="1000000007-500"),
])
def test_basis_torsor_past_the_matrix_bound_names_p_and_n(p, n, fields):
    start = time.perf_counter()
    with pytest.raises(TooLarge) as exc:
        tk.basis_torsor(p, n)
    assert time.perf_counter() - start < 1
    assert exc.value.data == {**fields, "budget": 512}
    assert "exceeds 512" in str(exc.value)


def test_basis_torsor_guards():
    with pytest.raises(TooLarge):
        tk.basis_torsor(5, 2)
    with pytest.raises(TooLarge):
        tk.basis_torsor(2, 4)
    with pytest.raises(NotPrime):
        tk.basis_torsor(4, 2)


def _constructor_outputs(s3):
    return [
        tk.affine_torsor(2, 2),
        tk.solution_torsor(tk.prime_field_matrix(3, [[1, 1]]), [1]),
        tk.coset_torsor(s3, tk.build_subgroup(s3, [0, 2]), 5),
        tk.basis_torsor(2, 2),
    ]


def test_every_constructor_output_is_validated(s3):
    # each family re-validates through as_torsor on its own action, and its carried
    # group and action tables pass the validators that decide outside input
    for t in _constructor_outputs(s3):
        assert tk.as_torsor(t.action).set_size == t.set_size
        assert tk.build_group(t.group.order, t.group.cayley) == t.group
        assert tk.build_action(t.group, t.set_size, t.act).act == t.act


def test_every_constructor_is_the_regular_action_at_each_basepoint(s3):
    # choosing x0 identifies the torsor with its group acting on itself through g -> g.x0
    more = [tk.basis_torsor(3, 2), tk.coset_torsor(s3, tk.build_subgroup(s3, [0, 3, 4]), 1)]
    for t in _constructor_outputs(s3) + more:
        for x0 in range(t.set_size):
            assert _regular_at(t.group, tk.trivialization(t, x0).to_points).act == t.act


@pytest.mark.parametrize("p", [3.0, "3", True])
def test_prime_must_be_an_integer(p):
    with pytest.raises(MalformedTable):
        tk.prime_field_matrix(p, [[1, 1]])


@pytest.mark.parametrize("entry", [1.5, "1", True])
def test_matrix_entries_must_be_integers(entry):
    with pytest.raises(MalformedTable) as exc:
        tk.prime_field_matrix(3, [[1, 1], [0, entry]])
    assert exc.value.data == {"row": 1, "position": 1}


@pytest.mark.parametrize("solve", [tk.gaussian_solve, tk.solution_torsor])
@pytest.mark.parametrize("rhs", [[1.9], ["1"], [False]])
def test_rhs_entries_must_be_integers(solve, rhs):
    with pytest.raises(MalformedTable) as exc:
        solve(tk.prime_field_matrix(3, [[1, 1]]), rhs)
    assert exc.value.data == {"position": 0}


def _trial_division(p):
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def test_is_prime_equals_trial_division_below_ten_to_the_fifth():
    assert [p for p in range(-3, 10**5) if tk.is_prime(p)] == [p for p in range(-3, 10**5) if _trial_division(p)]


@pytest.mark.parametrize("n", [
    3215031751,                # strong pseudoprime to the bases 2, 3, 5, 7
    3825123056546413051,       # ... to the first 9 prime bases, 2 to 23
    318665857834031151167461,  # ... to the first 12 prime bases, 2 to 37
])
def test_is_prime_reports_strong_pseudoprimes_composite(n):
    assert not tk.is_prime(n)


def test_is_prime_decides_large_primes_and_stops_at_its_bound():
    import numpy as np

    bound = 3317044064679887385961981  # the least strong pseudoprime to the first 13 prime bases
    assert tk.is_prime(10**18 + 3) and tk.is_prime(2**61 - 1) and tk.is_prime(np.int64(2**31 - 1))
    assert not tk.is_prime((2**31 - 1) * (2**19 - 1))
    for n in (bound, bound + 2, 10**100):
        with pytest.raises(TooLarge) as exc:
            tk.is_prime(n)
        assert exc.value.data == {"p": n, "bound": bound}
    with pytest.raises(TypeError):
        tk.is_prime(7.0)
