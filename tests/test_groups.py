import copy
import io
import json
import pickle
import random
from fractions import Fraction
from math import isqrt, prod
from time import perf_counter

import pytest
from hypothesis import given, strategies as st

from abelcover import (
    AbelianGroup,
    BranchDatum,
    CombinatorialData,
    GorensteinChecks,
    ValidationIssue,
    build_fiber_ring,
    classify,
    kernel_K,
    ramification_factorization,
    smith_normal_form,
    solve_character_congruences,
    sum_map,
    validate,
)
import abelcover.cover
import abelcover.groups
from abelcover.cli import EXIT_INTERNAL, ExampleEntry, main, parse_input
from abelcover.groups import (
    _Frozen, _fold_pivots, _hermite, _hermite_fold, closure, proven_prime)
from helpers import (
    assert_snf_contract,
    brute_character_solutions,
    brute_element_order,
    brute_image,
    brute_kernel,
    character_value,
    characters_of,
    elements_of,
    identity,
    lex_least_in_coset,
    random_data,
    random_group,
    reference_hermite,
    reference_smith_normal_form,
)

matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda m: st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-30, max_value=30), min_size=n, max_size=n),
            min_size=m, max_size=m)))


def snf_with_reference(A):
    """(U, D, V) of the reference, after asserting that the package's (D, V)
    equals the reference's; the package builds no U."""
    D, V = smith_normal_form(A)
    U, D_ref, V_ref = reference_smith_normal_form(A)
    assert (D, V) == (D_ref, V_ref), A
    return U, D, V


class TestSmithNormalForm:
    def test_identity(self):
        I2 = [[1, 0], [0, 1]]
        U, D, V = snf_with_reference(I2)
        assert (U, D, V) == (I2, I2, I2)

    def test_one_by_one(self):
        _, D, _ = snf_with_reference([[3]])
        assert D == [[3]]

    def test_two_by_two(self):
        A = [[2, 4], [6, 8]]
        U, D, V = snf_with_reference(A)
        assert [D[0][0], D[1][1]] == [2, 4]
        assert_snf_contract(A, U, D, V)

    def test_zero_matrix(self):
        A = [[0, 0], [0, 0]]
        U, D, V = snf_with_reference(A)
        assert_snf_contract(A, U, D, V)
        assert D == A

    def test_rectangular(self):
        A = [[6, 10, 15]]
        U, D, V = snf_with_reference(A)
        assert_snf_contract(A, U, D, V)
        assert D[0][0] == 1

    def test_empty(self):
        U, D, V = snf_with_reference([])
        assert (U, D, V) == ([], [], [])

    @given(matrices)
    def test_contract_random(self, A):
        U, D, V = snf_with_reference(A)
        assert_snf_contract(A, U, D, V)

    def test_diagonal_matches_sympy(self):
        # Differential check against an independent implementation.
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        rng = random.Random(83)
        shapes = [(0, 0), (1, 0), (3, 0)]
        shapes += [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(150)]
        for m, n in shapes:
            if m and n and rng.random() < 0.5:
                # low rank: a product through an inner dimension k < min(m, n)
                k = rng.randint(0, min(m, n) - 1)
                B = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(m)]
                C = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)]
                A = [[sum(B[i][t] * C[t][j] for t in range(k)) for j in range(n)]
                     for i in range(m)]
            else:
                A = [[rng.randint(-40, 40) for _ in range(n)] for _ in range(m)]
            U, D, V = snf_with_reference(A)
            if m and n:
                assert_snf_contract(A, U, D, V)
            diag = [D[k][k] for k in range(min(m, n))]
            flat = [x for row in A for x in row]
            expected = invariant_factors(sympy.Matrix(m, n, flat), domain=sympy.ZZ)
            assert [d for d in diag if d] == [int(x) for x in expected if x], A


class TestElementOrder:
    def test_standard_generator(self):
        G = AbelianGroup((2, 2, 2))
        assert G.element((1, 0, 0)).order() == 2

    def test_identity(self):
        for moduli in ((), (4,), (2, 3, 5)):
            G = AbelianGroup(moduli)
            assert identity(G).order() == 1

    def test_z105(self):
        G = AbelianGroup((105,))
        assert G.element((5,)).order() == 21

    @given(st.lists(st.integers(min_value=2, max_value=9), min_size=1, max_size=3),
           st.integers(min_value=0, max_value=10**6))
    def test_matches_brute_force(self, moduli, seed):
        G = AbelianGroup(moduli)
        rng = random.Random(seed)
        e = G.element([rng.randrange(m) for m in moduli])
        assert e.order() == brute_element_order(e)


def sum_map_data(group: AbelianGroup, generators) -> CombinatorialData:
    """Data whose sum map sends the i-th standard generator of
    H = Z/d_1 + ... + Z/d_s to generators[i], d_i = ord(generators[i])."""
    return CombinatorialData(group, tuple(BranchDatum(g, 1) for g in generators))


class TestProvenPrime:
    def test_agrees_with_a_sieve(self):
        n = 2 * 10**5
        sieve = bytearray([1]) * n
        sieve[:2] = b"\0\0"
        for p in range(2, int(n**0.5) + 1):
            if sieve[p]:
                sieve[p * p::p] = bytes(len(range(p * p, n, p)))
        assert [k for k in range(n) if proven_prime(k)] == [k for k in range(n) if sieve[k]]
        assert not any(proven_prime(k) for k in range(-5, 2))

    @pytest.mark.parametrize("n, factors", [
        # Strong pseudoprimes to the bases 2..7, 2..23 and 2..37.
        (3215031751, (151, 751, 28351)),
        (3825123056546413051, (149491, 747451, 34233211)),
        (318665857834031151167461, (399165290221, 798330580441)),
    ])
    def test_rejects_strong_pseudoprimes(self, n, factors):
        assert prod(factors) == n
        assert not proven_prime(n)

    def test_nothing_proven_at_or_past_the_bound(self):
        # The bound is a strong pseudoprime to every base 2..41, so the test
        # would pass it; it is refused, and so is every prime past it.
        sympy = pytest.importorskip("sympy")
        bound = abelcover.groups._PRIME_BOUND
        assert bound == 3317044064679887385961981 == 1287836182261 * 2575672364521
        assert not proven_prime(bound)
        assert proven_prime(sympy.prevprime(bound))
        assert not proven_prime(sympy.nextprime(bound))
        assert not proven_prime(2**89 - 1)

    @given(st.integers(min_value=2, max_value=3317044064679887385961980))
    def test_agrees_with_sympy_below_the_bound(self, n):
        # A uniform draw is nearly always composite, so the next prime and a
        # product of two primes near the square root are tried as well.
        sympy = pytest.importorskip("sympy")
        p, q = sympy.nextprime(n // 2), sympy.nextprime(isqrt(n))
        for k in (n, p, q * sympy.nextprime(q)):
            if k < 3317044064679887385961981:
                assert proven_prime(k) == sympy.isprime(k), k


class TestKernelAndImage:
    """Kernel and image of sum maps, read from their presentation."""

    def test_injective_hom(self):
        G = AbelianGroup((8,))
        pres = ramification_factorization(sum_map_data(G, [G.element((2,))]))
        assert pres.kernel_gens == () and pres.kernel_order == 1

    def test_diagonal_sum_on_z3(self):
        Z3 = AbelianGroup((3,))
        data = sum_map_data(Z3, [Z3.element((1,)), Z3.element((1,))])
        pres = ramification_factorization(data)
        assert pres.kernel_order == 3
        generated = set(closure((3, 3), pres.kernel_gens))
        assert generated == {(0, 0), (1, 2), (2, 1)}

    def test_z2cubed_kernel(self):
        G = AbelianGroup((2, 2, 2))
        e1, e2, e3 = G.generators()
        pres = ramification_factorization(sum_map_data(G, [e1, e2, e3, e1 + e2 + e3]))
        assert pres.kernel_order == 2
        assert set(pres.kernel_gens) == {(1, 1, 1, 1)}

    def test_zero_hom_image(self):
        pres = ramification_factorization(CombinatorialData(AbelianGroup((4,)), ()))
        assert pres.kernel_gens == () and pres.image_order == 1
        assert pres.etale_index == 4

    def test_zpqr_image_full(self):
        G = AbelianGroup((105,))
        pres = ramification_factorization(sum_map_data(G, [G.element((5,)), G.element((7,))]))
        assert pres.image_order == 105

    def test_single_datum_image(self):
        G = AbelianGroup((105,))
        pres = ramification_factorization(sum_map_data(G, [G.element((5,))]))
        assert pres.image_order == 21

    @given(st.integers(min_value=0, max_value=10**6))
    def test_random_homs_against_enumeration(self, seed):
        rng = random.Random(seed)
        tgt = AbelianGroup(tuple(rng.choice((2, 3, 4, 6)) for _ in range(rng.randint(1, 2))))
        nonzero = [e for e in elements_of(tgt) if any(e.residues)]
        data = sum_map_data(tgt, [rng.choice(nonzero) for _ in range(rng.randint(1, 3))])
        pres = ramification_factorization(data)
        kernel = brute_kernel(data)
        assert pres.kernel_order * pres.image_order == prod(data.orders)
        assert set(pres.kernel_gens) <= kernel
        generated = closure(data.orders, pres.kernel_gens)
        assert set(generated) == kernel
        assert pres.image_order == len(brute_image(data))


class TestHermite:
    """The Hermite basis behind subgroup orders and the lex-least reduction."""

    def check(self, moduli, vectors, rows=None):
        if rows is None:
            rows = _hermite(moduli, vectors)
        subgroup = set(closure(moduli, vectors))
        for k, row in enumerate(rows):
            assert not any(row[:k]) and row[k] > 0 and moduli[k] % row[k] == 0
            assert tuple(x % m for x, m in zip(row, moduli)) in subgroup
        assert prod(moduli) // prod(row[k] for k, row in enumerate(rows)) == len(subgroup)

    def test_pivot_multiple(self):
        # <(2, 1)> in Z/4 + Z/4 has order 4: 2 * (2, 1) = (0, 2) is zero in
        # the first column but not in the second, so the second pivot is 2.
        assert _hermite((4, 4), [[2, 1]]) == [[2, 1], [0, 2]]
        self.check((4, 4), [[2, 1]])

    @given(st.lists(st.integers(min_value=2, max_value=16), min_size=1, max_size=4),
           st.integers(min_value=0, max_value=10**6))
    def test_subgroup_order_and_shape(self, moduli, seed):
        if prod(moduli) > 4096:
            return
        rng = random.Random(seed)
        # Drawn past [0, m) and reduced, as _hermite requires.
        self.check(tuple(moduli), [[rng.randrange(-m, 2 * m) % m for m in moduli]
                                   for _ in range(rng.randint(0, 4))])

    @given(st.data())
    def test_fold_one_vector_at_a_time(self, data):
        # Composite moduli make pivots that are proper divisors, the case
        # where a Howell form would need an extra row.
        moduli = tuple(data.draw(st.lists(
            st.integers(min_value=2, max_value=36), min_size=1, max_size=4).filter(
                lambda ms: prod(ms) <= 4096)))
        vectors = data.draw(st.lists(
            st.tuples(*(st.integers(min_value=0, max_value=m - 1) for m in moduli)).map(list),
            max_size=6))
        rows = _hermite(moduli, [])  # diag(moduli)
        for t, v in enumerate(vectors):
            pivots = _fold_pivots(moduli, rows, v)
            parent, snapshot = rows, [list(row) for row in rows]
            rows = _hermite_fold(moduli, parent, v)
            assert parent == snapshot  # a walk folds siblings into one parent
            assert pivots == prod(row[k] for k, row in enumerate(rows))
            self.check(moduli, vectors[:t + 1], rows)
        assert rows == _hermite(moduli, vectors)

    @given(st.data())
    def test_rows_match_the_reference(self, data):
        # The fold expects reduced vectors and stops once its vector
        # vanishes; its rows must still be the reference's, to the bit.
        shape = data.draw(st.sampled_from(("coordinates", "prime", "composite")))
        if shape == "coordinates":
            # (Z/2)^r with the coordinate lines and the diagonal, in any
            # order: a line that opens a fresh pivot stops there.
            r = data.draw(st.integers(min_value=1, max_value=12))
            moduli = (2,) * r
            lines = [[int(i == j) for j in range(r)] for i in range(r)] + [[1] * r]
            vectors = data.draw(st.permutations(lines))
        elif shape == "prime":
            # (Z/p)^3 with up to 12 lines: most folds divide by a pivot
            # that an earlier line opened.
            p = data.draw(st.sampled_from((2, 3, 5, 7, 101, 10007)))
            moduli = (p,) * 3
            vectors = data.draw(st.lists(
                st.lists(st.integers(min_value=0, max_value=p - 1), min_size=3, max_size=3),
                max_size=12))
        else:
            # Composite moduli: a gcd step can leave a nonzero vector.
            moduli = tuple(data.draw(st.lists(
                st.sampled_from((4, 6, 8, 9, 12, 16, 36)), min_size=1, max_size=4)))
            vectors = data.draw(st.lists(
                st.tuples(*(st.integers(min_value=0, max_value=m - 1) for m in moduli)).map(list),
                max_size=6))
        assert _hermite(moduli, vectors) == reference_hermite(moduli, vectors)

    def test_callers_pass_reduced_vectors(self, monkeypatch):
        # The fold reduces no vector it is handed: the presentation, the
        # support walk and the lift must hand it reduced ones.
        def check(moduli, v):
            assert len(v) == len(moduli)
            assert all(0 <= x < m for x, m in zip(v, moduli)), (moduli, v)

        real_hermite, real_fold = abelcover.groups._hermite, abelcover.groups._hermite_fold
        real_pivots = abelcover.groups._fold_pivots

        def hermite(moduli, vectors):
            vectors = list(vectors)
            for v in vectors:
                check(moduli, v)
            return real_hermite(moduli, vectors)

        def fold(moduli, rows, v):
            check(moduli, v)
            return real_fold(moduli, rows, v)

        def pivots(moduli, rows, v):
            check(moduli, v)
            return real_pivots(moduli, rows, v)

        for module in (abelcover.groups, abelcover.cover):
            monkeypatch.setattr(module, "_hermite", hermite)
            monkeypatch.setattr(module, "_hermite_fold", fold)
            monkeypatch.setattr(module, "_fold_pivots", pivots)
        rng = random.Random(23)
        for _ in range(40):
            classify(random_data(rng, random_group(rng, max_order=512), max_branch=5, max_H=5000))
        # Unvalidated data with a trivial generator: its unit entry is 1 % 1.
        sum_map(CombinatorialData.from_residues((4, 2), [((0, 0), 0), ((1, 1), 1)]))


class TestCharacters:
    def test_character_count(self):
        G = AbelianGroup((2, 3, 4))
        assert len(list(characters_of(G))) == G.order

    def test_exponent(self):
        assert AbelianGroup(()).exponent == 1
        assert AbelianGroup((4, 6, 3)).exponent == 12


class TestSolveCharacterCongruences:
    def test_empty_constraints(self):
        G = AbelianGroup((2, 3))
        assert solve_character_congruences(G, []) == (0, 0)

    def test_z2cubed_system(self):
        G = AbelianGroup((2, 2, 2))
        e1, e2, e3 = G.generators()
        chi = solve_character_congruences(
            G, [(e1, 1, 2), (e2, 1, 2), (e3, 1, 2), (e1 + e2 + e3, 1, 2)])
        assert chi == (1, 1, 1)

    def test_contradiction(self):
        G = AbelianGroup((3,))
        one = G.element((1,))
        assert solve_character_congruences(
            G, [(one, 1, 3), (one, 2, 3)]) is None

    def test_lex_minimal_choice(self):
        # Constraining only the second coordinate leaves the first free:
        # the returned character must zero it.
        G = AbelianGroup((4, 4))
        g = G.element((0, 1))
        chi = solve_character_congruences(G, [(g, 1, 4)])
        assert chi == (0, 1)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_agrees_with_enumeration(self, seed):
        # Every group the solver once re-checked by brute force (|G| <= 512).
        rng = random.Random(seed)
        G = random_group(rng, max_order=512, max_rank=4)
        moduli = G.moduli
        k = rng.randint(1, 3)
        constraints = []
        if rng.random() < 0.5:
            # solvable by construction: read values off a hidden character
            hidden = tuple(rng.randrange(m) for m in moduli)
            for _ in range(k):
                g = G.element([rng.randrange(m) for m in moduli])
                constraints.append((g, int(character_value(hidden, g) * g.order())))
        else:
            for _ in range(k):
                g = G.element([rng.randrange(m) for m in moduli])
                constraints.append((g, rng.randrange(g.order())))
        solutions = brute_character_solutions(G, constraints)
        found = solve_character_congruences(G, [(g, a, g.order()) for g, a in constraints])
        if not solutions:
            assert found is None
        else:
            assert found is not None
            assert all(character_value(found, g) == Fraction(a, g.order()) % 1
                       for g, a in constraints)
            assert found == min(solutions)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_least_point_of_the_solution_coset(self, seed):
        rng = random.Random(seed)
        G = random_group(rng, max_order=512, max_rank=4)
        hidden = tuple(rng.randrange(m) for m in G.moduli)
        elements = [G.element([rng.randrange(m) for m in G.moduli])
                    for _ in range(rng.randint(1, 3))]
        found = solve_character_congruences(
            G, [(g, int(character_value(hidden, g) * g.order()), g.order()) for g in elements])
        homogeneous = brute_character_solutions(G, [(g, 0) for g in elements])
        assert found == lex_least_in_coset(G.moduli, hidden, homogeneous)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_certificate_is_a_reduced_residue_tuple(self, seed):
        # The back-substitution leaves each c_j in [0, pivot_j), pivot_j
        # dividing m_j, so the solver returns reduced residues.
        rng = random.Random(seed)
        data = random_data(rng, random_group(rng, max_order=512, max_rank=4), max_branch=5)
        chi = solve_character_congruences(
            data.group, [(datum.generator, datum.char_residue, datum.order)
                         for datum in data.branch])
        if chi is not None:
            assert type(chi) is tuple and len(chi) == data.group.rank
            assert all(type(c) is int and 0 <= c < m for c, m in zip(chi, data.group.moduli))

    def test_lex_least_past_the_old_coset_bound(self):
        # One constraint on (Z/1009)^3: the homogeneous solutions number
        # 1009^2 > 10^6, past the size at which the coset was enumerated.
        p = 1009
        G = AbelianGroup((p, p, p))
        g = G.element((5, 7, 11))
        start = perf_counter()
        chi = solve_character_congruences(G, [(g, 1, p)])
        elapsed = perf_counter() - start
        # Per coordinate, the least value that leaves sum c_j g_j = 1 (mod p)
        # solvable in the coordinates after it.
        expected, rest = [], 1
        for k, x in enumerate(g.residues):
            c = 0 if any(g.residues[k + 1:]) else rest * pow(x, -1, p) % p
            expected.append(c)
            rest = (rest - c * x) % p
        assert chi == tuple(expected) == (0, 0, 367)
        assert elapsed < 0.05, f"solve took {elapsed:.3f} s"

    def test_wide_system_is_fast(self):
        # 24 lines in (Z/10007)^12: no normal form with growing entries.
        p, r = 10007, 12
        rng = random.Random(12)
        G = AbelianGroup((p,) * r)
        hidden = tuple(rng.randrange(p) for _ in range(r))
        elements = [G.element([rng.randrange(p) for _ in range(r)]) for _ in range(2 * r)]
        constraints = [(g, int(character_value(hidden, g) * g.order()), g.order()) for g in elements]
        start = perf_counter()
        chi = solve_character_congruences(G, constraints)
        elapsed = perf_counter() - start
        assert chi is not None
        assert all(character_value(chi, g) == Fraction(a, d) % 1
                   for g, a, d in constraints)
        assert elapsed < 0.05, f"solvable solve took {elapsed:.3f} s"

        g, a, d = constraints[0]
        start = perf_counter()
        chi = solve_character_congruences(G, constraints + [(g, (a + 1) % d, d)])
        elapsed = perf_counter() - start
        assert chi is None
        assert elapsed < 0.05, f"unsolvable solve took {elapsed:.3f} s"

    def test_missed_solution_is_caught(self, capsys, monkeypatch):
        # A first Hermite pivot of L = 4 makes the solvable chi((1, 1)) = 1/4
        # on Z/4 + Z/2 look unsolvable.  The other Gorenstein routes of
        # classify find the point Gorenstein, so the CLI names the
        # disagreement and prints a reproducer instead of a traceback.
        real = abelcover.groups._hermite

        def widened_pivot(moduli, vectors):
            rows = real(moduli, vectors)
            rows[0][0] = moduli[0]
            return rows

        monkeypatch.setattr(abelcover.groups, "_hermite", widened_pivot)
        text = json.dumps({"group": [4, 2], "branch": [{"generator": [1, 1], "character": 1}]})
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["classify", "--json"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        message, reproducer = captured.err.splitlines()
        assert message.startswith("internal error: Gorenstein deciders disagree")
        assert parse_input(reproducer) == validate(parse_input(text))

    def test_unsolvable_needs_no_enumeration(self, monkeypatch):
        # A None is the answer of the Hermite basis alone: nothing walks G
        # to confirm it, even for a group small enough to walk.  `closure`
        # is the one enumerator of groups.
        def refuse(moduli, generators):
            raise AssertionError("closure used")

        monkeypatch.setattr(abelcover.groups, "closure", refuse)
        for moduli in ((3,), (4, 2), (8, 8, 8)):
            G = AbelianGroup(moduli)
            g = G.element((1,) * len(moduli))
            d = g.order()
            assert solve_character_congruences(G, [(g, 1, d), (g, 2, d)]) is None

    def test_bad_solution_is_caught(self, monkeypatch):
        # A Hermite basis with unit pivots reduces every particular solution
        # to the trivial character, which does not satisfy chi((1, 1)) = 1/4.
        monkeypatch.setattr(abelcover.groups, "_hermite", lambda moduli, vectors: [
            [int(i == j) for j in range(len(moduli))] for i in range(len(moduli))])
        G = AbelianGroup((4, 2))
        with pytest.raises(ArithmeticError, match="congruence solver produced a bad solution"):
            solve_character_congruences(G, [(G.element((1, 1)), 1, 4)])


def _zpqr(v: int) -> CombinatorialData:
    """The zpqr point on Z/(3*5*r) with r = 7, 11, ..."""
    r = 7 + 4 * v
    return validate(CombinatorialData.from_residues((15 * r,), [((5,), 1), ((r,), 1)]))


#: Per value class: a builder called with a variant number, and a field to
#: assign.  Two calls with one variant build equal values from fresh
#: objects; variants 0 and 1 build different values.
VALUE_CLASSES = {
    "AbelianGroup": (lambda v: AbelianGroup((2, 4 + 2 * v)), "moduli"),
    "Element": (lambda v: AbelianGroup((2, 4)).element((1, v)), "residues"),
    "BranchDatum": (lambda v: BranchDatum(AbelianGroup((5,)).element((1,)), 1 + v),
                    "char_residue"),
    "CombinatorialData": (_zpqr, "branch"),
    "ValidationIssue": (lambda v: ValidationIssue("TrivialInertia", v, "identity"), "index"),
    "SumMapPresentation": (lambda v: ramification_factorization(_zpqr(v)), "etale_index"),
    "KernelDescription": (
        lambda v: kernel_K(_zpqr(v), ramification_factorization(_zpqr(v))), "order"),
    "FiberRing": (lambda v: build_fiber_ring(_zpqr(v)), "columns"),
    "GorensteinChecks": (lambda v: GorensteinChecks(True, True, None, v == 0), "lift"),
    "ClassificationReport": (lambda v: classify(_zpqr(v)), "gorenstein"),
    "ExampleEntry": (lambda v: ExampleEntry("name", "summary", {"p": v}, abs), "defaults"),
}


class TestValueClasses:
    @pytest.mark.parametrize("name", sorted(VALUE_CLASSES))
    def test_value_semantics(self, name):
        make, field = VALUE_CLASSES[name]
        a, b, other = make(0), make(0), make(1)
        assert type(a).__name__ == name
        assert a == b and not a != b and a is not b
        assert a != other and not a == other
        assert a != object()
        if name == "ExampleEntry":  # hashes its dict field, which refuses
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(other, field))
        assert a == b
        assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
        assert repr(a) == repr(b)
        assert repr(a).startswith(f"{name}(") and f"{field}=" in repr(a)

    @pytest.mark.parametrize("name", [
        "ClassificationReport", "ExampleEntry", "FiberRing", "GorensteinChecks",
        "KernelDescription", "SumMapPresentation", "ValidationIssue"])
    def test_record_arity(self, name):
        make, _ = VALUE_CLASSES[name]
        value = make(0)
        cls, values = type(value), value._values()
        assert cls(*values) == value
        with pytest.raises(TypeError, match=rf"^{name} takes {len(values)} values"):
            cls(*values[:-1])
        with pytest.raises(TypeError, match=rf"^{name} takes {len(values)} values"):
            cls(*values, None)

    def test_elements_are_not_characters(self):
        # A character is its plain residue tuple, which no element equals.
        G = AbelianGroup((2, 4))
        assert G.element((1, 3)) != (1, 3)
        assert (1, 3) != G.element((1, 3))

    def test_group_law_checks_the_group(self):
        G, H = AbelianGroup((2, 4)), AbelianGroup((2, 6))
        with pytest.raises(ValueError, match="^elements of different groups$"):
            G.element((1, 1)) + H.element((1, 1))
        # A group built apart but equal passes the check.
        total = G.element((1, 3)) + AbelianGroup((2, 4)).element((1, 2))
        assert total == G.element((0, 1)) and str(total) == "(0, 1)"

    def test_equal_to_itself_without_a_field_read(self, monkeypatch):
        G = AbelianGroup((2, 4))
        e = G.element((1, 3))
        monkeypatch.setattr(_Frozen, "_values", lambda self: pytest.fail("fields read"))
        assert G == G and not G != G
        assert e == e
        assert (e + e).residues == (0, 2)

    def test_gorenstein_checks_repr(self):
        # The repr is part of the exit-3 stderr line of the CLI.
        assert repr(GorensteinChecks(True, False, None, True)) == (
            "GorensteinChecks(lift=True, watanabe=False, socle=None, hilbert_palindromic=True)")

    def test_normalisation(self):
        G = AbelianGroup([4, 6])
        assert G.moduli == (4, 6)
        assert G.element([5, -1]).residues == (1, 5)
        assert BranchDatum(G.element((1, 0)), 7).char_residue == 3
        assert BranchDatum(G.element((2, 3)), 1).order == 2
        assert CombinatorialData(G, [BranchDatum(G.element((1, 0)), 1)]).branch == (
            BranchDatum(G.element((1, 0)), 1),)
        assert AbelianGroup() == AbelianGroup(())
