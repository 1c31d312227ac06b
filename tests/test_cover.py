import copy
import pickle
import random
from itertools import combinations
from math import gcd, prod
from time import perf_counter

import pytest
from hypothesis import given, strategies as st

from abelcover import (
    AbelianGroup,
    BranchDatum,
    CombinatorialData,
    InvalidCoverData,
    build_fiber_ring,
    hilbert_numerator,
    kernel_K,
    ramification_factorization,
    restrict,
    sum_map,
    validate,
)
import abelcover.cover
import abelcover.groups
from abelcover.classify import gorenstein_lift
from abelcover.cover import _probe_supports
from abelcover.groups import closure
from helpers import (
    brute_canonical,
    brute_image,
    brute_kernel,
    brute_min_support,
    character_lines,
    exact_det,
    identity,
    prime_lines,
    random_data,
    random_group,
    random_total_data,
    reference_hermite,
    reference_probe_supports,
    shared_prime_lines,
    single_datum_z105,
    z2cubed_data,
    z3sq_gorenstein,
    zpqr_data,
)


def kernel_of(data):
    return kernel_K(data, ramification_factorization(data))


def kernel_elements(data, kd):
    """All elements of K as residue tuples, enumerated from its generators."""
    return closure(data.orders, kd.generators)


class TestCombinatorialData:
    def test_orders_stored_beside_the_fields(self):
        # `orders` is read many times per document, so it is stored once;
        # equality, hashing and copies go by the fields alone.
        data = z2cubed_data()
        assert data.orders == (2, 2, 2, 2) and type(data.orders) is tuple
        assert data.orders is data.orders
        assert data._values() == (data.group, data.branch)
        empty = CombinatorialData(AbelianGroup(()), [])
        assert empty.orders == () and empty.branch == ()
        for copied in (pickle.loads(pickle.dumps(data)), copy.deepcopy(data)):
            assert copied == data and hash(copied) == hash(data)
            assert copied.orders == data.orders
        with pytest.raises(AttributeError):
            data.orders = (2,)


class TestValidate:
    def test_z2cubed_is_valid(self):
        data = z2cubed_data()
        assert data.size == 4
        assert data.orders == (2, 2, 2, 2)

    def test_non_generating_character(self):
        G = AbelianGroup((4,))
        bad = CombinatorialData(G, (BranchDatum(G.element((1,)), 2),))
        with pytest.raises(InvalidCoverData) as exc:
            validate(bad)
        assert [i.code for i in exc.value.issues] == ["NonGeneratingCharacter"]

    def test_trivial_inertia(self):
        G = AbelianGroup((4,))
        bad = CombinatorialData(G, (BranchDatum(identity(G), 1),))
        with pytest.raises(InvalidCoverData) as exc:
            validate(bad)
        assert [i.code for i in exc.value.issues] == ["TrivialInertia"]

    def test_exact_duplicate(self):
        G = AbelianGroup((3,))
        datum = BranchDatum(G.element((1,)), 1)
        with pytest.raises(InvalidCoverData) as exc:
            validate(CombinatorialData(G, (datum, datum)))
        assert [i.code for i in exc.value.issues] == ["DuplicatePair"]

    def test_disguised_duplicate(self):
        # (g, a) and (2g, 2a) name the same pair (H, psi) on Z/5.
        G = AbelianGroup((5,))
        first = BranchDatum(G.element((1,)), 1)
        second = BranchDatum(G.element((2,)), 2)
        with pytest.raises(InvalidCoverData) as exc:
            validate(CombinatorialData(G, (first, second)))
        assert [i.code for i in exc.value.issues] == ["DuplicatePair"]

    def test_distinct_characters_same_subgroup_allowed(self):
        G = AbelianGroup((3,))
        one = G.element((1,))
        data = validate(CombinatorialData(G, (BranchDatum(one, 1), BranchDatum(one, 2))))
        assert data.size == 2

    def test_malformed_element(self):
        G = AbelianGroup((2, 2))
        other = AbelianGroup((3,))
        bad = CombinatorialData(G, (BranchDatum(other.element((1,)), 1),))
        with pytest.raises(InvalidCoverData) as exc:
            validate(bad)
        assert [i.code for i in exc.value.issues] == ["MalformedElement"]

    def test_all_violations_reported(self):
        G = AbelianGroup((4,))
        g = G.element((1,))
        bad = CombinatorialData(G, (
            BranchDatum(identity(G), 1),
            BranchDatum(g, 2),
            BranchDatum(g, 1),
            BranchDatum(g, 1),
        ))
        with pytest.raises(InvalidCoverData) as exc:
            validate(bad)
        codes = [i.code for i in exc.value.issues]
        assert codes == ["TrivialInertia", "NonGeneratingCharacter", "DuplicatePair"]

    def test_canonicalization_picks_smallest_generator(self):
        # <3> = <2> in Z/5; the canonical generator of the full subgroup is 1.
        G = AbelianGroup((5,))
        data = validate(CombinatorialData(G, (BranchDatum(G.element((3,)), 1),)))
        datum = data.branch[0]
        assert datum.generator.residues == (1,)
        # psi is unchanged: psi(3) = 1/5 transported to the generator 1 gives
        # psi(1) = 2/5 since 3 * 2 = 6 = 1 mod 5.
        assert datum.char_residue == 2

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(25):
            data = random_data(rng, random_group(rng, max_order=256), max_branch=4)
            assert validate(data) == data


class TestCanonical:
    """The coordinate-wise canonical generator against the scan over u < d."""

    @given(st.integers(min_value=0, max_value=10**6))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        G = random_group(rng, max_order=512, max_rank=4)
        for _ in range(10):
            g = G.element([rng.randrange(m) for m in G.moduli])
            datum = BranchDatum(g, rng.randrange(10**6))
            assert datum.canonical() == brute_canonical(datum)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_matches_brute_force_on_wide_ranks(self, seed):
        # Each line has order m_f at the coordinate f where its unit class
        # is fixed: a unit there, orders properly dividing m_f before it and
        # orders dividing m_f after it.  With zeros before f the class is
        # fixed at the first nonzero coordinate, with zeros after f at the
        # last; in between, the walk stops at f with nonzero coordinates
        # left to skip.
        rng = random.Random(seed)
        moduli = tuple(rng.choice((2, 3, 4, 8, 9, 16)) for _ in range(rng.randint(1, 12)))
        G = AbelianGroup(moduli)

        def dividing(m, k):
            """A random residue mod m whose order divides k."""
            step = m // gcd(m, k)
            return step * rng.randrange(m // step)

        for before, after in ((False, True), (True, True), (True, False)):
            for _ in range(4):
                f = rng.randrange(len(moduli))
                top = moduli[f]
                lower = top // min(p for p in (2, 3) if top % p == 0)
                residues = [dividing(m, lower) if before else 0 for m in moduli[:f]]
                residues.append(rng.choice([u for u in range(1, top) if gcd(u, top) == 1]))
                residues += [dividing(m, top) if after else 0 for m in moduli[f + 1:]]
                datum = BranchDatum(G.element(residues), rng.randrange(10**6))
                assert datum.order == top
                c = datum.canonical()
                assert c == brute_canonical(datum)
                assert c.canonical() is c

    def test_validate_large_moduli_is_fast(self):
        p, q = 10**9 + 7, 10**9 + 9
        G = AbelianGroup((p, q))
        data = CombinatorialData(G, (
            BranchDatum(G.element((123456789, 987654321)), 5),
            BranchDatum(G.element((31415926, 0)), 2),
        ))
        start = perf_counter()
        valid = validate(data)
        elapsed = perf_counter() - start
        # The moduli are prime, so the least generators are (1, 1) and
        # (1, 0), reached by u = 1/r in each coordinate (joined by CRT).
        u = pow(123456789, -1, p) * q * pow(q, -1, p) + pow(987654321, -1, q) * p * pow(p, -1, q)
        assert valid.branch[0] == BranchDatum(G.element((1, 1)), 5 * u % (p * q))
        assert valid.branch[1] == BranchDatum(G.element((1, 0)), 2 * pow(31415926, -1, p) % p)
        assert elapsed < 0.005, f"validate took {elapsed * 1e3:.2f} ms"


def graph_hermite(data):
    """The reference basis of the graph lattice of the sum map: rows
    (g_i, e_i) under the moduli of G and H, reduced by the reference."""
    s = data.size
    graph = [[*datum.generator.residues, *(int(i == j) for j in range(s))]
             for i, datum in enumerate(data.branch)]
    return reference_hermite(data.group.moduli + data.orders, graph)


class TestSumMap:
    """The Hermite basis of the graph lattice of nu in G + H."""

    def test_empty(self):
        G = AbelianGroup((2, 2))
        assert sum_map(CombinatorialData(G, ())) == [[2, 0], [0, 2]]

    def test_z2cubed(self):
        # The lines span G, and K + 2Z^4 = {y : y_1 = y_2 = y_3 = y_4 mod 2}.
        rows = sum_map(z2cubed_data())
        assert [row[k] for k, row in enumerate(rows[:3])] == [1, 1, 1]
        assert [row[3:] for row in rows[3:]] == [
            [1, 1, 1, 1], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]

    def test_zpqr(self):
        # 5 y_1 + 7 y_2 = 0 mod 105 means y = (7a, 5b) with a + b = 0 mod 3.
        rows = sum_map(zpqr_data())
        assert rows[0][0] == 1
        assert [row[1:] for row in rows[1:]] == [[7, 10], [0, 15]]

    @given(st.integers(min_value=0, max_value=10**6))
    def test_triangular_basis(self, seed):
        rng = random.Random(seed)
        data = random_data(rng, random_group(rng, max_order=512), max_branch=4, max_H=5000)
        moduli = data.group.moduli + data.orders
        rows = sum_map(data)
        assert len(rows) == len(moduli)
        for k, (row, m) in enumerate(zip(rows, moduli)):
            assert not any(row[:k])
            assert 0 < row[k] <= m and m % row[k] == 0
            assert all(0 <= x < m for x, m in zip(row[k + 1:], moduli[k + 1:]))
        r = data.group.rank
        assert prod(row[k] for k, row in enumerate(rows[:r])) == (
            data.group.order // len(brute_image(data)))

    @given(st.integers(min_value=0, max_value=10**6))
    def test_rows_match_the_reference(self, seed):
        rng = random.Random(seed)
        data = random_total_data(rng, max_order=512, max_branch=5)
        assert sum_map(data) == graph_hermite(data)

    def test_trivial_generator_of_unvalidated_data(self):
        # d = 1 makes the unit entry 1 % 1 = 0, reduced as _hermite asks.
        data = CombinatorialData.from_residues((4, 2), [((0, 0), 0), ((1, 1), 1), ((2, 0), 1)])
        assert data.orders == (1, 4, 2)
        assert sum_map(data) == graph_hermite(data)


class TestKernelK:
    def test_locally_simple_kernel(self):
        G = AbelianGroup((2, 2))
        e1, e2 = G.generators()
        data = validate(CombinatorialData(G, (BranchDatum(e1, 1), BranchDatum(e2, 1))))
        kd = kernel_of(data)
        assert kd.order == 1
        assert kd.min_support is None

    def test_z2cubed(self):
        data = z2cubed_data()
        kd = kernel_of(data)
        assert kd.order == 2
        assert set(kd.generators) == {(1, 1, 1, 1)}
        assert kd.min_support == 4
        assert len(kernel_elements(data, kd)) == 2

    def test_zpqr_instance(self):
        kd = kernel_of(zpqr_data())
        assert kd.order == 3

    @given(st.integers(min_value=0, max_value=10**6))
    def test_min_support_matches_enumeration(self, seed):
        rng = random.Random(seed)
        data = random_data(rng, random_group(rng, max_order=512), max_branch=6)
        pres = ramification_factorization(data)
        assert kernel_K(data, pres).min_support == brute_min_support(data.orders, pres.kernel_gens)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_walk_decides_without_enumeration(self, seed):
        # |K| > 2^s - 2 - s, so only the subset walk runs: (Z/5)^2 with 5
        # lines has |K| = 125 against 25 subsets.
        rng = random.Random(seed)
        while True:
            group = AbelianGroup(rng.choice(
                ((5, 5), (7, 7), (4, 4), (6, 6), (9, 3), (5, 5, 5), (4, 4, 4))))
            try:
                data = random_data(rng, group, min_branch=3, max_branch=6, max_H=10**5)
            except RuntimeError:
                continue
            pres = ramification_factorization(data)
            if pres.kernel_order > 2**data.size - 2 - data.size:
                break
        def no_enumeration(*args):
            raise AssertionError("kernel_K enumerated K")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(abelcover.cover, "closure", no_enumeration)
            got = kernel_K(data, pres).min_support
        assert got == brute_min_support(data.orders, pres.kernel_gens)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_budget_near_the_switch(self, seed):
        # The search enumerates K when it is smaller than the number of
        # subsets to probe, and otherwise probes; either way a bound below
        # the work needed gives None, never a wrong support, and more work
        # never loses a decided answer.
        rng = random.Random(seed)
        while True:
            try:
                data = random_data(
                    rng, random_group(rng, max_order=512), min_branch=3, max_branch=6)
                break
            except RuntimeError:  # too few distinct lines in a small group
                continue
        pres = ramification_factorization(data)
        exact = brute_min_support(data.orders, pres.kernel_gens)
        probes = 2**data.size - 2 - data.size
        limits = {0, 1}
        for centre in (pres.kernel_order, probes):
            limits |= {centre - 1, centre, centre + 1}
        decided = False
        for limit in sorted(x for x in limits if x >= 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(abelcover.groups, "DEFAULT_ENUMERATION_LIMIT", limit)
                got = kernel_K(data, pres).min_support
            if exact is None:
                assert got is None
                continue
            assert got in (None, exact)
            if decided or pres.kernel_order <= min(probes, limit):
                assert got == exact
            decided = got is not None

    @staticmethod
    def distinct_lines_z5_cubed(count):
        """count lines of (Z/5)^3 on distinct subgroups, random.Random(5)."""
        rng = random.Random(5)
        G = AbelianGroup((5, 5, 5))
        lines = {}
        while len(lines) < count:
            g = G.element([rng.randrange(5) for _ in range(3)])
            if any(g.residues):
                lines.setdefault(min((u * g).residues for u in range(1, 5)), g)
        return validate(CombinatorialData(G, tuple(BranchDatum(g, 1) for g in lines.values())))

    @pytest.mark.parametrize("count", [11, 12])
    def test_exact_min_support_without_enumeration(self, count):
        # count lines of (Z/5)^3, so |K| = 5^count / 5^3: 5^8 = 390625 for
        # 11 lines, which is cheaper to probe than to enumerate, and
        # 5^9 > 10^6 for 12, past the old enumeration bound.
        data = self.distinct_lines_z5_cubed(count)
        lines = [datum.generator for datum in data.branch]
        start = perf_counter()
        kd = kernel_of(data)
        elapsed = perf_counter() - start
        assert kd.order == 5 ** (count - 3)
        # Distinct lines of prime order meet trivially, so no support is 2.
        # Three lines in one plane (a vanishing 3x3 determinant mod 5) give
        # a kernel element of support 3.
        coplanar = any(
            exact_det([a.residues, b.residues, c.residues]) % 5 == 0
            for a, b, c in combinations(lines, 3))
        assert coplanar
        assert kd.min_support == 3
        assert elapsed < 0.5, f"kernel_K took {elapsed:.3f} s"

    def test_pair_level_probes_nothing_on_prime_orders(self, monkeypatch):
        # Every line of (Z/5)^3 has prime order, so the pairs are decided by
        # their canonical generators: the walk starts at size 3, after
        # folding lines 0 and 1, and its 10th probe, {0, 1, 11}, meets.  A
        # probe's prefix spans one line iff its basis has pivot product
        # |G| / 5 = 25; no such probe is made.  Before the pairs were keyed
        # the same search made 13 folds and 76 probes, 66 of them pairs.
        data = self.distinct_lines_z5_cubed(12)
        pres = ramification_factorization(data)
        fold, pivots = abelcover.cover._hermite_fold, abelcover.cover._fold_pivots
        folds, probes = [], []

        def counted_fold(moduli, rows, v):
            folds.append(v)
            return fold(moduli, rows, v)

        def counted_pivots(moduli, rows, v):
            probes.append(prod(row[k] for k, row in enumerate(rows)))
            return pivots(moduli, rows, v)

        monkeypatch.setattr(abelcover.cover, "_hermite_fold", counted_fold)
        monkeypatch.setattr(abelcover.cover, "_fold_pivots", counted_pivots)
        assert kernel_K(data, pres).min_support == 3
        assert len(folds) == 2
        assert len(probes) == 10
        assert 25 not in probes

    def test_enumeration_respects_limit(self, monkeypatch):
        monkeypatch.setattr(abelcover.groups, "DEFAULT_ENUMERATION_LIMIT", 1)
        kd = kernel_of(z2cubed_data())
        assert kd.order == 2
        assert kd.generators  # still reported
        assert kd.min_support is None


class TestPairKeys:
    """The size-2 level of the support search, keyed by canonical generators
    when every line has prime order and the budget pays for every pair,
    against the search that probes every pair
    (helpers.reference_probe_supports), at budgets around the first meeting
    pair and around the end of the pairs, where the keyed pass starts."""

    @staticmethod
    def first_meeting_pair(data):
        """The lexicographic index of the first pair of lines whose
        subgroups meet nontrivially, from their enumerated multiples."""
        multiples = [{(k * datum.generator).residues for k in range(1, datum.order)}
                     for datum in data.branch]
        return next((index for index, (a, b) in enumerate(combinations(multiples, 2)) if a & b),
                    None)

    def check_budgets(self, data):
        s = data.size
        pairs = s * (s - 1) // 2
        budgets = {0, 1, pairs - 1, pairs, pairs + 1, 10**6,
                   ramification_factorization(data).kernel_order}
        first = self.first_meeting_pair(data)
        if first is not None:
            budgets |= {first - 1, first, first + 1}
        for budget in sorted(b for b in budgets if b >= 0):
            assert _probe_supports(data, budget) == reference_probe_supports(data, budget), budget

    @given(st.integers(min_value=0, max_value=10**6))
    def test_character_lines(self, seed):
        self.check_budgets(character_lines(random.Random(seed)))

    @given(st.integers(min_value=0, max_value=10**6))
    def test_mixed_orders(self, seed):
        rng = random.Random(seed)
        while True:
            try:
                data = random_data(
                    rng, random_group(rng, max_order=512), min_branch=3, max_branch=6)
                break
            except RuntimeError:  # too few distinct lines in a small group
                continue
        self.check_budgets(data)

    @given(st.integers(min_value=0, max_value=10**6), st.booleans())
    def test_shared_subgroups(self, seed, validated):
        # Drawn with generators u*g, so unvalidated data can write one
        # subgroup with two generators; its pairs meet all the same.
        data = shared_prime_lines(random.Random(seed))
        if validated:
            data = validate(data)
        self.check_budgets(data)

    def test_shared_subgroups_meet_at_varied_pairs(self):
        # The sampler's first meeting pair falls at many positions, and some
        # draws have none.
        firsts = {self.first_meeting_pair(shared_prime_lines(random.Random(seed)))
                  for seed in range(200)}
        assert None in firsts and len(firsts - {None}) >= 10


class TestLocallySimple:
    """Locally simple means K = 0."""

    def test_standard_generators(self):
        for p, n in ((2, 3), (3, 2), (5, 2)):
            G = AbelianGroup((p,) * n)
            data = validate(CombinatorialData(
                G, tuple(BranchDatum(g, 1) for g in G.generators())))
            assert kernel_of(data).order == 1

    def test_z2cubed_not_simple(self):
        assert kernel_of(z2cubed_data()).order != 1

    def test_empty_branch(self):
        assert kernel_of(CombinatorialData(AbelianGroup((4,)), ())).order == 1

    def test_matches_kernel_order_and_size_count(self):
        rng = random.Random(11)
        for _ in range(30):
            data = random_data(rng, random_group(rng, max_order=256), max_branch=4)
            simple = kernel_of(data).order == 1
            assert simple == (len(brute_image(data)) == prod(data.orders))


class TestRamificationFactorization:
    def test_surjective_is_identity(self):
        data = z2cubed_data()
        fact = ramification_factorization(data)
        assert fact.etale_index == 1
        assert restrict(data, fact) == data

    def test_single_datum_z105(self):
        data = single_datum_z105()
        fact = ramification_factorization(data)
        assert fact.image_order == 21
        assert fact.etale_index == 5
        restricted = restrict(data, fact)
        assert restricted.group.order == 21
        assert restricted.branch[0].order == 21

    def test_higher_rank_image(self):
        G = AbelianGroup((4, 4))
        data = validate(CombinatorialData(G, (
            BranchDatum(G.element((2, 0)), 1),
            BranchDatum(G.element((0, 1)), 1),
        )))
        fact = ramification_factorization(data)
        assert fact.image_order == 8 and fact.etale_index == 2
        restricted = restrict(data, fact)
        assert sorted(restricted.group.moduli) == [2, 4]
        assert sorted(d.order for d in restricted.branch) == [2, 4]

    def test_wide_presentation_is_fast(self):
        # 24 lines of (Z/10007)^12: every entry of the Hermite basis stays
        # below its modulus, where the unreduced Smith form of the relation
        # matrix took seconds.
        p, r = 10007, 12
        data = prime_lines(random.Random(1), p, r, 2 * r)
        start = perf_counter()
        fact = ramification_factorization(data)
        elapsed = perf_counter() - start
        assert fact.etale_index == 1 and fact.kernel_order == p**r
        gens = [datum.generator.residues for datum in data.branch]
        for k in fact.kernel_gens:
            assert not any(sum(t * g[j] for t, g in zip(k, gens)) % p for j in range(r))
        assert elapsed < 1.0, f"presentation took {elapsed:.3f} s"

    def test_totally_ramified_needs_no_smith_form(self, monkeypatch):
        def refuse(matrix):
            raise AssertionError("smith_normal_form called")

        monkeypatch.setattr(abelcover.groups, "smith_normal_form", refuse)
        monkeypatch.setattr(abelcover.cover, "smith_normal_form", refuse)
        for data in (z2cubed_data(), zpqr_data(), z3sq_gorenstein(),
                     prime_lines(random.Random(1), 10007, 4, 8)):
            fact = ramification_factorization(data)
            assert fact.totally_ramified and restrict(data, fact) == data

    def test_restricted_is_totally_ramified(self):
        rng = random.Random(23)
        for _ in range(30):
            data = random_data(rng, random_group(rng, max_order=256), max_branch=4)
            fact = ramification_factorization(data)
            assert fact.image_order * fact.etale_index == data.group.order
            restricted = restrict(data, fact)
            again = ramification_factorization(restricted)
            assert again.etale_index == 1
            assert restrict(restricted, again) == restricted
            # kernel and local verdict data survive the restriction
            assert again.kernel_order == fact.kernel_order
            assert kernel_of(restricted).min_support == kernel_of(data).min_support


class TestKernelSupports:
    def test_supports_at_least_two(self):
        rng = random.Random(31)
        for _ in range(40):
            data = random_data(rng, random_group(rng, max_order=256), max_branch=5)
            kd = kernel_of(data)
            assert kd.order == 1 or kd.min_support is not None
            for e in kernel_elements(data, kd):
                assert not any(e) or sum(1 for x in e if x) >= 2

    def test_elementary_gorenstein_supports_at_least_three(self):
        for data in (z2cubed_data(), z3sq_gorenstein()):
            assert gorenstein_lift(data) is not None
            kd = kernel_of(data)
            assert kd.order > 1
            for e in kernel_elements(data, kd):
                assert not any(e) or sum(1 for x in e if x) >= 3

    def test_elementary_gorenstein_subgroups_meet_trivially(self):
        for data in (z2cubed_data(), z3sq_gorenstein()):
            subgroups = [
                set(closure(data.group.moduli, [datum.generator.residues]))
                for datum in data.branch
            ]
            for i in range(len(subgroups)):
                for j in range(i + 1, len(subgroups)):
                    meet = subgroups[i] & subgroups[j]
                    assert meet == {identity(data.group).residues}


class TestSumMapPresentation:
    """The one presentation of nu against brute-force enumeration."""

    @given(st.integers(min_value=0, max_value=10**6))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        data = random_data(rng, random_group(rng, max_order=512), max_branch=4, max_H=5000)
        pres = ramification_factorization(data)
        kernel = brute_kernel(data)
        assert pres.kernel_order == len(kernel)
        assert set(closure(data.orders, pres.kernel_gens)) == kernel
        assert pres.image_order == len(brute_image(data))
        assert pres.etale_index * pres.image_order == data.group.order
        restricted = restrict(data, pres)
        assert restricted.group.order == pres.image_order
        assert restricted.orders == data.orders
        assert pres.totally_ramified == (restricted == data)

    def test_is_a_plain_value(self):
        # Four fields on __slots__ and no copy of the input: equality, hash,
        # pickle and deepcopy see the presentation only.  The restriction to
        # M is a function of the input and the presentation, and returns
        # the input itself when nu is onto.  The kernel generators are plain
        # residue tuples of H, reduced mod the d_i.
        rng = random.Random(5)
        samples = [random_data(rng, random_group(rng, max_order=512), max_branch=5)
                   for _ in range(30)]
        for data in (single_datum_z105(), z2cubed_data(), *samples):
            pres = ramification_factorization(data)
            for gen in pres.kernel_gens:
                assert type(gen) is tuple and len(gen) == data.size
                assert all(type(t) is int and 0 <= t < d for t, d in zip(gen, data.orders))
            assert not hasattr(pres, "__dict__")
            assert pres._fields == ("kernel_gens", "kernel_order", "image_order", "etale_index")
            for copied in (pickle.loads(pickle.dumps(pres)), copy.deepcopy(pres)):
                assert copied == pres and hash(copied) == hash(pres)
        data = z2cubed_data()
        assert restrict(data, ramification_factorization(data)) is data
        numerator = hilbert_numerator(build_fiber_ring(data))
        assert type(numerator) is tuple and numerator == (1, 0, 6, 0, 1)
        assert not hasattr(abelcover, "Character") and not hasattr(abelcover, "HilbertNumerator")
