import random
from math import prod

import pytest
from hypothesis import given, strategies as st

from abelcover import (
    AbelianGroup,
    BranchDatum,
    CombinatorialData,
    InvalidCoverData,
    enumerate_subgroup,
    kernel_K,
    ramification_factorization,
    sum_map,
    validate,
)
from abelcover.classify import gorenstein_lift
from abelcover.groups import closure
from helpers import (
    brute_image,
    brute_kernel,
    random_data,
    random_group,
    single_datum_z105,
    z2cubed_data,
    z3sq_gorenstein,
    zpqr_data,
)


def kernel_of(data, **limits):
    return kernel_K(data, ramification_factorization(data), **limits)


def kernel_elements(data, kd):
    """All elements of K as residue tuples, enumerated from its generators."""
    return closure(data.orders, [g.residues for g in kd.generators])


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
        bad = CombinatorialData(G, (BranchDatum(G.identity(), 1),))
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
            BranchDatum(G.identity(), 1),
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


class TestSumMap:
    def test_empty(self):
        G = AbelianGroup((2, 2))
        nu = sum_map(CombinatorialData(G, ()))
        assert nu.source.order == 1

    def test_z2cubed(self):
        data = z2cubed_data()
        nu = sum_map(data)
        assert nu.source.moduli == (2, 2, 2, 2)
        assert [img.residues for img in nu.images] == [
            (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]

    def test_zpqr(self):
        nu = sum_map(zpqr_data())
        assert nu.source.moduli == (21, 15)
        assert [img.residues for img in nu.images] == [(5,), (7,)]


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
        assert {g.residues for g in kd.generators} == {(1, 1, 1, 1)}
        assert kd.min_support == 4
        assert len(kernel_elements(data, kd)) == 2

    def test_zpqr_instance(self):
        kd = kernel_of(zpqr_data())
        assert kd.order == 3

    def test_enumeration_respects_limit(self):
        kd = kernel_of(z2cubed_data(), enumeration_limit=1)
        assert kd.order == 2
        assert kd.generators  # still reported
        assert kd.min_support is None


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
            assert simple == (len(brute_image(sum_map(data))) == prod(data.orders))


class TestRamificationFactorization:
    def test_surjective_is_identity(self):
        data = z2cubed_data()
        fact = ramification_factorization(data)
        assert fact.etale_index == 1
        assert fact.restricted == data

    def test_single_datum_z105(self):
        fact = ramification_factorization(single_datum_z105())
        assert fact.image_order == 21
        assert fact.etale_index == 5
        assert fact.restricted.group.order == 21
        assert fact.restricted.branch[0].order == 21

    def test_higher_rank_image(self):
        G = AbelianGroup((4, 4))
        data = validate(CombinatorialData(G, (
            BranchDatum(G.element((2, 0)), 1),
            BranchDatum(G.element((0, 1)), 1),
        )))
        fact = ramification_factorization(data)
        assert fact.image_order == 8 and fact.etale_index == 2
        assert sorted(fact.restricted.group.moduli) == [2, 4]
        assert sorted(d.order for d in fact.restricted.branch) == [2, 4]

    def test_restricted_is_totally_ramified(self):
        rng = random.Random(23)
        for _ in range(30):
            data = random_data(rng, random_group(rng, max_order=256), max_branch=4)
            fact = ramification_factorization(data)
            assert fact.image_order * fact.etale_index == data.group.order
            again = ramification_factorization(fact.restricted)
            assert again.etale_index == 1
            assert again.restricted == fact.restricted
            # kernel and local verdict data survive the restriction
            assert again.kernel_order == fact.kernel_order
            assert kernel_of(fact.restricted).min_support == kernel_of(data).min_support


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
                {e.residues for e in enumerate_subgroup(
                    data.group, [datum.generator])}
                for datum in data.branch
            ]
            for i in range(len(subgroups)):
                for j in range(i + 1, len(subgroups)):
                    meet = subgroups[i] & subgroups[j]
                    assert meet == {data.group.identity().residues}


class TestSumMapPresentation:
    """The one presentation of nu against brute-force enumeration."""

    @given(st.integers(min_value=0, max_value=10**6))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        data = random_data(rng, random_group(rng, max_order=512), max_branch=4, max_H=5000)
        nu = sum_map(data)
        pres = ramification_factorization(data)
        kernel = brute_kernel(nu)
        assert pres.kernel_order == len(kernel)
        assert set(closure(data.orders, [g.residues for g in pres.kernel_gens])) == kernel
        assert pres.image_order == len(brute_image(nu))
        assert pres.etale_index * pres.image_order == data.group.order
        restricted = pres.restricted
        assert restricted.group.order == pres.image_order
        assert restricted.orders == data.orders
        assert pres.totally_ramified == (restricted == data)
