import random
from itertools import product

import numpy as np
import pytest

from abelcover import (
    AbelianGroup,
    BranchDatum,
    CombinatorialData,
    LimitExceeded,
    RootExponent,
    alpha_exponents,
    build_fiber_ring,
    epsilon,
    hilbert_numerator,
    invariant_monomials_up_to_degree,
    ramification_factorization,
    socle_basis,
    validate,
)
from abelcover.classify import gorenstein_lift
from helpers import (
    brute_discrete_log,
    dual_numbers_data,
    random_total_data,
    series_counts,
    z2cubed_data,
    z3_two_datum,
    zpqr_data,
)


def monomials(data, max_degree, **limits):
    return invariant_monomials_up_to_degree(
        data, max_degree, presentation=ramification_factorization(data), **limits)


def toy_z2sq():
    G = AbelianGroup((2, 2))
    e1, e2 = G.generators()
    return validate(CombinatorialData(G, (BranchDatum(e1, 1), BranchDatum(e2, 1))))


class TestAlphaExponents:
    def test_trivial_character(self):
        data = z2cubed_data()
        assert alpha_exponents(data, data.group.trivial_character()) == (0, 0, 0, 0)

    def test_z2cubed_lift(self):
        data = z2cubed_data()
        assert alpha_exponents(data, data.group.character((1, 1, 1))) == (1, 1, 1, 1)

    def test_z3_two_datum(self):
        data = z3_two_datum()
        assert alpha_exponents(data, data.group.character((1,))) == (1, 2)

    def test_requires_totally_ramified(self):
        G = AbelianGroup((105,))
        data = validate(CombinatorialData(G, (BranchDatum(G.element((5,)), 1),)))
        with pytest.raises(ValueError):
            alpha_exponents(data, G.trivial_character())


class TestEpsilon:
    def test_trivial_partner(self):
        data = z2cubed_data()
        chi = data.group.character((1, 1, 0))
        assert epsilon(data, chi, data.group.trivial_character()) == (0, 0, 0, 0)

    def test_floor_arithmetic(self):
        data = toy_z2sq()
        chi = data.group.character((1, 1))
        chi2 = data.group.character((1, 0))
        assert epsilon(data, chi, chi2) == (1, 0)

    def test_z2cubed_square(self):
        data = z2cubed_data()
        chi = data.group.character((1, 1, 1))
        assert epsilon(data, chi, chi) == (1, 1, 1, 1)

    def test_agrees_with_scan_logarithms(self):
        # Same carries from independently scanned restriction exponents.
        rng = random.Random(5)
        for _ in range(10):
            data = random_total_data(rng, max_order=48, max_branch=4)
            G = data.group
            chars = list(G.characters())
            chi = rng.choice(chars)
            chi2 = rng.choice(chars)
            scans = []
            for datum in data.branch:
                base = RootExponent(datum.char_residue, datum.order)
                i1 = brute_discrete_log(base, chi(datum.generator), datum.order)
                i2 = brute_discrete_log(base, chi2(datum.generator), datum.order)
                scans.append((i1 + i2) // datum.order)
            assert epsilon(data, chi, chi2) == tuple(scans)


class TestFiberRing:
    def test_dual_numbers(self):
        ring = build_fiber_ring(dual_numbers_data())
        assert ring.dimension == 2
        chi = ring.characters[1]
        assert ring.product(chi, chi) is None
        assert ring.product(ring.characters[0], chi) == chi

    def test_z2cubed_product(self):
        data = z2cubed_data()
        ring = build_fiber_ring(data)
        assert ring.dimension == 8
        a = data.group.character((1, 1, 0))
        b = data.group.character((0, 0, 1))
        assert ring.product(a, b) == data.group.character((1, 1, 1))

    def test_z3_two_datum_zero_product(self):
        data = z3_two_datum()
        ring = build_fiber_ring(data)
        assert ring.dimension == 3
        c1 = data.group.character((1,))
        c2 = data.group.character((2,))
        assert ring.product(c1, c2) is None

    def test_rejects_partial_ramification(self):
        G = AbelianGroup((105,))
        data = validate(CombinatorialData(G, (BranchDatum(G.element((5,)), 1),)))
        with pytest.raises(ValueError):
            build_fiber_ring(data)

    def test_order_limit(self):
        with pytest.raises(LimitExceeded):
            build_fiber_ring(z2cubed_data(), order_limit=4)

    def test_alpha_bijection(self):
        rng = random.Random(17)
        for _ in range(15):
            data = random_total_data(rng, max_order=128, max_branch=4)
            ring = build_fiber_ring(data)
            assert len(set(ring.alphas)) == data.group.order

    def test_grading_and_overflow(self):
        rng = random.Random(19)
        for _ in range(10):
            data = random_total_data(rng, max_order=36, max_branch=4)
            ring = build_fiber_ring(data)
            degs = ring.degrees()
            n = ring.dimension
            for i in range(n):
                for j in range(n):
                    k = ring.product_index(i, j)
                    eps = epsilon(data, ring.characters[i], ring.characters[j])
                    if k is None:
                        assert any(e == 1 for e in eps)
                    else:
                        assert all(e == 0 for e in eps)
                        assert degs[k] == degs[i] + degs[j]


def ring_axioms_hold(ring):
    """Exhaustive identity/commutativity/associativity check via the product
    table, with a sentinel index for the zero product."""
    n = ring.dimension
    table = ring.product_table()
    P = np.full((n + 1, n + 1), n, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            v = table[i][j]
            P[i, j] = n if v is None else v
    X = P[:n, :n]
    ids = np.arange(n)
    if not (X[0] == ids).all() or not (X[:, 0] == ids).all():
        return False
    if not (X == X.T).all():
        return False
    left = P[X[:, :, None], ids[None, None, :]]
    right = P[ids[:, None, None], X[None, :, :]]
    return bool((left == right).all())


class TestRingAxioms:
    def test_built_in_examples(self):
        for data in (dual_numbers_data(), z2cubed_data(), z3_two_datum(), zpqr_data()):
            ring = build_fiber_ring(data)
            assert ring.dimension == data.group.order
            assert ring_axioms_hold(ring)

    def test_random_small_rings(self):
        rng = random.Random(29)
        for _ in range(15):
            data = random_total_data(rng, max_order=64, max_branch=4)
            assert ring_axioms_hold(build_fiber_ring(data))


class TestSocle:
    def test_dual_numbers(self):
        ring = build_fiber_ring(dual_numbers_data())
        basis = socle_basis(ring)
        assert [chi.residues for chi in basis] == [(1,)]

    def test_z2cubed(self):
        ring = build_fiber_ring(z2cubed_data())
        assert [chi.residues for chi in socle_basis(ring)] == [(1, 1, 1)]

    def test_z3_two_datum(self):
        ring = build_fiber_ring(z3_two_datum())
        assert {chi.residues for chi in socle_basis(ring)} == {(1,), (2,)}

    def test_never_empty_never_trivial(self):
        rng = random.Random(37)
        for _ in range(15):
            data = random_total_data(rng, max_order=96, max_branch=4)
            ring = build_fiber_ring(data)
            basis = socle_basis(ring)
            assert basis
            if data.size >= 1:
                assert all(not chi.is_trivial for chi in basis)

    def test_matches_pairwise_scan(self):
        rng = random.Random(41)
        for _ in range(10):
            data = random_total_data(rng, max_order=32, max_branch=3)
            ring = build_fiber_ring(data)
            expected = []
            for chi in ring.characters:
                if all(ring.product(chi, other) is None
                       for other in ring.characters if not other.is_trivial):
                    expected.append(chi)
            assert socle_basis(ring) == expected

    def test_certificate_inverse_in_socle(self):
        rng = random.Random(43)
        hits = 0
        for _ in range(40):
            data = random_total_data(rng, max_order=64, max_branch=4)
            cert = gorenstein_lift(data)
            if cert is None:
                continue
            hits += 1
            ring = build_fiber_ring(data)
            inverse = cert.inverse()
            assert socle_basis(ring) == [inverse]
            assert ring.alpha(inverse) == tuple(d - 1 for d in data.orders)
        assert hits >= 3


class TestHilbertNumerator:
    def test_locally_simple_product_formula(self):
        G = AbelianGroup((6,))
        data = validate(CombinatorialData(G, (
            BranchDatum(G.element((3,)), 1),
            BranchDatum(G.element((2,)), 1),
        )))
        numerator = hilbert_numerator(build_fiber_ring(data))
        # (1 + t)(1 + t + t^2)
        assert numerator.coefficients == (1, 2, 2, 1)
        assert numerator.palindromic

    def test_z2cubed(self):
        numerator = hilbert_numerator(build_fiber_ring(z2cubed_data()))
        assert numerator.coefficients == (1, 0, 6, 0, 1)
        assert numerator.palindromic
        assert str(numerator) == "1 + 6*t^2 + t^4"

    def test_z3_two_datum(self):
        numerator = hilbert_numerator(build_fiber_ring(z3_two_datum()))
        assert numerator.coefficients == (1, 0, 0, 2)
        assert not numerator.palindromic

    def test_total_count_and_degree_bound(self):
        rng = random.Random(59)
        for _ in range(15):
            data = random_total_data(rng, max_order=128, max_branch=4)
            numerator = hilbert_numerator(build_fiber_ring(data))
            assert sum(numerator.coefficients) == data.group.order
            assert numerator.degree <= sum(d - 1 for d in data.orders)
            assert numerator.coefficients[0] == 1


class TestInvariantMonomials:
    def test_degree_zero(self):
        assert monomials(z2cubed_data(), 0) == [(0, 0, 0, 0)]

    def test_z3_two_datum(self):
        got = monomials(z3_two_datum(), 3)
        assert set(got) == {(0, 0), (3, 0), (0, 3), (1, 2), (2, 1)}

    def test_trivial_kernel_all_monomials(self):
        data = dual_numbers_data()
        got = monomials(data, 2)
        assert got == [(0,), (1,), (2,)]

    def test_limit(self):
        with pytest.raises(LimitExceeded):
            monomials(z2cubed_data(), 12, enumeration_limit=10)

    def test_membership_matches_character_description(self):
        rng = random.Random(47)
        for _ in range(10):
            data = random_total_data(rng, max_order=64, max_branch=3, max_H=500)
            ring = build_fiber_ring(data)
            alpha_set = set(ring.alphas)
            members = set(monomials(data, 8))
            orders = data.orders
            for alpha in product(*(range(9) for _ in orders)):
                if sum(alpha) > 8:
                    continue
                reduced = tuple(a % d for a, d in zip(alpha, orders))
                assert (alpha in members) == (reduced in alpha_set)

    def test_counts_match_series(self):
        rng = random.Random(53)
        for _ in range(10):
            data = random_total_data(rng, max_order=64, max_branch=3, max_H=500)
            numerator = hilbert_numerator(build_fiber_ring(data))
            expected = series_counts(numerator.coefficients, data.orders, 12)
            counts = [0] * 13
            for alpha in monomials(data, 12):
                counts[sum(alpha)] += 1
            assert counts == expected
