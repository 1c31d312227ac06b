import copy
import pickle
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import islice, product
from math import gcd, prod
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import example, given, settings, strategies as st

from abelcover import (
    AbelianGroup,
    BranchDatum,
    CombinatorialData,
    InvalidCoverData,
    LimitExceeded,
    build_fiber_ring,
    hilbert_numerator,
    invariant_monomials_up_to_degree,
    ramification_factorization,
    restrict,
    socle_basis,
    validate,
)
import abelcover.groups
from abelcover.classify import gorenstein_lift
from abelcover.cli import cmd_hilbert, parse_input
from abelcover.fiber import _PALINDROME_PAIRS, FiberRing, build_image_ring, hilbert_palindromic
from helpers import (
    brute_discrete_log,
    brute_kernel,
    character_index,
    character_lines,
    character_value,
    characters_of,
    count_calls,
    cyclic_lines,
    dual_numbers_data,
    elementary_lines,
    product_index,
    random_data,
    random_group,
    random_total_data,
    series_counts,
    single_datum_z105,
    z2cubed_data,
    z3_two_datum,
    zpqr_data,
)


def monomials(data, max_degree):
    return invariant_monomials_up_to_degree(
        data, max_degree, presentation=ramification_factorization(data))


def wide_order_data():
    """Rings whose exponents do not fit in 7 or 8 bits: lines of orders 504,
    168 and 252 in Z/8 + Z/9 + Z/7, and three characters of one Z/307 line."""
    G = AbelianGroup((8, 9, 7))
    diagonal = G.element((1, 1, 1))
    yield validate(CombinatorialData(G, (
        BranchDatum(diagonal, 1),
        BranchDatum(diagonal, 5),
        BranchDatum(G.element((1, 3, 1)), 1),
        BranchDatum(G.element((2, 1, 1)), 1),
    )))
    C = AbelianGroup((307,))
    line = C.element((1,))
    yield validate(CombinatorialData(C, tuple(BranchDatum(line, a) for a in (1, 5, 2))))


def brute_span(moduli, generators):
    """The subgroup of Z/m_1 + ... + Z/m_r that the generators span, by
    adding generators until nothing new appears."""
    span, frontier = {(0,) * len(moduli)}, [(0,) * len(moduli)]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = tuple((a + b) % m for a, b, m in zip(x, g, moduli))
            if y not in span:
                span.add(y)
                frontier.append(y)
    return span


def pairwise_socle(ring):
    """The socle by its definition: the indices whose product with every
    nontrivial index is zero, in increasing order."""
    n = ring.dimension
    return [k for k in range(n)
            if all(product_index(ring, k, other) is None for other in range(1, n))]


def sorted_socle(ring):
    """The whole walk of socle_basis, in index order."""
    return sorted(socle_basis(ring))


def alpha_of(ring, chi):
    """The exponent vector of w_chi in a ring of build_fiber_ring."""
    return ring.alphas[character_index(chi, ring.radices)]


def palindromic(coefficients):
    """Whether a numerator's coefficient tuple reads the same backwards."""
    return coefficients == coefficients[::-1]


def toy_z2sq():
    G = AbelianGroup((2, 2))
    e1, e2 = G.generators()
    return validate(CombinatorialData(G, (BranchDatum(e1, 1), BranchDatum(e2, 1))))


def carries(ring, chi, chi2):
    """floor((alpha_i + alpha_i') / d_i), each 0 or 1: the overflow digits
    behind both the fiber product and the linear equivalences of the global
    building data."""
    return tuple((x + y) // d
                 for x, y, d in zip(alpha_of(ring, chi), alpha_of(ring, chi2), ring.orders))


class TestAlphaExponents:
    def test_trivial_character(self):
        data = z2cubed_data()
        ring = build_fiber_ring(data)
        assert alpha_of(ring, (0, 0, 0)) == (0, 0, 0, 0)

    def test_z2cubed_lift(self):
        data = z2cubed_data()
        ring = build_fiber_ring(data)
        assert alpha_of(ring, (1, 1, 1)) == (1, 1, 1, 1)

    def test_z3_two_datum(self):
        data = z3_two_datum()
        assert alpha_of(build_fiber_ring(data), (1,)) == (1, 2)

    def test_requires_totally_ramified(self):
        # One line in (Z/2)^2: the character (0, 1) is trivial on it and
        # shares the identity's exponent vector, so alpha is not injective.
        G = AbelianGroup((2, 2))
        e1, _ = G.generators()
        data = validate(CombinatorialData(G, (BranchDatum(e1, 1),)))
        with pytest.raises(ValueError, match="not totally ramified"):
            build_fiber_ring(data)


class TestEpsilon:
    def test_trivial_partner(self):
        data = z2cubed_data()
        ring = build_fiber_ring(data)
        assert carries(ring, (1, 1, 0), (0, 0, 0)) == (0, 0, 0, 0)

    def test_floor_arithmetic(self):
        data = toy_z2sq()
        ring = build_fiber_ring(data)
        assert carries(ring, (1, 1), (1, 0)) == (1, 0)

    def test_z2cubed_square(self):
        data = z2cubed_data()
        ring = build_fiber_ring(data)
        assert carries(ring, (1, 1, 1), (1, 1, 1)) == (1, 1, 1, 1)

    def test_agrees_with_scan_logarithms(self):
        # The additively filled table against independently scanned
        # restriction exponents, for every character; carries likewise.
        rng = random.Random(5)
        for _ in range(10):
            data = random_total_data(rng, max_order=48, max_branch=4)
            ring = build_fiber_ring(data)
            bases = [Fraction(datum.char_residue, datum.order) for datum in data.branch]

            def scan(chi):
                return tuple(brute_discrete_log(base, character_value(chi, datum.generator),
                                                datum.order)
                             for base, datum in zip(bases, data.branch))

            characters = list(characters_of(data.group))
            for chi in characters:
                assert alpha_of(ring, chi) == scan(chi)
            chi, chi2 = rng.choice(characters), rng.choice(characters)
            expected = tuple((x + y) // d for x, y, d in zip(scan(chi), scan(chi2), data.orders))
            assert carries(ring, chi, chi2) == expected

    @given(st.integers(min_value=0, max_value=10**6), st.booleans())
    def test_columns_match_the_definition(self, seed, cyclic):
        # alpha_i = d_i * chi(g_i) / a_i mod d_i for every character, on
        # rings whose exponents pass the ASCII range: Z/N with N up to 600
        # and 1-3 lines, and rank-2 groups with elements of order up to 1200.
        # A column step that builds one copy too many or too few, or
        # translates a copy by the wrong multiple, misplaces an exponent.
        rng = random.Random(seed)
        if cyclic:
            data = cyclic_lines(rng, rng.randint(2, 600), rng.randint(1, 3))
        else:
            while True:
                group = AbelianGroup((rng.randint(2, 6), rng.randint(2, 200)))
                try:
                    data = random_data(rng, group, min_branch=2, max_branch=3,
                                       require_total=True, max_H=10**7, tries=80)
                    break
                except RuntimeError:  # too few distinct lines, or no total span
                    continue
        ring = build_fiber_ring(data)
        assert ring.radices == data.group.moduli
        for chi, vector in zip(characters_of(data.group), ring.alphas, strict=True):
            assert vector == tuple(
                int(d * character_value(chi, datum.generator)) * pow(datum.char_residue, -1, d) % d
                for datum, d in zip(data.branch, data.orders))


class TestFiberRing:
    def test_dual_numbers(self):
        ring = build_fiber_ring(dual_numbers_data())
        assert ring.dimension == 2
        assert product_index(ring, 1, 1) is None
        assert product_index(ring, 0, 1) == 1

    def test_index_decodes_in_lexicographic_order(self):
        # The ring holds digit strings and no group: index k is the k-th
        # character of characters_of, named by the tests alone.
        assert FiberRing._fields == ("radices", "orders", "columns")
        rng = random.Random(3)
        for _ in range(5):
            data = random_total_data(rng, max_order=96, max_branch=4)
            ring = build_fiber_ring(data)
            assert ring.radices == data.group.moduli
            characters = list(characters_of(data.group))
            assert ring.dimension == len(characters)
            for k, chi in enumerate(characters):
                assert character_index(chi, data.group.moduli) == k
                assert ring.alphas[k] == tuple(
                    brute_discrete_log(Fraction(datum.char_residue, datum.order),
                                       character_value(chi, datum.generator), datum.order)
                    for datum in data.branch)

    def test_z2cubed_product(self):
        data = z2cubed_data()
        ring = build_fiber_ring(data)
        assert ring.dimension == 8
        moduli = data.group.moduli
        a = character_index((1, 1, 0), moduli)
        b = character_index((0, 0, 1), moduli)
        assert product_index(ring, a, b) == character_index((1, 1, 1), moduli)

    def test_z3_two_datum_zero_product(self):
        data = z3_two_datum()
        ring = build_fiber_ring(data)
        assert ring.dimension == 3
        c1 = character_index((1,), data.group.moduli)
        c2 = character_index((2,), data.group.moduli)
        assert product_index(ring, c1, c2) is None

    def test_rejects_partial_ramification(self):
        G = AbelianGroup((105,))
        data = validate(CombinatorialData(G, (BranchDatum(G.element((5,)), 1),)))
        with pytest.raises(ValueError, match="not totally ramified"):
            build_fiber_ring(data)

    def test_order_limit(self):
        with pytest.raises(LimitExceeded):
            build_fiber_ring(z2cubed_data(), order_limit=4)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_rejects_exactly_the_proper_spans(self, seed):
        # The build decides total ramification from the degree-0 fields of
        # the ring; the span enumerated element by element decides it too,
        # and so does a repeated exponent vector.
        rng = random.Random(seed)
        while True:
            try:
                data = random_data(rng, random_group(rng, max_order=144), max_branch=3)
                break
            except RuntimeError:  # too few distinct lines in a small group
                continue
        moduli = data.group.moduli
        span = brute_span(moduli, [datum.generator.residues for datum in data.branch])
        if len(span) < data.group.order:
            with pytest.raises(ValueError, match="not totally ramified"):
                build_fiber_ring(data)
        else:
            assert len(set(build_fiber_ring(data).alphas)) == data.group.order

    @given(st.integers(min_value=0, max_value=10**6))
    def test_rejects_the_proper_spans_on_wide_fields(self, seed):
        # Lines of Z/M (M > 256, the first on a unit) moved into Z/kM by
        # multiplication by k span kZ/kM, proper iff k = 2.  Their top
        # degree is at least M - 1, so the degrees take 2-byte fields,
        # where a search for degree 0 also matches across two fields whose
        # adjacent bytes are zero.
        rng = random.Random(seed)
        k = rng.choice((1, 2))
        M = rng.randint(257, 600 // k)
        lines = cyclic_lines(rng, M, rng.randint(1, 3))
        G = AbelianGroup((k * M,))
        data = validate(CombinatorialData(G, tuple(
            BranchDatum(G.element((k * datum.generator.residues[0],)), datum.char_residue)
            for datum in lines.branch)))
        span = brute_span(G.moduli, [datum.generator.residues for datum in data.branch])
        if len(span) < G.order:
            with pytest.raises(ValueError, match="not totally ramified"):
                build_fiber_ring(data)
        else:
            ring = build_fiber_ring(data)
            assert ring.degrees.itemsize == 2
            assert len(set(ring.alphas)) == G.order

    def test_representation_caps(self):
        # Both caps are checked before any column is built.  The lines span
        # half of G, so a build that missed a cap would allocate gigabytes
        # of columns before its totally-ramified check refused the ring.
        wide = CombinatorialData.from_residues((1114117, 2), [((1, 0), 1), ((1, 0), 2)])
        with pytest.raises(LimitExceeded, match="exponent cap: exponents up to 0x10ffff"):
            build_fiber_ring(wide, order_limit=1 << 22)
        deep = CombinatorialData.from_residues(
            (1 << 20, 2), [((1, 0), a) for a in range(1, 8195, 2)])
        assert sum(deep.orders) - deep.size >= 1 << 32
        with pytest.raises(LimitExceeded, match="degree cap: degrees below 2\\^32"):
            build_fiber_ring(deep, order_limit=1 << 21)

    def test_classify_path_keeps_no_alphas(self):
        ring = build_fiber_ring(elementary_lines(random.Random(71), 12, 1))
        assert ring.dimension == 4096
        assert list(socle_basis(ring))
        hilbert_numerator(ring)
        assert "alphas" not in ring.__dict__

    def test_top_level_settles_without_a_tally(self):
        # Two monomials at the top degree settle both fiber routes: the
        # walk stops after two yields and the palindrome test after one
        # level, and neither counts the tally nor reads the masks.  A
        # Gorenstein ring has one monomial there, so its palindrome test
        # compares every pair of coefficients, each one count of the
        # one-byte degree fields, and counts no tally either.  Its one socle
        # vector is (d_i - 1), since every exponent of column i occurs, so
        # the walk asks each column for mask d_i, which is there from the
        # start, and builds none.
        # Z/4093 with 3 lines on the generator 1 has one monomial at the top
        # degree and is not Gorenstein: the walk builds one mask per column
        # for it, by translation past the ASCII range, and sweeps none.
        ring = build_fiber_ring(elementary_lines(random.Random(71), 12, 1))
        assert ring.dimension == 4096 and ring.degrees.itemsize == 1
        assert hilbert_numerator(copy.copy(ring))[-1] >= 2
        assert len(list(islice(socle_basis(ring), 2))) == 2
        assert not hilbert_palindromic(ring)
        assert "tally" not in ring.__dict__ and "thresholds" not in ring.__dict__
        assert [dict(at) for at in ring.thresholds] == [{2: 0}] * 13
        gorenstein = build_fiber_ring(elementary_lines(random.Random(71), 12, 0))
        assert len(list(islice(socle_basis(gorenstein), 2))) == 1
        assert hilbert_palindromic(gorenstein)
        assert gorenstein.degrees.itemsize == 1 and "tally" not in gorenstein.__dict__
        assert [dict(at) for at in gorenstein.thresholds] == [{2: 0}] * 12
        C = AbelianGroup((4093,))
        wide = build_fiber_ring(validate(CombinatorialData(
            C, tuple(BranchDatum(C.element((1,)), a) for a in (1, 975, 2428)))))
        assert len(list(islice(socle_basis(wide), 2))) == 2
        assert [len(at) for at in wide.thresholds] == [2] * 3
        assert not any(0 in at for at in wide.thresholds)

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=10**6),
           st.sampled_from(("random", "cyclic", "wide", "empty")))
    def test_thresholds_match_the_definition(self, seed, source):
        # Mask v of column i is the set of indices k with alpha_i(k) >= v,
        # index k at bit n - 1 - k.  The rings fall on both sides of
        # d_i = 128, and every mask is asked for in a drawn order, so the
        # first request of a wide column is translated and the rest come
        # from its sweep, while a column of d_i <= 128 translates each.
        rng = random.Random(seed)
        if source == "random":
            rings = [build_fiber_ring(random_total_data(rng, max_order=256))]
        elif source == "cyclic":
            rings = [build_fiber_ring(cyclic_lines(rng, rng.randint(120, 300), rng.randint(1, 3)))]
        elif source == "wide":
            rings = [build_fiber_ring(data) for data in wide_order_data()]
        else:
            rings = [build_fiber_ring(validate(CombinatorialData(AbelianGroup(()), ())))]
        for ring in rings:
            assert len(ring.thresholds) == len(ring.orders)
            for i, (at, d) in enumerate(zip(ring.thresholds, ring.orders)):
                values = list(range(1, d + 1))
                rng.shuffle(values)
                for v in values:
                    bits = "".join("1" if alpha[i] >= v else "0" for alpha in ring.alphas)
                    assert at[v] == int(bits, 2)
                # The sweep is the one builder of mask 0.
                assert (0 in at) == (d > 128)

    def test_degrees_match_sums(self):
        # The fields are the narrowest that hold the top degree: 8 bits on
        # (Z/2)^12, 16 on the wide-order rings, and 32 on Z/4096 with 17
        # lines on the generator 1, whose top degree bound is 17 * 4095 = 69615.
        C = AbelianGroup((4096,))
        rings = [build_fiber_ring(elementary_lines(random.Random(73), 12, 3))]
        rings += [build_fiber_ring(data) for data in wide_order_data()]
        rings.append(build_fiber_ring(validate(CombinatorialData(
            C, tuple(BranchDatum(C.element((1,)), a) for a in range(1, 34, 2))))))
        assert len(rings[0].orders) >= 13
        assert max(max(ring.degrees) for ring in rings) > 255
        assert sum(rings[-1].orders) - len(rings[-1].orders) == 69615
        for ring in rings:
            assert list(ring.degrees) == [sum(alpha) for alpha in ring.alphas]
            top = sum(ring.orders) - len(ring.orders)
            assert ring.degrees.itemsize == (1 if top < 1 << 8 else 2 if top < 1 << 16 else 4)
        assert [ring.degrees.itemsize for ring in rings] == [1, 2, 2, 4]

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
            degs = ring.degrees
            n = ring.dimension
            characters = list(characters_of(data.group))
            table = ring.product_table()
            for i in range(n):
                for j in range(n):
                    k = product_index(ring, i, j)
                    assert table[i][j] == k
                    eps = carries(ring, characters[i], characters[j])
                    if k is None:
                        assert any(e == 1 for e in eps)
                    else:
                        assert all(e == 0 for e in eps)
                        assert degs[k] == degs[i] + degs[j]
                        product = tuple((a + b) % m for a, b, m in zip(
                            characters[i], characters[j], data.group.moduli))
                        assert k == character_index(product, data.group.moduli)


def ring_axioms_hold(ring):
    """Exhaustive identity/commutativity/associativity check via the product
    table, with a sentinel index n for the zero product."""
    n = ring.dimension
    table = [[n if v is None else v for v in row] + [n]
             for row in ring.product_table()]
    table.append([n] * (n + 1))
    ids = list(range(n))
    if table[0][:n] != ids or [row[0] for row in table[:n]] != ids:
        return False
    if any(table[i][j] != table[j][i] for i in range(n) for j in range(i)):
        return False
    return all(table[table[i][j]][k] == table[i][table[j][k]]
               for i in range(n) for j in range(n) for k in range(n))


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
        assert list(socle_basis(ring)) == [1]

    def test_z2cubed(self):
        data = z2cubed_data()
        ring = build_fiber_ring(data)
        assert list(socle_basis(ring)) == [character_index((1, 1, 1), data.group.moduli)]

    def test_z3_two_datum(self):
        ring = build_fiber_ring(z3_two_datum())
        assert set(socle_basis(ring)) == {1, 2}

    def test_never_empty_never_trivial(self):
        rng = random.Random(37)
        for _ in range(15):
            data = random_total_data(rng, max_order=96, max_branch=4)
            ring = build_fiber_ring(data)
            basis = list(socle_basis(ring))
            assert basis
            if data.size >= 1:
                assert 0 not in basis

    def test_matches_pairwise_scan(self):
        rng = random.Random(41)
        rings = []
        for _ in range(10):
            rings.append(build_fiber_ring(random_total_data(rng, max_order=32, max_branch=3)))
        while sum(ring.dimension > 128 for ring in rings) < 5:
            rings.append(build_fiber_ring(random_total_data(rng, max_order=256, max_branch=6)))
        for r in range(1, 7):
            for _ in range(3):
                extra = rng.randint(r, 4 * r)
                rings.append(build_fiber_ring(elementary_lines(rng, r, extra)))
        largest = 0
        for ring in rings:
            expected = pairwise_socle(ring)
            assert sorted_socle(ring) == expected
            largest = max(largest, len(expected))
        assert largest > 32

    def test_walk_order(self):
        # The walk yields by degree from the top down.  In Z/257 and Z/513
        # with one line index w has degree w, and the top degree n - 1 takes
        # 2-byte fields.  Its pattern also matches across two fields near
        # the start, at an offset that is not a multiple of the field width;
        # taken as a field, that match would yield a low index as well.
        rng = random.Random(79)
        rings = [build_fiber_ring(random_total_data(rng, max_order=256, max_branch=5))
                 for _ in range(20)]
        rings += [build_fiber_ring(data) for data in wide_order_data()]
        for n in (257, 513):
            C = AbelianGroup((n,))
            rings.append(build_fiber_ring(
                validate(CombinatorialData(C, (BranchDatum(C.element((1,)), 1),)))))
        for ring in rings:
            degrees = ring.degrees
            walk = [degrees[k] for k in socle_basis(ring)]
            assert walk[0] == max(degrees)
            assert walk == sorted(walk, reverse=True)
            assert sorted_socle(ring) == pairwise_socle(ring)
        for ring in rings[-2:]:
            fields, width = ring.degrees.obj, ring.degrees.itemsize
            top = (ring.dimension - 1).to_bytes(width, sys.byteorder)
            assert any(k % width and fields.startswith(top, k) for k in range(len(fields)))

    def test_large_socle_is_fast(self):
        # The socle pass pays per socle vector, so rings whose socle is most
        # of the ring are its slowest shape: (Z/2)^12 with 30 and 42 lines,
        # whose columns translate their one mask, and Z/4096 with 17 lines
        # on the generator 1, whose columns pass the ASCII range and are
        # swept.  Z/4099 with 3 lines on the generator 1, just past the
        # fiber bound, translates each mask its walk asks for and sweeps no
        # column; its product table asks for every mask, and sweeps each
        # column.  A swept column is the one that holds mask 0.
        cyclic = [
            validate(CombinatorialData(C, tuple(BranchDatum(C.element((1,)), a) for a in chars)))
            for C, chars in ((AbelianGroup((4096,)), range(1, 34, 2)),
                             (AbelianGroup((4099,)), (1, 975, 2428)))]
        cases = [(elementary_lines(random.Random(61), 12, extra), size, 0.3, False)
                 for extra, size in ((18, 3143), (30, 4047))]
        cases += [(cyclic[0], 3697, 1.0, True), (cyclic[1], 117, 1.0, False)]
        for data, size, bound, swept in cases:
            best = float("inf")
            for _ in range(3):
                start = perf_counter()
                ring = build_fiber_ring(data, order_limit=8192)
                basis = list(socle_basis(ring))
                best = min(best, perf_counter() - start)
            assert len(basis) == size
            assert best < bound, f"build and socle took {best:.3f} s with {data.size} lines"
            assert [0 in at for at in ring.thresholds] == [swept] * data.size
        # The last ring is Z/4099; row 0 is the identity's: w_0 * w_j = w_j.
        assert next(ring.product_rows(range(ring.dimension), None)) == list(range(4099))
        assert [0 in at for at in ring.thresholds] == [True] * 3

    def test_wide_orders(self):
        for data in wide_order_data():
            ring = build_fiber_ring(data)
            bases = [Fraction(datum.char_residue, datum.order) for datum in data.branch]
            for chi, vector in zip(characters_of(data.group), ring.alphas, strict=True):
                for a, base, datum in zip(vector, bases, data.branch):
                    assert 0 <= a < datum.order
                    assert (a * base - character_value(chi, datum.generator)) % 1 == 0
            assert max(data.orders) > 255
            assert sorted_socle(ring) == pairwise_socle(ring)
            degrees = [sum(alpha) for alpha in ring.alphas]
            coefficients = hilbert_numerator(ring)
            assert list(coefficients) == [degrees.count(d) for d in range(max(degrees) + 1)]

    def test_empty_branch_list(self):
        ring = build_fiber_ring(validate(CombinatorialData(AbelianGroup(()), ())))
        assert ring.alphas == ((),)
        assert sorted_socle(ring) == pairwise_socle(ring) == [0]
        assert hilbert_numerator(ring) == (1,)
        with pytest.raises(ValueError, match="not totally ramified"):
            build_fiber_ring(validate(CombinatorialData(AbelianGroup((2,)), ())))

    def test_copies_keep_the_socle(self):
        # A copy or an unpickled ring carries the fields only and rebuilds
        # its derived columns and degrees from them.
        rng = random.Random(67)
        rings = [build_fiber_ring(data) for data in wide_order_data()]
        rings.append(build_fiber_ring(elementary_lines(rng, 6, 10)))
        rings += [build_fiber_ring(random_total_data(rng, max_order=96, max_branch=4))
                  for _ in range(5)]
        for ring in rings:
            expected = list(socle_basis(ring))
            for copied in (pickle.loads(pickle.dumps(ring)), copy.deepcopy(ring)):
                assert copied == ring
                assert list(socle_basis(copied)) == expected
                assert hilbert_numerator(copied) == hilbert_numerator(ring)

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
            inverse = tuple(-c % m for c, m in zip(cert, data.group.moduli))
            assert list(socle_basis(ring)) == [character_index(inverse, data.group.moduli)]
            assert alpha_of(ring, inverse) == tuple(d - 1 for d in data.orders)
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
        assert numerator == (1, 2, 2, 1)
        assert palindromic(numerator)

    def test_z2cubed(self):
        numerator = hilbert_numerator(build_fiber_ring(z2cubed_data()))
        assert numerator == (1, 0, 6, 0, 1)
        assert palindromic(numerator)
        text = cmd_hilbert(z2cubed_data())[0]
        assert "numerator: 1 + 6*t^2 + t^4\npalindromic: yes\n" in text

    def test_z3_two_datum(self):
        numerator = hilbert_numerator(build_fiber_ring(z3_two_datum()))
        assert numerator == (1, 0, 0, 2)
        assert not palindromic(numerator)

    def test_first_unequal_pair_inside(self):
        # Z/5 + Z/8 with four lines: the numerator
        # 1 + t^6 + 3*t^10 + ... + 2*t^50 + t^56 has one monomial at its top
        # degree, so the palindrome test reaches its pairs, and the outer
        # five agree: only the pair at d = 6 decides, q_6 = 1 != 2 = q_50.
        # Each call is on a fresh copy of the ring.
        ring = build_fiber_ring(validate(CombinatorialData.from_residues(
            (5, 8), [((0, 4), 1), ((1, 1), 9), ((1, 4), 1), ((1, 4), 7)])))
        q = hilbert_numerator(copy.copy(ring))
        D = len(q) - 1
        assert (D, q[0], q[-1]) == (56, 1, 1)
        assert [d for d in range(D + 1) if q[d] != q[D - d]][0] == 6
        assert not palindromic(q)
        assert hilbert_palindromic(copy.copy(ring)) == palindromic(q)

    def test_palindromic_pairs_stop_at_the_cap(self, monkeypatch):
        # Z/128 + Z/32 with its coordinate lines (|G| = 4096, D = 158) is
        # Gorenstein, and its numerator is palindromic: the test compares
        # _PALINDROME_PAIRS pairs by count, about one tally's worth, and
        # reads the other 48 off the tally.
        G = AbelianGroup((128, 32))
        ring = build_fiber_ring(validate(CombinatorialData(
            G, tuple(BranchDatum(e, 1) for e in G.generators()))))
        assert ring.degrees.itemsize == 1 and max(ring.degrees) == 158
        calls = count_calls(monkeypatch, (FiberRing,), ("count",))
        assert hilbert_palindromic(ring)
        assert calls["count"] <= 2 * _PALINDROME_PAIRS
        assert "tally" in ring.__dict__

    @pytest.mark.parametrize("d", [1, _PALINDROME_PAIRS, _PALINDROME_PAIRS + 1, 49])
    def test_one_unequal_pair_on_either_side_of_the_cap(self, d):
        # One column of order 101 whose numerator is 1 + t + ... + t^100
        # with one more monomial at degree d: only the pair (d, 100 - d)
        # differs, whether it is counted or read off the tally.
        column = "".join(map(chr, [*range(101), d]))
        ring = FiberRing((len(column),), (101,), (column,))
        assert ring.degrees.itemsize == 1
        assert not palindromic(hilbert_numerator(copy.copy(ring)))
        assert not hilbert_palindromic(ring)
        flat = FiberRing((101,), (101,), (column[:-1],))
        assert hilbert_palindromic(flat)

    @given(st.integers(min_value=0, max_value=10**6),
           st.sampled_from(("coordinate", "extra", "cyclic", "character", "random")))
    @example(104, "extra")
    @example(1194, "extra")
    @example(1261, "cyclic")
    @example(0, "extra")
    @example(72267, "character")
    def test_palindromic_matches_the_numerator(self, seed, source):
        # Coordinate lines on Z/m_1 + ... + Z/m_k give palindromic
        # numerators with top degrees up to a few hundred, one-byte and
        # two-byte fields, so the pairs run past the cap; one extra line
        # makes most of them unequal somewhere.  In the examples the first
        # unequal pair lies past the cap, on one-byte fields at d = 31, 61
        # and 39, and on two-byte fields at d = 42.
        ring = palindrome_ring(seed, source)
        numerator = hilbert_numerator(copy.copy(ring))
        assert hilbert_palindromic(copy.copy(ring)) == palindromic(numerator)
        if source == "coordinate":
            assert palindromic(numerator)

    def test_total_count_and_degree_bound(self):
        rng = random.Random(59)
        for _ in range(15):
            data = random_total_data(rng, max_order=128, max_branch=4)
            numerator = hilbert_numerator(build_fiber_ring(data))
            assert sum(numerator) == data.group.order
            assert len(numerator) - 1 <= sum(d - 1 for d in data.orders)
            assert numerator[0] == 1


def palindrome_ring(seed, source):
    """A ring for the palindrome differential: Z/m_1 + ... + Z/m_k (k <= 3,
    |G| <= 4096) with its coordinate lines and random characters, or the
    same with one more random line ("extra"), or from cyclic_lines,
    character_lines or random_total_data.  A draw of character_lines can
    span a proper subgroup (seed 72267: (Z/5)^4, etale index 5), so its
    ring is that of the restriction."""
    rng = random.Random(seed)
    if source in ("coordinate", "extra"):
        while True:
            moduli = tuple(rng.randint(2, 300) for _ in range(rng.randint(1, 3)))
            if prod(moduli) <= 4096:
                break
        G = AbelianGroup(moduli)
        branch = [BranchDatum(e, rng.choice([a for a in range(1, m) if gcd(a, m) == 1]))
                  for e, m in zip(G.generators(), moduli)]
        if source == "extra":
            g = G.element([rng.randrange(m) for m in moduli])
            d = g.order()
            if d > 1:
                branch.append(BranchDatum(g, rng.choice([a for a in range(1, d) if gcd(a, d) == 1])))
        try:
            return build_fiber_ring(validate(CombinatorialData(G, tuple(branch))))
        except InvalidCoverData:  # the extra line repeats a pair
            return build_fiber_ring(validate(CombinatorialData(G, tuple(branch[:len(moduli)]))))
    if source == "cyclic":
        return build_fiber_ring(cyclic_lines(rng, rng.randint(2, 600), rng.randint(1, 3)))
    if source == "character":
        data = character_lines(rng)
        return build_fiber_ring(restrict(data, ramification_factorization(data)))
    return build_fiber_ring(random_total_data(rng, max_order=512, max_branch=5))


def top_level_ring(seed, source):
    """A ring for the top-level exits: from random_total_data (mostly
    one-byte fields), cyclic on Z/N with N <= 600 and 1-3 lines (one-byte
    and two-byte fields), or a wide-order ring."""
    rng = random.Random(seed)
    if source == "total":
        return build_fiber_ring(random_total_data(rng, max_order=256, max_branch=5))
    if source == "cyclic":
        return build_fiber_ring(cyclic_lines(rng, rng.randint(2, 600), rng.randint(1, 3)))
    return build_fiber_ring(rng.choice(list(wide_order_data())))


def check_top_level_exits(ring):
    """Assert that the exits at the top degree agree with the full routes,
    each on a fresh copy of the ring, and return the ring's kind: its field
    width, whether its top degree holds two monomials, whether it is
    Gorenstein, and whether its walk crosses degrees that do not occur."""
    coefficients = hilbert_numerator(copy.copy(ring))
    assert hilbert_palindromic(copy.copy(ring)) == palindromic(coefficients)
    degrees = ring.degrees
    walk = list(socle_basis(copy.copy(ring)))
    assert degrees[walk[0]] == max(degrees)
    assert walk == sorted(walk, key=lambda k: (-degrees[k], k))
    socle = pairwise_socle(ring)
    assert sorted(walk) == socle
    top = sum(ring.orders) - len(ring.orders)
    return (degrees.itemsize, coefficients[-1] >= 2, len(socle) == 1,
            top > len(coefficients) - 1)


class TestTopLevelExits:
    @given(st.integers(min_value=0, max_value=10**6),
           st.sampled_from(("total", "cyclic", "wide")))
    def test_exits_match_full_routes(self, seed, source):
        check_top_level_exits(top_level_ring(seed, source))

    def test_fixed_draws_cover_every_kind(self):
        # On both field widths: two monomials at the top, one monomial at
        # the top below a gap of absent degrees, and Gorenstein.
        draws = (("total", 0), ("total", 3), ("total", 1),
                 ("cyclic", 21), ("cyclic", 0), ("cyclic", 6), ("wide", 0))
        kinds = {check_top_level_exits(top_level_ring(seed, source))
                 for source, seed in draws}
        assert kinds == {(width, *kind) for width in (1, 2) for kind in (
            (True, False, True), (False, False, True), (False, True, False))}


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

    def test_limit(self, monkeypatch):
        monkeypatch.setattr(abelcover.groups, "DEFAULT_ENUMERATION_LIMIT", 10)
        with pytest.raises(LimitExceeded):
            monomials(z2cubed_data(), 12)

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

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=5),
           st.integers(min_value=0, max_value=8))
    @example(0, 0, 0)
    @example(0, 3, 0)
    def test_matches_sorted_brute_force(self, seed, s, max_degree):
        """The listing equals a brute force that shares no weight code with
        it: every alpha in [0, D]^s of degree <= D, kept when
        sum_i alpha_i t_i a_i / d_i, summed in Fractions, is an integer for
        every t of the enumerated kernel, and sorted by (degree, alpha).
        s = 0 is the empty document; the data need not be totally
        ramified."""
        if s:
            rng = random.Random(seed)
            while True:
                try:
                    data = random_data(rng, random_group(rng, max_order=64),
                                       min_branch=s, max_branch=s, max_H=600, tries=40)
                    break
                except RuntimeError:
                    continue
        else:
            data = validate(CombinatorialData(AbelianGroup(()), ()))
        psi = [[Fraction(t * datum.char_residue, datum.order) for t, datum in zip(k, data.branch)]
               for k in brute_kernel(data)]
        expected = sorted(
            (alpha for alpha in product(range(max_degree + 1), repeat=s)
             if sum(alpha) <= max_degree
             and all(sum((a * x for a, x in zip(alpha, v)), Fraction(0)) % 1 == 0 for v in psi)),
            key=lambda alpha: (sum(alpha), alpha))
        assert monomials(data, max_degree) == expected

    def test_counts_match_series(self):
        rng = random.Random(53)
        for _ in range(10):
            data = random_total_data(rng, max_order=64, max_branch=3, max_H=500)
            numerator = hilbert_numerator(build_fiber_ring(data))
            expected = series_counts(numerator, data.orders, 12)
            counts = [0] * 13
            for alpha in monomials(data, 12):
                counts[sum(alpha)] += 1
            assert counts == expected


#: The etale golden documents: (Z/2)^12 with 11 coordinate lines and their
#: diagonal (|M| = 2048), (Z/2)^14 with 12 or 13 of them (|M| = 4096, at
#: the bound, and 8192, past it), and (Z/4)^4 with three lines (etale index
#: 4, M = (Z/4)^3).
ETALE_GOLDENS = ("z2pow12-11lines-diagonal", "z2pow14-12lines-diagonal", "z2pow14-13lines-diagonal",
                 "z4pow4-3lines-etale")
GOLDEN = Path(__file__).parent / "data" / "golden"


def image_ring_sample(seed, source):
    """Valid data for the image ring differential: random_data over a random
    group (etale or totally ramified), character_lines, or an etale golden
    document."""
    rng = random.Random(seed)
    if source == "random":
        while True:
            try:
                return random_data(rng, random_group(rng, max_order=512), max_branch=4)
            except RuntimeError:
                continue
    if source == "character":
        return character_lines(rng)
    name = ETALE_GOLDENS[seed % len(ETALE_GOLDENS)]
    return validate(parse_input((GOLDEN / f"{name}.json").read_text()))


class TestImageRing:
    @given(st.integers(min_value=0, max_value=10**6),
           st.sampled_from(("random", "character", "golden")))
    @example(0, "golden")
    @example(1, "golden")
    @example(2, "golden")
    @example(3, "golden")
    def test_image_ring_is_the_ring_of_the_restriction(self, seed, source):
        # The echelon digits enumerate the image of alpha once each: the
        # exponent vectors of the ring of M, which the Smith form path
        # builds from the restricted data.  The socle walks of the two
        # rings, each over its own indices, find the same vectors.
        data = image_ring_sample(seed, source)
        presentation = ramification_factorization(data)
        limit = max(presentation.image_order, 4096)
        ring = build_image_ring(data, presentation.image_order, order_limit=limit)
        named = build_fiber_ring(restrict(data, presentation), order_limit=limit)
        vectors = Counter(ring.alphas)
        assert vectors == Counter(named.alphas)
        assert max(vectors.values()) == 1
        assert ring.dimension == presentation.image_order
        assert ({ring.alphas[k] for k in socle_basis(ring)}
                == {named.alphas[k] for k in socle_basis(named)})

    def test_bound_reads_the_image_order(self, monkeypatch):
        # (Z/2)^14 with 12 coordinate lines and their diagonal: |G| = 16384
        # and |M| = 4096.  The bound is read against |M| before any fold.
        data = image_ring_sample(1, "golden")
        assert data.group.order == 16384
        assert build_image_ring(data, 4096).dimension == 4096
        calls = count_calls(monkeypatch, (abelcover.groups,), ("_hermite_fold",))
        with pytest.raises(LimitExceeded, match="image order 4096 exceeds the fiber bound 2048"):
            build_image_ring(data, 4096, order_limit=2048)
        assert not calls

    def test_rejects_a_wrong_image_order(self):
        data = single_datum_z105()
        with pytest.raises(ArithmeticError, match="image ring disagrees with the image order"):
            build_image_ring(data, 105)
