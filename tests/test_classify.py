import random
import sys
from fractions import Fraction
from time import perf_counter

import pytest

from abelcover import (
    AbelianGroup,
    BranchDatum,
    CombinatorialData,
    KernelDescription,
    LCI,
    NOT_LCI,
    NOT_SMOOTH,
    SMOOTH_CONDITIONAL,
    UNKNOWN,
    build_fiber_ring,
    classify,
    gorenstein_lift,
    gorenstein_watanabe,
    hilbert_numerator,
    kernel_K,
    lci_classify,
    ramification_factorization,
    socle_basis,
    validate,
)
from abelcover.classify import (
    REASON_A_TYPE_SURFACE,
    REASON_LIMIT,
    REASON_LOCALLY_SIMPLE,
    REASON_NOT_GORENSTEIN,
    REASON_OPEN_CASE,
    REASON_RIGID_QUOTIENT,
)
import abelcover.cover
import abelcover.groups
from abelcover.cli import examples_registry
from helpers import (
    chain_law_oracle,
    character_value,
    elementary_lines,
    random_data,
    random_group,
    random_total_data,
    single_datum_z105,
    z2cubed_data,
    z3_two_datum,
    z6_unknown_case,
    zpqr_data,
)


def empty_data(moduli=(2, 2)):
    return CombinatorialData(AbelianGroup(moduli), ())


def kernel_of(data):
    return kernel_K(data, ramification_factorization(data))


def socle_is_simple(data):
    """Socle test on the fiber ring of the totally ramified restriction."""
    restricted = ramification_factorization(data).restricted
    return len(list(socle_basis(build_fiber_ring(restricted)))) == 1


class TestGorensteinLift:
    def test_z2cubed(self):
        cert = gorenstein_lift(z2cubed_data())
        assert cert is not None and cert.residues == (1, 1, 1)

    def test_zpqr_mismatch(self):
        assert gorenstein_lift(zpqr_data(alpha=1, beta=2)) is None

    def test_zpqr_match(self):
        cert = gorenstein_lift(zpqr_data(alpha=1, beta=1))
        assert cert is not None and cert.residues == (1,)

    def test_empty_data(self):
        cert = gorenstein_lift(empty_data())
        assert cert is not None and not any(cert.residues)

    def test_certificate_soundness(self):
        rng = random.Random(3)
        hits = 0
        for _ in range(60):
            data = random_data(rng, random_group(rng, max_order=256), max_branch=4)
            cert = gorenstein_lift(data)
            if cert is None:
                continue
            hits += 1
            for datum in data.branch:
                assert character_value(cert, datum.generator) == Fraction(
                    datum.char_residue, datum.order)
        assert hits >= 5

    def test_lex_smallest_certificate_off_image(self):
        # <5> in Z/105 leaves 5 lifting characters; the least residue is alpha mod 21.
        cert = gorenstein_lift(single_datum_z105())
        assert cert is not None and cert.residues == (1,)

    def test_lift_needs_no_smith_form(self, monkeypatch):
        def refuse(matrix):
            raise AssertionError("smith_normal_form called")

        monkeypatch.setattr(abelcover.groups, "smith_normal_form", refuse)
        monkeypatch.setattr(abelcover.cover, "smith_normal_form", refuse)
        cases = [
            ("z2cubed", {}, (1, 1, 1)),
            ("zpqr", {}, (1,)),
            ("zpqr", {"alpha": 2}, None),
            ("zpqr", {"p": 5, "q": 7, "r": 11, "alpha": 3, "beta": 3}, (3,)),
            ("zpn-chain", {}, (1,)),
            ("zpn-chain", {"p": 3, "n": 4, "s": 4, "c": 2}, (2,)),
            ("elementary", {}, (1, 1, 1)),
            ("elementary", {"p": 5, "n": 4}, (1, 1, 1, 1)),
        ]
        for name, params, expected in cases:
            cert = gorenstein_lift(examples_registry(name, params))
            assert (None if cert is None else cert.residues) == expected, (name, params)


class TestGorensteinWatanabe:
    def test_trivial_kernel(self):
        data = empty_data()
        assert gorenstein_watanabe(data, kernel_of(data))

    def test_z2cubed(self):
        data = z2cubed_data()
        assert gorenstein_watanabe(data, kernel_of(data))

    def test_z3_two_datum(self):
        data = z3_two_datum()
        assert not gorenstein_watanabe(data, kernel_of(data))


class TestGorensteinSocle:
    def test_dual_numbers(self):
        G = AbelianGroup((2,))
        data = validate(CombinatorialData(G, (BranchDatum(G.element((1,)), 1),)))
        assert socle_is_simple(data)

    def test_z2cubed(self):
        assert socle_is_simple(z2cubed_data())

    def test_z3_two_datum(self):
        assert not socle_is_simple(z3_two_datum())

    def test_restricts_internally(self):
        assert socle_is_simple(single_datum_z105())

    def test_classify_pulls_at_most_two(self, monkeypatch):
        # (Z/2)^12 with 42 lines: a socle of 4047 characters, of which
        # classify needs two to know that the point is not Gorenstein.
        data = elementary_lines(random.Random(61), 12, 30)
        expected = classify(data)
        pulls = []

        def counting(ring):
            for chi in socle_basis(ring):
                pulls.append(chi)
                yield chi

        monkeypatch.setattr(sys.modules[classify.__module__], "socle_basis", counting)
        assert classify(data) == expected
        assert len(pulls) == 2
        assert expected.cross_checks.socle is False
        restricted = ramification_factorization(data).restricted
        assert len(list(socle_basis(build_fiber_ring(restricted)))) == 4047


def lci_of(data):
    kd = kernel_of(data)
    return lci_classify(data, kd, gorenstein_watanabe(data, kd))


def data_of_size(s):
    """Unvalidated data with s lines; the lci table reads only their number."""
    G = AbelianGroup((2,))
    return CombinatorialData(G, tuple(BranchDatum(G.element((1,)), 1) for _ in range(s)))


#: (|K|, min_support, gorenstein, s) -> verdict, one case per path through
#: the table, including each pair of rules whose order matters.
LCI_TABLE = [
    ((1, None, True, 1), (LCI, REASON_LOCALLY_SIMPLE)),
    ((1, None, True, 4), (LCI, REASON_LOCALLY_SIMPLE)),
    ((1, None, False, 3), (LCI, REASON_LOCALLY_SIMPLE)),       # rule 1 before 2
    ((2, 2, False, 2), (NOT_LCI, REASON_NOT_GORENSTEIN)),
    ((2, 3, False, 3), (NOT_LCI, REASON_NOT_GORENSTEIN)),      # rule 2 before 3
    ((2, None, False, 3), (NOT_LCI, REASON_NOT_GORENSTEIN)),   # rule 2 before limit
    ((2, 3, True, 3), (NOT_LCI, REASON_RIGID_QUOTIENT)),
    ((4, 4, True, 6), (NOT_LCI, REASON_RIGID_QUOTIENT)),
    ((2, 3, True, 2), (NOT_LCI, REASON_RIGID_QUOTIENT)),       # rule 3 before 4
    ((3, 2, True, 2), (LCI, REASON_A_TYPE_SURFACE)),
    ((3, None, True, 2), (LCI, REASON_A_TYPE_SURFACE)),        # no limit at s = 2
    ((3, 2, True, 3), (UNKNOWN, REASON_OPEN_CASE)),
    ((6, 2, True, 5), (UNKNOWN, REASON_OPEN_CASE)),
    ((3, None, True, 3), (UNKNOWN, REASON_LIMIT)),
    ((6, None, True, 5), (UNKNOWN, REASON_LIMIT)),
]


class TestLciClassify:
    @pytest.mark.parametrize("facts, expected", LCI_TABLE)
    def test_table(self, facts, expected):
        order, min_support, gorenstein, s = facts
        kernel = KernelDescription((), order, min_support)
        assert lci_classify(data_of_size(s), kernel, gorenstein) == expected

    def test_z2cubed(self):
        assert lci_of(z2cubed_data()) == (NOT_LCI, REASON_RIGID_QUOTIENT)

    def test_zpqr_gorenstein(self):
        assert lci_of(zpqr_data(alpha=1, beta=1)) == (LCI, REASON_A_TYPE_SURFACE)

    def test_zpqr_not_gorenstein(self):
        assert lci_of(zpqr_data(alpha=1, beta=2)) == (NOT_LCI, REASON_NOT_GORENSTEIN)

    def test_locally_simple(self):
        assert lci_of(empty_data()) == (LCI, REASON_LOCALLY_SIMPLE)
        assert lci_of(single_datum_z105()) == (LCI, REASON_LOCALLY_SIMPLE)

    def test_open_case(self):
        assert lci_of(z6_unknown_case()) == (UNKNOWN, REASON_OPEN_CASE)

    def test_limit_reason(self, monkeypatch):
        monkeypatch.setattr(abelcover.groups, "DEFAULT_ENUMERATION_LIMIT", 1)
        verdict, reason = lci_of(z6_unknown_case())
        assert (verdict, reason) == (UNKNOWN, REASON_LIMIT)

    def test_limit_does_not_matter_for_surfaces(self, monkeypatch):
        monkeypatch.setattr(abelcover.groups, "DEFAULT_ENUMERATION_LIMIT", 1)
        assert lci_of(zpqr_data()) == (LCI, REASON_A_TYPE_SURFACE)


class TestSmoothness:
    def test_empty(self):
        assert classify(empty_data()).smooth == SMOOTH_CONDITIONAL

    def test_standard_generators(self):
        G = AbelianGroup((3, 3))
        data = validate(CombinatorialData(
            G, tuple(BranchDatum(g, 1) for g in G.generators())))
        assert classify(data).smooth == SMOOTH_CONDITIONAL

    def test_z2cubed(self):
        assert classify(z2cubed_data()).smooth == NOT_SMOOTH


class TestClassify:
    def test_one_sl_test_per_document(self, monkeypatch):
        # The lci table reads the SL verdict that classify already cross-checked.
        decider = sys.modules[classify.__module__]
        sl_test = decider.gorenstein_watanabe
        calls = []

        def counting(data, kernel):
            calls.append(data)
            return sl_test(data, kernel)

        monkeypatch.setattr(decider, "gorenstein_watanabe", counting)
        rng = random.Random(29)
        seen = 0
        while seen < 40:
            data = random_data(rng, random_group(rng, max_order=256), max_branch=4)
            if kernel_of(data).order == 1:
                continue
            calls.clear()
            classify(data)
            assert calls == [data]
            seen += 1

    def test_z2cubed_report(self):
        report = classify(z2cubed_data())
        assert not report.locally_simple
        assert report.totally_ramified and report.etale_index == 1
        assert report.kernel.order == 2 and report.kernel.min_support == 4
        assert report.gorenstein and report.certificate.residues == (1, 1, 1)
        assert report.lci == NOT_LCI and report.lci_reason == REASON_RIGID_QUOTIENT
        assert report.smooth == NOT_SMOOTH
        assert report.assumptions

    def test_zpqr_reports(self):
        good = classify(zpqr_data(alpha=1, beta=1))
        assert good.gorenstein and good.lci == LCI and not good.locally_simple
        bad = classify(zpqr_data(alpha=1, beta=2))
        assert not bad.gorenstein and bad.lci == NOT_LCI and bad.certificate is None

    def test_empty_report(self):
        report = classify(empty_data())
        assert report.locally_simple and report.gorenstein
        assert not any(report.certificate.residues)
        assert report.lci == LCI and report.smooth == SMOOTH_CONDITIONAL
        assert not report.totally_ramified and report.etale_index == 4

    def test_partial_ramification(self):
        report = classify(single_datum_z105())
        assert report.locally_simple and report.etale_index == 5
        assert not report.totally_ramified
        assert report.gorenstein and report.certificate.residues == (1,)
        assert report.lci == LCI and report.smooth == SMOOTH_CONDITIONAL

    def test_large_moduli_are_fast(self):
        p, q = 10**9 + 7, 10**9 + 9
        G = AbelianGroup((p, q))
        data = validate(CombinatorialData(G, (
            BranchDatum(G.element((123456789, 987654321)), 5),
            BranchDatum(G.element((31415926, 0)), 2),
        )))
        start = perf_counter()
        report = classify(data)
        elapsed = perf_counter() - start
        # Canonically the lines are (1, 1) and (1, 0); chi = (c1, c2) lifts
        # both iff c1 = a2 (mod p) and c1 q + c2 p = a1 (mod pq).
        a1, a2 = (datum.char_residue for datum in data.branch)
        assert report.gorenstein == ((a1 * pow(q, -1, p) - a2) % p == 0)
        assert report.kernel.order == p and report.kernel.min_support == 2
        assert report.cross_checks.socle is None
        assert elapsed < 1.0, f"classify took {elapsed:.3f} s"

    def test_wide_kernel_probes_before_enumerating(self):
        # (Z/2)^12 with 30 lines: |K| = 2^18 is below the 2^30 - 32 subsets,
        # so K is enumerated only if |K| probes do not decide.  The walk
        # decides at 12271 probes; enumerating K would visit 262144
        # elements.
        data = elementary_lines(random.Random(61), 12, 18)
        start = perf_counter()
        report = classify(data)
        elapsed = perf_counter() - start
        assert report.kernel.order == 2**18 and report.kernel.min_support == 4
        assert elapsed < 2.0, f"classify took {elapsed:.3f} s"

    def test_fiber_routes_skipped_over_limit(self):
        report = classify(z2cubed_data(), fiber_order_limit=4)
        assert report.cross_checks.socle is None
        assert report.cross_checks.hilbert_palindromic is None
        assert report.gorenstein and report.lci == NOT_LCI

    def test_monotone_consistency(self):
        rng = random.Random(59)
        for _ in range(40):
            data = random_data(rng, random_group(rng, max_order=256), max_branch=4)
            report = classify(data)
            if report.locally_simple:
                assert report.gorenstein and report.certificate is not None
                assert report.lci == LCI and report.smooth == SMOOTH_CONDITIONAL
            if report.lci == NOT_LCI:
                assert not report.locally_simple
            assert report.gorenstein == (report.certificate is not None)

    def test_four_route_agreement_spot(self):
        rng = random.Random(61)
        for _ in range(30):
            data = random_total_data(rng, max_order=128, max_branch=4)
            report = classify(data)
            checks = report.cross_checks
            assert checks.socle is not None and checks.hilbert_palindromic is not None
            assert checks.lift == checks.watanabe == checks.socle == checks.hilbert_palindromic

    def test_socle_certificate_link(self):
        rng = random.Random(67)
        hits = 0
        for _ in range(40):
            data = random_total_data(rng, max_order=96, max_branch=4)
            report = classify(data)
            if report.gorenstein:
                hits += 1
                numerator = hilbert_numerator(build_fiber_ring(data))
                assert numerator.palindromic
        assert hits >= 3

    def test_chain_law_smoke(self):
        rng = random.Random(71)
        agree = 0
        for _ in range(40):
            G = AbelianGroup((rng.choice((2, 3)) ** rng.randint(1, 4),))
            data = random_data(rng, G, max_branch=4)
            report = classify(data)
            assert report.gorenstein == chain_law_oracle(data)
            agree += 1
        assert agree == 40

    def test_restriction_preserves_verdicts(self):
        # Classification is stable under factoring out the etale part.
        rng = random.Random(79)
        checked = 0
        while checked < 20:
            data = random_data(rng, random_group(rng, max_order=256),
                               max_branch=3, min_branch=1)
            fact = ramification_factorization(data)
            if fact.totally_ramified:
                continue
            full = classify(data)
            restricted = classify(fact.restricted)
            assert full.locally_simple == restricted.locally_simple
            assert full.gorenstein == restricted.gorenstein
            assert full.kernel.order == restricted.kernel.order
            assert full.kernel.min_support == restricted.kernel.min_support
            assert (full.lci, full.lci_reason) == (restricted.lci, restricted.lci_reason)
            assert full.smooth == restricted.smooth
            assert restricted.totally_ramified and restricted.etale_index == 1
            checked += 1

    def test_elementary_never_unknown(self):
        rng = random.Random(73)
        for _ in range(40):
            p = rng.choice((2, 3))
            n = rng.randint(1, 3)
            data = random_data(rng, AbelianGroup((p,) * n), max_branch=5)
            report = classify(data)
            assert report.lci != UNKNOWN
            assert (report.lci == LCI) == report.locally_simple
