"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete; without -s they still appear in the captured-output section of any
failure."""

import random
from itertools import product
from math import gcd
from time import perf_counter

from abelcover import (
    AbelianGroup,
    LCI,
    UNKNOWN,
    build_fiber_ring,
    classify,
    gorenstein_lift,
    gorenstein_watanabe,
    hilbert_numerator,
    invariant_monomials_up_to_degree,
    kernel_K,
    lci_classify,
    ramification_factorization,
)
from abelcover.groups import closure
from abelcover.classify import REASON_A_TYPE_SURFACE, REASON_RIGID_QUOTIENT
from abelcover.cli import cmd_example_run, EXIT_OK
from helpers import (
    chain_law_oracle,
    random_data,
    random_total_data,
    series_counts,
    z2cubed_data,
    z3sq_gorenstein,
    zpqr_data,
)
from test_fiber import ring_axioms_hold


def _finish(number, label, budget, start, failures):
    elapsed = perf_counter() - start
    if budget is not None and elapsed >= budget:
        failures.append(f"runtime {elapsed:.2f}s exceeded the {budget:.0f}s budget")
    status = "PASS" if not failures else "FAIL"
    timing = f"{elapsed:.2f}s" + (f" / {budget:.0f}s" if budget is not None else "")
    print(f"acceptance {number} ({label}): {status} [{timing}]")
    assert not failures, failures[:10]


def test_criterion_1_z2cubed_exactness():
    start = perf_counter()
    failures = []
    text, code = cmd_example_run("z2cubed", {})
    if code != EXIT_OK:
        failures.append(f"example run z2cubed failed:\n{text}")
    report = classify(z2cubed_data())
    checks = {
        "locally_simple": (report.locally_simple, False),
        "gorenstein": (report.gorenstein, True),
        "certificate": (report.certificate, (1, 1, 1)),
        "lci": (report.lci, "NotLCI"),
        "lci_reason": (report.lci_reason, REASON_RIGID_QUOTIENT),
        "smooth": (report.smooth, "NotSmooth"),
        "kernel.order": (report.kernel.order, 2),
        "kernel.min_support": (report.kernel.min_support, 4),
    }
    for field, (got, want) in checks.items():
        if got != want:
            failures.append(f"{field}: expected {want!r}, got {got!r}")
    _finish(1, "worked example on (Z/2)^3", 1.0, start, failures)


def test_criterion_2_zpqr_criterion_sweep():
    start = perf_counter()
    failures = []
    p, q, r = 3, 5, 7
    alphas = [a for a in range(1, p * q * r) if gcd(a, p * r) == 1]
    betas = [b for b in range(1, p * q * r) if gcd(b, p * q) == 1]
    spot = 0
    for alpha in alphas:
        for beta in betas:
            data = zpqr_data(p, q, r, alpha, beta)
            kd = kernel_K(data, ramification_factorization(data))
            if kd.order != p:
                failures.append(f"({alpha},{beta}): kernel order {kd.order} != {p}")
            expected = (alpha - beta) % p == 0
            cert = gorenstein_lift(data)
            if (cert is not None) != expected:
                failures.append(
                    f"({alpha},{beta}): gorenstein {cert is not None}, expected {expected}")
            if expected:
                verdict = lci_classify(data, kd, gorenstein_watanabe(data, kd))
                if verdict != (LCI, REASON_A_TYPE_SURFACE):
                    failures.append(f"({alpha},{beta}): lci verdict {verdict}")
            spot += 1
            if spot % 250 == 0:
                report = classify(data)
                if report.gorenstein != expected or report.kernel.order != p:
                    failures.append(f"({alpha},{beta}): full classify disagrees")
            if failures:
                break
        if failures:
            break
    if not failures and spot != len(alphas) * len(betas):
        failures.append("sweep terminated early")
    _finish(2, f"Z/105 criterion sweep over {spot} parameter pairs", 5.0, start, failures)


def test_criterion_3_elementary_abelian_equivalence():
    start = perf_counter()
    failures = []
    rng = random.Random(20260801)
    runs = 0
    while runs < 1000 and not failures:
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 4)
        group = AbelianGroup((p,) * n)
        data = random_data(rng, group, max_branch=max(1, min(6, p ** n - 1)))
        report = classify(data)
        if report.lci == UNKNOWN:
            failures.append(f"Unknown verdict on {group} data {data}")
        if (report.lci == LCI) != report.locally_simple:
            failures.append(
                f"lci {report.lci} vs locally_simple {report.locally_simple} on {data}")
        runs += 1
    _finish(3, f"lci = locally simple on {runs} (Z/p)^n data sets", 60.0, start, failures)


def test_criterion_4_four_oracle_agreement():
    start = perf_counter()
    failures = []
    rng = random.Random(20260802)
    runs = 0
    while runs < 500 and not failures:
        data = random_total_data(rng, max_order=512, max_branch=5)
        report = classify(data)
        c = report.cross_checks
        votes = (c.lift, c.watanabe, c.socle, c.hilbert_palindromic)
        if None in votes:
            failures.append(f"skipped route on order {data.group.order}: {votes}")
        elif len(set(votes)) != 1:
            failures.append(f"disagreement {votes} on {data}")
        runs += 1
    _finish(4, f"four Gorenstein routes agree on {runs} data sets", 120.0, start, failures)


def test_criterion_5_cyclic_chain_law():
    start = perf_counter()
    failures = []
    rng = random.Random(20260803)
    runs = 0
    gorenstein_seen = 0
    while runs < 200 and not failures:
        p = rng.choice((2, 3))
        n = rng.randint(1, 4)
        group = AbelianGroup((p ** n,))
        data = random_data(rng, group, max_branch=4)
        report = classify(data)
        expected = chain_law_oracle(data)
        if report.gorenstein != expected:
            failures.append(
                f"gorenstein {report.gorenstein}, chain law {expected} on {data}")
        gorenstein_seen += report.gorenstein
        runs += 1
    if not failures and gorenstein_seen == 0:
        failures.append("sweep never produced a Gorenstein instance")
    _finish(5, f"chain law on {runs} cyclic p-group data sets", 30.0, start, failures)


def test_criterion_6_fiber_ring_axioms():
    start = perf_counter()
    failures = []
    rng = random.Random(20260804)
    built_ins = [z2cubed_data(), z3sq_gorenstein(), zpqr_data(2, 3, 5, 1, 1)]
    samples = list(built_ins)
    while len(samples) < len(built_ins) + 100:
        samples.append(random_total_data(rng, max_order=64, max_branch=4))
    for data in samples:
        ring = build_fiber_ring(data)
        if ring.dimension != data.group.order:
            failures.append(f"dimension {ring.dimension} != |G| on {data}")
        elif not ring_axioms_hold(ring):
            failures.append(f"ring axioms failed on {data}")
        else:
            degs = ring.degrees
            table = ring.product_table()
            n = ring.dimension
            for i in range(n):
                for j in range(n):
                    k = table[i][j]
                    if k is not None and degs[k] != degs[i] + degs[j]:
                        failures.append(f"grading broken at ({i},{j}) on {data}")
                        break
                if failures:
                    break
        if failures:
            break
    _finish(6, f"ring axioms on {len(samples)} fiber rings", 60.0, start, failures)


def test_criterion_7_invariant_monoid_cross_checks():
    start = perf_counter()
    failures = []
    rng = random.Random(20260805)
    runs = 0
    while runs < 100 and not failures:
        data = random_total_data(rng, max_order=64, max_branch=4, max_H=400)
        monomials = invariant_monomials_up_to_degree(
            data, 12, presentation=ramification_factorization(data))
        counts = [0] * 13
        for alpha in monomials:
            counts[sum(alpha)] += 1
        ring = build_fiber_ring(data)
        numerator = hilbert_numerator(ring)
        expected = series_counts(numerator, data.orders, 12)
        if counts != expected:
            failures.append(f"counts {counts} != series {expected} on {data}")
        alpha_set = set(ring.alphas)
        members = set(monomials)
        bound = 6 if data.size >= 4 else 8
        for alpha in product(*(range(bound + 1) for _ in range(data.size))):
            if sum(alpha) > bound:
                continue
            reduced = tuple(a % d for a, d in zip(alpha, data.orders))
            if (alpha in members) != (reduced in alpha_set):
                failures.append(f"membership mismatch at {alpha} on {data}")
                break
        runs += 1
    _finish(7, f"invariant monoid cross-checks on {runs} data sets", 60.0, start, failures)


def test_criterion_8_kernel_support_properties():
    start = perf_counter()
    failures = []
    rng = random.Random(20260806)
    gorenstein_nonsimple = 0
    corpus = [z2cubed_data(), z3sq_gorenstein()]
    for _ in range(150):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 4)
        group = AbelianGroup((p,) * n)
        corpus.append(random_data(rng, group, max_branch=max(1, min(6, p ** n - 1))))
    for data in corpus:
        kd = kernel_K(data, ramification_factorization(data))
        if kd.order > 1 and kd.min_support is None:
            failures.append(f"kernel not enumerated on {data}")
            break
        supports = [sum(1 for x in e if x)
                    for e in closure(data.orders, kd.generators)]
        for support in supports:
            if 0 < support < 2:
                failures.append(f"kernel support {support} < 2 on {data}")
        if kd.order > 1 and gorenstein_lift(data) is not None:
            gorenstein_nonsimple += 1
            for support in supports:
                if 0 < support < 3:
                    failures.append(
                        f"elementary Gorenstein kernel support {support} < 3 on {data}")
        if failures:
            break
    if not failures and gorenstein_nonsimple < 5:
        failures.append(
            f"only {gorenstein_nonsimple} Gorenstein non-simple instances exercised")
    _finish(8, f"kernel supports on {len(corpus)} elementary abelian data sets", None,
            start, failures)
