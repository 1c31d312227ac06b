import gc
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from math import isqrt
from pathlib import Path
from time import perf_counter
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from abelcover import (
    AbelianGroup,
    CombinatorialData,
    LimitExceeded,
    build_fiber_ring,
    classify,
    invariant_monomials_up_to_degree,
    ramification_factorization,
    validate,
)
import abelcover.cli
import abelcover.cover
import abelcover.fiber
import abelcover.groups
from abelcover.cli import (
    DocumentError,
    EXAMPLE_MAX_PRIME,
    EXAMPLE_MAX_RANK,
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_LIMIT,
    EXIT_OK,
    REGISTRY,
    ExampleEntry,
    RegistryError,
    cmd_classify,
    cmd_example_run,
    cmd_factor,
    cmd_fiber,
    cmd_hilbert,
    cmd_socle,
    cmd_validate,
    examples_registry,
    expected_report,
    main,
    parse_input,
    print_document,
    report_json,
    report_to_json_dict,
)
from helpers import (
    count_calls,
    cyclic_lines,
    dual_numbers_data,
    elementary_lines,
    naive_product_table,
    naive_table_text,
    random_data,
    random_group,
    random_total_data,
    single_datum_z105,
    z2cubed_data,
    z6_unknown_case,
    zpqr_data,
)

Z2CUBED_TEXT = json.dumps({
    "group": [2, 2, 2],
    "branch": [
        {"generator": [1, 0, 0], "character": 1},
        {"generator": [0, 1, 0], "character": 1},
        {"generator": [0, 0, 1], "character": 1},
        {"generator": [1, 1, 1], "character": 1},
    ],
})

Z3_TWO_DATUM_TEXT = json.dumps({
    "group": [3],
    "branch": [
        {"generator": [1], "character": 1},
        {"generator": [1], "character": 2},
    ],
})

GOLDEN = Path(__file__).parent / "data" / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text())

REPORT_KEYS = [
    "locally_simple", "totally_ramified", "etale_index", "kernel",
    "gorenstein", "certificate", "cross_checks", "lci", "lci_reason",
    "smooth", "assumptions",
]


def _spawn_env() -> dict:
    """The environment for a spawned interpreter that imports this tree's
    package."""
    src = str(Path(__file__).parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _random_report_data(seed: int) -> CombinatorialData:
    """Valid data on a random small group, totally ramified or not."""
    rng = random.Random(seed)
    return random_data(rng, random_group(rng, max_order=96), max_branch=4)


#: The commands the fuzzer drives, each on one document read from stdin.
FUZZ_COMMANDS = (
    ("validate",), ("classify",), ("classify", "--json"), ("factor",), ("socle",),
    ("hilbert", "--max-degree", "6"), ("fiber",), ("fiber", "--table"),
)

#: Values of the wrong type for any field, and small integers out of range.
JUNK = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=3),
    st.integers(min_value=-3, max_value=12), st.lists(st.integers(min_value=-2, max_value=9), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(min_value=0, max_value=9), max_size=2),
)


def _valid_document(seed: int) -> str:
    """A valid document: rank <= 3, |G| <= 128, at most 5 lines."""
    rng = random.Random(seed)
    while True:
        try:
            data = random_data(rng, random_group(rng, max_order=128), min_branch=0, max_branch=5)
        except RuntimeError:
            continue
        return json.dumps(data.to_json_dict())


@st.composite
def cover_documents(draw) -> dict:
    """A small document of the right shape: rank <= 3, moduli <= 8, at most
    5 lines.  The branch data need not validate."""
    moduli = draw(st.lists(st.integers(min_value=2, max_value=8), max_size=3))
    lines = draw(st.integers(min_value=0, max_value=5))
    return {"group": moduli, "branch": [
        {"generator": [draw(st.integers(min_value=0, max_value=m - 1)) for m in moduli],
         "character": draw(st.integers(min_value=1, max_value=9))}
        for _ in range(lines)]}


@st.composite
def malformed_documents(draw) -> str:
    """A document text with one defect: a field or a list entry of the
    wrong type, a missing field, an unknown field, or the text cut short."""
    doc = draw(cover_documents())
    kind = draw(st.sampled_from(("junk", "entry", "missing", "unknown", "truncated")))
    if kind == "truncated":
        text = json.dumps(doc)
        return text[:draw(st.integers(min_value=0, max_value=len(text) - 1))]
    objects = [doc, *doc["branch"]]
    lists = [x for x in [doc["group"], *(line["generator"] for line in doc["branch"])] if x]
    if kind == "entry" and lists:
        entries = draw(st.sampled_from(lists))
        entries[draw(st.integers(min_value=0, max_value=len(entries) - 1))] = draw(JUNK)
    else:
        target = draw(st.sampled_from(objects))
        if kind == "missing":
            del target[draw(st.sampled_from(sorted(target)))]
        elif kind == "unknown":
            target[draw(st.text(min_size=1, max_size=4).filter(lambda k: k not in target))] = draw(JUNK)
        else:
            target[draw(st.sampled_from(sorted(target)))] = draw(JUNK)
    return json.dumps(doc)


class TestParseInput:
    def test_z2cubed(self):
        doc = parse_input(Z2CUBED_TEXT)
        assert doc.group.moduli == (2, 2, 2)
        assert len(doc.branch) == 4
        assert doc.branch[3].generator.residues == (1, 1, 1)

    def test_trivial_document(self):
        doc = parse_input('{"group": [], "branch": []}')
        assert doc.group.moduli == () and doc.branch == ()

    def test_non_generating_character_passes_parse(self):
        doc = parse_input('{"group": [4], "branch": [{"generator": [1], "character": 2}]}')
        text, code = cmd_validate(doc)
        assert code == EXIT_INVALID
        assert "NonGeneratingCharacter" in text

    def test_syntax_error_has_location(self):
        with pytest.raises(DocumentError) as exc:
            parse_input('{"group": [2], ')
        assert "line" in str(exc.value)

    def test_unknown_field_rejected(self):
        with pytest.raises(DocumentError) as exc:
            parse_input('{"group": [2], "branch": [], "extra": 1}')
        assert "extra" in str(exc.value)

    def test_unknown_branch_field_rejected(self):
        with pytest.raises(DocumentError) as exc:
            parse_input(
                '{"group": [2], "branch": [{"generator": [1], "character": 1, "x": 0}]}')
        assert "branch[0]" in str(exc.value)

    def test_small_modulus_rejected(self):
        with pytest.raises(DocumentError) as exc:
            parse_input('{"group": [1], "branch": []}')
        assert "group[0]" in str(exc.value)

    def test_generator_length_checked(self):
        with pytest.raises(DocumentError) as exc:
            parse_input('{"group": [2, 2], "branch": [{"generator": [1], "character": 1}]}')
        assert "branch[0].generator" in str(exc.value)

    def test_booleans_are_not_integers(self):
        with pytest.raises(DocumentError):
            parse_input('{"group": [true], "branch": []}')

    @pytest.mark.parametrize("text, message", [
        ('[]', "$: document must be a JSON object"),
        ('{"group":[2]}', "$: fields 'group' and 'branch' are required"),
        ('{"group":2,"branch":[]}', "group: must be a list of moduli"),
        ('{"group":[2],"branch":{}}', "branch: must be a list"),
        ('{"group":[2],"branch":[1]}', "branch[0]: must be an object"),
        ('{"group":[2],"branch":[{"generator":[1]}]}',
         "branch[0]: fields 'generator' and 'character' are required"),
        ('{"group":[2],"branch":[{"generator":1,"character":1}]}',
         "branch[0].generator: must be a list of residues"),
    ], ids=["not-object", "missing-branch", "group-not-list", "branch-not-list",
            "entry-not-object", "missing-character", "generator-not-list"])
    def test_shape_errors(self, text, message, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["classify"]) == EXIT_INVALID
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("text, message", [
        ('{"group":[2,2],"branch":[{"generator":[1,true],"character":1}]}',
         "branch[0].generator[1]: expected an integer, got True"),
        ('{"group":[2,2,2],"branch":[{"generator":[1,0,"1"],"character":1}]}',
         "branch[0].generator[2]: expected an integer, got '1'"),
        ('{"group":[2,2,2],"branch":[{"generator":[1,0,0],"character":1},'
         '{"generator":[0,1,2.5],"character":1}]}',
         "branch[1].generator[2]: expected an integer, got 2.5"),
        ('{"group":[2],"branch":[{"generator":[1],"character":"1"}]}',
         "branch[0].character: expected an integer, got '1'"),
        ('{"group":[2,"3"],"branch":[]}',
         "group[1]: expected an integer, got '3'"),
    ], ids=["bool-residue", "string-residue", "float-residue-second-entry",
            "string-character", "string-modulus"])
    def test_value_error_locations(self, text, message, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["classify"]) == EXIT_INVALID
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_round_trip(self):
        for name in REGISTRY:
            doc = examples_registry(name)
            assert parse_input(print_document(doc)) == doc


class TestCommands:
    def test_validate_ok(self):
        text, code = cmd_validate(parse_input(Z2CUBED_TEXT))
        assert code == EXIT_OK
        assert "valid" in text

    def test_classify_text(self):
        text, code = cmd_classify(parse_input(Z2CUBED_TEXT))
        assert code == EXIT_OK
        assert "gorenstein: yes" in text
        assert "lci: NotLCI (rigid-quotient)" in text
        assert "smooth: NotSmooth" in text

    def test_classify_json_schema(self):
        text, code = cmd_classify(parse_input(Z2CUBED_TEXT), as_json=True)
        assert code == EXIT_OK
        report = json.loads(text)
        assert list(report) == REPORT_KEYS
        assert list(report["kernel"]) == ["order", "generators", "min_support"]
        assert report["certificate"] == [1, 1, 1]
        assert report["kernel"]["order"] == 2

    def test_classify_json_deterministic(self):
        first, _ = cmd_classify(parse_input(Z2CUBED_TEXT), as_json=True)
        second, _ = cmd_classify(parse_input(Z2CUBED_TEXT), as_json=True)
        assert first == second

    def test_classify_json_leaves_no_cyclic_garbage(self):
        # Cyclic garbage is freed only by full collections, and each one
        # empties CPython's tuple free lists; a report that leaves none
        # keeps both, and so peak memory, flat over many documents.
        docs = [parse_input((GOLDEN / case["document"]).read_text())
                for case in GOLDEN_CASES if case["args"] == ["classify", "--json"]]
        rng = random.Random(71)
        docs += [random_total_data(rng, max_order=96, max_branch=4) for _ in range(5)]
        gc.collect()
        gc.disable()
        try:
            for doc in docs:
                cmd_classify(doc, as_json=True)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6).map(_random_report_data), st.booleans())
    @example(single_datum_z105(), False)  # etale index 5
    @example(dual_numbers_data(), False)  # K = 0: no kernel generators
    @example(zpqr_data(alpha=1, beta=2), False)  # no lift: certificate null
    @example(validate(CombinatorialData(AbelianGroup(()), ())), False)  # certificate []
    @example(z6_unknown_case(), True)  # past the probe budget: min_support null
    def test_report_json_layout(self, data, limited):
        with pytest.MonkeyPatch.context() as patch:
            if limited:
                patch.setattr(abelcover.groups, "DEFAULT_ENUMERATION_LIMIT", 1)
            report = classify(data)
        text = report_json(report)
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert json.loads(text) == report_to_json_dict(report)
        # Against the report's fields, key order included.
        kernel, checks = report.kernel, report.cross_checks
        expected = {
            "locally_simple": report.locally_simple,
            "totally_ramified": report.totally_ramified,
            "etale_index": report.etale_index,
            "kernel": {
                "order": kernel.order,
                "generators": [list(g.residues) for g in kernel.generators],
                "min_support": kernel.min_support,
            },
            "gorenstein": report.gorenstein,
            "certificate": (None if report.certificate is None
                            else list(report.certificate.residues)),
            "cross_checks": {"lift": checks.lift, "watanabe": checks.watanabe,
                             "socle": checks.socle,
                             "hilbert_palindromic": checks.hilbert_palindromic},
            "lci": report.lci,
            "lci_reason": report.lci_reason,
            "smooth": report.smooth,
            "assumptions": list(report.assumptions),
        }
        assert text == json.dumps(expected, indent=2) + "\n"

    def test_classify_invalid_data(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(
            '{"group": [4], "branch": [{"generator": [1], "character": 2}]}'))
        assert main(["classify"]) == EXIT_INVALID
        assert capsys.readouterr() == (
            "invalid cover data: branch[0]: NonGeneratingCharacter: gcd(2, 4) != 1,"
            " character does not generate the dual\n", "")

    def test_fiber_table_matches_naive(self):
        rng = random.Random(29)
        samples = [z2cubed_data(),
                   validate(CombinatorialData(AbelianGroup(()), ())),
                   cyclic_lines(rng, 200, 1),
                   cyclic_lines(rng, 128, 3),
                   cyclic_lines(rng, 300, 2)]
        samples += [random_total_data(rng, max_order=144) for _ in range(10)]
        for data in samples:
            assert_table_matches_naive(data)

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_fiber_table_matches_naive_random(self, seed):
        rng = random.Random(seed)
        if rng.random() < 0.5:
            data = cyclic_lines(rng, rng.randint(128, 300), rng.randint(1, 3))
        else:
            data = random_total_data(rng, max_order=144)
        assert_table_matches_naive(data)

    def test_fiber_table_aligned(self):
        # Rows 1000 and above once printed one column right of the header.
        data = elementary_lines(random.Random(31), 10, 1)
        text, code = cmd_fiber(data, table=True)
        assert code == EXIT_OK
        table = text[text.index("products (row * column, . = zero):\n"):].splitlines()[1:]
        assert len(table) == 1025
        assert {len(line) for line in table} == {len(table[0])}

    def test_fiber_limit(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(Z2CUBED_TEXT))
        assert main(["fiber", "--max-order", "4"]) == EXIT_LIMIT
        assert capsys.readouterr() == (
            "limit exceeded: group order 8 exceeds the fiber bound 4\n", "")

    def test_socle(self):
        text, code = cmd_socle(parse_input(Z3_TWO_DATUM_TEXT))
        assert code == EXIT_OK
        assert "socle dimension: 2" in text
        assert "gorenstein: no" in text

    def test_hilbert(self):
        text, code = cmd_hilbert(parse_input(Z2CUBED_TEXT), max_degree=6)
        assert code == EXIT_OK
        assert "1 + 6*t^2 + t^4" in text
        assert "palindromic: yes" in text

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=12),
           st.sampled_from((10**6, 1000, 100, 10)))
    def test_hilbert_counts_match_the_listing(self, seed, max_degree, limit):
        # hilbert reads its counts off the numerator of the totally ramified
        # part; the listing walks the exponent vectors of the input data,
        # partially ramified draws included.  Both refuse past one bound.
        rng = random.Random(seed)
        data = random_data(rng, random_group(rng, max_order=256), max_branch=5)
        with mock.patch.object(abelcover.groups, "DEFAULT_ENUMERATION_LIMIT", limit):
            try:
                listing = invariant_monomials_up_to_degree(
                    data, max_degree, presentation=ramification_factorization(data))
            except LimitExceeded as exc:
                with pytest.raises(LimitExceeded) as info:
                    cmd_hilbert(data, max_degree=max_degree)
                assert str(info.value) == str(exc)
                return
            text, code = cmd_hilbert(data, max_degree=max_degree)
        counts = Counter(map(sum, listing))
        assert code == EXIT_OK
        assert text.splitlines()[3:] == [
            f"  degree {d}: {counts[d]}" for d in range(max_degree + 1)]

    @pytest.mark.parametrize("command", [
        cmd_socle, cmd_hilbert, cmd_fiber, lambda doc: cmd_fiber(doc, table=True)],
        ids=["socle", "hilbert", "fiber", "fiber-table"])
    def test_one_ring_per_command(self, command, monkeypatch):
        # Each ring command presents the sum map once and builds one ring;
        # hilbert counts off its numerator and lists no monomial.
        calls = count_calls(
            monkeypatch, (abelcover.cli, abelcover.cover, abelcover.fiber),
            ("ramification_factorization", "build_fiber_ring", "invariant_monomials_up_to_degree"))
        for data in (z2cubed_data(), single_datum_z105(), zpqr_data(), dual_numbers_data()):
            calls.clear()
            assert command(data)[1] == EXIT_OK
            assert calls == {"ramification_factorization": 1, "build_fiber_ring": 1}

    def test_factor(self):
        doc = parse_input('{"group": [105], "branch": [{"generator": [5], "character": 1}]}')
        text, code = cmd_factor(doc)
        assert code == EXIT_OK
        assert "etale index: 5" in text
        assert "restricted group: Z/21" in text


def assert_table_matches_naive(data):
    """fiber --table prints the plain fiber listing and then the product
    table, which matches its cell-by-cell formatting; product_table()
    matches product_index cell by cell."""
    ring = build_fiber_ring(data)
    text, code = cmd_fiber(data, table=True)
    assert code == EXIT_OK
    # The first differing line or row, not a diff of the whole table.
    got, want = text.splitlines(), (cmd_fiber(data)[0] + naive_table_text(ring)).splitlines()
    bad = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
    assert bad is None, f"{data}: line {bad}: {got[bad]!r}, expected {want[bad]!r}"
    assert len(got) == len(want) and text.endswith("\n")
    got, want = ring.product_table(), naive_product_table(ring)
    bad = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), None)
    assert bad is None, f"{data}: row {bad}: {got[bad]}, expected {want[bad]}"
    assert len(got) == len(want)


class TestRegistry:
    def test_known_names(self):
        assert set(REGISTRY) == {"z2cubed", "zpqr", "zpn-chain", "elementary"}

    def test_unknown_example(self):
        for lookup in (examples_registry, expected_report):
            with pytest.raises(RegistryError):
                lookup("nonesuch")

    def test_unknown_parameter(self):
        for lookup in (examples_registry, expected_report):
            with pytest.raises(RegistryError):
                lookup("zpqr", {"gamma": 1})

    def test_bad_parameters(self):
        with pytest.raises(RegistryError):
            examples_registry("zpqr", {"p": 4})
        with pytest.raises(RegistryError):
            examples_registry("zpqr", {"alpha": 3})  # gcd(3, 21) != 1
        with pytest.raises(RegistryError):
            examples_registry("zpn-chain", {"s": 9})

    def test_prime_parameters(self):
        # The primes are proven by groups.proven_prime under the
        # EXAMPLE_MAX_PRIME bound: the numbers accepted and the refusals'
        # texts are those of the trial division that came before.
        trial = [n for n in range(2, 5000) if all(n % d for d in range(2, isqrt(n) + 1))]
        assert [n for n in range(-3, 5000) if abelcover.cli._is_prime(n)] == trial
        assert abelcover.cli._is_prime(999983) and not abelcover.cli._is_prime(1000003)
        with pytest.raises(RegistryError, match=r"^p = 1000003 must be a prime <= 1000000$"):
            examples_registry("elementary", {"p": 1000003})
        with pytest.raises(RegistryError, match=r"^p = 1 must be a prime <= 1000000$"):
            examples_registry("zpn-chain", {"p": 1})
        with pytest.raises(RegistryError,
                           match=r"^zpqr needs primes p < q < r <= 1000000, got 3, 9, 7$"):
            examples_registry("zpqr", {"q": 9})

    @pytest.mark.parametrize("name, params", [
        ("zpqr", {"p": 4}),
        ("zpqr", {"alpha": 3}),
        ("zpqr", {"beta": 3}),
        ("zpqr", {"r": 1000003}),
        ("zpn-chain", {"s": 9}),
        ("zpn-chain", {"p": 4}),
        ("zpn-chain", {"c": 2}),
        ("zpn-chain", {"p": 2, "n": 64, "s": 2}),
        ("elementary", {"p": 4}),
        ("elementary", {"n": EXAMPLE_MAX_RANK + 1}),
    ], ids=lambda v: " ".join(f"{k}={x}" for k, x in v.items()) if isinstance(v, dict) else v)
    def test_bad_parameters_refused_by_both_lookups(self, name, params):
        for lookup in (examples_registry, expected_report):
            with pytest.raises(RegistryError):
                lookup(name, params)

    def test_run_reports_a_mismatch(self, monkeypatch):
        entry = REGISTRY["z2cubed"]

        def make(params):
            doc, expected = entry.make(params)
            return doc, dict(expected, **{"kernel.order": 3})

        monkeypatch.setitem(REGISTRY, "z2cubed", ExampleEntry(
            entry.name, entry.summary, entry.defaults, make))
        text, code = cmd_example_run("z2cubed", {})
        assert code == EXIT_INVALID
        assert "  MISMATCH kernel.order: expected 3, got 2\n" in text
        assert "  ok       gorenstein = true\n" in text
        assert text.endswith("result: FAIL (1 mismatches)\n")

    def test_run_all_defaults(self):
        for name in REGISTRY:
            text, code = cmd_example_run(name, {})
            assert code == EXIT_OK, text
            assert "PASS" in text

    def test_run_parameter_grid(self):
        cases = [
            ("zpqr", {"alpha": 2, "beta": 2}),
            ("zpqr", {"alpha": 1, "beta": 2}),
            ("zpqr", {"p": 2, "q": 3, "r": 5, "alpha": 1, "beta": 1}),
            ("zpn-chain", {"p": 3, "n": 2, "s": 2}),
            ("zpn-chain", {"p": 2, "n": 4, "s": 1}),
            ("elementary", {"p": 5, "n": 2}),
        ]
        for name, params in cases:
            text, code = cmd_example_run(name, params)
            assert code == EXIT_OK, text

    def test_largest_accepted_parameters(self):
        # The three largest primes below 10^6, the largest rank, and the
        # longest chain with p^n within 64 bits; one step past each bound is
        # refused.
        cases = [
            ("zpqr", {"p": 999961, "q": 999979, "r": 999983, "alpha": 1, "beta": 1}),
            ("elementary", {"p": 999983, "n": EXAMPLE_MAX_RANK}),
            ("zpn-chain", {"p": 2, "n": 63, "s": 63}),
        ]
        start = perf_counter()
        for name, params in cases:
            text, code = cmd_example_run(name, params)
            assert code == EXIT_OK, text
        elapsed = perf_counter() - start
        assert elapsed < 1, f"examples took {elapsed:.3f} s"
        assert EXAMPLE_MAX_PRIME < 1000003
        for name, params in [("zpqr", {"r": 1000003}),
                             ("elementary", {"n": EXAMPLE_MAX_RANK + 1}),
                             ("zpn-chain", {"p": 2, "n": 64, "s": 2})]:
            with pytest.raises(RegistryError):
                examples_registry(name, params)


class TestMain:
    def test_classify_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(Z2CUBED_TEXT))
        code = main(["classify", "--json"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert json.loads(out)["gorenstein"] is True

    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "cover.json"
        path.write_text(Z2CUBED_TEXT)
        code = main(["classify", str(path)])
        assert code == EXIT_OK
        assert "gorenstein: yes" in capsys.readouterr().out

    def test_example_run_exit_codes(self, capsys):
        assert main(["example", "run", "z2cubed"]) == EXIT_OK
        capsys.readouterr()
        assert main(["example", "run", "nonesuch"]) == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["example", "run", "zpqr", "--param", "r=1000000000000000003"],
        ["example", "run", "elementary", "--param", "n=2000"],
        ["example", "run", "zpn-chain", "--param", "n=20000", "--param", "s=2"],
        ["example", "show", "zpn-chain", "--param", "n=10000000", "--param", "s=1"],
    ])
    def test_example_parameters_out_of_range(self, args, capsys):
        start = perf_counter()
        assert main(args) == EXIT_INVALID
        assert perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_example_list(self, capsys):
        assert main(["example", "list"]) == EXIT_OK
        assert capsys.readouterr() == (
            "elementary   (Z/p)^n with the n coordinate subgroups: locally simple, smooth point\n"
            "             parameters: n=3 p=2\n"
            "z2cubed      (Z/2)^3 with four branch lines: Gorenstein but not locally simple,"
            " not lci\n"
            "zpn-chain    Z/p^n with a chain of s subgroups and matching characters:"
            " always Gorenstein\n"
            "             parameters: c=1 n=3 p=2 s=3\n"
            "zpqr         Z/pqr surface point: Gorenstein iff alpha = beta (mod p),"
            " then an A-type lci\n"
            "             parameters: alpha=1 beta=1 p=3 q=5 r=7\n", "")

    @pytest.mark.parametrize("args, message", [
        (["example", "show", "zpqr", "--param", "p"], "--param needs NAME=VALUE, got 'p'"),
        (["example", "run", "zpqr", "--param", "p=x"], "parameter 'p' needs an integer, got 'x'"),
    ], ids=["no-equals", "not-an-integer"])
    def test_param_errors(self, args, message, capsys):
        assert main(args) == EXIT_INVALID
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("args, usage, message", [
        (["classify", "--max-order", "abc"], "usage: abelcover classify ",
         "abelcover classify: error: argument --max-order: invalid int value: 'abc'"),
        (["bogus"], "usage: abelcover ",
         "abelcover: error: argument command: invalid choice: 'bogus'"),
        (["example", "run"], "usage: abelcover example run ",
         "abelcover example run: error: the following arguments are required: name"),
    ], ids=["bad-int", "unknown-command", "missing-name"])
    def test_usage_errors_exit_invalid(self, args, usage, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(usage)
        assert message in captured.err.splitlines()[-1]

    def test_help_exits_ok(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: abelcover ")

    def test_syntax_error_exit(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("{not json"))
        assert main(["classify"]) == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    def test_example_show_round_trip(self, capsys):
        assert main(["example", "show", "zpqr", "--param", "alpha=2"]) == EXIT_OK
        out = capsys.readouterr().out
        doc = parse_input(out)
        assert doc.branch[0].char_residue == 2

    def test_missing_file(self, capsys):
        assert main(["classify", "/no/such/file.json"]) == EXIT_INVALID
        assert "error:" in capsys.readouterr().err

    def _single_error_line(self, capsys) -> str:
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        return captured.err

    def test_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"group": [2], "branch": []}\xff')
        assert main(["classify", str(path)]) == EXIT_INVALID
        assert self._single_error_line(capsys).startswith(f"error: {path}: ")

    def test_integer_past_digit_limit(self, capsys, monkeypatch):
        text = '{"group": [' + "7" * 5000 + '], "branch": []}'
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["classify"]) == EXIT_INVALID
        assert self._single_error_line(capsys).startswith("error: $: ")

    def test_nesting_past_recursion_limit(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("[" * 10**5))
        assert main(["classify"]) == EXIT_INVALID
        assert self._single_error_line(capsys).startswith("error: $: ")

    def test_negative_max_degree(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(Z2CUBED_TEXT))
        assert main(["hilbert", "--max-degree", "-1"]) == EXIT_INVALID
        assert self._single_error_line(capsys).startswith("error: --max-degree: ")

    def test_max_degree_bounded_without_branch_lines(self, capsys, monkeypatch):
        # With s = 0 the walk visits one empty exponent vector whatever the
        # degree, so only the count of degree rows can bound the work.
        monkeypatch.setattr("sys.stdin", io.StringIO('{"group": [2], "branch": []}'))
        start = perf_counter()
        assert main(["hilbert", "--max-degree", "1000000000"]) == EXIT_LIMIT
        assert perf_counter() - start < 1
        assert capsys.readouterr() == (
            "limit exceeded: enumerating exponents up to degree 1000000000 in 0 "
            "variables exceeds the bound 1000000\n", "")

    @pytest.mark.parametrize("command", ["classify", "fiber", "socle", "hilbert"])
    def test_max_order_below_one(self, command, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(Z2CUBED_TEXT))
        assert main([command, "--max-order", "0"]) == EXIT_INVALID
        assert self._single_error_line(capsys) == "error: --max-order: must be >= 1, got 0\n"

    def test_exponents_past_the_code_point_range(self, capsys, monkeypatch):
        # Lines of order 1114117 have exponents past U+10FFFF, which the
        # fiber ring cannot hold: classify skips both fiber routes and the
        # fiber commands stop at the limit, all before any column is built.
        text = json.dumps({"group": [1114117], "branch": [
            {"generator": [1], "character": 1},
            {"generator": [1], "character": 2},
        ]})
        start = perf_counter()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["classify", "--max-order", "2000000"]) == EXIT_OK
        captured = capsys.readouterr()
        assert ("  cross-checks: lift=no watanabe=no socle=skipped (limit) "
                "hilbert=skipped (limit)\n") in captured.out
        assert captured.err == ""
        for command in ("socle", "fiber", "hilbert"):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            assert main([command, "--max-order", "2000000"]) == EXIT_LIMIT
            assert capsys.readouterr() == (
                "limit exceeded: branch order 1114117 exceeds the fiber ring's exponent cap: "
                "exponents up to 0x10ffff\n", "")
        assert perf_counter() - start < 1

    def test_cross_check_disagreement(self, capsys, monkeypatch):
        # A disagreement between Gorenstein routes is a bug: one located
        # line, then the canonical input as a one-line reproducer, exit 3.
        import importlib
        decider = importlib.import_module("abelcover.classify")
        sl_test = decider.gorenstein_watanabe
        monkeypatch.setattr(decider, "gorenstein_watanabe",
                            lambda data, kernel: not sl_test(data, kernel))
        text = json.dumps({"group": [6, 4], "branch": [
            {"generator": [5, 2], "character": 7},
            {"generator": [3, 3], "character": 1},
        ]})
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["classify", "--json"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        message, reproducer = captured.err.splitlines()
        assert message == (
            "internal error: Gorenstein deciders disagree: GorensteinChecks(lift=True, "
            "watanabe=False, socle=True, hilbert_palindromic=True)")
        data = validate(parse_input(text))
        assert parse_input(reproducer) == data
        assert data != parse_input(text)  # the input was not canonical

    def test_import_loads_only_the_standard_library(self):
        probe = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import abelcover.cli\n"
            "tops = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(sorted(tops - set(sys.stdlib_module_names) - {'abelcover'}))\n"
        )
        result = subprocess.run([sys.executable, "-c", probe], env=_spawn_env(),
                                capture_output=True, text=True, check=True)
        assert result.stdout == "[]\n"

    def test_import_path_has_no_code_generation(self):
        # Start-up cost: none of these modules does the package's arithmetic,
        # and together they cost a CLI call more than the package itself.
        src = str(Path(__file__).parents[1] / "src")
        probe = (
            "import sys\n"
            "import abelcover.cli\n"
            "heavy = ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'typing')\n"
            "print(sorted(name for name in heavy if name in sys.modules))\n"
        )
        result = subprocess.run([sys.executable, "-S", "-c", probe],
                                env=dict(os.environ, PYTHONPATH=src),
                                capture_output=True, text=True, check=True)
        assert result.stdout == "[]\n"

    @pytest.mark.parametrize("args, text, exit_code", [
        (["classify", "--json"], Z2CUBED_TEXT, EXIT_OK),
        (["classify"], '{"group": [4], "branch": [{"generator": [1], "character": 2}]}',
         EXIT_INVALID),
        (["classify", "--max-order", "abc"], Z2CUBED_TEXT, EXIT_INVALID),
        (["fiber", "--max-order", "4"], Z2CUBED_TEXT, EXIT_LIMIT),
        (["--help"], "", EXIT_OK),
    ], ids=["classify-json", "invalid-document", "malformed-command-line", "limit", "help"])
    def test_spawned_exit_matches_in_process(self, args, text, exit_code, capsys, monkeypatch):
        # The process's entry point ends through its own exit path; what it
        # prints and returns is what main(argv) prints and returns.
        monkeypatch.setenv("COLUMNS", "80")
        result = subprocess.run([sys.executable, "-m", "abelcover.cli", *args],
                                input=text, env=_spawn_env(), capture_output=True, text=True)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        frozen = gc.get_freeze_count()
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        assert gc.get_freeze_count() == frozen
        out, err = capsys.readouterr()
        assert code == exit_code
        assert (result.stdout, result.stderr, result.returncode) == (out, err, code)

    def test_spawned_main_freezes_before_exit(self):
        probe = (
            "import atexit, gc, sys\n"
            "from abelcover.cli import main\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
            "sys.argv = ['abelcover', 'example', 'list']\n"
            "sys.exit(main())\n"
        )
        result = subprocess.run([sys.executable, "-c", probe], env=_spawn_env(),
                                capture_output=True, text=True)
        assert (result.returncode, result.stderr) == (EXIT_OK, "frozen True\n")
        assert result.stdout.startswith("elementary ")

    def test_closed_pipe_exits_invalid_without_traceback(self):
        # The table is megabytes, so the write is still blocked on the pipe
        # when the reader closes it.
        document = GOLDEN / "z2pow12-diagonal.json"
        env = _spawn_env()
        env.pop("PYTHONUNBUFFERED", None)
        with subprocess.Popen([sys.executable, "-m", "abelcover.cli", "fiber", "--table",
                               str(document)], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            head = proc.stdout.read(100)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert head.startswith(b"fiber ring dimension: 4096\n") and len(head) == 100
        assert (code, err) == (EXIT_INVALID, b"")

    def test_traced_functions_exist(self, monkeypatch):
        # The benchmark's tracer wraps these names from outside; a renamed
        # or moved function would otherwise surface only in its own tests.
        path = Path(__file__).parents[1] / "bench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("bench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec.loader.exec_module(tracing)
        assert tracing.TARGETS
        for home, attr, _ in tracing.TARGETS:
            module = importlib.import_module(home)
            cls_name, _, name = attr.rpartition(".")
            owner = vars(getattr(module, cls_name)) if cls_name else vars(module)
            assert callable(owner.get(name)), f"{home}.{attr}"


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.integers(min_value=0, max_value=10**6).map(_valid_document),
                     cover_documents().map(json.dumps), malformed_documents()),
           st.sampled_from(FUZZ_COMMANDS))
    @example('{"group": [], "branch": []}', ("hilbert", "--max-degree", "6"))
    @example("", ("classify", "--json"))
    @example('{"group": [2, 2], "branch": [{"generator": [1, 0], "character": 1}], "x": 1}',
             ("validate",))
    def test_main_on_stdin(self, text, command):
        """cli.main in-process on small documents: valid ones, well-formed
        ones whose branch data need not validate, and malformed ones.  Every
        run ends with exit 0, 1 or 2, raises nothing, and writes no
        traceback.  No time bound is claimed here."""
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("sys.stdin", io.StringIO(text))
            patch.setattr("sys.stdout", out)
            patch.setattr("sys.stderr", err)
            code = main(list(command))
        assert code in (EXIT_OK, EXIT_INVALID, EXIT_LIMIT), (code, out.getvalue(), err.getvalue())
        assert "Traceback" not in err.getvalue()


class TestGolden:
    """Byte-for-byte CLI output on fixed documents: the registry examples at
    their defaults, a partially ramified point (Z/105 with one line through
    5), a totally ramified point over the fiber bound ((Z/2)^13 with the
    coordinate lines and the diagonal) and one whose exponents pass 255
    (Z/8 + Z/9 + Z/7 with lines of orders 504, 504, 168 and 252; plain
    `fiber`, since its table would have 254016 cells) and one whose kernel
    is large but whose minimal support is small ((Z/2)^12 with 30 lines,
    |K| = 2^18; `classify --json` only).  Two cyclic rings take the wider
    degree fields: Z/4093 with 3 lines on the generator 1 (16-bit fields;
    `socle` walks 4093 levels) and Z/4096 with 17 (32-bit fields; `socle`
    sweeps its 17 columns, each past the ASCII range).  Two fiber-large
    documents (benchmark seed 1) pin the walk's exits at the top degree,
    with `classify --json` and `socle`: (Z/2)^12 with the coordinate lines
    and the diagonal, whose top degree holds two monomials, and (Z/16)^3
    with the coordinate lines and two more, whose top degree holds one and
    whose walk crosses degrees that do not occur.  Z/4 + Z/8 + Z/3 with
    three lines (`validate` and `classify --json`) pins canonical
    generators whose multiplier is not 1: one fixed at its first nonzero
    coordinate with a nonzero one after it, one fixed at the second
    coordinate after a first of lower order, and one fixed at the last.
    Two kernel-large documents (benchmark seed 1) pin the Hermite fold
    exactly: (Z/5)^3 with 12 lines (`factor` and `classify --json`; 9
    kernel generator lines, folds that divide into pivots already opened)
    and Z/100003 + Z/6 with 2 lines (`classify --json`; the lift at
    L = 600018).  Two `hilbert` runs on (Z/2)^3 pin the `hilbert` bound:
    at `--max-degree 67` the C(71, 4) = 971635 exponent vectors stay within
    DEFAULT_ENUMERATION_LIMIT and it exits 0, and at `--max-degree 68` they
    pass it and it exits 2 with its `limit exceeded:` line.  Z/5 + Z/8
    with four lines (`classify --json` and plain `hilbert`) has one monomial
    at its top degree 56 and a numerator whose first unequal pair is inside,
    q_6 != q_50, so the palindrome test decides past its outer pairs.
    Two documents pin the support search when every line has prime order
    (`classify --json`): (Z/7)^3 with six lines, the diagonal twice under
    two characters (once written as 2*(1,1,1)), so the pairs' keyed pass
    answers min_support 2 at the pair {2, 5}; and (Z/10007)^8 with 16
    lines from random.Random(1), whose search runs to size 8 in about
    0.5 s.  Two etale documents pin the restriction to M, restrict, on the
    ring commands: (Z/4)^4 with three lines (cli-commands' random:z4^4:etale
    at benchmark seed 1; etale index 4, M = (Z/4)^3; `factor`, `socle`,
    `hilbert --max-degree 10`, `fiber --table` and `classify --json`), and
    (Z/2)^14 with 13 coordinate lines and their diagonal (`factor`, M =
    (Z/2)^13, and `socle`, which exits 2 past the fiber bound).
    The captures are the behaviour contract of the text and JSON reports;
    they are never regenerated to follow a code change."""

    @pytest.mark.parametrize(
        "case", GOLDEN_CASES, ids=[c["stdout"].removesuffix(".out") for c in GOLDEN_CASES])
    def test_stdout_and_exit_code(self, case, capsys):
        code = main(case["args"] + [str(GOLDEN / case["document"])])
        captured = capsys.readouterr()
        assert code == case["exit"]
        assert captured.err == ""
        assert captured.out == (GOLDEN / case["stdout"]).read_bytes().decode("utf-8")
