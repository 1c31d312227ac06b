"""Tests of the benchmark's own parts: the seeded generator, the output
checker and the outside-in tracing.

    PYTHONPATH=src python -m pytest bench/tests -q
"""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import corpus  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402

import abelcover.cli as cli  # noqa: E402
import abelcover.cover  # noqa: E402
import abelcover.groups  # noqa: E402


def classify_text(doc) -> str:
    text, code = cli.cmd_classify(cli.parse_input(doc.text), as_json=True)
    assert code == 0
    return text


def registry(name):
    return next(d for d in corpus.registry_docs() if d.params["name"] == name)


@pytest.mark.parametrize("name", sorted(corpus.WORKLOAD_DOCS))
def test_same_seed_same_bytes_other_seed_other_documents(name):
    make = corpus.WORKLOAD_DOCS[name]
    first = [d.text for d in make(11)]
    assert first == [d.text for d in make(11)]
    assert first != [d.text for d in make(12)]


def test_registry_documents_are_the_package_examples():
    for doc in corpus.registry_docs():
        expected = cli.examples_registry(doc.params["name"]).to_json_dict()
        assert json.loads(doc.text) == expected


def test_generated_documents_validate():
    for doc in corpus.small_mixed(5)[:200] + corpus.kernel_large(5) + corpus.cli_docs(5):
        out, code = cli.cmd_validate(cli.parse_input(doc.text))
        assert code == 0, (doc.id, out)


def test_subgroup_order_agrees_with_closure():
    rng = random.Random(3)
    for _ in range(200):
        moduli = tuple(rng.choice((2, 3, 4, 6, 8, 9)) for _ in range(rng.randint(1, 3)))
        gens = [tuple(rng.randrange(m) for m in moduli) for _ in range(rng.randint(0, 4))]
        assert oracle.subgroup_order(gens, moduli) == corpus.span_size(gens, moduli)


def test_checker_accepts_the_package_reports():
    docs = corpus.registry_docs() + corpus.small_mixed(2)[:150] + corpus.cli_docs(2)
    for doc in docs:
        expected = cli.expected_report(doc.params["name"]) if doc.kind == "registry" else None
        assert oracle.check_report(doc, classify_text(doc), expected) == [], doc.id


def mutated(doc, change) -> list[str]:
    report = json.loads(classify_text(doc))
    change(report)
    return oracle.check_report(doc, json.dumps(report, indent=2) + "\n")


def test_checker_rejects_a_flipped_gorenstein_verdict():
    doc = registry("z2cubed")

    def flip(report):
        report["gorenstein"] = not report["gorenstein"]

    assert mutated(doc, flip)


def test_checker_rejects_a_corrupted_certificate():
    doc = registry("z2cubed")

    def corrupt(report):
        report["certificate"][0] = (report["certificate"][0] + 1) % 2

    assert any("certificate" in p for p in mutated(doc, corrupt))


def test_checker_rejects_a_wrong_kernel_order():
    doc = corpus.zpqr_doc(1, 2)

    def wrong(report):
        report["kernel"]["order"] += 1

    assert any("kernel.order" in p for p in mutated(doc, wrong))


def test_checker_rejects_an_unwitnessed_non_gorenstein_verdict():
    doc = corpus.zpqr_doc(1, 1)

    def deny(report):
        report["gorenstein"] = False
        report["certificate"] = None

    problems = mutated(doc, deny)
    assert any("psi kills every kernel generator" in p for p in problems)


def test_checker_checks_cli_command_outputs():
    doc = corpus.cli_docs(4)[0]
    gorenstein = json.loads(classify_text(doc))["gorenstein"]
    parsed = cli.parse_input(doc.text)
    outputs = {
        ("validate",): cli.cmd_validate(parsed),
        ("factor",): cli.cmd_factor(parsed),
        ("socle",): cli.cmd_socle(parsed),
        ("hilbert", "--max-degree", "10"): cli.cmd_hilbert(parsed, max_degree=10),
        ("fiber", "--table"): cli.cmd_fiber(parsed, table=True),
    }
    for command, (text, code) in outputs.items():
        assert code == 0
        assert oracle.check_command(doc, command, text, gorenstein) == [], command
    for command in (("socle",), ("hilbert", "--max-degree", "10")):
        assert oracle.check_command(doc, command, outputs[command][0], not gorenstein)


def test_wrapping_leaves_outputs_unchanged_and_is_undone():
    docs = corpus.registry_docs() + corpus.small_mixed(1)[:40]
    plain = [classify_text(d) for d in docs]
    snf = abelcover.groups.smith_normal_form
    tracer = tracing.Tracer()
    with tracer.installed():
        assert abelcover.cover.smith_normal_form is not snf
        traced = []
        for doc in docs:
            with tracer.span("document", doc.id):
                traced.append(classify_text(doc))
    assert traced == plain
    assert tracing.untouched()
    assert abelcover.groups.smith_normal_form is snf
    assert abelcover.cover.smith_normal_form is snf
    names = {s[tracing.NAME] for s in tracer.spans}
    assert {"parse_input", "validate", "kernel_K", "smith_normal_form", "classify",
            "build_fiber_ring", "socle_basis", "solve_character_congruences"} <= names
    metrics = tracing.layer_metrics(tracer.spans, len(docs))
    assert metrics["groups.snf_calls"] > 0 and metrics["fiber.socle_ms"] > 0


def test_self_time_subtracts_children():
    spans = [("a", 0, 100, -1, None, 0), ("b", 10, 40, 0, None, 0), ("c", 50, 60, 0, None, 0),
             ("d", 20, 30, 1, None, 0)]
    assert tracing.self_times(spans) == [60, 20, 10, 10]


def test_importtime_split():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1661 |      65856 |       numpy",
        "import time:       466 |     105494 |   abelcover",
        "import time:     11709 |     121571 | abelcover.cli",
    ])
    assert tracing.importtime_split(log) == (121.571, 65.856)


def test_coset_scan_counts_as_solve_time():
    spans = [("solve_character_congruences", 0, 100, -1, None, 0),
             ("closure", 10, 60, 0, None, 7),
             ("kernel_K", 200, 300, -1, None, 0),
             ("closure", 210, 240, 2, None, 5)]
    metrics = tracing.layer_metrics(spans, 1)
    assert metrics["groups.solve_ms"] == 100 / 1e6
    assert metrics["groups.closure_ms"] == 30 / 1e6
    assert metrics["cover.kernel_ms"] == 70 / 1e6
    assert metrics["groups.closure_elements"] == 12
