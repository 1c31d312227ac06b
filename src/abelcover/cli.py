"""Command-line interface.

Reads a cover document (JSON: the ambient group's moduli plus the branch
list of generator / character pairs), validates it, and runs one of the
classification or fiber-ring commands.  A built-in registry replays the
standard worked examples with their expected verdicts.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from itertools import accumulate, product
from math import gcd

from .groups import LimitExceeded, _Frozen, proven_prime
from .cover import (
    BranchDatum,
    CombinatorialData,
    InvalidCoverData,
    ramification_factorization,
    restrict,
    validate,
)
from .fiber import (
    DEFAULT_FIBER_ORDER_LIMIT,
    DEFAULT_HILBERT_DEGREE,
    _check_degree_bound,
    build_fiber_ring,
    hilbert_numerator,
    socle_basis,
)
from .classify import ClassificationReport, CrossCheckError, classify

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_LIMIT = 2
EXIT_INTERNAL = 3

#: Bounds on the example parameters, which come from the command line.
#: The primes, the zpn-chain modulus p^n and the elementary rank n stay
#: small enough for every report to take well under a second.
EXAMPLE_MAX_PRIME = 10**6
EXAMPLE_MAX_MODULUS_BITS = 64
EXAMPLE_MAX_RANK = 64


class DocumentError(ValueError):
    """Problem in the input (the document's syntax or schema, or a command
    line value), with its location."""

    def __init__(self, location: str, message: str):
        self.location = location
        super().__init__(f"{location}: {message}")


class RegistryError(ValueError):
    """Unknown example name or bad example parameters."""


# ---------------------------------------------------------------------------
# Documents


def _expect_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(where, f"expected an integer, got {value!r}")
    return value


def parse_input(text: str) -> CombinatorialData:
    """Parse a cover document, rejecting unknown fields and malformed shapes.
    The data is not validated; every command validates it first.

    Errors carry the JSON path (or line/column for syntax errors)."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"line {exc.lineno} column {exc.colno}", exc.msg) from None
    except ValueError:
        # Python refuses to convert integer literals past its digit limit.
        raise DocumentError("$", "integer literal has too many digits") from None
    except RecursionError:
        raise DocumentError("$", "document is nested too deeply") from None
    if not isinstance(obj, dict):
        raise DocumentError("$", "document must be a JSON object")
    unknown = sorted(set(obj) - {"group", "branch"})
    if unknown:
        raise DocumentError("$", f"unknown fields: {', '.join(unknown)}")
    if "group" not in obj or "branch" not in obj:
        raise DocumentError("$", "fields 'group' and 'branch' are required")
    if not isinstance(obj["group"], list):
        raise DocumentError("group", "must be a list of moduli")
    # Locations are formatted only when a value is bad: the slow loops raise.
    moduli = obj["group"]
    if not all(type(m) is int and m >= 2 for m in moduli):
        for i, m in enumerate(moduli):
            if _expect_int(m, f"group[{i}]") < 2:
                raise DocumentError(f"group[{i}]", f"modulus must be >= 2, got {m}")
    if not isinstance(obj["branch"], list):
        raise DocumentError("branch", "must be a list")
    branch = []
    for i, entry in enumerate(obj["branch"]):
        where = f"branch[{i}]"
        if not isinstance(entry, dict):
            raise DocumentError(where, "must be an object")
        unknown = sorted(set(entry) - {"generator", "character"})
        if unknown:
            raise DocumentError(where, f"unknown fields: {', '.join(unknown)}")
        if "generator" not in entry or "character" not in entry:
            raise DocumentError(where, "fields 'generator' and 'character' are required")
        gen = entry["generator"]
        if not isinstance(gen, list):
            raise DocumentError(f"{where}.generator", "must be a list of residues")
        if len(gen) != len(moduli):
            raise DocumentError(
                f"{where}.generator",
                f"expected {len(moduli)} residues, got {len(gen)}")
        if not all(type(x) is int for x in gen):
            for j, x in enumerate(gen):
                _expect_int(x, f"{where}.generator[{j}]")
        character = entry["character"]
        if type(character) is not int:
            _expect_int(character, f"{where}.character")
        branch.append((gen, character))
    return CombinatorialData.from_residues(moduli, branch)


def print_document(doc: CombinatorialData) -> str:
    return json.dumps(doc.to_json_dict(), indent=2) + "\n"


# ---------------------------------------------------------------------------
# Report rendering


_JSON_WORDS = {True: "true", False: "false", None: "null"}
_json_string = json.encoder.encode_basestring_ascii


def _json_array(items: list[str], pad: str) -> str:
    """A JSON array of rendered items, laid out as by json.dumps(indent=2)
    for an array whose opening line is indented by `pad`."""
    if not items:
        return "[]"
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"


def report_json(report: ClassificationReport) -> str:
    """The JSON report: one key per field of ClassificationReport, in order,
    and one per field of GorensteinChecks under "cross_checks".  This is
    the one definition of the report's schema and layout.

    The text is exactly json.dumps(..., indent=2) of the report, plus a
    newline, but it is written by hand.  Given an indent, CPython's json
    skips its C encoder and runs the pure-Python one, about six times
    slower on a report, and that encoder's nested closures form reference
    cycles: every call leaves garbage that only a full collection frees.
    This writer builds no cycle."""
    kernel, checks, words = report.kernel, report.cross_checks, _JSON_WORDS
    generators = _json_array(
        [_json_array(list(map(str, g.residues)), "      ") for g in kernel.generators], "    ")
    support = "null" if kernel.min_support is None else str(kernel.min_support)
    certificate = ("null" if report.certificate is None
                   else _json_array(list(map(str, report.certificate.residues)), "  "))
    assumptions = _json_array(list(map(_json_string, report.assumptions)), "  ")
    return (
        "{\n"
        f'  "locally_simple": {words[report.locally_simple]},\n'
        f'  "totally_ramified": {words[report.totally_ramified]},\n'
        f'  "etale_index": {report.etale_index},\n'
        '  "kernel": {\n'
        f'    "order": {kernel.order},\n'
        f'    "generators": {generators},\n'
        f'    "min_support": {support}\n'
        "  },\n"
        f'  "gorenstein": {words[report.gorenstein]},\n'
        f'  "certificate": {certificate},\n'
        '  "cross_checks": {\n'
        f'    "lift": {words[checks.lift]},\n'
        f'    "watanabe": {words[checks.watanabe]},\n'
        f'    "socle": {words[checks.socle]},\n'
        f'    "hilbert_palindromic": {words[checks.hilbert_palindromic]}\n'
        "  },\n"
        f'  "lci": {_json_string(report.lci)},\n'
        f'  "lci_reason": {_json_string(report.lci_reason)},\n'
        f'  "smooth": {_json_string(report.smooth)},\n'
        f'  "assumptions": {assumptions}\n'
        "}\n"
    )


def report_to_json_dict(report: ClassificationReport) -> dict:
    """The JSON report as a dict, read back from report_json."""
    return json.loads(report_json(report))


def _yesno(value) -> str:
    if value is None:
        return "skipped (limit)"
    return "yes" if value else "no"


def _branch_line(i: int, datum: BranchDatum) -> str:
    return (f"  [{i}] generator {datum.generator}  order {datum.order}"
            f"  character {datum.char_residue}/{datum.order}")


def render_report(data: CombinatorialData, report: ClassificationReport) -> str:
    lines = []
    lines.append(f"group: {data.group} (order {data.group.order})")
    lines.append(f"branch components: {data.size}")
    lines += [_branch_line(i, datum) for i, datum in enumerate(data.branch)]
    lines.append(f"locally simple: {_yesno(report.locally_simple)}")
    lines.append(
        f"totally ramified: {_yesno(report.totally_ramified)}"
        f" (etale index {report.etale_index})")
    support = report.kernel.min_support
    lines.append(
        f"kernel K: order {report.kernel.order}, min support "
        + (str(support) if support is not None else "n/a"))
    if report.kernel.generators:
        gens = ", ".join(str(g) for g in report.kernel.generators)
        lines.append(f"  generators: {gens}")
    lines.append(f"gorenstein: {_yesno(report.gorenstein)}")
    if report.certificate is not None:
        lines.append(f"  certificate: character {report.certificate}")
    c = report.cross_checks
    lines.append(
        "  cross-checks: lift=" + _yesno(c.lift)
        + " watanabe=" + _yesno(c.watanabe)
        + " socle=" + _yesno(c.socle)
        + " hilbert=" + _yesno(c.hilbert_palindromic))
    lines.append(f"lci: {report.lci} ({report.lci_reason})")
    lines.append(f"smooth: {report.smooth}")
    lines.append("assumptions:")
    for a in report.assumptions:
        lines.append(f"  - {a}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Example registry


def _is_prime(n: int) -> bool:
    """A prime at most EXAMPLE_MAX_PRIME."""
    return n <= EXAMPLE_MAX_PRIME and proven_prime(n)


def _crt(a1: int, m1: int, a2: int, m2: int) -> int:
    """Solve x = a1 (mod m1), x = a2 (mod m2); moduli need not be coprime."""
    g = gcd(m1, m2)
    if (a2 - a1) % g:
        raise ValueError("incompatible congruences")
    l = m1 // g * m2
    t = ((a2 - a1) // g * pow(m1 // g, -1, m2 // g)) % (m2 // g)
    return (a1 + m1 * t) % l


def _z2cubed(p: dict) -> tuple[CombinatorialData, dict]:
    doc = CombinatorialData.from_residues((2, 2, 2), [
        ((1, 0, 0), 1),
        ((0, 1, 0), 1),
        ((0, 0, 1), 1),
        ((1, 1, 1), 1),
    ])
    return doc, {
        "locally_simple": False,
        "totally_ramified": True,
        "etale_index": 1,
        "kernel.order": 2,
        "kernel.min_support": 4,
        "gorenstein": True,
        "certificate": [1, 1, 1],
        "lci": "NotLCI",
        "lci_reason": "rigid-quotient",
        "smooth": "NotSmooth",
    }


def _zpqr(p: dict) -> tuple[CombinatorialData, dict]:
    pp, q, r, alpha, beta = p["p"], p["q"], p["r"], p["alpha"], p["beta"]
    if not (_is_prime(pp) and _is_prime(q) and _is_prime(r) and pp < q < r):
        raise RegistryError(
            f"zpqr needs primes p < q < r <= {EXAMPLE_MAX_PRIME}, got {pp}, {q}, {r}")
    if gcd(alpha, pp * r) != 1:
        raise RegistryError(f"alpha = {alpha} must be coprime to p*r = {pp * r}")
    if gcd(beta, pp * q) != 1:
        raise RegistryError(f"beta = {beta} must be coprime to p*q = {pp * q}")
    doc = CombinatorialData.from_residues((pp * q * r,), [((q,), alpha), ((r,), beta)])
    gorenstein = (alpha - beta) % pp == 0
    expected = {
        "locally_simple": False,
        "totally_ramified": True,
        "kernel.order": pp,
        "gorenstein": gorenstein,
        "lci": "LCI" if gorenstein else "NotLCI",
        "lci_reason": "A-type-surface" if gorenstein else "lci-implies-gorenstein",
        "smooth": "NotSmooth",
    }
    if gorenstein:
        expected["certificate"] = [_crt(alpha % (pp * r), pp * r, beta % (pp * q), pp * q)]
    return doc, expected


def _zpn_chain(p: dict) -> tuple[CombinatorialData, dict]:
    """Chain data on the cyclic group of order p^n: the s subgroups of orders
    p^(n-s+1) < ... < p^n with characters all restricted from one generator
    of the dual, the canonical Gorenstein configuration."""
    pp, n, s, c = p["p"], p["n"], p["s"], p["c"]
    if not _is_prime(pp):
        raise RegistryError(f"p = {pp} must be a prime <= {EXAMPLE_MAX_PRIME}")
    # p >= 2, so the first test bounds n before p^n is formed.
    bits = EXAMPLE_MAX_MODULUS_BITS
    if not 1 <= n <= bits or (pp ** n).bit_length() > bits:
        raise RegistryError(f"n must be >= 1 with p^n of at most {bits} bits, got n = {n}")
    if not 1 <= s <= n:
        raise RegistryError(f"s must lie in [1, n] = [1, {n}]")
    if gcd(c, pp) != 1:
        raise RegistryError(f"c = {c} must be coprime to p = {pp}")
    doc = CombinatorialData.from_residues(
        (pp ** n,), [((pp ** (n - k),), c) for k in range(n - s + 1, n + 1)])
    lci, lci_reason = {1: ("LCI", "locally-simple"), 2: ("LCI", "A-type-surface")}.get(
        s, ("Unknown", "open-general-case"))
    return doc, {
        "locally_simple": s == 1,
        "totally_ramified": True,
        "etale_index": 1,
        # |K| = prod d_i / p^n, the d_i being p^k for k in (n - s, n].
        "kernel.order": pp ** ((s - 1) * (2 * n - s) // 2),
        "gorenstein": True,
        "lci": lci,
        "lci_reason": lci_reason,
        "smooth": "Smooth-conditional" if s == 1 else "NotSmooth",
    }


def _elementary(p: dict) -> tuple[CombinatorialData, dict]:
    """The locally simple configuration on (Z/p)^n: the n coordinate
    subgroups, each with character residue 1."""
    pp, n = p["p"], p["n"]
    if not _is_prime(pp):
        raise RegistryError(f"p = {pp} must be a prime <= {EXAMPLE_MAX_PRIME}")
    if not 1 <= n <= EXAMPLE_MAX_RANK:
        raise RegistryError(f"n must lie in [1, {EXAMPLE_MAX_RANK}], got {n}")
    doc = CombinatorialData.from_residues(
        (pp,) * n, [(tuple(1 if j == i else 0 for j in range(n)), 1) for i in range(n)])
    return doc, {
        "locally_simple": True,
        "totally_ramified": True,
        "etale_index": 1,
        "kernel.order": 1,
        "gorenstein": True,
        "certificate": [1] * n,
        "lci": "LCI",
        "lci_reason": "locally-simple",
        "smooth": "Smooth-conditional",
    }


class ExampleEntry(_Frozen):
    """A named example, built from (name, summary, defaults, make): its
    parameter defaults and its maker, which checks the merged parameters
    and returns the document and the verdicts it must reach."""

    __slots__ = _fields = ("name", "summary", "defaults", "make")


REGISTRY = {entry.name: entry for entry in (
    ExampleEntry(
        "z2cubed",
        "(Z/2)^3 with four branch lines: Gorenstein but not locally simple, not lci",
        {},
        _z2cubed,
    ),
    ExampleEntry(
        "zpqr",
        "Z/pqr surface point: Gorenstein iff alpha = beta (mod p), then an A-type lci",
        {"p": 3, "q": 5, "r": 7, "alpha": 1, "beta": 1},
        _zpqr,
    ),
    ExampleEntry(
        "zpn-chain",
        "Z/p^n with a chain of s subgroups and matching characters: always Gorenstein",
        {"p": 2, "n": 3, "s": 3, "c": 1},
        _zpn_chain,
    ),
    ExampleEntry(
        "elementary",
        "(Z/p)^n with the n coordinate subgroups: locally simple, smooth point",
        {"p": 2, "n": 3},
        _elementary,
    ),
)}


def _example(name: str, params: dict | None) -> tuple[CombinatorialData, dict]:
    """The document of a named example and the verdicts it must reach, with
    its defaults overridden by `params`."""
    if name not in REGISTRY:
        raise RegistryError(
            f"unknown example '{name}'; known: {', '.join(sorted(REGISTRY))}")
    entry = REGISTRY[name]
    merged = dict(entry.defaults)
    for key, value in (params or {}).items():
        if key not in entry.defaults:
            raise RegistryError(
                f"example '{name}' has no parameter '{key}'; "
                f"known: {', '.join(sorted(entry.defaults)) or 'none'}")
        merged[key] = value
    return entry.make(merged)


def examples_registry(name: str, params: dict | None = None) -> CombinatorialData:
    """The document of a named built-in example, with parameter overrides."""
    return _example(name, params)[0]


def expected_report(name: str, params: dict | None = None) -> dict:
    """The verdicts a named built-in example must reach."""
    return _example(name, params)[1]


# ---------------------------------------------------------------------------
# Commands: each takes parsed, unvalidated data and returns (text, exit
# code).  Invalid cover data and hit limits propagate to `main`, which
# reports both on stdout.


def _check_max_order(max_order: int) -> None:
    if max_order < 1:
        raise DocumentError("--max-order", f"must be >= 1, got {max_order}")


def _fiber_ring(doc: CombinatorialData, max_order: int):
    """The sum map's presentation of the validated document and the fiber
    ring of its totally ramified part, within `max_order`."""
    _check_max_order(max_order)
    data = validate(doc)
    presentation = ramification_factorization(data)
    return presentation, build_fiber_ring(restrict(data, presentation), order_limit=max_order)


def cmd_validate(doc: CombinatorialData) -> tuple[str, int]:
    try:
        data = validate(doc)
    except InvalidCoverData as exc:
        lines = ["invalid cover data:"]
        lines += [f"  {issue}" for issue in exc.issues]
        return "\n".join(lines) + "\n", EXIT_INVALID
    lines = [f"valid: {data.group} with {data.size} branch components"]
    lines += [_branch_line(i, datum) for i, datum in enumerate(data.branch)]
    return "\n".join(lines) + "\n", EXIT_OK


def cmd_classify(doc: CombinatorialData, *, as_json: bool = False,
                 fiber_order_limit: int = DEFAULT_FIBER_ORDER_LIMIT) -> tuple[str, int]:
    """The report on the validated document, as text (render_report) or as
    JSON (report_json)."""
    _check_max_order(fiber_order_limit)
    data = validate(doc)
    report = classify(data, fiber_order_limit=fiber_order_limit)
    if as_json:
        return report_json(report), EXIT_OK
    return render_report(data, report), EXIT_OK


def cmd_fiber(doc: CombinatorialData, *, table: bool = False,
              max_order: int = DEFAULT_FIBER_ORDER_LIMIT) -> tuple[str, int]:
    presentation, ring = _fiber_ring(doc, max_order)
    lines = []
    if presentation.etale_index > 1:
        lines.append(
            f"etale index {presentation.etale_index}: the fiber is "
            f"{presentation.etale_index} disjoint copies of the totally ramified fiber below")
    lines.append(f"fiber ring dimension: {ring.dimension}")
    lines.append("basis (character : exponents : degree):")
    characters = product(*map(range, ring.group.moduli))
    for residues, alpha in zip(characters, ring.alphas):
        lines.append(f"  w({', '.join(map(str, residues))}) : {list(alpha)} : {sum(alpha)}")
    if table:
        # One label width for the header and every row.
        n = ring.dimension
        w = max(4, len(str(n - 1)))
        lines.append("products (row * column, . = zero):")
        labels = [f"{k:>{w}}" for k in range(n)]
        lines.append(" " * (w + 2) + " ".join(labels))
        for i, row in enumerate(ring.product_rows(labels, f"{'.':>{w}}")):
            lines.append(f"{i:>{w + 1}} " + " ".join(row))
    # The final newline joins in as an empty line: the table, |G|^2 cells,
    # is copied once.
    lines.append("")
    return "\n".join(lines), EXIT_OK


def cmd_socle(doc: CombinatorialData, *, max_order: int = DEFAULT_FIBER_ORDER_LIMIT) -> tuple[str, int]:
    ring = _fiber_ring(doc, max_order)[1]
    basis = sorted(socle_basis(ring), key=ring.index)
    lines = [f"socle dimension: {len(basis)}"]
    for chi in basis:
        lines.append(f"  w{chi} : exponents {list(ring.alpha(chi))}")
    lines.append("gorenstein: " + ("yes" if len(basis) == 1 else "no"))
    return "\n".join(lines) + "\n", EXIT_OK


def cmd_hilbert(doc: CombinatorialData, *, max_degree: int = DEFAULT_HILBERT_DEGREE,
                max_order: int = DEFAULT_FIBER_ORDER_LIMIT) -> tuple[str, int]:
    if max_degree < 0:
        raise DocumentError("--max-degree", f"must be >= 0, got {max_degree}")
    ring = _fiber_ring(doc, max_order)[1]
    _check_degree_bound(max_degree, len(ring.orders))
    numerator = hilbert_numerator(ring)
    # The invariant ring is free over C[[z_i^d_i]] on the fiber basis, and
    # restriction keeps each d_i, so the counts are the coefficients of
    # numerator(t) / prod(1 - t^d_i): a prefix sum with stride d_i per line.
    counts = [*numerator.coefficients[:max_degree + 1]]
    counts += [0] * (max_degree + 1 - len(counts))
    for d in ring.orders:
        for r in range(min(d, max_degree + 1)):
            counts[r::d] = accumulate(counts[r::d])
    lines = [
        f"numerator: {numerator}",
        f"palindromic: {'yes' if numerator.palindromic else 'no'}",
        f"invariant monomial counts up to degree {max_degree}:",
    ]
    for d, c in enumerate(counts):
        lines.append(f"  degree {d}: {c}")
    return "\n".join(lines) + "\n", EXIT_OK


def cmd_factor(doc: CombinatorialData) -> tuple[str, int]:
    data = validate(doc)
    presentation = ramification_factorization(data)
    restricted = restrict(data, presentation)
    lines = [
        f"image subgroup order: {presentation.image_order}",
        f"etale index: {presentation.etale_index}",
        f"totally ramified: {'yes' if presentation.totally_ramified else 'no'}",
        f"restricted group: {restricted.group}",
    ]
    lines += [_branch_line(i, datum) for i, datum in enumerate(restricted.branch)]
    return "\n".join(lines) + "\n", EXIT_OK


def _lookup(path: str, report: dict):
    node = report
    for part in path.split("."):
        node = node[part]
    return node


def cmd_example_run(name: str, params: dict) -> tuple[str, int]:
    doc, expected = _example(name, params)
    data = validate(doc)
    report = report_to_json_dict(classify(data))
    lines = [f"example {name}:"]
    failures = 0
    for path in sorted(expected):
        want = expected[path]
        got = _lookup(path, report)
        if got == want:
            lines.append(f"  ok       {path} = {json.dumps(want)}")
        else:
            failures += 1
            lines.append(
                f"  MISMATCH {path}: expected {json.dumps(want)}, got {json.dumps(got)}")
    lines.append("result: " + ("PASS" if failures == 0 else f"FAIL ({failures} mismatches)"))
    return "\n".join(lines) + "\n", EXIT_OK if failures == 0 else EXIT_INVALID


def cmd_example_list() -> tuple[str, int]:
    lines = []
    for name in sorted(REGISTRY):
        entry = REGISTRY[name]
        defaults = " ".join(f"{k}={v}" for k, v in sorted(entry.defaults.items()))
        lines.append(f"{name:12} {entry.summary}")
        if defaults:
            lines.append(f"{'':12} parameters: {defaults}")
    return "\n".join(lines) + "\n", EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise RegistryError(f"--param needs NAME=VALUE, got '{pair}'")
        key, _, value = pair.partition("=")
        try:
            params[key.strip()] = int(value)
        except ValueError:
            raise RegistryError(f"parameter '{key}' needs an integer, got '{value}'") from None
    return params


def _read_document(path: str) -> CombinatorialData:
    try:
        if path == "-":
            return parse_input(sys.stdin.read())
        with open(path, "r", encoding="utf-8") as handle:
            return parse_input(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(path, str(exc)) from None


class _ArgumentParser(argparse.ArgumentParser):
    """Exits EXIT_INVALID on a malformed command line, as on any other bad
    input; its subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """The command line.  Each subcommand declares its arguments and, as
    `run`, the command that `main` calls with the parsed arguments."""
    parser = _ArgumentParser(
        prog="abelcover",
        description="Classify the local structure of a finite abelian cover "
                    "at a branch point from its combinatorial data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    document = argparse.ArgumentParser(add_help=False)
    document.add_argument("file", nargs="?", default="-",
                          help="cover document path, or - for stdin (default)")

    p = sub.add_parser("validate", parents=[document], help="check and canonicalize a document")
    p.set_defaults(run=lambda a: cmd_validate(_read_document(a.file)))

    p = sub.add_parser("classify", parents=[document], help="full classification report")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--max-order", type=int, default=DEFAULT_FIBER_ORDER_LIMIT,
                   help="largest group order for the fiber-ring cross-checks")
    p.set_defaults(run=lambda a: cmd_classify(
        _read_document(a.file), as_json=a.json, fiber_order_limit=a.max_order))

    p = sub.add_parser("fiber", parents=[document], help="basis and products of the fiber ring")
    p.add_argument("--table", action="store_true", help="print the product table")
    p.add_argument("--max-order", type=int, default=DEFAULT_FIBER_ORDER_LIMIT)
    p.set_defaults(run=lambda a: cmd_fiber(
        _read_document(a.file), table=a.table, max_order=a.max_order))

    p = sub.add_parser("socle", parents=[document], help="socle of the fiber ring")
    p.add_argument("--max-order", type=int, default=DEFAULT_FIBER_ORDER_LIMIT)
    p.set_defaults(run=lambda a: cmd_socle(_read_document(a.file), max_order=a.max_order))

    p = sub.add_parser("hilbert", parents=[document], help="degree data of the invariant ring")
    p.add_argument("--max-degree", type=int, default=DEFAULT_HILBERT_DEGREE)
    p.add_argument("--max-order", type=int, default=DEFAULT_FIBER_ORDER_LIMIT)
    p.set_defaults(run=lambda a: cmd_hilbert(
        _read_document(a.file), max_degree=a.max_degree, max_order=a.max_order))

    p = sub.add_parser("factor", parents=[document], help="totally ramified / etale factorization")
    p.set_defaults(run=lambda a: cmd_factor(_read_document(a.file)))

    ex = sub.add_parser("example", help="built-in worked examples").add_subparsers(
        dest="example_command", required=True)
    named = argparse.ArgumentParser(add_help=False)
    named.add_argument("name")
    named.add_argument("--param", action="append", metavar="NAME=VALUE")
    p = ex.add_parser("list", help="list known examples")
    p.set_defaults(run=lambda a: cmd_example_list())
    p = ex.add_parser("show", parents=[named], help="print an example document")
    p.set_defaults(run=lambda a: (
        print_document(examples_registry(a.name, _parse_params(a.param))), EXIT_OK))
    p = ex.add_parser("run", parents=[named],
                      help="classify an example and compare to its expected verdicts")
    p.set_defaults(run=lambda a: cmd_example_run(a.name, _parse_params(a.param)))

    return parser


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    With `argv` None, as the `abelcover` script and `python -m abelcover.cli`
    call it, `main` ends the process's work: every exit (a return,
    argparse's SystemExit, an exception) flushes stdout and then freezes the
    collector's objects, so that the interpreter's exit does not collect
    what dies with the process anyway.  A stdout whose reader has closed
    the pipe exits 1 with nothing on stderr.  A caller that passes `argv`
    gets neither."""
    if argv is not None:
        return _run(argv)
    try:
        try:
            return _run(None)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit: point its descriptor
        # at devnull so that flush cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INVALID
    finally:
        gc.freeze()


def _run(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, code = args.run(args)
    except (DocumentError, RegistryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InvalidCoverData as exc:
        sys.stdout.write(f"invalid cover data: {exc}\n")
        return EXIT_INVALID
    except LimitExceeded as exc:
        sys.stdout.write(f"limit exceeded: {exc}\n")
        return EXIT_LIMIT
    except CrossCheckError as exc:
        # A bug, not bad input: name it and print the canonical document
        # that reproduces it.
        print(f"internal error: {exc}", file=sys.stderr)
        print(json.dumps(exc.data.to_json_dict()), file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
