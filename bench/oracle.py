"""Output checker for the benchmark, independent of the code under test.

Each check recomputes what it needs from the document alone:

* subgroup orders from a Hermite-style integer row reduction of the
  generators together with the group relations (the package uses Smith
  normal form), and by plain closure for small groups;
* certificates by an exact `Fraction` sum chi(g_i) = a_i / d_i;
* the lex-least certificate, Gorenstein existence and the kernel order by
  brute force for |G| <= 512;
* the zpqr verdicts from their closed form;
* the complete-intersection verdict from the decision table, evaluated on
  facts proven here: a verified certificate, a kernel generator on which the
  branch characters do not sum to an integer, and whether two inertia groups
  meet (a kernel element of support 2 exists exactly then).

Fields that later optimisations are planned to change are tested for
validity only: whether a fiber cross-check is skipped above the fiber
bound, `limit` turning into a decided lci verdict, and lex-leastness beyond
the brute-force range.  A wrong verdict still fails.

Every check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from math import gcd, prod

from corpus import closure, element_order, span_size

#: Group orders up to which characters are enumerated by brute force.
BRUTE_LIMIT = 512
#: Kernel orders up to which the reported generators are closed to check
#: that they generate K and to recompute its minimum support.
KERNEL_CLOSURE_LIMIT = 10**5
#: Group order above which the fiber cross-checks may be skipped; the
#: package's fiber bound is 4096 and may only grow.
FIBER_BOUND = 4096

REPORT_KEYS = {
    "locally_simple", "totally_ramified", "etale_index", "kernel", "gorenstein",
    "certificate", "cross_checks", "lci", "lci_reason", "smooth", "assumptions",
}
KERNEL_KEYS = {"order", "generators", "min_support"}
CHECK_KEYS = {"lift", "watanabe", "socle", "hilbert_palindromic"}


def lattice_index(rows, rank: int) -> int:
    """[Z^rank : L] for the full-rank lattice L spanned by integer `rows`,
    by row reduction to echelon form with gcd steps."""
    pool = [list(r) for r in rows]
    index = 1
    for col in range(rank):
        live = [r for r in pool if r[col]]
        if not live:
            return 0
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            pivot = live[0]
            for r in live[1:]:
                q = r[col] // pivot[col]
                for k in range(col, rank):
                    r[k] -= q * pivot[k]
            live = [pivot] + [r for r in live[1:] if r[col]]
        pivot = live[0]
        index *= abs(pivot[col])
        pool = [r for r in pool if r is not pivot]
    return index


def subgroup_order(generators, moduli) -> int:
    """|<generators>| inside Z/m_1 + ... + Z/m_r."""
    r = len(moduli)
    if r == 0:
        return 1
    rows = [list(g) for g in generators]
    rows += [[m if i == j else 0 for i in range(r)] for j, m in enumerate(moduli)]
    return prod(moduli) // lattice_index(rows, r)


def canonical(g, a: int, moduli) -> tuple[tuple[int, ...], int]:
    """The pair (<g>, psi) written against its canonical generator, the
    lex-least u*g over units u mod d, which carries the residue a*u."""
    d = element_order(g, moduli)
    g = tuple(x % m for x, m in zip(g, moduli))
    best_u, best = 1, g
    for u in range(2, d):
        if gcd(u, d) == 1:
            candidate = tuple((u * x) % m for x, m in zip(g, moduli))
            if candidate < best:
                best_u, best = u, candidate
    return best, (a * best_u) % d


class Facts:
    """What the oracles derive from one document, on the canonical branch
    generators that the package reports kernel elements against."""

    def __init__(self, obj: dict):
        self.moduli = tuple(obj["group"])
        pairs = [canonical(b["generator"], b["character"], self.moduli) for b in obj["branch"]]
        self.gens = [g for g, _ in pairs]
        self.orders = [element_order(g, self.moduli) for g in self.gens]
        self.chars = [a for _, a in pairs]
        self.s = len(self.gens)
        self.group_order = prod(self.moduli)
        self.image_order = subgroup_order(self.gens, self.moduli)
        self.kernel_order = prod(self.orders) // self.image_order
        # A kernel element of support 2 exists iff two inertia groups meet;
        # support 1 is impossible.
        self.inertia_meet = any(
            self.orders[i] * self.orders[j]
            != subgroup_order([self.gens[i], self.gens[j]], self.moduli)
            for i in range(self.s) for j in range(i + 1, self.s))

    def psi_sum(self, t) -> Fraction:
        """sum_i t_i a_i / d_i: an integer iff psi kills the element t of H."""
        return sum((Fraction(x * a, d) for x, a, d in zip(t, self.chars, self.orders)),
                   Fraction(0))

    def chi_of(self, chi, g) -> Fraction:
        return sum((Fraction(c * x, m) for c, x, m in zip(chi, g, self.moduli)), Fraction(0))

    def is_certificate(self, chi) -> bool:
        """chi(g_i) = a_i / d_i in Q/Z for every branch entry."""
        return all((self.chi_of(chi, g) - Fraction(a, d)).denominator == 1
                   for g, a, d in zip(self.gens, self.chars, self.orders))

    def brute_certificate(self):
        """The lex-least character restricting to every psi_i, or None."""
        L = 1
        for m in self.moduli:
            L = L * m // gcd(L, m)
        weights = [[(x * (L // m)) % L for x, m in zip(g, self.moduli)] for g in self.gens]
        targets = [(a * (L // d)) % L for a, d in zip(self.chars, self.orders)]
        for chi in product(*(range(m) for m in self.moduli)):
            if all(sum(c * w for c, w in zip(chi, row)) % L == t
                   for row, t in zip(weights, targets)):
                return list(chi)
        return None


def _lookup(report: dict, path: str):
    node = report
    for part in path.split("."):
        node = node[part]
    return node


def _int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def check_report(doc, text: str, expected: dict | None = None) -> list[str]:
    """Problems with the `classify --json` output `text` for `doc`.
    `expected` is the registry's expected-verdict table for registry docs."""
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    if not isinstance(report, dict) or set(report) != REPORT_KEYS:
        return [f"report keys differ from the schema: {sorted(report) if isinstance(report, dict) else report!r}"]
    kernel, checks = report["kernel"], report["cross_checks"]
    if not isinstance(kernel, dict) or set(kernel) != KERNEL_KEYS:
        return ["kernel keys differ from the schema"]
    if not isinstance(checks, dict) or set(checks) != CHECK_KEYS:
        return ["cross_checks keys differ from the schema"]

    f = Facts(doc.obj)
    problems = []

    def want(name, got, value):
        if got != value:
            problems.append(f"{name}: expected {value!r}, got {got!r}")

    # Sum map, kernel and factorization.
    want("kernel.order", kernel["order"], f.kernel_order)
    want("locally_simple", report["locally_simple"], f.kernel_order == 1)
    want("totally_ramified", report["totally_ramified"], f.image_order == f.group_order)
    want("etale_index", report["etale_index"], f.group_order // f.image_order)
    want("smooth", report["smooth"],
         "Smooth-conditional" if f.kernel_order == 1 else "NotSmooth")
    gens = kernel["generators"]
    if not isinstance(gens, list):
        return problems + ["kernel.generators is not a list"]
    for t in gens:
        if (not isinstance(t, list) or len(t) != f.s or not all(_int(x) for x in t)
                or not all(0 <= x < d for x, d in zip(t, f.orders)) or not any(t)):
            problems.append(f"kernel generator {t!r} is not a nonzero element of H")
            return problems
        image = [sum(x * g[j] for x, g in zip(t, f.gens)) % m for j, m in enumerate(f.moduli)]
        if any(image):
            problems.append(f"kernel generator {t} maps to {image}, not 0")
    if (f.kernel_order > 1) != bool(gens):
        problems.append("kernel generators missing or spurious")
    min_support = None
    if 1 < f.kernel_order <= KERNEL_CLOSURE_LIMIT and gens and not problems:
        elements = closure(gens, f.orders)
        if len(elements) != f.kernel_order:
            problems.append(f"kernel generators span {len(elements)} elements, not |K|")
        else:
            min_support = min(sum(1 for x in e if x) for e in elements if any(e))
    reported_support = kernel["min_support"]
    if f.kernel_order == 1:
        want("kernel.min_support", reported_support, None)
    elif reported_support is not None:
        if min_support is not None:
            want("kernel.min_support", reported_support, min_support)
        elif not (_int(reported_support) and 2 <= reported_support <= f.s
                  and (reported_support == 2) == f.inertia_meet):
            problems.append(f"kernel.min_support {reported_support!r} is impossible")
    if min_support is not None and (min_support == 2) != f.inertia_meet:
        problems.append("oracle disagreement: min support vs inertia intersections")

    # Gorenstein: a verified certificate proves it; a kernel generator that
    # psi does not kill disproves it.
    gorenstein = report["gorenstein"]
    certificate = report["certificate"]
    if gorenstein is True:
        if (not isinstance(certificate, list) or len(certificate) != len(f.moduli)
                or not all(_int(c) and 0 <= c < m for c, m in zip(certificate, f.moduli))):
            problems.append(f"certificate {certificate!r} is not a character of G")
        elif not f.is_certificate(certificate):
            problems.append(f"certificate {certificate} does not restrict to every psi_i")
    elif gorenstein is False:
        want("certificate", certificate, None)
        if not any(f.psi_sum(t).denominator != 1 for t in gens if isinstance(t, list)):
            problems.append("not Gorenstein, but psi kills every kernel generator")
    else:
        problems.append(f"gorenstein is {gorenstein!r}")
    if f.group_order <= BRUTE_LIMIT:
        brute = f.brute_certificate()
        want("gorenstein (brute force)", gorenstein, brute is not None)
        want("certificate (lex-least, brute force)", certificate, brute)
        want("kernel.order (closure)", kernel["order"],
             prod(f.orders) // span_size(f.gens, f.moduli))

    # Cross-checks: every route that ran agrees; fiber routes are skipped
    # only above the fiber bound.
    want("cross_checks.lift", checks["lift"], gorenstein)
    want("cross_checks.watanabe", checks["watanabe"], gorenstein)
    for route in ("socle", "hilbert_palindromic"):
        value = checks[route]
        if value is None:
            if f.image_order <= FIBER_BOUND:
                problems.append(f"cross_checks.{route} skipped below the fiber bound")
        else:
            want(f"cross_checks.{route}", value, gorenstein)

    # Complete intersection: the decision table on the proven facts.
    verdict = (report["lci"], report["lci_reason"])
    if f.kernel_order == 1:
        allowed = {("LCI", "locally-simple")}
    elif not gorenstein:
        allowed = {("NotLCI", "lci-implies-gorenstein")}
    elif not f.inertia_meet:
        allowed = {("NotLCI", "rigid-quotient")}
        if min_support is None:
            allowed.add(("Unknown", "limit"))
    elif f.s == 2:
        allowed = {("LCI", "A-type-surface")}
    else:
        allowed = {("Unknown", "open-general-case")}
        if min_support is None:
            allowed.add(("Unknown", "limit"))
    if verdict not in allowed:
        problems.append(f"lci verdict {verdict} not in {sorted(allowed)}")

    assumptions = report["assumptions"]
    if not (isinstance(assumptions, list) and assumptions
            and all(isinstance(a, str) and a for a in assumptions)):
        problems.append("assumptions must be a nonempty list of strings")

    if doc.kind == "zpqr":
        problems += _check_zpqr(doc.params, report)
    if expected is not None:
        for path, value in sorted(expected.items()):
            want(f"{path} (registry)", _lookup(report, path), value)
    return problems


def _check_zpqr(params: dict, report: dict) -> list[str]:
    """Closed form of the Z/pqr surface point: K has order p, Gorenstein iff
    alpha = beta (mod p), and then an A-type lci."""
    p = params["p"]
    gorenstein = (params["alpha"] - params["beta"]) % p == 0
    expected = {
        "kernel.order": p,
        "gorenstein": gorenstein,
        "lci": "LCI" if gorenstein else "NotLCI",
        "lci_reason": "A-type-surface" if gorenstein else "lci-implies-gorenstein",
    }
    return [f"{path} (zpqr closed form): expected {value!r}, got {_lookup(report, path)!r}"
            for path, value in expected.items() if _lookup(report, path) != value]


# ---------------------------------------------------------------------------
# CLI command outputs


def _field(lines, prefix):
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


def _numerator_terms(text: str) -> dict[int, int]:
    """Coefficients of a rendered Hilbert numerator such as 1 + 3*t + t^2."""
    terms = {}
    for term in text.split(" + "):
        if "t" not in term:
            terms[0] = int(term)
            continue
        coeff, _, power = term.rpartition("*")
        terms[1 if power == "t" else int(power[2:])] = int(coeff) if coeff else 1
    return terms


def check_command(doc, command: tuple[str, ...], stdout: str, gorenstein: bool) -> list[str]:
    """Problems with the stdout of one CLI command on `doc`, given the
    Gorenstein verdict proven by `check_report` on the same document."""
    f = Facts(doc.obj)
    lines = stdout.splitlines()
    name = command[0]
    problems = []
    yes = "yes" if gorenstein else "no"
    if name == "validate":
        if not lines or not lines[0].startswith("valid: ") or len(lines) != f.s + 1:
            problems.append("validate: expected 'valid:' and one line per branch entry")
    elif name == "factor":
        if _field(lines, "image subgroup order:") != str(f.image_order):
            problems.append(f"factor: image order is not {f.image_order}")
        if _field(lines, "etale index:") != str(f.group_order // f.image_order):
            problems.append("factor: wrong etale index")
    elif name == "socle":
        dim = _field(lines, "socle dimension:")
        if _field(lines, "gorenstein:") != yes or (dim == "1") != gorenstein:
            problems.append(f"socle: Gorenstein verdict is not {yes}")
    elif name == "hilbert":
        numerator = _field(lines, "numerator:")
        try:
            terms = _numerator_terms(numerator or "")
        except ValueError:
            terms = {}
        if sum(terms.values()) != f.image_order or terms.get(0) != 1:
            problems.append(f"hilbert: numerator {numerator!r} does not count |M| = {f.image_order}")
        if _field(lines, "palindromic:") != yes:
            problems.append(f"hilbert: palindromic is not {yes}")
        if _field(lines, "  degree 0:") != "1":
            problems.append("hilbert: degree 0 must hold exactly the constant monomial")
    elif name == "fiber":
        if _field(lines, "fiber ring dimension:") != str(f.image_order):
            problems.append(f"fiber: dimension is not {f.image_order}")
        if "--table" in command:
            header = lines.index("products (row * column, . = zero):") \
                if "products (row * column, . = zero):" in lines else len(lines)
            rows = lines[header + 2:]
            if len(rows) != f.image_order:
                problems.append(f"fiber: {len(rows)} table rows, not {f.image_order}")
    return problems
