"""Seeded cover documents for the benchmark workloads.

Everything here is independent of the package: groups, element orders,
subgroup generation and the duplicate-pair test are recomputed from scratch,
so a change to the package or to its test helpers cannot move a workload.
The package only ever sees the JSON text of a document.

A document is a `Doc`: an id, a kind telling the checker which oracle
applies (`registry`, `zpqr`, `random` or `fixed`), the JSON text, and the
parameters the oracles need.  The same (workload, seed) gives the same
documents byte for byte.

Shapes are fixed per workload and only lines and characters are drawn from
the seed, so the cost of a workload stays the same from seed to seed.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from math import gcd, lcm, prod

#: Cap on prod d_i for the random small documents, so kernel enumeration
#: stays cheap and the small-mixed cost is dominated by fixed per-document work.
SMALL_MAX_H = 20000
SMALL_MAX_ORDER = 512
SMALL_RANDOM_TOTAL = 350
SMALL_RANDOM_ETALE = 350
SMALL_ZPQR = 300

#: Cyclic factors of the random small groups.
SMALL_MODULI = (2, 3, 4, 5, 6, 7, 8, 9, 12, 16)

#: The Z/pqr sweep of the zpqr registry example: every alpha in [0, 105)
#: prime to p*r and every beta in [0, 105) prime to p*q (3360 pairs).
ZPQR = (3, 5, 7)

#: A prime near 10^5: Z/BIG_P + Z/6 is cyclic of order about 6*10^5, which
#: makes the canonical-generator loop in validation long.
BIG_P = 100003
#: A prime near 300: the Gorenstein lift of one line in (Z/LIFT_P)^3 scans a
#: coset of LIFT_P^2 characters.
LIFT_P = 307


@dataclass(frozen=True)
class Doc:
    id: str
    kind: str
    text: str
    params: dict = field(default_factory=dict, compare=False)

    @property
    def obj(self) -> dict:
        return json.loads(self.text)


# ---------------------------------------------------------------------------
# Group arithmetic (own implementation, no package imports)


def element_order(residues, moduli) -> int:
    return lcm(*(m // gcd(r, m) for r, m in zip(residues, moduli))) if moduli else 1


def pair_key(residues, character: int, moduli) -> tuple[int, ...]:
    """Two branch entries name the same pair (H, psi) exactly when they have
    the same key: the generator g* of H with psi(g*) = 1/d, i.e. a^-1 * g."""
    d = element_order(residues, moduli)
    inv = pow(character, -1, d)
    return tuple((inv * r) % m for r, m in zip(residues, moduli))


def closure(generators, moduli) -> set[tuple[int, ...]]:
    """The subgroup generated by `generators`, by breadth-first closure."""
    zero = (0,) * len(moduli)
    seen = {zero}
    frontier = [zero]
    gens = [tuple(g) for g in generators]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % m for a, b, m in zip(x, g, moduli))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def span_size(generators, moduli) -> int:
    """Order of the subgroup generated by `generators`."""
    return len(closure(generators, moduli))


def _document(moduli, branch) -> str:
    return json.dumps(
        {"group": list(moduli),
         "branch": [{"generator": list(g), "character": a} for g, a in branch]},
        separators=(",", ":"))


def _unit(rng: random.Random, d: int) -> int:
    while True:
        a = rng.randrange(1, d)
        if gcd(a, d) == 1:
            return a


def _nonzero(rng: random.Random, moduli) -> tuple[int, ...]:
    while True:
        g = tuple(rng.randrange(m) for m in moduli)
        if any(g):
            return g


def _add_line(branch, keys, moduli, g, a) -> bool:
    key = pair_key(g, a, moduli)
    if key in keys:
        return False
    keys.add(key)
    branch.append((tuple(g), a))
    return True


def _coordinate_lines(rng, moduli):
    """The coordinate generators of `moduli` with random unit characters."""
    branch, keys = [], set()
    for j, m in enumerate(moduli):
        g = tuple(1 if i == j else 0 for i in range(len(moduli)))
        _add_line(branch, keys, moduli, g, _unit(rng, m))
    return branch, keys


def _random_lines(rng, moduli, branch, keys, count, order=None):
    """Append `count` random lines (of the given element order, if any) with
    random unit characters and no duplicate pair."""
    target = len(branch) + count
    while len(branch) < target:
        g = _nonzero(rng, moduli)
        d = element_order(g, moduli)
        if order is not None and d != order:
            continue
        _add_line(branch, keys, moduli, g, _unit(rng, d))


# ---------------------------------------------------------------------------
# Registry examples (default parameters), written out by hand


def registry_docs() -> list[Doc]:
    z2 = (2, 2, 2)
    return [
        Doc("registry:z2cubed", "registry", _document(
            z2, [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1), ((1, 1, 1), 1)]),
            {"name": "z2cubed"}),
        Doc("registry:zpqr", "registry", _document((105,), [((5,), 1), ((7,), 1)]),
            {"name": "zpqr"}),
        Doc("registry:zpn-chain", "registry", _document(
            (8,), [((4,), 1), ((2,), 1), ((1,), 1)]), {"name": "zpn-chain"}),
        Doc("registry:elementary", "registry", _document(
            z2, [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1)]), {"name": "elementary"}),
    ]


# ---------------------------------------------------------------------------
# small-mixed


def zpqr_pairs() -> list[tuple[int, int]]:
    p, q, r = ZPQR
    n = p * q * r
    return [(alpha, beta) for alpha in range(n) for beta in range(n)
            if gcd(alpha, p * r) == 1 and gcd(beta, p * q) == 1]


def zpqr_doc(alpha: int, beta: int) -> Doc:
    p, q, r = ZPQR
    text = _document((p * q * r,), [((q,), alpha % (p * r)), ((r,), beta % (p * q))])
    return Doc(f"zpqr:{alpha},{beta}", "zpqr", text,
               {"p": p, "q": q, "r": r, "alpha": alpha, "beta": beta})


def small_shapes() -> list[tuple[int, ...]]:
    """Every group Z/m_1 + ... + Z/m_r with r <= 3, m_i in SMALL_MODULI
    (non-decreasing) and order <= SMALL_MAX_ORDER."""
    return [shape for r in (1, 2, 3)
            for shape in itertools.combinations_with_replacement(SMALL_MODULI, r)
            if prod(shape) <= SMALL_MAX_ORDER]


def _random_small(rng, moduli, s: int, total: bool) -> list:
    """Random valid data with s lines over `moduli` that is totally ramified
    (`total`) or has etale index > 1, with prod d_i <= SMALL_MAX_H.  Fewer
    lines are used when no such data turns up."""
    order = prod(moduli)
    for attempt in range(1000):
        lines = max(1, s - attempt // 50)
        branch, keys = [], set()
        H = 1
        for _ in range(4 * lines):
            if len(branch) == lines:
                break
            g = _nonzero(rng, moduli)
            d = element_order(g, moduli)
            if H * d <= SMALL_MAX_H and _add_line(branch, keys, moduli, g, _unit(rng, d)):
                H *= d
        if len(branch) == lines and (span_size([g for g, _ in branch], moduli) == order) == total:
            return branch
    raise RuntimeError(f"no random data over {moduli}")


def small_mixed(seed: int) -> list[Doc]:
    """About 1000 small documents: the four registry examples, a seeded
    sample of the Z/105 zpqr sweep, and random data with |G| <= 512, half
    totally ramified and half with etale index > 1.  The groups and line
    counts of the random data run through a fixed list, so every seed has
    the same mix of sizes and only lines and characters are random.
    Shuffled, so a pass cut short is still a fair sample."""
    rng = random.Random(f"small-mixed:{seed}")
    docs = registry_docs()
    docs += [zpqr_doc(a, b) for a, b in rng.sample(zpqr_pairs(), SMALL_ZPQR)]
    shapes = small_shapes()
    for k in range(SMALL_RANDOM_TOTAL):
        moduli = shapes[k % len(shapes)]
        s = len(moduli) + k % 3
        docs.append(Doc(f"random-total:{k}", "random",
                        _document(moduli, _random_small(rng, moduli, s, True))))
    # Etale index > 1 needs a nonzero proper subgroup: |G| not prime.
    etale = [m for m in shapes if any(prod(m) % p == 0 for p in range(2, prod(m)))]
    for k in range(SMALL_RANDOM_ETALE):
        moduli = etale[k % len(etale)]
        docs.append(Doc(f"random-etale:{k}", "random",
                        _document(moduli, _random_small(rng, moduli, 1 + k % 3, False))))
    rng.shuffle(docs)
    return docs


# ---------------------------------------------------------------------------
# fiber-large


def _diagonal_doc(rng, ident, m, n) -> Doc:
    moduli = (m,) * n
    branch, keys = _coordinate_lines(rng, moduli)
    _add_line(branch, keys, moduli, (1,) * n, _unit(rng, m))
    return Doc(ident, "fixed", _document(moduli, branch))


def _total_random(rng, ident, moduli, extra) -> Doc:
    """Totally ramified random data: rank(moduli) + extra random lines that
    generate the group."""
    while True:
        branch, keys = [], set()
        _random_lines(rng, moduli, branch, keys, len(moduli) + extra)
        if span_size([g for g, _ in branch], moduli) == prod(moduli):
            return Doc(ident, "fixed", _document(moduli, branch))


def fiber_large(seed: int) -> list[Doc]:
    """Totally ramified documents with 1024 <= |G| <= 4096 (the fiber bound)
    and small K, where the fiber ring and its socle dominate."""
    rng = random.Random(f"fiber-large:{seed}")
    docs = [
        _diagonal_doc(rng, "z4^6+diagonal", 4, 6),
        _diagonal_doc(rng, "z2^12+diagonal", 2, 12),
        _diagonal_doc(rng, "z8^4+diagonal", 8, 4),
    ]
    moduli = (16, 16, 16)
    branch, keys = _coordinate_lines(rng, moduli)
    _random_lines(rng, moduli, branch, keys, 2, order=16)
    docs.append(Doc("z16^3+2lines", "fixed", _document(moduli, branch)))
    docs.append(_total_random(rng, "random:4^5", (4, 4, 4, 4, 4), 1))
    docs.append(_total_random(rng, "random:8x16x16", (8, 16, 16), 2))
    docs.append(_total_random(rng, "random:4x4x16x16", (4, 4, 16, 16), 2))
    return docs


# ---------------------------------------------------------------------------
# kernel-large


def _lines_mod_p(rng, p, n, count, chi=None):
    """Coordinate lines of (Z/p)^n plus random lines, `count` in all, each a
    distinct subgroup.  With a character `chi` every psi_i is its restriction
    (so the data is Gorenstein) and lines inside ker chi are avoided."""
    moduli = (p,) * n
    branch, keys, lines = [], set(), set()
    candidates = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    while len(branch) < count:
        g = candidates.pop(0) if candidates else _nonzero(rng, moduli)
        line = min(tuple((u * x) % p for x in g) for u in range(1, p))
        if line in lines:
            continue
        if chi is None:
            a = _unit(rng, p)
        else:
            a = sum(c * x for c, x in zip(chi, g)) % p
            if a == 0:
                continue
        lines.add(line)
        _add_line(branch, keys, moduli, g, a)
    return moduli, branch


def kernel_large(seed: int) -> list[Doc]:
    """Documents whose cost grows with |K| or with d while the fiber ring is
    small or skipped."""
    rng = random.Random(f"kernel-large:{seed}")
    docs = []
    chi = tuple(rng.randrange(1, 5) for _ in range(3))
    moduli, branch = _lines_mod_p(rng, 5, 3, 9, chi)
    docs.append(Doc("z5^3:9lines:gorenstein", "fixed", _document(moduli, branch)))
    moduli, branch = _lines_mod_p(rng, 5, 3, 8)
    docs.append(Doc("z5^3:8lines", "fixed", _document(moduli, branch)))
    moduli, branch = _lines_mod_p(rng, 7, 3, 8)
    docs.append(Doc("z7^3:8lines", "fixed", _document(moduli, branch)))
    chi = tuple(rng.randrange(1, 7) for _ in range(3))
    moduli, branch = _lines_mod_p(rng, 7, 3, 8, chi)
    docs.append(Doc("z7^3:8lines:gorenstein", "fixed", _document(moduli, branch)))

    # Two lines in Z/BIG_P + Z/6: a generator of the whole cyclic group and a
    # generator of the Z/BIG_P part, so |K| = BIG_P.
    moduli = (BIG_P, 6)
    g1 = (_unit(rng, BIG_P), rng.choice((1, 5)))
    g2 = (_unit(rng, BIG_P), 0)
    branch = [(g1, _unit(rng, 6 * BIG_P)), (g2, _unit(rng, BIG_P))]
    docs.append(Doc("z100003+z6:2lines", "fixed", _document(moduli, branch)))

    moduli = (LIFT_P,) * 3
    g = _nonzero(rng, moduli)
    docs.append(Doc("z307^3:1line", "fixed",
                    _document(moduli, [(g, _unit(rng, LIFT_P))])))

    # Twelve lines of (Z/5)^3 with characters from one chi: Gorenstein with
    # |K| = 5^9 > 10^6, past the kernel enumeration bound.
    chi = tuple(rng.randrange(1, 5) for _ in range(3))
    moduli, branch = _lines_mod_p(rng, 5, 3, 12, chi)
    docs.append(Doc("z5^3:12lines:limit", "fixed", _document(moduli, branch)))
    return docs


# ---------------------------------------------------------------------------
# cli-commands


#: The command mix run on every cli-commands document.
CLI_COMMANDS = (
    ("validate",),
    ("classify", "--json"),
    ("factor",),
    ("socle",),
    ("hilbert", "--max-degree", "10"),
    ("fiber", "--table"),
)


def cli_docs(seed: int) -> list[Doc]:
    """Three documents with |G| <= 1024: (Z/8)^3 with the diagonal line
    (|G| = 512, whose product table has 2^18 cells), a zpqr point
    (|G| = 105), and random data on (Z/4)^4 with etale index > 1."""
    rng = random.Random(f"cli-commands:{seed}")
    docs = [_diagonal_doc(rng, "z8^3+diagonal", 8, 3)]
    alpha, beta = rng.choice(zpqr_pairs())
    docs.append(zpqr_doc(alpha, beta))
    moduli = (4, 4, 4, 4)
    while True:
        branch, keys = [], set()
        _random_lines(rng, moduli, branch, keys, 3, order=4)
        if span_size([g for g, _ in branch], moduli) < prod(moduli):
            break
    docs.append(Doc("random:z4^4:etale", "random", _document(moduli, branch)))
    return docs


def cli_invocations(seed: int) -> list[tuple[Doc, tuple[str, ...]]]:
    return [(doc, cmd) for doc in cli_docs(seed) for cmd in CLI_COMMANDS]


WORKLOAD_DOCS = {
    "small-mixed": small_mixed,
    "fiber-large": fiber_large,
    "kernel-large": kernel_large,
    "cli-commands": cli_docs,
}


def describe(docs) -> dict:
    """Ranges of |G|, s, |K| and max d over a document list."""
    orders, sizes, kernels, maxd = [], [], [], []
    for doc in docs:
        obj = doc.obj
        moduli = tuple(obj["group"])
        ds = [element_order(b["generator"], moduli) for b in obj["branch"]]
        image = span_size([b["generator"] for b in obj["branch"]], moduli) \
            if prod(moduli) <= 10**5 else None
        orders.append(prod(moduli))
        sizes.append(len(ds))
        maxd.append(max(ds))
        if image is not None:
            kernels.append(prod(ds) // image)
    return {
        "G": [min(orders), max(orders)],
        "s": [min(sizes), max(sizes)],
        "K": [min(kernels), max(kernels)] if kernels else None,
        "max_d": max(maxd),
    }

