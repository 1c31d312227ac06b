"""Shared oracles and sample generators for the test suite.

Everything here is deliberately independent of the code paths under test:
determinants come from rational Gaussian elimination, kernels and character
searches from full enumeration, discrete logs from linear scans, and values
in Q/Z are Fractions reduced mod 1, computed from residues."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, prod
from operator import add, ge, mul

from abelcover import (
    AbelianGroup,
    BranchDatum,
    Character,
    CombinatorialData,
    Element,
    InvalidCoverData,
    validate,
)
from abelcover.groups import _fold_pivots, _hermite, _hermite_fold, closure


# ---------------------------------------------------------------------------
# Group and ring enumeration


def identity(group: AbelianGroup) -> Element:
    return group.element((0,) * group.rank)


def is_identity(e: Element) -> bool:
    return not any(e.residues)


def elements_of(group: AbelianGroup):
    """All elements in lexicographic residue order.  O(|G|), no guard."""
    for residues in product(*(range(m) for m in group.moduli)):
        yield group.element(residues)


def characters_of(group: AbelianGroup):
    """All |G| characters in lexicographic residue order."""
    for residues in product(*(range(m) for m in group.moduli)):
        yield group.character(residues)


def product_index(ring, i: int, j: int) -> int | None:
    """Index of w_i * w_j in the basis of the fiber ring, or None for the
    zero product: the index whose exponent vector is alpha(i) + alpha(j)
    when every coordinate t of the sum stays below d_t, and zero when one
    overflows, since no exponent vector of the ring lies outside the box."""
    total = tuple(map(add, ring.alphas[i], ring.alphas[j]))
    if any(map(ge, total, ring.orders)):
        return None
    if _basis[0] is not ring:
        _basis[:] = ring, {alpha: k for k, alpha in enumerate(ring.alphas)}
    return _basis[1][total]


#: The last ring product_index read, and the basis index of each of its
#: exponent vectors, held by identity: a ring hashes by its fields on every
#: call.  Rings are immutable, so the entry is never stale.
_basis: list = [None, {}]


def ring_product(ring, chi: Character, chi2: Character) -> Character | None:
    """w_chi * w_chi2 in the fiber ring, as a character, or None for zero."""
    idx = product_index(ring, ring.index(chi), ring.index(chi2))
    return None if idx is None else ring.character(idx)


def count_calls(monkeypatch, modules, names) -> Counter:
    """Wrap every function of `names` that each of `modules` (modules or
    classes) holds, so that each call adds one to its name in the returned
    Counter.  monkeypatch restores the originals.  A wrapper calls the
    function it replaced, so a call counts once in whichever module it was
    looked up in."""
    calls = Counter()

    def counting(name, function):
        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return counted

    for module in modules:
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


# ---------------------------------------------------------------------------
# Linear algebra oracles


def exact_det(matrix) -> Fraction:
    """Determinant by fraction-free-enough Gaussian elimination over Q."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    rows = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for i in range(col + 1, n):
            factor = rows[i][col] * inv
            if factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[col])]
    return det


def matmul(A, B):
    if not A or not B:
        return []
    return [[sum(A[i][k] * B[k][j] for k in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


def assert_snf_contract(A, U, D, V):
    m, n = len(A), len(A[0]) if A else 0
    assert matmul(matmul(U, A), V) == D
    assert abs(exact_det(U)) == 1
    assert abs(exact_det(V)) == 1
    for i in range(m):
        for j in range(n):
            if i != j:
                assert D[i][j] == 0
    diag = [D[k][k] for k in range(min(m, n))]
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert b == 0 or (a != 0 and b % a == 0) or (a == 0 and b == 0)


def reference_smith_normal_form(matrix):
    """(U, D, V) with U*A*V = D, as the package first built it, row
    transform U included.  The package now returns (D, V) only; this pins
    them to the reference's and keeps the full U*A*V = D contract checked.
    The one change from the original is the local identity builder."""

    def _identity(n):
        return [[int(i == j) for j in range(n)] for i in range(n)]

    A = [[int(x) for x in row] for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise ValueError("matrix rows must all have the same length")
    U = _identity(m)
    V = _identity(n)
    D = A

    def swap_rows(i: int, j: int) -> None:
        if i != j:
            D[i], D[j] = D[j], D[i]
            U[i], U[j] = U[j], U[i]

    def swap_cols(i: int, j: int) -> None:
        if i != j:
            for row in D:
                row[i], row[j] = row[j], row[i]
            for row in V:
                row[i], row[j] = row[j], row[i]

    def add_row(dst: int, src: int, c: int) -> None:
        D[dst] = [x + c * y for x, y in zip(D[dst], D[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def add_col(dst: int, src: int, c: int) -> None:
        for row in D:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    for t in range(min(m, n)):
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] and (pivot is None or abs(D[i][j]) < abs(D[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            if D[t][t] < 0:
                D[t] = [-x for x in D[t]]
                U[t] = [-x for x in U[t]]
            p = D[t][t]
            restart = False
            # Clear the pivot column; a nonzero remainder is a smaller pivot.
            for i in range(t + 1, m):
                if D[i][t]:
                    add_row(i, t, -(D[i][t] // p))
                    if D[i][t]:
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if D[t][j]:
                    add_col(j, t, -(D[t][j] // p))
                    if D[t][j]:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            # The pivot must divide the remaining submatrix (divisibility chain).
            offender = None
            for i in range(t + 1, m):
                if any(D[i][j] % p for j in range(t + 1, n)):
                    offender = i
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
    return U, D, V


def reference_hermite(moduli, vectors) -> list[list[int]]:
    """The Hermite basis of `vectors` and diag(moduli), as the package first
    built it: each vector reduced mod the moduli, then folded over every
    column, with the same Bezout steps.  It pins the exact rows of the fast
    fold, which builds its diagonal otherwise, expects reduced vectors and
    stops once the vector vanishes."""

    def xgcd(a, b):
        x0, y0, x1, y1 = 1, 0, 0, 1
        while b:
            q, a, b = a // b, b, a % b
            x0, x1 = x1, x0 - q * x1
            y0, y1 = y1, y0 - q * y1
        return a, x0, y0

    rows = [[m if j == k else 0 for j in range(len(moduli))] for k, m in enumerate(moduli)]
    for v in vectors:
        v = [x % m for x, m in zip(v, moduli)]
        for k, h in enumerate(rows):
            if not v[k]:
                continue
            if v[k] % h[k]:
                g, x, y = xgcd(h[k], v[k])
                a, b = h[k] // g, v[k] // g
                rows[k], v = (
                    [(x * p + y * q) % m for p, q, m in zip(h, v, moduli)],
                    [(a * q - b * p) % m for p, q, m in zip(h, v, moduli)],
                )
            else:
                b = v[k] // h[k]
                v = [(q - b * p) % m for p, q, m in zip(h, v, moduli)]
    return rows


# ---------------------------------------------------------------------------
# Enumeration oracles


def _sum_map_table(data: CombinatorialData):
    """(t, sum t_i g_i) for every t in H = Z/d_1 + ... + Z/d_s."""
    gens = [datum.generator.residues for datum in data.branch]
    for t in product(*(range(d) for d in data.orders)):
        yield t, tuple(sum(x * g[j] for x, g in zip(t, gens)) % m
                       for j, m in enumerate(data.group.moduli))


def brute_kernel(data: CombinatorialData) -> set[tuple[int, ...]]:
    """The kernel of the sum map of `data`, by enumerating H."""
    return {t for t, image in _sum_map_table(data) if not any(image)}


def brute_image(data: CombinatorialData) -> set[tuple[int, ...]]:
    """The image of the sum map of `data`, by enumerating H."""
    return {image for _, image in _sum_map_table(data)}


def character_value(chi, e) -> Fraction:
    """chi(e) = sum_j c_j e_j / m_j in Q/Z, as a Fraction in [0, 1)."""
    return sum((Fraction(c * x, m) for c, x, m in zip(chi.residues, e.residues, e.group.moduli)),
               Fraction(0)) % 1


def brute_character_solutions(group: AbelianGroup, constraints) -> list:
    """Every character with chi(g) = a/ord(g) in Q/Z for each (g, a)."""
    out = []
    for chi in characters_of(group):
        if all(character_value(chi, g) == Fraction(a, g.order()) % 1 for g, a in constraints):
            out.append(chi)
    return out


def lex_least_in_coset(moduli, point, generators) -> tuple[int, ...]:
    """The lexicographically least element of point + <generators>, from the
    full enumeration of the subgroup."""
    return min(
        tuple((a + b) % m for a, b, m in zip(point, shift, moduli))
        for shift in closure(moduli, generators)
    )


def brute_canonical(datum: BranchDatum) -> BranchDatum:
    """The canonical form of a branch datum by trying every unit u < d."""
    d = datum.order
    best_u, best = 1, datum.generator
    for u in range(2, d):
        if gcd(u, d) != 1:
            continue
        candidate = u * datum.generator
        if candidate.residues < best.residues:
            best_u, best = u, candidate
    return BranchDatum(best, (datum.char_residue * best_u) % d)


def brute_min_support(orders, kernel_gens) -> int | None:
    """Least number of nonzero coordinates over the nonzero elements of the
    subgroup of Z/d_1 + ... + Z/d_s that `kernel_gens` generate, from the
    full enumeration of it; None for the trivial subgroup."""
    supports = [sum(1 for x in t if x) for t in closure(orders, kernel_gens) if any(t)]
    return min(supports, default=None)


def reference_probe_supports(data: CombinatorialData, budget: int) -> int | None:
    """The minimal-support search of kernel_K as it was before the size-2
    level was keyed by canonical generators: every subset, pairs included,
    is one pivot probe.  Kept as the reference that the keyed level is
    tested against."""
    s, orders = data.size, data.orders
    if s < 3:
        return s
    moduli, group_order = data.group.moduli, data.group.order
    lines = [datum.generator.residues for datum in data.branch]
    diagonal = _hermite(moduli, ())
    spent = 0
    for size in range(2, s):
        for start, basis, prefix_order in _reference_prefixes(
                moduli, lines, orders, size - 1, 0, diagonal, 1):
            for i in range(start, s):
                if spent == budget:
                    return None
                spent += 1
                # |K_T| > 1 iff prod d_T > |sum H_T| = |G| / pivots.
                if prefix_order * orders[i] * _fold_pivots(moduli, basis, lines[i]) > group_order:
                    return size
    return s


def _reference_prefixes(moduli, lines, orders, length, start, basis, prefix_order):
    """Each subset of `length` more lines from lines[start:] that leaves a
    later line to probe, depth first in lexicographic order, as (the first
    index after it, the Hermite basis with its lines folded in, the product
    of their orders)."""
    if not length:
        yield start, basis, prefix_order
        return
    for i in range(start, len(lines) - length):
        yield from _reference_prefixes(moduli, lines, orders, length - 1, i + 1,
                                       _hermite_fold(moduli, basis, lines[i]),
                                       prefix_order * orders[i])


def brute_discrete_log(base: Fraction, target: Fraction, order: int) -> int | None:
    """The least t in [0, order) with t*base = target in Q/Z, by scanning."""
    for t in range(order):
        if (t * base - target) % 1 == 0:
            return t
    return None


def brute_element_order(e: Element) -> int:
    acc = e
    n = 1
    while not is_identity(acc):
        acc = acc + e
        n += 1
    return n


def series_counts(numerator: tuple[int, ...], orders, max_degree: int) -> list[int]:
    """Coefficients of numerator(t) / prod(1 - t^d) up to max_degree."""
    coeffs = list(numerator[: max_degree + 1])
    coeffs += [0] * (max_degree + 1 - len(coeffs))
    for d in orders:
        # multiply by 1 / (1 - t^d): prefix-sum with stride d
        for k in range(d, max_degree + 1):
            coeffs[k] += coeffs[k - d]
    return coeffs


def chain_law_oracle(data: CombinatorialData) -> bool:
    """Gorenstein test for data on a cyclic p-group, straight from the chain
    description: all subgroup orders distinct, and the character of each
    smaller subgroup is the restriction of the largest subgroup's character."""
    orders = data.orders
    if len(set(orders)) != len(orders):
        return False
    if not data.branch:
        return True
    top = max(data.branch, key=lambda d: d.order)
    for datum in data.branch:
        # write datum.generator as t * top.generator by scanning
        t = None
        for cand in range(top.order):
            if cand * top.generator == datum.generator:
                t = cand
                break
        if t is None:
            return False
        if (t * Fraction(top.char_residue, top.order)
                - Fraction(datum.char_residue, datum.order)) % 1:
            return False
    return True


def naive_product_table(ring) -> list[list[int | None]]:
    """product_index at every cell, row by row."""
    n = ring.dimension
    return [[product_index(ring, i, j) for j in range(n)] for i in range(n)]


def naive_table_text(ring) -> str:
    """The product table that `fiber --table` prints after the basis,
    formatted cell by cell from product_index.  Every cell, and every
    column label, is right-aligned in w = max(4, digits of n - 1)
    characters and cells are separated by one space; a row starts with
    its index in w + 1 characters and a space, and the header with w + 2
    spaces.  A zero product prints as "."."""
    n = ring.dimension
    w = max(4, len(str(n - 1)))
    lines = ["products (row * column, . = zero):",
             " " * (w + 2) + " ".join(str(j).rjust(w) for j in range(n))]
    for i in range(n):
        cells = []
        for j in range(n):
            k = product_index(ring, i, j)
            cells.append(("." if k is None else str(k)).rjust(w))
        lines.append(str(i).rjust(w + 1) + " " + " ".join(cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Fixed example data


def z2cubed_data() -> CombinatorialData:
    G = AbelianGroup((2, 2, 2))
    e1, e2, e3 = G.generators()
    return validate(CombinatorialData(G, (
        BranchDatum(e1, 1),
        BranchDatum(e2, 1),
        BranchDatum(e3, 1),
        BranchDatum(e1 + e2 + e3, 1),
    )))


def zpqr_data(p=3, q=5, r=7, alpha=1, beta=1) -> CombinatorialData:
    G = AbelianGroup((p * q * r,))
    return validate(CombinatorialData(G, (
        BranchDatum(G.element((q,)), alpha),
        BranchDatum(G.element((r,)), beta),
    )))


def z3_two_datum() -> CombinatorialData:
    """G = Z/3 with both generating characters of the full subgroup: the
    standard non-Gorenstein instance (socle dimension 2)."""
    G = AbelianGroup((3,))
    one = G.element((1,))
    return validate(CombinatorialData(G, (BranchDatum(one, 1), BranchDatum(one, 2))))


def dual_numbers_data() -> CombinatorialData:
    G = AbelianGroup((2,))
    return validate(CombinatorialData(G, (BranchDatum(G.element((1,)), 1),)))


def z3sq_gorenstein() -> CombinatorialData:
    """(Z/3)^2 with three lines compatible with the character (1, 1):
    Gorenstein, K of order 3, all kernel supports = 3."""
    G = AbelianGroup((3, 3))
    return validate(CombinatorialData(G, (
        BranchDatum(G.element((1, 0)), 1),
        BranchDatum(G.element((0, 1)), 1),
        BranchDatum(G.element((1, 1)), 2),
    )))


def z6_unknown_case() -> CombinatorialData:
    """Z/6 chain with a support-2 kernel element and s = 3: Gorenstein but in
    the genuinely open lci regime."""
    G = AbelianGroup((6,))
    return validate(CombinatorialData(G, (
        BranchDatum(G.element((3,)), 1),
        BranchDatum(G.element((2,)), 1),
        BranchDatum(G.element((1,)), 1),
    )))


def single_datum_z105() -> CombinatorialData:
    G = AbelianGroup((105,))
    return validate(CombinatorialData(G, (BranchDatum(G.element((5,)), 1),)))


# ---------------------------------------------------------------------------
# Random sampling


def elementary_lines(rng, r, extra):
    """(Z/2)^r with the r coordinate lines and `extra` more distinct random
    nonzero lines (as many as exist, if fewer)."""
    G = AbelianGroup((2,) * r)
    coordinate = list(G.generators())
    others = [e for e in elements_of(G) if sum(e.residues) > 1]
    lines = coordinate + rng.sample(others, min(extra, len(others)))
    return validate(CombinatorialData(G, tuple(BranchDatum(g, 1) for g in lines)))


def prime_lines(rng, p, r, count):
    """(Z/p)^r for a prime p with `count` lines whose generator residues
    and characters are random nonzero residues mod p."""
    branch = [([rng.randrange(1, p) for _ in range(r)], rng.randrange(1, p))
              for _ in range(count)]
    return validate(CombinatorialData.from_residues((p,) * r, branch))


def character_lines(rng):
    """(Z/p)^r with p in {2, 3, 5} and r in 2-4, one nonzero character chi
    and r + 1 to r + 3 distinct lines <g> with chi(g) != 0 (as many as
    exist, if fewer), each with psi_i the restriction of chi.  chi lifts
    every psi_i, so the point is Gorenstein, and most draws end
    rigid-quotient, rule 3 of the lci table, which random_data rarely
    reaches."""
    p, r = rng.choice((2, 3, 5)), rng.randint(2, 4)
    chi = [0] * r
    while not any(chi):
        chi = [rng.randrange(p) for _ in range(r)]
    # One generator per line: the one whose first nonzero residue is 1.
    lines = [g for g in product(range(p), repeat=r)
             if any(g) and next(filter(None, g)) == 1 and sum(map(mul, chi, g)) % p]
    count = min(rng.randint(r + 1, r + 3), len(lines))
    branch = [(g, sum(map(mul, chi, g)) % p) for g in rng.sample(lines, count)]
    return validate(CombinatorialData.from_residues((p,) * r, branch))


def shared_prime_lines(rng):
    """(Z/p)^r with p in {3, 5, 7} and r in 2-4, and 3 to 7 distinct pairs
    (H, psi) on a pool of 2 to 7 subgroups, so that most draws put two
    characters on one subgroup, in random order.  Each generator is
    written as u*g for a random unit u (the character moved with it), and
    the data is returned unvalidated, so that one subgroup can come with
    two different generators; validate() writes each on its canonical
    generator."""
    p, r = rng.choice((3, 5, 7)), rng.randint(2, 4)
    lines = [g for g in product(range(p), repeat=r) if any(g) and next(filter(None, g)) == 1]
    pool = rng.sample(lines, rng.randint(2, min(7, len(lines))))
    count = min(rng.randint(3, 7), len(pool) * (p - 1))
    pairs = set()
    while len(pairs) < count:
        pairs.add((rng.choice(pool), rng.randrange(1, p)))
    branch = []
    for g, a in rng.sample(sorted(pairs), count):
        u = rng.randrange(1, p)
        branch.append(([u * x % p for x in g], a * u % p))
    return CombinatorialData.from_residues((p,) * r, branch)


def cyclic_lines(rng, N, count):
    """Z/N with `count` branch lines, each with a random generating
    character: the first on a random unit, so that the data is totally
    ramified and one exponent runs up to N - 1, the others on random
    nonzero elements.  Z/N has only N - 1 distinct pairs (H, psi), phi(d)
    for the subgroup of each order d > 1, so `count` is capped there; past
    the cap, the redraw below would never end (Z/2 with 2 lines)."""
    count = min(count, N - 1)
    G = AbelianGroup((N,))
    units = [u for u in range(1, N) if gcd(u, N) == 1]
    while True:
        branch = []
        for g in [rng.choice(units)] + [rng.randrange(1, N) for _ in range(count - 1)]:
            d = N // gcd(g, N)
            a = rng.choice([x for x in range(1, d) if gcd(x, d) == 1])
            branch.append(BranchDatum(G.element((g,)), a))
        try:
            return validate(CombinatorialData(G, tuple(branch)))
        except InvalidCoverData:  # the same subgroup and character twice
            continue


def random_group(rng, max_order=512, max_rank=3) -> AbelianGroup:
    while True:
        rank = rng.randint(1, max_rank)
        moduli = tuple(rng.choice((2, 2, 3, 3, 4, 5, 6, 7, 8, 9, 12, 16)) for _ in range(rank))
        if prod(moduli) <= max_order:
            return AbelianGroup(moduli)


def random_data(
    rng,
    group: AbelianGroup,
    *,
    max_branch=6,
    min_branch=1,
    require_total=False,
    max_H=20000,
    tries=400,
) -> CombinatorialData:
    """A random valid data set over `group`, optionally totally ramified.
    |H| = prod d_i is capped so kernel enumeration stays cheap."""
    nonzero = [e for e in elements_of(group) if not is_identity(e)]
    for _ in range(tries):
        s = rng.randint(min_branch, max_branch)
        branch = []
        keys = set()
        H = 1
        for _ in range(s):
            for _ in range(40):
                g = rng.choice(nonzero)
                d = g.order()
                if H * d > max_H:
                    continue
                a = rng.choice([x for x in range(1, d) if gcd(x, d) == 1])
                datum = BranchDatum(g, a)
                c = datum.canonical()
                key = (c.generator.residues, c.char_residue)
                if key not in keys:
                    keys.add(key)
                    branch.append(datum)
                    H *= d
                    break
            else:
                break
        if len(branch) != s:
            continue
        try:
            data = validate(CombinatorialData(group, tuple(branch)))
        except InvalidCoverData:
            continue
        if require_total:
            gens = [datum.generator.residues for datum in data.branch]
            if len(closure(group.moduli, gens)) != group.order:
                continue
        return data
    raise RuntimeError(f"failed to sample data over {group}")


def random_total_data(rng, *, max_order=512, max_branch=5, max_H=20000) -> CombinatorialData:
    while True:
        group = random_group(rng, max_order=max_order)
        try:
            return random_data(
                rng, group,
                max_branch=max_branch, require_total=True, max_H=max_H, tries=80)
        except RuntimeError:
            continue
