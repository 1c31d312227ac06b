"""Combinatorial data of a cover at a point: validation, and the one
presentation of the sum map that carries its kernel and the totally-ramified
/ etale factorization."""

from __future__ import annotations

from math import gcd, lcm, prod

from . import groups
from .groups import (
    AbelianGroup,
    Element,
    _Frozen,
    _diagonal,
    _fold_pivots,
    _hermite,
    _hermite_fold,
    closure,
    proven_prime,
    smith_normal_form,
)


class BranchDatum(_Frozen):
    """One branch component through the point: a cyclic subgroup H = <generator>
    of the ambient group together with the character psi of H generating its
    dual, encoded by psi(generator) = char_residue / ord(generator).
    `order` = ord(generator) is stored once; it is not a field, since the
    generator fixes it."""

    _fields = ("generator", "char_residue")
    __slots__ = (*_fields, "order")

    def __init__(self, generator: Element, char_residue: int):
        order = generator.order()
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "char_residue", int(char_residue) % order)
        object.__setattr__(self, "order", order)

    def canonical(self) -> "BranchDatum":
        """The same pair (H, psi) written against the canonical generator of H:
        the order-d element of H with lexicographically smallest residues.
        Replacing g by u*g transports the residue a to a*u mod d.

        The least u*g is built one coordinate at a time.  The units u still
        in the race form one class c mod n, and any class prime to n lifts
        to a unit mod d because n | d.  At a residue r mod m, with
        e = gcd(r, m) and m' = m/e, the coordinate of u*g is e*w with
        w = u*(r/e) mod m'; w runs over the units mod m' with
        w = c*(r/e) mod gcd(n, m'), so the least one is found by walking that
        progression.  It fixes u mod m', which joins the class by the
        Chinese remainder theorem.  After the last coordinate n = d, and the
        walk stops as soon as n = d: the unit class is then fixed, and at
        every later coordinate m' divides d = n, so h = m', the progression
        is the one class w = c*(r/e) mod m', and t = 0.  When c = 1 the
        generator is already canonical, and the datum itself is returned."""
        c, n, d = 0, 1, self.order
        for r, m in zip(self.generator.residues, self.generator.group.moduli):
            if n == d:
                break
            if r == 0:
                continue
            e = gcd(r, m)
            mp, rp = m // e, r // e
            h = gcd(n, mp)
            w = c * rp % h
            while gcd(w, mp) != 1:
                w += h
            # u = w / rp (mod m') and u = c (mod n), both known to agree mod h.
            t = (w * pow(rp, -1, mp) - c) // h * pow(n // h, -1, mp // h) % (mp // h)
            c, n = c + n * t, n // h * mp
        if c == 1:
            return self
        return BranchDatum(c * self.generator, self.char_residue * c)


class CombinatorialData(_Frozen):
    """The ambient group G and the ordered branch data {(H_i, psi_i)} at the point.
    `orders` = (d_1, ..., d_s) is stored once; it is not a field, since the
    branch fixes it."""

    _fields = ("group", "branch")
    __slots__ = (*_fields, "orders")

    def __init__(self, group: AbelianGroup, branch: tuple[BranchDatum, ...]):
        super().__init__(group, tuple(branch))
        object.__setattr__(self, "orders", tuple([datum.order for datum in self.branch]))

    @classmethod
    def from_residues(cls, moduli, branch) -> "CombinatorialData":
        """Unvalidated data from the moduli of G and a list of
        (generator residues, character residue) pairs."""
        group = AbelianGroup(moduli)
        return cls(group, tuple(BranchDatum(group.element(g), a) for g, a in branch))

    def to_json_dict(self) -> dict:
        """The cover document of this data, as `abelcover` reads it."""
        return {
            "group": list(self.group.moduli),
            "branch": [
                {"generator": list(datum.generator.residues), "character": datum.char_residue}
                for datum in self.branch
            ],
        }

    @property
    def size(self) -> int:
        return len(self.branch)


def psi_weights(data: CombinatorialData) -> tuple[int, list[int]]:
    """The values psi_i(g_i) = a_i / d_i in Q/Z over one denominator, as
    (L, [w_1, ..., w_s]) with L = lcm(d_1, ..., d_s) and w_i = a_i L / d_i.
    An element t of H = Z/d_1 + ... + Z/d_s is killed by every psi_i
    together, sum_i t_i a_i / d_i in Z, iff sum_i t_i w_i = 0 mod L."""
    L = lcm(*data.orders)
    return L, [datum.char_residue * (L // datum.order) for datum in data.branch]


class ValidationIssue(_Frozen):
    """One violation of branch entry `index`, built from (code, index,
    message).  The code is NonGeneratingCharacter, TrivialInertia,
    DuplicatePair or MalformedElement."""

    __slots__ = _fields = ("code", "index", "message")

    def __str__(self) -> str:
        return f"branch[{self.index}]: {self.code}: {self.message}"


class InvalidCoverData(ValueError):
    """Carries every violation found while validating combinatorial data."""

    def __init__(self, issues):
        self.issues = tuple(issues)
        super().__init__("; ".join(str(i) for i in self.issues))


def validate(data: CombinatorialData) -> CombinatorialData:
    """Canonicalized data, or InvalidCoverData listing every violation.

    Checks: generators live in the ambient group, inertia is nontrivial
    (order >= 2), the character generates the dual (gcd(a, d) = 1), and no
    two entries name the same pair (H, psi) once both are written against
    canonical generators.  Idempotent on valid data.
    """
    issues: list[ValidationIssue] = []
    canonical: list[BranchDatum | None] = []
    for i, datum in enumerate(data.branch):
        if datum.generator.group != data.group:
            issues.append(ValidationIssue(
                "MalformedElement", i,
                f"generator lies in {datum.generator.group}, not {data.group}"))
            canonical.append(None)
            continue
        d = datum.order
        if d == 1:
            issues.append(ValidationIssue(
                "TrivialInertia", i, "generator is the identity"))
            canonical.append(None)
            continue
        if gcd(datum.char_residue, d) != 1:
            issues.append(ValidationIssue(
                "NonGeneratingCharacter", i,
                f"gcd({datum.char_residue}, {d}) != 1, character does not generate the dual"))
            canonical.append(None)
            continue
        canonical.append(datum.canonical())
    seen: dict[tuple[tuple[int, ...], int], int] = {}
    for i, datum in enumerate(canonical):
        if datum is None:
            continue
        key = (datum.generator.residues, datum.char_residue)
        if key in seen:
            issues.append(ValidationIssue(
                "DuplicatePair", i,
                f"same subgroup and character as branch[{seen[key]}]"))
        else:
            seen[key] = i
    if issues:
        raise InvalidCoverData(issues)
    return CombinatorialData(data.group, tuple(canonical))


def sum_map(data: CombinatorialData) -> list[list[int]]:
    """The sum map nu: H = Z/d_1 + ... + Z/d_s -> G, (t_1, ..., t_s) |-> sum
    t_i * g_i, as the Hermite basis (_hermite) of its graph lattice in
    Z^r + Z^s: the span of the (g_i, e_i) and of diag(m_1, ..., m_r, d_1,
    ..., d_s), with the G coordinates first.  The graph rows are reduced, as
    _hermite requires: the residues are, and the unit entry is 1 % d_i, which
    is 0 for a trivial generator of unvalidated data."""
    r, orders = data.group.rank, data.orders
    graph = _diagonal(r + data.size, r, [1 % d for d in orders])
    for row, datum in zip(graph, data.branch):
        row[:r] = datum.generator.residues
    return _hermite(data.group.moduli + orders, graph)


class SumMapPresentation(_Frozen):
    """The sum map nu: H = Z/d_1 + ... + Z/d_s -> G of one input, presented
    once, from (kernel_gens, kernel_order, image_order, etale_index), all
    read off the one Hermite basis of sum_map:

    * K = ker(nu): generators (elements of H) and the order |H| / |M|;
    * M = im(nu): its order and the etale index |T| = |G| / |M|.

    The branch data rewritten inside M, the totally ramified part of the
    cover, is restrict(data, presentation); classify never needs it.
    """

    __slots__ = _fields = ("kernel_gens", "kernel_order", "image_order", "etale_index")

    @property
    def totally_ramified(self) -> bool:
        return self.etale_index == 1


def ramification_factorization(data: CombinatorialData) -> SumMapPresentation:
    """Present the sum map of `data` and factor the cover through M = im(nu).

    Let Lambda be the graph lattice of sum_map and rows its triangular
    basis, with positive pivots.  Every vector of Lambda is an integer
    combination of the rows, and the coefficient of row k is fixed column by
    column: it is x_k / pivot_k once the rows before k are subtracted.  So
    the vectors of Lambda that vanish on the first r columns are spanned by
    rows r, ..., r + s - 1, which vanish there, and the first r rows span
    the projection of Lambda to Z^r, span(g_i) + diag(m), the preimage of
    M.  Hence [G : M] is the product of the first r pivots.

    A vector (0, y) lies in Lambda iff y = t + d*b and sum t_i g_i = 0 in G
    for some integers t and b.  Since d_i g_i = 0, that says sum y_i g_i = 0:
    the H parts of rows r, ... are a basis of the relation lattice
    {y in Z^s : sum y_i g_i = 0} = K + dZ^s, and their residues mod d
    generate K.  A row whose pivot is d_i was never folded (a fold leaves
    gcd(p, q) < d_i), so it is d_i e_i, zero in H; the other rows are
    nonzero, and distinct, since their pivots sit in different columns.

    It runs no Smith form: the branch data rewritten inside M, which needs
    the Smith form of the H block when nu is not surjective, is
    restrict(data, presentation), made only by the commands that name M's
    characters.
    """
    rows = sum_map(data)
    r, orders = data.group.rank, data.orders
    etale_index = prod(rows[k][k] for k in range(r))
    image_order = data.group.order // etale_index
    block = [row[r:] for row in rows[r:]]
    source = AbelianGroup(orders)
    gens = tuple(source.element(y) for i, (y, d) in enumerate(zip(block, orders)) if y[i] < d)
    return SumMapPresentation(gens, source.order // image_order, image_order, etale_index)


def restrict(data: CombinatorialData, presentation: SumMapPresentation) -> CombinatorialData:
    """The branch data of `data` rewritten inside M = im(nu), the totally
    ramified part of the cover, given the presentation of its sum map: the
    input itself when nu is surjective.  Otherwise M ~ Z^s / (K + dZ^s) is
    presented abstractly through the Smith normal form U B V = D of the H
    block B of sum_map, whose rows span that lattice (see
    ramification_factorization); only D and V are needed.  B is read back
    from the kernel generators, with no second fold: row i is the generator
    whose first nonzero residue sits in column i, and d_i e_i where there is
    none.  Right multiplication by V carries the lattice onto the row span
    of D, so each branch generator e_j moves to row j of V, reduced mod the
    invariant factors, and is written against its canonical generator in M."""
    if presentation.totally_ramified:
        return data
    orders = data.orders
    block = [[0] * i + [d] + [0] * (len(orders) - i - 1) for i, d in enumerate(orders)]
    for gen in presentation.kernel_gens:
        y = list(gen.residues)
        block[next(i for i, c in enumerate(y) if c)] = y
    D, V = smith_normal_form(block)
    diag = [row[i] for i, row in enumerate(D)]
    if prod(diag) != presentation.image_order:
        raise ArithmeticError("image presentation disagrees with image order")
    kept = [i for i, d in enumerate(diag) if d > 1]
    subgroup = AbelianGroup(tuple(diag[i] for i in kept))
    new_branch = []
    for j, datum in enumerate(data.branch):
        moved = BranchDatum(
            subgroup.element([V[j][i] % diag[i] for i in kept]), datum.char_residue)
        if moved.order != datum.order:
            raise ArithmeticError("generator order changed under restriction")
        new_branch.append(moved.canonical())
    return CombinatorialData(subgroup, tuple(new_branch))


class KernelDescription(_Frozen):
    """K = ker(nu) inside H = Z/d_1 + ... + Z/d_s, built from (generators,
    order, min_support).

    min_support is the least number of nonzero coordinates over the nonzero
    elements of K.  It is exact when given; it is None when K is trivial or
    when its search would pass the work bound (see kernel_K).
    """

    __slots__ = _fields = ("generators", "order", "min_support")


def kernel_K(data: CombinatorialData, presentation: SumMapPresentation) -> KernelDescription:
    """K as presented, with its exact minimal support when the search for it
    fits in DEFAULT_ENUMERATION_LIMIT subset probes.

    The kernel elements supported in a coordinate set T form the kernel of
    the sum map of the lines in T, of order prod_{i in T} d_i / |sum H_i|.
    No support is 1 (d_i * g_i is the first multiple of g_i that vanishes),
    and the support of K itself is at most s, so the minimal support is the
    least |T| < s with prod_{i in T} d_i > |sum_{i in T} H_i|, else s.

    For each size 2, ..., s - 1 the subsets T come in lexicographic order
    from one depth-first walk, which extends its prefix's Hermite basis by
    one line per step (_hermite_fold).  A probe is one leaf: the pivot
    product of the last line against its prefix's basis (_fold_pivots),
    which gives |sum H_T| = |G| / pivots.  A minimum-weight kernel element
    is hard to find in general, so the probes are bounded, and the answer
    is None once they would pass the bound.  The budget unit is one subset
    decided, so the bound means the same whichever way a subset is decided.
    When K has fewer elements than there are subsets to probe, the walk
    gets |K| probes, and K is enumerated only if they do not decide.

    When every d_i is prime and the budget pays for every pair, the pairs
    need no fold.  The kernel elements supported on {i, j} form a group
    isomorphic to the intersection of H_i and H_j.  Two subgroups of prime
    order meet nontrivially iff they are equal, and equal subgroups have
    the same canonical generator (BranchDatum.canonical), so a pair meets
    iff its keys are equal."""
    gens, order = presentation.kernel_gens, presentation.kernel_order
    s, orders = data.size, data.orders
    limit = groups.DEFAULT_ENUMERATION_LIMIT
    if order == 1:
        return KernelDescription(gens, order, None)
    probes = 2**s - 2 - s  # subsets T with 2 <= |T| < s
    enumerate_after = order <= min(probes, limit)
    support = _probe_supports(data, order if enumerate_after else limit)
    if support is None and enumerate_after:
        elements = closure(orders, (g.residues for g in gens))
        support = min(sum(1 for x in t if x) for t in elements if any(t))
    return KernelDescription(gens, order, support)


def _probe_supports(data: CombinatorialData, budget: int) -> int | None:
    """The minimal support of the kernel of the sum map of `data`, by the
    subset probes of kernel_K, or None if `budget` subsets decided in
    lexicographic order, size by size, do not decide.

    When every d_i is a proven prime and the budget pays for all C(s, 2)
    pairs, the size-2 level is one pass that keys each line by its
    canonical generator.  Two subgroups of prime order meet nontrivially
    iff they are equal, and equal subgroups have the same canonical
    generator, so lines i < j meet iff their keys are equal.  The canonical
    generator is taken, not the stored one, since unvalidated data can
    write one subgroup with two generators.  The walk too would have
    decided every pair within that budget, so the pass answers 2 if two
    keys are equal, and otherwise charges the C(s, 2) pairs and the walk
    starts at size 3.  A smaller budget keeps the probes, since the walk
    may then stop inside the pairs (|K| below the number of pairs, where K
    is enumerated after |K| probes)."""
    s, orders = data.size, data.orders
    if s < 3:
        return s
    moduli, group_order = data.group.moduli, data.group.order
    lines = [datum.generator.residues for datum in data.branch]
    diagonal = _hermite(moduli, ())
    spent, first_size, pairs = 0, 2, s * (s - 1) // 2
    if budget >= pairs and all(map(proven_prime, set(orders))):
        keys = set()
        for datum in data.branch:
            key = datum.canonical().generator.residues
            if key in keys:
                return 2
            keys.add(key)
        spent, first_size = pairs, 3
    for size in range(first_size, s):
        for start, basis, prefix_order in _prefixes(moduli, lines, orders, size - 1, 0, diagonal, 1):
            for i in range(start, s):
                if spent == budget:
                    return None
                spent += 1
                # |K_T| > 1 iff prod d_T > |sum H_T| = |G| / pivots.
                if prefix_order * orders[i] * _fold_pivots(moduli, basis, lines[i]) > group_order:
                    return size
    return s


def _prefixes(moduli, lines, orders, length, start, basis, prefix_order):
    """Each subset of `length` more lines from lines[start:] that leaves a
    later line to probe, depth first in lexicographic order, as (the first
    index after it, the Hermite basis with its lines folded in, the product
    of their orders)."""
    if not length:
        yield start, basis, prefix_order
        return
    for i in range(start, len(lines) - length):
        yield from _prefixes(moduli, lines, orders, length - 1, i + 1,
                             _hermite_fold(moduli, basis, lines[i]), prefix_order * orders[i])
