"""The Artinian fiber algebra of the combinatorial model cover over the deepest
point of the branch locus.

For totally ramified data every character chi of G owns a unique basis
monomial w_chi = z_1^a_1 ... z_s^a_s with 0 <= a_i < d_i, where a_i is the
exponent with chi restricted to H_i equal to psi_i^a_i.  Products are
w_chi * w_chi' = w_{chi chi'} when no exponent sum overflows its d_i, and 0
otherwise, which makes the ring a structure-constant table over the
character group."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, lcm

import numpy as np

from .groups import AbelianGroup, Character, DEFAULT_ENUMERATION_LIMIT, LimitExceeded
from .cover import CombinatorialData, SumMapPresentation, ramification_factorization

#: Largest group order for which the fiber ring is materialized.  The socle
#: scan is quadratic in the order, so this sits far below the linear
#: enumeration limit.
DEFAULT_FIBER_ORDER_LIMIT = 4096


_NOT_TOTALLY_RAMIFIED = (
    "data is not totally ramified; classify factors covers first "
    "(ramification_factorization) and works on the restricted part"
)


def _require_totally_ramified(data: CombinatorialData) -> None:
    if not ramification_factorization(data).totally_ramified:
        raise ValueError(_NOT_TOTALLY_RAMIFIED)


class _AlphaTable:
    """Integer-only evaluation of the exponent vector of a character.

    alpha_i solves psi_i^alpha_i = chi on H_i, computed as the discrete log
    of chi(g_i) against psi_i(g_i) = a_i/d_i.  Everything is cleared to the
    common denominator L = lcm of the ambient moduli, so the per-character
    loop stays in integers.
    """

    def __init__(self, data: CombinatorialData):
        moduli = data.group.moduli
        self.orders = data.orders
        self.L = lcm(*moduli) if moduli else 1
        self.weights = [
            [(datum.generator.residues[j] * (self.L // moduli[j])) % self.L
             for j in range(len(moduli))]
            for datum in data.branch
        ]
        self.inverses = [
            pow(datum.char_residue, -1, datum.order) for datum in data.branch
        ]

    def alpha(self, residues: tuple[int, ...]) -> tuple[int, ...]:
        out = []
        for w, inv, d in zip(self.weights, self.inverses, self.orders):
            t = sum(c * wj for c, wj in zip(residues, w)) % self.L
            num = t * d
            if num % self.L:
                raise ArithmeticError("character value outside the inertia dual")
            out.append((inv * (num // self.L)) % d)
        return tuple(out)


def alpha_exponents(data: CombinatorialData, chi: Character) -> tuple[int, ...]:
    """The exponent vector of w_chi: alpha_i in [0, d_i) with
    psi_i^alpha_i = chi restricted to H_i.  Data must be valid and totally
    ramified."""
    _require_totally_ramified(data)
    if chi.group != data.group:
        raise ValueError("character of a different group")
    return _AlphaTable(data).alpha(chi.residues)


def epsilon(data: CombinatorialData, chi: Character, chi2: Character) -> tuple[int, ...]:
    """Carry digits floor((alpha_i + alpha_i') / d_i), each 0 or 1.  These are
    the coefficients governing both the fiber product and the linear
    equivalences of the global building data."""
    _require_totally_ramified(data)
    table = _AlphaTable(data)
    a = table.alpha(chi.residues)
    b = table.alpha(chi2.residues)
    return tuple((x + y) // d for x, y, d in zip(a, b, data.orders))


@dataclass(frozen=True)
class FiberRing:
    """dim = |G| algebra with basis {w_chi} and the overflow product rule.

    Characters are listed in lexicographic residue order; `alphas[k]` is the
    exponent vector of `characters[k]`.  The trivial character (index 0) is
    the identity; all nonzero structure constants are 1."""

    group: AbelianGroup
    orders: tuple[int, ...]
    characters: tuple[Character, ...]
    alphas: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.characters)

    def index(self, chi: Character) -> int:
        idx = 0
        for c, m in zip(chi.residues, self.group.moduli):
            idx = idx * m + c
        return idx

    def alpha(self, chi: Character) -> tuple[int, ...]:
        return self.alphas[self.index(chi)]

    def product_index(self, i: int, j: int) -> int | None:
        """Index of w_i * w_j in the basis, or None for the zero product."""
        a, b = self.alphas[i], self.alphas[j]
        if any(x + y >= d for x, y, d in zip(a, b, self.orders)):
            return None
        ci = self.characters[i].residues
        cj = self.characters[j].residues
        idx = 0
        for x, y, m in zip(ci, cj, self.group.moduli):
            idx = idx * m + (x + y) % m
        return idx

    def product(self, chi: Character, chi2: Character) -> Character | None:
        idx = self.product_index(self.index(chi), self.index(chi2))
        return None if idx is None else self.characters[idx]

    def product_table(self) -> list[list[int | None]]:
        n = self.dimension
        return [[self.product_index(i, j) for j in range(n)] for i in range(n)]

    def degrees(self) -> tuple[int, ...]:
        return tuple(sum(a) for a in self.alphas)


def build_fiber_ring(data: CombinatorialData, *, order_limit: int = DEFAULT_FIBER_ORDER_LIMIT) -> FiberRing:
    """Construct the fiber ring of valid, totally ramified data.

    alpha is injective exactly when the data is totally ramified: a
    nontrivial character trivial on every H_i exists iff the H_i generate a
    proper subgroup, and it shares the exponent vector of the identity."""
    n = data.group.order
    if n > order_limit:
        raise LimitExceeded(f"group order {n} exceeds the fiber bound {order_limit}")
    table = _AlphaTable(data)
    characters = tuple(data.group.characters())
    alphas = tuple(table.alpha(chi.residues) for chi in characters)
    if len(set(alphas)) != n:
        raise ValueError(_NOT_TOTALLY_RAMIFIED)
    return FiberRing(data.group, data.orders, characters, alphas)


def socle_basis(ring: FiberRing) -> list[Character]:
    """Basis characters of the socle: those chi with w_chi * w_chi' = 0 for
    every nontrivial chi'.  Never empty; the ring is Gorenstein exactly when
    this has one element."""
    n = ring.dimension
    if n == 1:
        return [ring.characters[0]]
    A = np.array(ring.alphas, dtype=np.int64)
    d = np.array(ring.orders, dtype=np.int64)
    nontrivial = A[1:]
    out = []
    for j in range(n):
        room = d - A[j]
        if not (nontrivial < room).all(axis=1).any():
            out.append(ring.characters[j])
    return out


@dataclass(frozen=True)
class HilbertNumerator:
    """q_d = number of basis monomials w_chi of total degree d.

    The generating polynomial of the invariant ring over its polynomial
    subring; palindromic coefficients are the graded signature of the
    Gorenstein property (Stanley's symmetry criterion)."""

    coefficients: tuple[int, ...]

    @property
    def palindromic(self) -> bool:
        return self.coefficients == self.coefficients[::-1]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __str__(self) -> str:
        terms = []
        for d, q in enumerate(self.coefficients):
            if not q:
                continue
            if d == 0:
                terms.append(str(q))
            else:
                power = "t" if d == 1 else f"t^{d}"
                terms.append(power if q == 1 else f"{q}*{power}")
        return " + ".join(terms) if terms else "0"


def hilbert_numerator(ring: FiberRing) -> HilbertNumerator:
    """Degree distribution of the w_chi basis of the fiber ring."""
    counts = [0] * (sum(d - 1 for d in ring.orders) + 1)
    for degree in ring.degrees():
        counts[degree] += 1
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return HilbertNumerator(tuple(counts))


def _exponents_up_to(s: int, max_degree: int):
    """All tuples in N^s with coordinate sum <= max_degree."""
    if s == 0:
        yield ()
        return

    def rec(prefix: tuple[int, ...], budget: int):
        if len(prefix) == s - 1:
            for last in range(budget + 1):
                yield prefix + (last,)
            return
        for head in range(budget + 1):
            yield from rec(prefix + (head,), budget - head)

    yield from rec((), max_degree)


def invariant_monomials_up_to_degree(
    data: CombinatorialData,
    max_degree: int = 12,
    *,
    presentation: SumMapPresentation,
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> list[tuple[int, ...]]:
    """All exponent vectors of K-invariant monomials of total degree up to
    `max_degree`, by direct evaluation against the kernel generators of the
    presentation of `data`: alpha is invariant iff sum_i alpha_i t_i a_i / d_i
    is an integer for every kernel generator (t_1, ..., t_s).  Sorted by
    degree, then lexicographically."""
    s = data.size
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    if comb(max_degree + s, s) > enumeration_limit:
        raise LimitExceeded(
            f"enumerating exponents up to degree {max_degree} in {s} variables "
            f"exceeds the bound {enumeration_limit}"
        )
    orders = data.orders
    L = lcm(*orders) if orders else 1
    weights = [
        [(k.residues[i] * data.branch[i].char_residue * (L // orders[i])) % L
         for i in range(s)]
        for k in presentation.kernel_gens
    ]
    out = []
    for alpha in _exponents_up_to(s, max_degree):
        if all(sum(a * w for a, w in zip(alpha, row)) % L == 0 for row in weights):
            out.append(alpha)
    out.sort(key=lambda a: (sum(a), a))
    return out
