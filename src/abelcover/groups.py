"""Exact arithmetic for finite abelian groups.

Groups are direct sums of cyclic groups Z/m_1 + ... + Z/m_r kept in the
decomposition the caller supplies.  Characters take values in Q/Z (an exact
stand-in for roots of unity), written as integer numerators n/L over the
group exponent L.  The integer linear algebra underneath everything is
Hermite bases reduced mod the moduli, with a Smith normal form only for the
cyclic decomposition of a proper image, over arbitrary-precision ints.  No
floating point anywhere.
"""

from __future__ import annotations

from math import gcd, lcm, prod
from operator import add, floordiv, mod, mul

#: Cap on the subset probes of the exact minimal-support search of a kernel,
#: on the elements that `closure` enumerates and on the exponent vectors that
#: the invariant-monomial listing walks.
DEFAULT_ENUMERATION_LIMIT = 10**6


class LimitExceeded(Exception):
    """An operation would enumerate more elements than its configured bound."""


# ---------------------------------------------------------------------------
# Primality

#: The prime bases 2..41 of proven_prime, and the bound below which a strong
#: probable prime to all of them is prime (Sorenson and Webster, "Strong
#: pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).  The bound
#: itself is a strong pseudoprime to every base.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def proven_prime(n: int) -> bool:
    """True iff n is a prime below _PRIME_BOUND, by trial division by the
    bases and then the Miller-Rabin test to each of them, which is exact
    there.  False at and past the bound, where nothing is proven.

    >>> [n for n in range(30) if proven_prime(n)]
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    """
    if not 2 <= n < _PRIME_BOUND:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    e = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^e * d with d odd
    for a in _PRIME_BASES:
        x = pow(a, (n - 1) >> e, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(e - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Integer matrices (lists of rows of ints)


def _diagonal(n: int, start: int, values) -> list[list[int]]:
    """The rows of an n-column matrix whose row i is values[i] at column
    start + i and zero elsewhere.  The identity is _diagonal(n, 0, [1] * n),
    diag(moduli) is _diagonal(r, 0, moduli), and the unit rows of a graph
    lattice start at its first unit column.  Each row is a fresh [0] * n
    with one entry set."""
    rows = []
    for k, x in enumerate(values, start):
        row = [0] * n
        row[k] = x
        rows.append(row)
    return rows


def smith_normal_form(matrix) -> tuple[list[list[int]], list[list[int]]]:
    """Diagonalize an integer matrix A: returns (D, V) with D = U*A*V for
    some square unimodular U, which is not built (no caller reads it).

    V is square unimodular, D is diagonal with non-negative entries and each
    diagonal entry divides the next.  Total on rectangular matrices,
    including empty ones.

    >>> D, V = smith_normal_form([[2, 4], [6, 8]])
    >>> [D[0][0], D[1][1]]
    [2, 4]
    """
    D = [[int(x) for x in row] for row in matrix]
    m = len(D)
    n = len(D[0]) if m else 0
    if any(len(row) != n for row in D):
        raise ValueError("matrix rows must all have the same length")
    V = _diagonal(n, 0, [1] * n)

    def swap_cols(i: int, j: int) -> None:
        if i != j:
            for row in D:
                row[i], row[j] = row[j], row[i]
            for row in V:
                row[i], row[j] = row[j], row[i]

    def add_row(dst: int, src: int, c: int) -> None:
        D[dst] = [x + c * y for x, y in zip(D[dst], D[src])]

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
        D[t], D[pivot[0]] = D[pivot[0]], D[t]
        swap_cols(t, pivot[1])
        while True:
            if D[t][t] < 0:
                D[t] = [-x for x in D[t]]
            p = D[t][t]
            restart = False
            # Clear the pivot column; a nonzero remainder is a smaller pivot.
            for i in range(t + 1, m):
                if D[i][t]:
                    add_row(i, t, -(D[i][t] // p))
                    if D[i][t]:
                        D[t], D[i] = D[i], D[t]
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
    return D, V


# ---------------------------------------------------------------------------
# Groups, elements and characters


class _Frozen:
    """Base of the package's value classes.  A subclass lists its fields in
    `_fields` and keeps them in `__slots__`.  The constructor takes the
    fields by position in `_fields` order and sets each once through
    object.__setattr__; afterwards assignment raises AttributeError.  A
    subclass that checks or normalises its input overrides it with the same
    signature.  Instances compare and hash by their field values, only
    against the same class, and print as Name(field=value, ...).  An
    instance equals itself without a field read, the usual case of the
    same-group checks in the arithmetic.  Copies and pickles are rebuilt
    through __init__."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{self.__class__.__qualname__} takes {len(self._fields)} values "
                            f"({', '.join(self._fields)}), got {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class AbelianGroup(_Frozen):
    """A finite abelian group given as Z/m_1 + ... + Z/m_r, every m_j >= 2.

    The empty tuple is the trivial group.  The decomposition is kept exactly
    as given; it is never rewritten into invariant factors behind the
    caller's back.
    """

    __slots__ = _fields = ("moduli",)

    def __init__(self, moduli: tuple[int, ...] = ()):
        moduli = tuple(int(m) for m in moduli)
        if any(m < 2 for m in moduli):
            raise ValueError(f"moduli must all be >= 2, got {moduli}")
        object.__setattr__(self, "moduli", moduli)

    @property
    def order(self) -> int:
        return prod(self.moduli)

    @property
    def rank(self) -> int:
        return len(self.moduli)

    @property
    def exponent(self) -> int:
        """lcm of the moduli (1 for the trivial group): every character
        value is a multiple of 1/exponent in Q/Z."""
        return lcm(*self.moduli)

    def element(self, residues) -> "Element":
        return Element(self, tuple(residues))

    def generators(self) -> tuple["Element", ...]:
        return tuple(
            Element(self, tuple(1 if i == j else 0 for i in range(self.rank)))
            for j in range(self.rank)
        )

    def character(self, residues) -> "Character":
        return Character(self, tuple(residues))

    def trivial_character(self) -> "Character":
        return Character(self, (0,) * self.rank)

    def __str__(self) -> str:
        if not self.moduli:
            return "trivial"
        return " x ".join(f"Z/{m}" for m in self.moduli)


class Element(_Frozen):
    __slots__ = _fields = ("group", "residues")

    def __init__(self, group: AbelianGroup, residues: tuple[int, ...]):
        if len(residues) != group.rank:
            raise ValueError(f"expected {group.rank} residues, got {len(residues)}")
        object.__setattr__(self, "group", group)
        # From a list, the tuple is allocated at its final size (see
        # fiber.hilbert_numerator).
        object.__setattr__(
            self, "residues", tuple([*map(mod, map(int, residues), group.moduli)]))

    def __add__(self, other):
        """The componentwise sum, of the class of self: the group law of
        elements here and, as Character.__mul__, of characters."""
        if other.group != self.group:
            raise ValueError(f"{self.__class__.__name__.lower()}s of different groups")
        return self.__class__(self.group, tuple(map(add, self.residues, other.residues)))

    def __mul__(self, k: int) -> "Element":
        return Element(self.group, tuple(k * r for r in self.residues))

    __rmul__ = __mul__

    def order(self) -> int:
        """Smallest n >= 1 with n*self = 0, via lcm of coordinate orders."""
        moduli = self.group.moduli
        return lcm(*map(floordiv, moduli, map(gcd, self.residues, moduli)))

    def __str__(self) -> str:
        return "(" + ", ".join(map(str, self.residues)) + ")"


class Character(_Frozen):
    """A character of a finite abelian group, as residues c_j against each
    cyclic factor: the value at e is sum_j c_j * e_j / m_j in Q/Z."""

    __slots__ = _fields = ("group", "residues")
    __init__, __mul__, __str__ = Element.__init__, Element.__add__, Element.__str__

    def __call__(self, e: Element) -> int:
        """The value at e as the numerator n in [0, L) of n/L, where
        L = group.exponent.

        >>> G = AbelianGroup((105,))
        >>> G.character((1,))(G.element((5,)))  # 5/105 = 1/21
        5
        """
        if e.group != self.group:
            raise ValueError("element of a different group")
        L, moduli = self.group.exponent, self.group.moduli
        return sum(c * x * (L // m) for c, x, m in zip(self.residues, e.residues, moduli)) % L


def closure(moduli: tuple[int, ...], generators) -> list[tuple[int, ...]]:
    """All residue tuples in the subgroup generated by the given tuples,
    sorted lexicographically.  Raises LimitExceeded past
    DEFAULT_ENUMERATION_LIMIT elements."""
    zero = (0,) * len(moduli)
    elems = {zero}
    frontier = [zero]
    gens = [tuple(g) for g in generators]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % m for a, b, m in zip(x, g, moduli))
                if y not in elems:
                    if len(elems) >= DEFAULT_ENUMERATION_LIMIT:
                        raise LimitExceeded(
                            f"subgroup enumeration exceeded {DEFAULT_ENUMERATION_LIMIT} elements"
                        )
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(elems)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b)."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _hermite(moduli: tuple[int, ...], vectors) -> list[list[int]]:
    """Upper-triangular basis of the lattice spanned by `vectors` and
    diag(moduli) in Z^r: row k is zero before k, its pivot row[k] divides
    m_k, and its later entries are reduced mod their moduli.  The subgroup
    the vectors generate in Z/m_1 + ... + Z/m_r has order
    prod(m) / prod(pivots).

    Every vector must be reduced mod the moduli, 0 <= v_j < m_j, as
    _hermite_fold requires; nothing here reduces it again.  Element
    residues are reduced, and so are the graph rows that sum_map and
    solve_character_congruences build.

    The rows start as diag(moduli), and each vector is folded in by
    _hermite_fold.  Since m_k e_k stays in the lattice, (m_k / p_k) * row,
    the element that a Howell form over Z/m must add, is spanned by the rows
    past k, so the pivots give the subgroup order."""
    rows = _diagonal(len(moduli), 0, moduli)
    for v in vectors:
        rows = _hermite_fold(moduli, rows, v)
    return rows


def _hermite_fold(moduli: tuple[int, ...], rows: list[list[int]], v: list[int]) -> list[list[int]]:
    """The basis that _hermite gives for the lattice of `rows` plus `v`.
    `rows` is a triangular basis, as _hermite returns, of a lattice that
    contains diag(moduli), and `v` is reduced mod the moduli.  Neither is
    changed: the new basis shares the rows it does not replace.

    Column k folds v into row k by a unimodular 2x2 step on (pivot p,
    entry q): with g = gcd(p, q) = x*p + y*q, the row becomes x*row + y*v
    and v becomes (p/g)*v - (q/g)*row, which is zero in column k and, like
    the row, zero before it.  When p divides q the step is (x, y) = (1, 0):
    the row stays and v loses (q/p)*row.  The step keeps the span of the
    rows and v.  Reducing each entry j > k mod m_j keeps it too: the rows
    past column k are still untouched, and as a triangular basis of a
    lattice containing diag(moduli) they span that lattice's part past
    column k, m_j e_j included.  The new pivot g divides p, so it divides
    m_k, and it is below m_k since 0 < q < m_k, so the reduction leaves it
    alone.  After the last column v is zero, and the rows are a triangular
    basis of the larger lattice.

    The fold ends as soon as a gcd step leaves v zero.  That loses nothing:
    a column whose entry of v is zero is skipped, so with v zero every later
    column would be skipped and its row kept as it is.  This is the common
    case of a line that opens a fresh pivot: the row is still m_k e_k, so
    past column k v becomes (m_k/g) * v, which is zero when every later m_j
    divides m_k/g, as over (Z/p)^r."""
    rows = list(rows)
    for k, h in enumerate(rows):
        if not v[k]:
            continue
        if v[k] % h[k]:
            g, x, y = _xgcd(h[k], v[k])
            a, b = h[k] // g, v[k] // g
            rows[k], v = (
                [(x * p + y * q) % m for p, q, m in zip(h, v, moduli)],
                [(a * q - b * p) % m for p, q, m in zip(h, v, moduli)],
            )
            if not any(v):
                break
        else:
            b = v[k] // h[k]
            v = [(q - b * p) % m for p, q, m in zip(h, v, moduli)]
    return rows


def _fold_pivots(moduli: tuple[int, ...], rows: list[list[int]], v: list[int]) -> int:
    """The product of the pivots of _hermite_fold(moduli, rows, v), without
    building the basis.  Column k's new pivot is gcd(p, q), and v's update
    (p/g)*v - (q/g)*row needs only the old row, so no Bezout coefficients
    and no new row are computed."""
    total = 1
    for k, row in enumerate(rows):
        p, q = row[k], v[k]
        if q:
            g = gcd(p, q)
            a, b = p // g, q // g
            v = [(a * y - b * x) % m for x, y, m in zip(row, v, moduli)]
            p = g
        total *= p
    return total


# ---------------------------------------------------------------------------
# Character congruences


def solve_character_congruences(group: AbelianGroup, constraints) -> Character | None:
    """A character chi of `group` with chi(g) = a/d in Q/Z for every
    (g, a, d) constraint, or None when no such character exists.  d is
    ord(g), which the caller already holds: gorenstein_lift passes the
    stored BranchDatum.order, so no order is computed here.

    The congruences sum_j c_j g_j / m_j = a / d (mod 1) are cleared to
    the group exponent L: M c = b (mod L), one row per constraint.  The
    graph vectors v_j = (M e_j, e_j) in (Z/L)^k + G span {(M c, c)}, and one
    Hermite basis of them under the moduli (L,)*k + (m_1, ..., m_r) is a
    triangular basis of span(graph, diag(moduli)) (see _hermite), so
    reduction through it decides membership.  The graph is reduced, as
    _hermite requires: an entry g_j (L / m_j) of M is below L since
    g_j < m_j, and e_j is reduced since m_j >= 2.  Reducing (b, 0) through
    the first k rows succeeds exactly when b lies in the image of M, and
    leaves (0, -c) for a solution c.  Rows k, ... are zero on the first k
    coordinates, and since every pivot is positive they span all of
    {(0, c) : M c = 0 (mod L)}, the homogeneous solutions.  Reducing c
    against them one coordinate at a time (x_j mod pivot_j) gives the
    lexicographically smallest solution, so the output is deterministic.
    A solution is checked against every constraint before it is returned,
    as chi(g) = sum_j c_j (L / m_j) g_j mod L against the cleared target
    b, with the weights c_j (L / m_j) computed once.
    A None is not re-checked by enumerating G: classify compares it with
    three independent Gorenstein routes, which catch a missed solution.
    """
    constraints = list(constraints)
    r = group.rank
    if any(g.group != group for g, _, _ in constraints):
        raise ValueError("constraint element of a different group")
    if not constraints or r == 0:
        return group.trivial_character()

    L = group.exponent
    k = len(constraints)
    b = [(a * (L // d)) % L for _, a, d in constraints]
    moduli = (L,) * k + group.moduli
    graph = _diagonal(k + r, k, [1] * r)
    for j, (row, m) in enumerate(zip(graph, group.moduli)):
        row[:k] = [g.residues[j] * (L // m) for g, _, _ in constraints]
    rows = _hermite(moduli, graph)
    x = b + [0] * r
    for t in range(k):
        if x[t] % rows[t][t]:
            return None
        q = x[t] // rows[t][t]
        x = [(a - q * h) % m for a, h, m in zip(x, rows[t], moduli)]
    residues = [-a % m for a, m in zip(x[k:], group.moduli)]
    for j, row in enumerate(rows[k:]):
        q = residues[j] // row[k + j]
        residues = [a - q * h for a, h in zip(residues, row[k:])]
    chi = group.character(residues)
    weights = [c * (L // m) for c, m in zip(chi.residues, group.moduli)]
    for (g, _, _), target in zip(constraints, b):
        if sum(map(mul, weights, g.residues)) % L != target:
            raise ArithmeticError("congruence solver produced a bad solution")
    return chi
