"""The Artinian fiber algebra of the combinatorial model cover over the deepest
point of the branch locus.

For totally ramified data every character chi of G owns a unique basis
monomial w_chi = z_1^a_1 ... z_s^a_s with 0 <= a_i < d_i, where a_i is the
exponent with chi restricted to H_i equal to psi_i^a_i.  Products are
w_chi * w_chi' = w_{chi chi'} when no exponent sum overflows its d_i, and 0
otherwise, which makes the ring a structure-constant table over the
character group."""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from itertools import accumulate, combinations_with_replacement, compress, islice, repeat
from math import comb, prod
from operator import mul, or_, sub

from . import groups
from .groups import LimitExceeded, _Frozen, _hermite
from .cover import CombinatorialData, SumMapPresentation, psi_weights

#: Largest group order for which the fiber ring is materialized.  The ring
#: holds one exponent per element of G and branch line, and
#: `fiber --table` prints |G|^2 products.  The value is part of the report:
#: above it the two fiber-ring Gorenstein cross-checks are recorded as
#: skipped, so changing it changes reports.
DEFAULT_FIBER_ORDER_LIMIT = 4096

#: Highest degree whose invariant monomials `hilbert` counts by default.
DEFAULT_HILBERT_DEGREE = 12

#: Degree field widths, narrowest first: the bytes per field, the codec that
#: lays a string out as one native-order field of that width per character
#: (surrogate code points pass through the UTF ones), and the memoryview
#: format that reads the fields back as unsigned ints.
_ENDIAN = "le" if sys.byteorder == "little" else "be"
_FIELDS = ((1, "latin-1", "B"), (2, f"utf-16-{_ENDIAN}", "H"), (4, f"utf-32-{_ENDIAN}", "I"))

#: Pairs of coefficients that hilbert_palindromic compares by count before
#: it reads the tally.  One Counter over n one-byte degrees costs about as
#: much as 60 bytes.count passes over them (28 at n = 60, 50-68 at
#: n = 256-4096; Python 3.11.7, 2 vCPU), and a pair is two passes.
_PALINDROME_PAIRS = 30

#: Turns the binary digits of a bitset into bytes 0 and 1, selectors for
#: itertools.compress.
_SELECT = bytes.maketrans(b"01", b"\0\1")


class _Thresholds(dict):
    """The threshold masks of one column, by value; see FiberRing.thresholds.
    A hit is a plain dict lookup, and __missing__ builds what is not there."""

    __slots__ = ("column", "order")

    def __init__(self, column: str, order: int):
        self[order] = 0
        self.column, self.order = column, order

    def __missing__(self, v: int) -> int:
        column, d = self.column, self.order
        if len(self) > 1 and d > 128 and len(column) <= DEFAULT_FIBER_ORDER_LIMIT:
            return self.every()[v]
        mask = self[v] = int(column.translate("0" * v + "1" * (d - v)), 2)
        return mask

    def every(self) -> _Thresholds:
        """This column, for a caller that asks for every mask: a column of
        d_i > 128 sweeps now, whatever |G|; a narrower one still
        translates on request."""
        column, d = self.column, self.order
        if d > 128 and 0 not in self:
            top = 1 << len(column) >> 1
            buckets = [0] * d
            for k, a in enumerate(map(ord, column)):
                buckets[a] |= top >> k
            self.update(zip(range(d - 1, -1, -1), accumulate(reversed(buckets), or_)))
        return self


class FiberRing(_Frozen):
    """The algebra with one basis monomial per exponent vector of the ring
    and the overflow product rule.

    Built from (radices, orders, columns): basis index k is the digit
    string of k in mixed radix over `radices`, in lexicographic order; the
    orders d_i of the branch lines; and one string per coordinate i whose
    character k has ordinal alpha_i at index k.  The dimension is
    prod(radices).  Index 0, the string of zeros, is the identity; all
    nonzero structure constants are 1.  The ring names no index: the
    digits are the residues of G's characters on a ring of
    build_fiber_ring, and the digits of an echelon basis on one of
    build_image_ring.

    Derived state, made from the columns and kept in the instance __dict__
    (no __slots__): the total `degrees`, summed by build_fiber_ring for its
    totally-ramified check; and, on first use, `alphas[k]`, the exponent
    vector of index k, the `tally` of the degrees, the `levels` that the
    socle walk visits, and the `thresholds`, the one source of the
    dominance masks that the socle walk and the product table read.  Copies
    and pickles carry the fields only and rebuild the rest on first use.
    classify reads the columns and the degrees, never `alphas`; it counts
    the tally only on rings with wider degree fields."""

    _fields = ("radices", "orders", "columns")

    @cached_property
    def alphas(self) -> tuple[tuple[int, ...], ...]:
        # With no branch there are no columns, and every vector is empty.
        return tuple(zip(*[map(ord, column) for column in self.columns])) or ((),) * self.dimension

    @cached_property
    def degrees(self) -> memoryview:
        """Total degree of each basis monomial, by index; summed once per
        ring, when build_fiber_ring checks total ramification.  The fields
        are the narrowest of 8, 16 or 32 bits that hold the top degree
        sum(d_i - 1).  Each column is read as one integer with one
        native-order field per index (latin-1, UTF-16 or UTF-32), so that
        the sum of the columns holds every total degree in its field, read
        back as unsigned ints.  Every exponent is at most the top degree,
        so each character fits its field, and no field carries;
        build_fiber_ring caps the top degree below 2^32."""
        top = sum(self.orders) - len(self.orders)
        width, codec, form = next(field for field in _FIELDS if top < 1 << 8 * field[0])
        total = sum(int.from_bytes(column.encode(codec, "surrogatepass"), sys.byteorder)
                    for column in self.columns)
        return memoryview(total.to_bytes(width * self.dimension, sys.byteorder)).cast(form)

    @cached_property
    def tally(self) -> Counter[int]:
        """Number of basis monomials of each total degree; counted once per
        ring, for the Hilbert numerator, and for the levels and the counts
        of a ring with wider degree fields."""
        return Counter(self.degrees)

    @cached_property
    def levels(self) -> Sequence[int]:
        """The total degrees to walk, from the top down.  The choice follows
        the degree field width, a property of the input, on purpose.  With
        one-byte fields (top degree sum(d_i - 1) below 256) it is every
        degree from the top to 0, and no tally is counted: a degree that
        does not occur costs one memchr miss over n bytes.  With wider
        fields a miss searches every field, so it is the degrees that
        occur, the keys of the tally."""
        if self.degrees.itemsize == 1:
            return range(sum(self.orders) - len(self.orders), -1, -1)
        return sorted(self.tally, reverse=True)

    def count(self, degree: int) -> int:
        """Number of basis monomials of total degree `degree`.  Like
        `levels`, it follows the degree field width.  With one-byte fields
        it is one bytes.count of the packed degrees, and no tally is
        counted.  With wider fields a degree's pattern can straddle two
        fields, so it is read off the tally, which `levels` counts anyway."""
        if self.degrees.itemsize == 1:
            return self.degrees.obj.count(degree)
        return self.tally[degree]

    def indices(self, degree: int) -> Iterator[int]:
        """The basis indices of total degree `degree`, in increasing order,
        found straight in the packed fields of `degrees`: with w bytes per
        field, the degree's w-byte native-order pattern is searched in the
        underlying bytes, and index k is field k, at byte offset w * k.  A
        match at an offset that is not a multiple of w straddles two
        fields, the end of one and the start of the next, and is skipped;
        every field holding the degree is still found, since the search
        resumes one byte past each match."""
        fields, width = self.degrees.obj, self.degrees.itemsize
        pattern = degree.to_bytes(width, sys.byteorder)
        offset = fields.find(pattern)
        while offset >= 0:
            k, straddle = divmod(offset, width)
            if not straddle:
                yield k
            offset = fields.find(pattern, offset + 1)

    @cached_property
    def thresholds(self) -> list[_Thresholds]:
        """The threshold masks of each column, built on request:
        thresholds[i][v], for 0 <= v <= d_i, is the set of indices k with
        alpha_i(k) >= v, as a bitset with index k at bit n - 1 - k, so that
        the binary string of a mask holds index k at position k.  Mask d_i
        is empty and is there from the start.

        A mask is built on its first request, by one translation of column
        i through "0" * v + "1" * (d_i - v).  A column of d_i <= 128 is
        ASCII, where str.translate takes its fast path, and it always
        translates.  A wider column is translated character by character,
        so when it is asked to build a second mask it sweeps all its d_i
        masks at once instead: one pass puts each index in the bucket of
        its value, and one cumulative OR from the top value down gives
        every mask.  The sweep holds d_i masks of |G| bits, so a walk takes
        it only when |G| is within the default fiber bound,
        DEFAULT_FIBER_ORDER_LIMIT (about 0.5 GB per column at Z/65521 past
        it), and past the bound translates each mask it asks for.
        classify's walk asks at most one mask per column and so never
        sweeps; a full socle walk asks for many.  The product table asks
        for every mask of every column through _Thresholds.every, so its
        wide columns sweep at any |G|: it holds |G|^2 cells anyway."""
        return [*map(_Thresholds, self.columns, self.orders)]

    @property
    def dimension(self) -> int:
        return prod(self.radices)

    def product_rows(self, names: Iterable, zero) -> Iterator[list]:
        """The rows of the product table in index order: at row i, column j,
        the name of the index of w_i * w_j, or `zero` for the zero product.
        `names` gives one name per basis index.

        w_a * w_b != 0 exactly when alpha_t(a) + alpha_t(b) < d_t for every
        t, that is, when alpha(b) is dominated by the vector with
        coordinates d_t - 1 - alpha_t(a), so the nonzero columns of row a
        are the indices outside thresholds[t][d_t - alpha_t(a)] for every
        t.  A product is named through codes: alpha packed into one integer
        in mixed radix d_t, one-to-one on the box 0 <= alpha_t < d_t, so
        that two codes whose coordinate sums all stay below their d_t add
        without carry, code(a) + code(b) = code(a + b).  A row costs s
        whole-ring ORs, C-level passes over its n columns (the selector
        bytes, compress, the fill with `zero`), and one add and one lookup
        per nonzero product."""
        n = self.dimension
        thresholds, orders = [at.every() for at in self.thresholds], self.orders
        weights = [*accumulate(orders[:-1], mul, initial=1)]
        codes = [sum(map(mul, a, weights)) for a in self.alphas]
        # compress walks a list of the indices, so it makes no new ints.
        indices = list(range(n))
        label = dict(zip(codes, names))
        everyone = (1 << n) - 1
        for code, alpha in zip(codes, self.alphas):
            above = 0
            for at, d, a in zip(thresholds, orders, alpha):
                above |= at[d - a]
            row = [zero] * n
            selectors = f"{everyone ^ above:0{n}b}".encode().translate(_SELECT)
            for j in compress(indices, selectors):
                row[j] = label[code + codes[j]]
            yield row

    def product_table(self) -> list[list[int | None]]:
        """The index of w_i * w_j, or None for the zero product, at row i,
        column j, built row by row by product_rows: per nonzero product one
        add and one lookup."""
        return list(self.product_rows(range(self.dimension), None))


def build_fiber_ring(data: CombinatorialData, *, order_limit: int = DEFAULT_FIBER_ORDER_LIMIT) -> FiberRing:
    """Construct the fiber ring of valid, totally ramified data, with its
    group's moduli as the radices: the digits of index k are the residues
    of a character of G.

    alpha_i(chi) solves psi_i^alpha_i = chi on H_i.  alpha is a homomorphism
    from the character group to prod Z/d_i, so it is fixed by the images of
    the unit characters e_j (_unit_steps), and the columns are built by
    _columns over the moduli of G with the steps alpha(e_j).  The indices
    come out in lexicographic residue order.

    alpha is injective exactly when the data is totally ramified: its kernel
    is the set of characters trivial on every H_i, which is nontrivial iff
    the H_i generate a proper subgroup, and such a character shares the
    exponent vector of the identity.  A total degree is a sum of nonnegative
    exponents, so only the zero vector has degree 0, and the data is
    totally ramified iff degree 0 occurs exactly once in ring.degrees.  So
    the ring sums its degrees at build, which classify's fiber routes read
    anyway, and the check is one search of them for a second degree-0
    field (FiberRing.indices).  It is a precondition, not a Gorenstein
    route.  Etale data goes through restrict first, whose result is
    totally ramified; classify builds the same ring's exponent vectors with
    build_image_ring instead."""
    n = data.group.order
    if n > order_limit:
        raise LimitExceeded(f"group order {n} exceeds the fiber bound {order_limit}")
    moduli = data.group.moduli
    ring = FiberRing(moduli, data.orders, _columns(data.orders, moduli, _unit_steps(data)))
    if len(list(islice(ring.indices(0), 2))) != 1:
        raise ValueError(
            "data is not totally ramified; build the ring of "
            "restrict(data, ramification_factorization(data)) instead")
    return ring


def build_image_ring(data: CombinatorialData, image_order: int, *,
                     order_limit: int = DEFAULT_FIBER_ORDER_LIMIT) -> FiberRing:
    """The fiber ring of the totally ramified part of valid data, the cover
    through M = im(nu) of order `image_order`, built from the lines of
    `data` alone, with no Smith form.

    The characters of M are the restrictions of those of G, so the exponent
    vectors of M's ring are the image of alpha on G's characters: the
    subgroup of sum Z/d_i that the unit steps alpha(e_j) generate.  The
    steps are folded into the Hermite basis of that subgroup over the d_i
    (_hermite).  Row b_k has its pivot p_k in column k, and a row whose
    pivot is d_k is d_k e_k, zero in the sum.  The other rows, with digits
    c_k in [0, d_k / p_k), give sum_k c_k b_k once for each element of the
    image: if two digit strings gave one element, their difference would
    have a first nonzero digit c_k, and coordinate k would be c_k p_k with
    0 < |c_k p_k| < d_k, which is not 0 mod d_k.  Their number is
    prod d_k / p_k, the order of the image, which must be `image_order`.
    So the ring's radices are the d_k / p_k, and its columns are built by
    _columns over them with the steps b_k.  Its exponent vectors are those
    of build_fiber_ring on restrict(data, ...), in another index order.  No
    vector repeats, so the ring needs no check of total ramification.

    The bound is read against |M| before any fold, and the ring shares the
    caps of build_fiber_ring."""
    if image_order > order_limit:
        raise LimitExceeded(f"image order {image_order} exceeds the fiber bound {order_limit}")
    orders = data.orders
    basis = _hermite(orders, _unit_steps(data))
    digits = [k for k, d in enumerate(orders) if basis[k][k] < d]
    radices = tuple(orders[k] // basis[k][k] for k in digits)
    rows = [basis[k] for k in digits]
    if prod(radices) != image_order:
        raise ArithmeticError("image ring disagrees with the image order")
    return FiberRing(radices, orders, _columns(orders, radices, rows))


def _unit_steps(data: CombinatorialData) -> list[list[int]]:
    """The exponent vectors alpha(e_j) of the unit characters e_j of G, one
    list per generator j: alpha_i(e_j) = a_i^-1 * (g_ij * d_i / m_j) mod
    d_i.  A character holds exponents up to 0x10FFFF, and the degrees are
    summed in fields of at most 32 bits (FiberRing.degrees), so data past
    either cap raises LimitExceeded here, before any step or column."""
    moduli, orders = data.group.moduli, data.orders
    if max(orders, default=1) - 1 > sys.maxunicode:
        raise LimitExceeded(
            f"branch order {max(orders)} exceeds the fiber ring's exponent cap: "
            f"exponents up to {sys.maxunicode:#x}")
    top = sum(orders) - len(orders)
    if top >= 1 << 32:
        raise LimitExceeded(
            f"top degree {top} exceeds the fiber ring's degree cap: degrees below 2^32")
    inverses = [pow(datum.char_residue, -1, d) for datum, d in zip(data.branch, orders)]
    steps = []
    for j, m in enumerate(moduli):
        step = []
        for datum, d, inverse in zip(data.branch, orders, inverses):
            num = datum.generator.residues[j] * d
            if num % m:
                raise ArithmeticError("character value outside the inertia dual")
            step.append(inverse * (num // m) % d)
        steps.append(step)
    return steps


def _columns(orders: Sequence[int], radices: Sequence[int], steps: Sequence[Sequence[int]]) -> tuple[str, ...]:
    """The columns of the ring whose index k, in mixed radix over `radices`
    with digits c_j, holds the exponent vector sum_j c_j * steps[j] mod the
    `orders`: one string per coordinate i, whose character k has ordinal
    alpha_i at index k.

    A column starts as "\\0", the value at the empty digit string, and takes
    the radices from last to first, prepending one digit per step: index
    c_j * (m_{j+1} ... m_r) + k holds column[k] + c_j * t mod d_i, with
    t = steps[j][i].  So the new column is m_j copies of the old one, copy c
    translated by c * t, and it is built by doubling: a block of the first c
    copies is extended by itself translated by c * t mod d_i, through the
    table values[u:] + values[:u] with u = c * t mod d_i and
    values = [0, 1, ..., d_i - 1].  The last extension takes only the copies
    still missing, so that no copy past the m_j-th is built, and a step
    costs O(log m_j) translations; a zero step repeats the column."""
    columns = []
    for i, d in enumerate(orders):
        values = list(range(d))
        column = "\0"
        for m, step in zip(reversed(radices), reversed(steps)):
            t = step[i]
            if not t:
                column *= m
                continue
            size, c = len(column), 1
            while c < m:
                u = c * t % d
                column += column[:min(c, m - c) * size].translate(values[u:] + values[:u])
                c *= 2
        columns.append(column)
    return tuple(columns)


def socle_basis(ring: FiberRing) -> Iterator[int]:
    """Basis indices of the socle: those a with w_a * w_b = 0 for every
    nontrivial b, yielded in walk order: by total degree from the top down,
    and by index within a degree.  Never empty; the ring is Gorenstein
    exactly when it yields one index.

    w_a is in the socle iff no other exponent vector of the ring dominates a
    componentwise.  If w_a * w_b != 0 for a nontrivial b, then a + b is an
    exponent vector dominating a.  Conversely, if c != a dominates a, then
    c - a lies in the invariant lattice and in the box, so it is a
    nontrivial b with w_a * w_b = w_c != 0.

    The pass walks the total degrees downward.  `covered` is the set of
    indices dominated by a socle vector found so far, and an index is in
    the socle iff it is not covered when its degree is reached.
    - A covered vector is not maximal: `covered` then holds only vectors
      dominated by a socle vector of higher degree, so by another vector.
    - An uncovered vector a is maximal.  If a vector c != a dominated a, c
      would have higher degree, and so would a maximal vector m dominating
      c.  By induction over the walk m is in the socle, found before a, so
      a would be covered.
    A vector dominated by one of equal degree equals it, so the socle
    vectors of one degree cover nothing else of that degree: one snapshot of
    `covered` per degree serves every test at that degree.  Once everything
    is covered, no socle vector is left.

    Each socle vector is yielded when found, so a caller that stops early
    pays only for the levels walked so far.  A second yielded vector proves
    that the socle has dimension at least 2.  A walk that ends after one
    vector proves dimension 1: it ends only when everything is covered or
    every degree is walked, and either way every socle vector has been
    yielded.

    The degrees are ring.levels, and the indices of one degree come from
    ring.indices, a search of the packed degree fields.

    Sets of indices are bitsets laid out as ring.thresholds, so the binary
    string of `covered` holds index k at position k.  The vectors
    dominated by a are those outside ring.thresholds[i][a_i + 1] for every
    i, so each socle vector costs s whole-ring operations, and its
    exponents are read as ord(columns[i][k]).  Since the socle vectors of
    one degree cover nothing of that degree, their masks are asked for
    after the level's scan, and ring.thresholds is first read there: a walk
    stopped after two vectors of the top degree reads neither.

    >>> from abelcover import AbelianGroup, BranchDatum, CombinatorialData, validate
    >>> G = AbelianGroup((2, 2, 2))
    >>> e1, e2, e3 = G.generators()
    >>> lines = (e1, e2, e3, e1 + e2 + e3)
    >>> data = validate(CombinatorialData(G, tuple(BranchDatum(g, 1) for g in lines)))
    >>> list(socle_basis(build_fiber_ring(data)))
    [7]
    """
    n = ring.dimension
    columns = ring.columns
    everyone = (1 << n) - 1
    covered, snapshot = 0, "0" * n
    for degree in ring.levels:
        found = []
        for k in ring.indices(degree):
            if snapshot[k] == "0":
                found.append(k)
                yield k
        if not found:
            continue
        thresholds = ring.thresholds
        for k in found:
            above = 0
            for column, at in zip(columns, thresholds):
                above |= at[ord(column[k]) + 1]
            covered |= everyone ^ above
        if covered == everyone:
            return
        snapshot = f"{covered:0{n}b}"


def hilbert_numerator(ring: FiberRing) -> tuple[int, ...]:
    """The coefficients (q_0, ..., q_D) of the Hilbert numerator of the
    invariant ring over its polynomial subring, all read off ring.tally:
    q_d counts the basis monomials w_chi of total degree d.  Palindromic
    coefficients are the graded signature of the Gorenstein property
    (Stanley's symmetry criterion); hilbert_palindromic decides that
    without building them."""
    tally = ring.tally
    # From a list, the tuple is allocated at its final size.  From a map,
    # which has no length hint, tuple() takes a 10-slot tuple and resizes
    # it, moving one free-list entry from size 10 to the final size.
    return tuple([*map(tally.get, range(max(tally) + 1), repeat(0))])


def hilbert_palindromic(ring: FiberRing) -> bool:
    """Whether hilbert_numerator(ring) is palindromic, decided from the ends
    of the numerator inward, with no numerator built.  Only the identity
    has degree 0, so q_0 = 1, and a palindromic numerator has q_D = 1 at its
    top degree D: two indices at the first degree of ring.levels that
    occurs decide False.  Otherwise q_0 = q_D = 1, and the numerator is
    palindromic iff q_d = q_{D-d} for 1 <= d < D / 2 (a middle degree pairs
    with itself).  The first _PALINDROME_PAIRS pairs are compared from the
    outside in through ring.count, and the first that differs decides
    False: on one-byte degree fields each coefficient is one count of the
    packed degrees, and no tally is counted.  Those pairs cost about one
    tally, so the pairs past them, which only a numerator whose outer pairs
    agree reaches, are read off ring.tally.  A top degree D below
    2 * _PALINDROME_PAIRS + 3 has no pair past them, and its test counts no
    tally."""
    top = next(filter(None, (list(islice(ring.indices(degree), 2)) for degree in ring.levels)))
    if len(top) != 1:
        return False
    D, count = ring.degrees[top[0]], ring.count
    pairs = range(1, (D + 1) // 2)
    if not all(count(d) == count(D - d) for d in pairs[:_PALINDROME_PAIRS]):
        return False
    rest = pairs[_PALINDROME_PAIRS:]
    if not rest:
        return True
    tally = ring.tally
    return all(tally[d] == tally[D - d] for d in rest)


def _check_degree_bound(D: int, s: int) -> None:
    """Raise LimitExceeded when C(D + s, s), the exponent vectors up to
    degree D in s variables, or D + 1, the degree rows (which C(D + s, s)
    bounds only when s >= 1), passes DEFAULT_ENUMERATION_LIMIT."""
    limit = groups.DEFAULT_ENUMERATION_LIMIT
    if max(comb(D + s, s), D + 1) > limit:
        raise LimitExceeded(
            f"enumerating exponents up to degree {D} in {s} variables "
            f"exceeds the bound {limit}"
        )


def invariant_monomials_up_to_degree(
    data: CombinatorialData,
    max_degree: int = DEFAULT_HILBERT_DEGREE,
    *,
    presentation: SumMapPresentation,
) -> list[tuple[int, ...]]:
    """All exponent vectors of K-invariant monomials of total degree up to
    `max_degree`, by direct evaluation against the kernel generators of the
    presentation of `data`: alpha is invariant iff sum_i alpha_i t_i a_i / d_i
    is an integer for every kernel generator (t_1, ..., t_s), that is, iff
    sum_i alpha_i (t_i w_i mod L) = 0 mod L with (L, w) = psi_weights(data).

    The vectors are walked by stars and bars: each total degree from 0 up,
    and within a degree every nondecreasing tuple of s - 1 cut points
    0 <= c_1 <= ... <= c_{s-1} <= degree, in the lexicographic order of
    combinations_with_replacement, which gives alpha_i = c_i - c_{i-1} with
    c_0 = 0 and c_s = degree.  The prefix c_1, ..., c_k fixes
    alpha_1, ..., alpha_k and grows with them, so the list comes out sorted
    by degree, then lexicographically, with no sort."""
    s = data.size
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    _check_degree_bound(max_degree, s)
    if not s:
        return [()]
    L, weights = psi_weights(data)
    rows = [[t * w % L for t, w in zip(k, weights)] for k in presentation.kernel_gens]
    out = []
    for degree in range(max_degree + 1):
        top = (degree,)
        for cuts in combinations_with_replacement(range(degree + 1), s - 1):
            alpha = tuple(map(sub, cuts + top, (0,) + cuts))
            if all(sum(map(mul, alpha, row)) % L == 0 for row in rows):
                out.append(alpha)
    return out
