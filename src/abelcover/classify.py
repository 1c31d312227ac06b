"""Decision layer: Gorenstein through four independent routes, the complete
intersection decision table, smoothness, and the aggregated report.

Every verdict is local at the chosen point.  The deciders that need the
fiber ring run on the ring of the totally ramified part, the cover through
the image M of the sum map, built from the input's lines; the Gorenstein
truth value is unchanged by that restriction because characters of the image
subgroup extend to the whole group."""

from __future__ import annotations

from itertools import islice

from .groups import Character, LimitExceeded, _Frozen, solve_character_congruences
from .cover import (
    CombinatorialData,
    KernelDescription,
    kernel_K,
    psi_weights,
    ramification_factorization,
)
from .fiber import (
    DEFAULT_FIBER_ORDER_LIMIT,
    build_fiber_ring,
    build_image_ring,
    hilbert_palindromic,
    socle_basis,
)

LCI = "LCI"
NOT_LCI = "NotLCI"
UNKNOWN = "Unknown"

REASON_LOCALLY_SIMPLE = "locally-simple"
REASON_NOT_GORENSTEIN = "lci-implies-gorenstein"
REASON_RIGID_QUOTIENT = "rigid-quotient"
REASON_A_TYPE_SURFACE = "A-type-surface"
REASON_OPEN_CASE = "open-general-case"
REASON_LIMIT = "limit"

SMOOTH_CONDITIONAL = "Smooth-conditional"
NOT_SMOOTH = "NotSmooth"

SMOOTHNESS_ASSUMPTION = (
    "branch divisors are smooth and pairwise transverse at the point "
    "(a rank condition on their local equations, not derivable from the "
    "combinatorial data)"
)

class CrossCheckError(RuntimeError):
    """The independent Gorenstein deciders disagreed; indicates a bug.
    `data` is the input they disagreed on, a ready-made reproducer."""

    def __init__(self, message: str, data: CombinatorialData):
        super().__init__(message)
        self.data = data


class GorensteinChecks(_Frozen):
    """Outcome of each Gorenstein route, built from (lift, watanabe, socle,
    hilbert_palindromic).  `socle` and `hilbert_palindromic` are None when
    the fiber ring was not built: the order |M| of the image of the sum map,
    the ring's dimension, over the bound, or a ring past the representation
    caps of build_fiber_ring."""

    __slots__ = _fields = ("lift", "watanabe", "socle", "hilbert_palindromic")

    def agree(self) -> bool:
        votes = {v for v in (self.lift, self.watanabe, self.socle, self.hilbert_palindromic)
                 if v is not None}
        return len(votes) == 1


class ClassificationReport(_Frozen):
    """The local verdicts, built from (locally_simple, totally_ramified,
    etale_index, kernel, gorenstein, certificate, cross_checks, lci,
    lci_reason, smooth, assumptions), the keys of the JSON report in order."""

    __slots__ = _fields = (
        "locally_simple", "totally_ramified", "etale_index", "kernel", "gorenstein",
        "certificate", "cross_checks", "lci", "lci_reason", "smooth", "assumptions")


def gorenstein_lift(data: CombinatorialData) -> Character | None:
    """A character chi of the ambient group restricting to every psi_i
    (chi(g_i) = a_i/d_i, with d_i the stored BranchDatum.order), or None.
    The point is Gorenstein exactly when such a lift exists.  Deterministic:
    the lexicographically smallest lift is returned when several exist (only
    possible for non-surjective data)."""
    return solve_character_congruences(
        data.group,
        [(datum.generator, datum.char_residue, datum.order) for datum in data.branch])


def gorenstein_watanabe(data: CombinatorialData, kernel: KernelDescription) -> bool:
    """SL test on the kernel: the fiber is Gorenstein iff the determinant of
    the diagonal K-action is trivial, i.e. sum_i t_i a_i / d_i is an integer
    on every kernel generator (t_1, ..., t_s), read through psi_weights as
    sum_i t_i w_i = 0 mod L."""
    L, weights = psi_weights(data)
    return all(
        sum(t * w for t, w in zip(gen.residues, weights)) % L == 0
        for gen in kernel.generators
    )


def lci_classify(
    data: CombinatorialData, kernel: KernelDescription, gorenstein: bool
) -> tuple[str, str]:
    """Complete-intersection verdict with its reason code, a table over facts
    the caller already holds: |K| and its minimal support from `kernel`, the
    Gorenstein verdict from `gorenstein` (classify passes its cross-checked
    SL test) and s from `data`.  It runs no decider.

    Decision table, applied in order:
      1. K = 0                      -> LCI      (locally-simple)
      2. not Gorenstein             -> NotLCI   (lci-implies-gorenstein)
      3. min support of K >= 3      -> NotLCI   (rigid-quotient)
      4. s = 2 (Gorenstein here)    -> LCI      (A-type-surface)
      5. otherwise                  -> Unknown  (open-general-case)
    Row 1: the invariant ring is C[[z_1..z_s]] itself.  Row 2: complete
    intersections are Gorenstein.  Row 3: every nonzero element of K moves
    >= 3 coordinates, so the quotient has codimension >= 3 and is rigid
    (Schlessinger), while a singular complete intersection never is.
    Row 4: a two-coordinate diagonal K inside SL(2) is cyclic acting by
    (t, t^-1), an A-type hypersurface.  Rules 3 and 4 are mutually
    exclusive (s = 2 caps supports at 2).  When the minimal-support search
    passed its work bound (min_support None) and rule 3 cannot be decided
    the verdict is Unknown with reason `limit`.
    """
    if kernel.order == 1:
        return LCI, REASON_LOCALLY_SIMPLE
    if not gorenstein:
        return NOT_LCI, REASON_NOT_GORENSTEIN
    if kernel.min_support is not None and kernel.min_support >= 3:
        return NOT_LCI, REASON_RIGID_QUOTIENT
    if data.size == 2:
        return LCI, REASON_A_TYPE_SURFACE
    if kernel.min_support is None:
        return UNKNOWN, REASON_LIMIT
    return UNKNOWN, REASON_OPEN_CASE


def classify(
    data: CombinatorialData,
    *,
    fiber_order_limit: int = DEFAULT_FIBER_ORDER_LIMIT,
) -> ClassificationReport:
    """Full local classification of valid combinatorial data.

    Presents the sum map once, runs every decider from that presentation
    and the input, and asserts that all computed Gorenstein routes agree
    before reporting.  The fiber routes run on one fiber ring, that of the
    totally ramified part, built with no Smith form: by build_fiber_ring
    from the input itself when the presentation says it is totally
    ramified, and otherwise by build_image_ring from the echelon basis of
    the image of alpha, whose order must be the presentation's |M|.  So
    they read the input's lines and characters, and of the presentation
    only whether it is totally ramified and |M|; classify never calls
    restrict.
    The lift solves its own congruences on the ambient group.  It shares
    the Hermite fold with the presentation, but on another lattice (the
    graph of its constraints in (Z/L)^k + G, not the graph of nu in G + H),
    and reads nothing of the presentation, so it stays an independent check
    on it; its certificate is a character of the original ambient group.
    The fiber routes read only the ring, and stop at the top degree where
    it settles them: two monomials there give a socle of dimension at least
    2 and a numerator that is not palindromic, with no dominance mask built
    and, on one-byte degree fields, no tally counted.  Past one monomial at
    the top, the palindrome test compares the numerator's coefficients in
    pairs from both ends and stops at the first that differs; on one-byte
    degree fields it counts no tally there either.  The solver confirms
    a lift it finds but not the absence of one: a missed lift shows up
    here, as a disagreement with the other routes.  When the builder
    refuses the ring (LimitExceeded: |M| over `fiber_order_limit` or past
    the representation caps), the fiber routes are recorded as skipped (None)
    rather than aborting the report; the lift and SL routes always run.
    The lci table reads the cross-checked SL verdict, so the SL test runs
    once.
    """
    presentation = ramification_factorization(data)
    kd = kernel_K(data, presentation)

    certificate = gorenstein_lift(data)
    watanabe = gorenstein_watanabe(data, kd)
    socle_ok: bool | None = None
    palindromic: bool | None = None
    try:
        if presentation.totally_ramified:
            ring = build_fiber_ring(data, order_limit=fiber_order_limit)
        else:
            ring = build_image_ring(data, presentation.image_order, order_limit=fiber_order_limit)
    except LimitExceeded:
        pass
    else:
        socle_ok = len(list(islice(socle_basis(ring), 2))) == 1
        palindromic = hilbert_palindromic(ring)

    checks = GorensteinChecks(certificate is not None, watanabe, socle_ok, palindromic)
    if not checks.agree():
        raise CrossCheckError(f"Gorenstein deciders disagree: {checks}", data)

    lci, lci_reason = lci_classify(data, kd, watanabe)
    locally_simple = kd.order == 1
    # Smooth-conditional iff the sum map is injective (which covers the
    # unramified empty-data case), conditional on SMOOTHNESS_ASSUMPTION.
    smooth = SMOOTH_CONDITIONAL if locally_simple else NOT_SMOOTH

    return ClassificationReport(
        locally_simple,
        presentation.totally_ramified,
        presentation.etale_index,
        kd,
        certificate is not None,
        certificate,
        checks,
        lci,
        lci_reason,
        smooth,
        (SMOOTHNESS_ASSUMPTION,),
    )
