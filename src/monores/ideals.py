"""Monomial functions, finitely generated monomial ideals, and principalization.

A monomial function is a chart-consistent family of nonnegative exponent
vectors, one per corner.  An ideal is a finite list of such generators.
The obstruction to local principality of a two-generator ideal is the set
of codimension-two centers where the two exponent differences have
opposite signs; blowing such a center up with a weight family tuned to
cancel the difference removes it and creates no new one, so the count of
obstructed centers drops by exactly one per step.  Ideals with more
generators reduce to one pass over the generator pairs, since the
nonnegative morphisms keep a finished pair finished.  Each blow-up pulls
every generator back in one pass (`pull_back_generators`), which checks
them all at the new corners and across each new edge, one check of the
edge for all of them.  The sweep certifies its own end: the age is the
sum of the pairs' start counts, and at every end corner the final
generators' minimal exponent is a single point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .errors import (
    AlgorithmInvariantViolation,
    BudgetExceededError,
    DomainError,
    NotEffectiveError,
    StructuralError,
)
from .linalg import (
    _ONE,
    ExponentVector,
    _compare,
    _compare_sums,
    _plus_times,
    minimal_elements,
    vec_apply,
    vec_apply_all_equal,
)
from .manifold import Edge, MonomialManifold
from .standardization import (
    GlobalStandardization,
    LocalStandardization,
    extend,
    realized_among,
    weights_at,
)
from .blowup import BlowupStep, Star, apply_center

DEFAULT_STEP_BUDGET = 10_000


class MFunction:
    """A global monomial function: one nonnegative exponent vector per corner.

    Construction from caller data checks chart consistency on every edge
    (which propagates to every corner pair) and nonnegativity everywhere,
    through the same `_check_data` that `pull_back_generators` runs on
    every generator at once; the pullback checks only what a blow-up
    changed and builds its results through `_proven`.
    """

    __slots__ = ("manifold", "_data")

    def __init__(self, manifold: MonomialManifold, data: Mapping[str, ExponentVector]):
        if set(data) != set(manifold.corner_ids()):
            raise StructuralError("exponent data must cover exactly the corners")
        _check_data(manifold, [data], data.keys(), manifold.edges)
        self.manifold = manifold
        self._data = {cid: data[cid] for cid in manifold.corner_ids()}

    @classmethod
    def _proven(cls, manifold: MonomialManifold, data: dict[str, ExponentVector]) -> "MFunction":
        """Wrap data already proven valid on `manifold`, keyed by exactly
        its corner ids (in any order), without checking it again."""
        fn = object.__new__(cls)
        fn.manifold = manifold
        fn._data = data
        return fn

    def at(self, corner_id: str) -> ExponentVector:
        try:
            return self._data[corner_id]
        except KeyError:
            raise StructuralError(f"no corner {corner_id!r}") from None

    def items(self):
        return self._data.items()

    def __eq__(self, other) -> bool:
        if not isinstance(other, MFunction):
            return NotImplemented
        return self.manifold is other.manifold and self._data == other._data

    def __repr__(self) -> str:
        return f"MFunction({self._data!r})"


def _check_data(
    manifold: MonomialManifold,
    datas: Sequence[Mapping[str, ExponentVector]],
    corner_ids: Iterable[str],
    edges: Iterable[Edge],
) -> None:
    """For every data of `datas`: labels and nonnegativity at
    `corner_ids`, and chart consistency across `edges` (`data[q]·M ==
    data[p]`).  Each edge is one `vec_apply_all_equal` over every data:
    the edge's matrix is grouped by column once and every data checked
    against that plan, and no product is built.  Raises StructuralError
    or NotEffectiveError."""
    for cid in corner_ids:
        labels = manifold.corner(cid).index_set
        for data in datas:
            vec = data[cid]
            if vec._map.keys() != labels:
                raise StructuralError(f"exponent labels at {cid!r} do not match its index set")
            if not vec.is_nonnegative():
                raise NotEffectiveError(f"negative exponent at corner {cid!r}")
    for e in edges:
        if not vec_apply_all_equal(e.matrix, [(data[e.q], data[e.p]) for data in datas]):
            raise StructuralError(
                f"exponent data is not chart consistent across edge {e.p}->{e.q}"
            )


def mfunction_from_corner(
    m: MonomialManifold, corner_id: str, vec: ExponentVector
) -> MFunction:
    """Propagate exponent data from one corner to the whole manifold,
    carried forward along one `_walk` from the seed corner.

    Fails with NotEffectiveError when the propagated data turns negative
    somewhere (the seed does not extend to an effective monomial function).
    """
    base = m.corner(corner_id)
    if vec.labels != base.index_set:
        raise StructuralError("seed labels do not match the corner's index set")
    if not vec.is_nonnegative():
        raise NotEffectiveError("seed exponents must be nonnegative")
    data = {corner_id: vec}
    for cur, nxt, edge, forward in m._walk(corner_id, frozenset()):
        data[nxt] = vec_apply(data[cur], edge.inverse if forward else edge.matrix)
    return MFunction(m, data)


class MIdeal:
    """A nonempty finite list of monomial-function generators on one manifold."""

    __slots__ = ("manifold", "generators")

    def __init__(self, manifold: MonomialManifold, generators: Sequence[MFunction]):
        gens = tuple(generators)
        if not gens:
            raise StructuralError("an ideal needs at least one generator")
        for g in gens:
            if g.manifold is not manifold:
                raise StructuralError("all generators must live on the same manifold")
        self.manifold = manifold
        self.generators = gens


def local_min_data(ideal: MIdeal, corner_id: str) -> list[ExponentVector]:
    """Minimal exponents of the generators at one corner."""
    return minimal_elements(g.at(corner_id) for g in ideal.generators)


def center_is_uncoupled_at(
    lam: MFunction, mu: MFunction, pair: frozenset[str], corner_id: str
) -> bool:
    """Sign test at one corner: the two differences point in opposite
    directions, `(lam_i - mu_i)·(lam_j - mu_j) < 0`, decided by the signs
    of the two differences, each cross-multiplied on the integer pairs
    (`_compare`), with no difference or product formed."""
    i, j = sorted(pair)
    lv, mv = lam.at(corner_id), mu.at(corner_id)
    return _compare(lv._entry(i), mv._entry(i)) * _compare(lv._entry(j), mv._entry(j)) < 0


def _uncoupled_pairs_at(
    gens: Sequence[MFunction], pair: frozenset[str], corner_id: str
) -> list[tuple[int, int]]:
    """The generator index pairs `(x, y)`, `x < y`, in `combinations`
    order, for which `center_is_uncoupled_at(gens[x], gens[y], pair,
    corner_id)` holds: each generator's two entries at the corner are read
    once, and every pair is decided from them by the same two `_compare`
    signs."""
    i, j = sorted(pair)
    entries = [(v._entry(i), v._entry(j)) for v in (g.at(corner_id) for g in gens)]
    return [
        (x, y)
        for (x, (xi, xj)), (y, (yi, yj)) in combinations(enumerate(entries), 2)
        if _compare(xi, yi) * _compare(xj, yj) < 0
    ]


def uncoupled_centers(lam: MFunction, mu: MFunction) -> set[frozenset[str]]:
    """All codimension-two centers obstructing principality of the pair.

    One witness corner per center suffices: the sign condition transports
    across charts by positive diagonal factors.  Each center is tested at
    the witness `codim2_centers` gives it, its smallest-id holder.
    """
    m = lam.manifold
    if mu.manifold is not m:
        raise StructuralError("the two functions must live on the same manifold")
    return {
        pair
        for pair, witness in m.codim2_centers().items()
        if center_is_uncoupled_at(lam, mu, pair, witness)
    }


def adapted_standardization(
    lam: MFunction, mu: MFunction, pair: frozenset[str]
) -> GlobalStandardization:
    """Weight family that kills the given obstructed center in one blow-up.

    At the smallest-id corner of the center, the weights on the center pair
    are taken to be the absolute exponent differences (oriented so both are
    positive); every other weight is 1, extended to a realizable family on
    the whole manifold.  The defining balance
    alpha_j*(lam_i - mu_i) + alpha_i*(lam_j - mu_j) = 0
    is then re-checked at every corner of the center.  The sweep reads
    only the center's corners and uses `adapted_weights` instead.
    """
    m = lam.manifold
    holders, local = _adapted_seed(lam, mu, pair)
    family = extend(m, local)
    _check_balance(lam, mu, pair, {q: family.alpha_at(q) for q in holders})
    return family


def adapted_weights(
    lam: MFunction, mu: MFunction, pair: frozenset[str]
) -> dict[str, ExponentVector]:
    """`adapted_standardization(lam, mu, pair)` at the center's corners
    only, which is all `apply_center` reads, keyed by corner id.

    Same seed, same anchors, same values (`weights_at`); checked by the
    balance equation at every corner of the center and by
    `validate_realizable`'s per-edge test on every edge between two of
    them.  A failed check is a bug (AlgorithmInvariantViolation).
    """
    m = lam.manifold
    holders, local = _adapted_seed(lam, mu, pair)
    weights = weights_at(m, local, holders)
    _check_balance(lam, mu, pair, weights)
    if not realized_among(m, weights):
        raise AlgorithmInvariantViolation(
            f"adapted weights at center {sorted(pair)} do not transform by the edge diagonals"
        )
    return weights


def _adapted_seed(
    lam: MFunction, mu: MFunction, pair: frozenset[str]
) -> tuple[list[str], LocalStandardization]:
    """The corners of the center, and the local weights at the first: the
    absolute exponent differences on the pair, 1 elsewhere.  Each
    difference is one `_plus_times` on the pairs (`lam + (-1)·mu`), and
    its sign and negation are read off the numerator."""
    m = lam.manifold
    holders = m.corners_with(pair)
    if not holders:
        raise DomainError(f"center {sorted(pair)} is realized by no corner")
    p = holders[0]
    if not center_is_uncoupled_at(lam, mu, pair, p):
        raise DomainError(f"center {sorted(pair)} is not uncoupled for the pair")
    i, j = sorted(pair)
    lv, mv = lam.at(p), mu.at(p)
    di, dj = (_plus_times(lv._entry(lab), (-1, 1), mv._entry(lab)) for lab in (i, j))
    if di[0] < 0:
        i, j, di, dj = j, i, dj, di
    entries = dict.fromkeys(m.corner(p).index_set, _ONE)
    entries[i] = di
    entries[j] = (-dj[0], dj[1])
    return holders, LocalStandardization(p, ExponentVector._exact(entries))


def _check_balance(
    lam: MFunction, mu: MFunction, pair: frozenset[str], weights: Mapping[str, ExponentVector]
) -> None:
    """The balance equation at each corner of `weights` (symmetric in i, j,
    so the seed's orientation does not enter), written as
    `a_j·lam_i + a_i·lam_j == a_j·mu_i + a_i·mu_j` and decided by
    cross-multiplying the two sums of pairs (`_compare_sums`)."""
    i, j = sorted(pair)
    for q, a in weights.items():
        lq, mq = lam.at(q), mu.at(q)
        li, lj, mi, mj = lq._entry(i), lq._entry(j), mq._entry(i), mq._entry(j)
        ai, aj = a._entry(i), a._entry(j)
        if _compare_sums(((aj, li), (ai, lj)), ((aj, mi), (ai, mj))):
            raise AlgorithmInvariantViolation(
                f"adapted weights fail the balance equation at corner {q!r}"
            )


@dataclass(frozen=True)
class PairState:
    """A generator pair's obstructed centers, measured once, when the
    pair's phase starts; the sweep's one sign scan per step proves that
    each blow-up removes exactly its center and no other
    (`principalize_generators`)."""

    omega: frozenset[frozenset[str]]

    @property
    def inv(self) -> int:
        """The obstruction count."""
        return len(self.omega)

    @classmethod
    def measure(cls, lam: MFunction, mu: MFunction) -> "PairState":
        return cls(frozenset(uncoupled_centers(lam, mu)))


def pull_back_generators(gens: Sequence[MFunction], step: BlowupStep) -> list[MFunction]:
    """Total transforms of monomial functions through one blow-up, in
    the order given.

    An untouched corner keeps its vector, the very object of its
    function; the blown corners go, and each child reads its parent's
    vector through `step.pull_back`, whose `ChildChart` computes `v·B` in
    O(n) after checking the labels.  Only what the pullback changed is
    checked, for every function: labels and nonnegativity at the
    children, and chart consistency across the step's new edges, each
    edge checked once for all the functions (`_check_data`).
    That suffices because each function is proven on `step.before`, an
    untouched corner keeps its vector and the edges between untouched
    corners stay as they were, and at a child only the `removed` →
    `new_label` entry changes.  A function on another manifold than
    `step.before` is caller error (StructuralError); a failed check of
    the pulled-back data is a bug, reported as
    AlgorithmInvariantViolation.
    """
    if any(fn.manifold is not step.before for fn in gens):
        raise StructuralError("the function does not live on the manifold the step blew up")
    children = step.children
    blown = {chart.parent.id for chart in children.values()}
    datas = []
    for fn in gens:
        old = fn._data
        data = dict(old)
        for cid in blown:
            del data[cid]
        for cid, chart in children.items():
            data[cid] = step.pull_back(old[chart.parent.id], cid)
        datas.append(data)
    try:
        _check_data(step.after, datas, children, step.new_edges)
    except (StructuralError, NotEffectiveError) as exc:
        raise AlgorithmInvariantViolation(f"pulled-back function is invalid: {exc}") from exc
    return [MFunction._proven(step.after, data) for data in datas]


def pull_back_mfunction(fn: MFunction, step: BlowupStep) -> MFunction:
    """Total transform of one monomial function through one blow-up:
    `pull_back_generators([fn], step)[0]`."""
    return pull_back_generators([fn], step)[0]


@dataclass(frozen=True)
class CornerReport:
    """Final data at one end-manifold corner: a singleton minimal support."""

    corner: str
    index_set: tuple[str, ...]
    principal_exponent: ExponentVector
    generator_exponents: tuple[ExponentVector, ...]


@dataclass
class PrincipalizationRun:
    """A certified sweep: the tower, the final generators, the run's
    statistics, and the end certificate (`corners`, one per end corner)."""

    star: Star
    final_generators: list[MFunction]
    pair_invariants: list[tuple[int, int, int]]
    new_uncoupled_counts: list[int]
    corners: list[CornerReport]

    @property
    def age(self) -> int:
        return self.star.age


def _certify_end(end: MonomialManifold, gens: Sequence[MFunction]) -> list[CornerReport]:
    """One singleton minimal exponent per corner of `end`.

    At each end corner the final generators hold the pulled-back
    exponents; anything but a single minimal one means the sweep stopped
    early: a bug, reported as AlgorithmInvariantViolation.
    """
    corners: list[CornerReport] = []
    for cid, corner in end.corners.items():
        exponents = tuple(g.at(cid) for g in gens)
        minimal = minimal_elements(exponents)
        if len(minimal) != 1:
            raise AlgorithmInvariantViolation(
                f"minimal data at end corner {cid!r} is not a singleton"
            )
        corners.append(
            CornerReport(cid, tuple(sorted(corner.index_set)), minimal[0], exponents)
        )
    return corners


def principalize_generators(
    m: MonomialManifold,
    generators: Sequence[MFunction],
    max_steps: int = DEFAULT_STEP_BUDGET,
) -> PrincipalizationRun:
    """One pass over the generator pairs in index order, blowing up each
    pair's obstructed centers until it has none.

    Each blow-up uses the adapted weights for the lexicographically
    smallest obstructed center of the active pair, computed at the
    center's corners only (`adapted_weights`) and handed to
    `apply_center`, and must reduce that pair's count by exactly one.
    Each step removes exactly that center and adds none to the active
    pair, so a phase blows up its measured centers in sorted order,
    sorted once when the pair is measured.

    One sign scan per step.  The blown-up center is realized nowhere
    after the step, and every other old center keeps its holders'
    exponents on its labels, so its sign.  A step can therefore change
    only the centers through the new label.  Only children hold it, so
    `codim2_centers(step.children)` gives each such center its
    smallest-id holder as witness, and one scan of them there counts the
    fresh obstructions of every pair, reading each generator's two
    entries at each witness once (`_uncoupled_pairs_at`).  A hit on the
    active pair means its count did not drop to `inv - 1`, which is a bug
    (AlgorithmInvariantViolation); without one the phase goes on to its
    next center.

    Why one pass ends the sweep.  A pair with no obstructed center has
    comparable exponents at every corner, and the morphism matrices are
    nonnegative, so it stays comparable at every corner of every later
    manifold, children included: a finished pair stays finished.  Each
    pair is therefore measured once, when its turn comes, and there are
    at most k(k-1)/2 phases, one per pair that starts obstructed.  A
    phase takes exactly its start count of steps, so the age is the sum
    of the counts in `pair_invariants`; fresh obstructions land only on
    later pairs (`new_uncoupled_counts`) and raise their start counts.
    The step budget is a safety net, not what stops the run.  A fresh
    obstruction on a finished pair, which the per-step scan would see, is
    a bug (AlgorithmInvariantViolation).

    The run is certified before it is returned: the age must equal the
    sum of the start counts, and every end corner must have a single
    minimal generator exponent (`corners`).  A failure of either is a bug
    (AlgorithmInvariantViolation).  A budget stop raises
    BudgetExceededError before either check.
    """
    if max_steps < 0:
        raise DomainError(f"the step budget must be nonnegative, got {max_steps}")
    gens = list(MIdeal(m, generators).generators)
    star = Star(root=m)
    pair_invariants: list[tuple[int, int, int]] = []
    new_uncoupled_counts: list[int] = []
    k = len(gens)
    for a, b in combinations(range(k), 2):
        state = PairState.measure(gens[a], gens[b])
        start_inv = state.inv
        if start_inv:
            pair_invariants.append((a, b, start_inv))
        centers = sorted(state.omega, key=sorted)
        for done, pair in enumerate(centers):
            inv = start_inv - done
            if star.age >= max_steps:
                raise BudgetExceededError(
                    f"stopped after {star.age} blow-ups (budget {max_steps}) at generator "
                    f"pair ({a}, {b}): obstruction count {inv}, {start_inv} at the "
                    f"pair's start; end manifold corner count {len(star.end.corners)}",
                    star=star,
                )
            step = apply_center(star.end, pair, adapted_weights(gens[a], gens[b], pair))
            star = star.extended(step)
            gens = pull_back_generators(gens, step)
            witnesses = {
                c: w
                for c, w in step.after.codim2_centers(step.children).items()
                if step.new_label in c
            }
            fresh = dict.fromkeys(combinations(range(k), 2), 0)
            for c, w in witnesses.items():
                for xy in _uncoupled_pairs_at(gens, c, w):
                    fresh[xy] += 1
            if fresh.pop((a, b)):
                raise AlgorithmInvariantViolation(
                    f"blow-up of {sorted(pair)} did not drop the obstruction count "
                    f"from {inv} to {inv - 1}"
                )
            reopened = [xy for xy, hits in fresh.items() if hits and xy < (a, b)]
            if reopened:
                raise AlgorithmInvariantViolation(
                    f"blow-up of {sorted(pair)} for pair ({a}, {b}) gave finished "
                    f"pair {reopened[0]} {fresh[reopened[0]]} obstructed center(s)"
                )
            new_uncoupled_counts.append(sum(fresh.values()))
    if star.age != sum(inv for _, _, inv in pair_invariants):
        raise AlgorithmInvariantViolation(
            "tower age does not equal the sum of the pair obstruction counts"
        )
    corners = _certify_end(star.end, gens)
    return PrincipalizationRun(star, gens, pair_invariants, new_uncoupled_counts, corners)
