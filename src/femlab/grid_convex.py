"""Piecewise-linear convex potentials on a rational grid.

A potential is a convex PL function of one real variable, finite everywhere,
with kinks only at grid nodes and prescribed asymptotic slopes at both ends.
End slopes live inside a fixed moment interval (the "polytope"), which plays
the role of the ambient Kaehler class; the interval of slopes a potential
actually spans (its dual domain) is its singularity type.  All envelope
operations go through the Legendre transform:

* ``legendre`` walks the subdifferential, giving the dual as another convex
  PL function whose breakpoints are the chord slopes and whose slopes are
  grid nodes,
* ``rooftop`` conjugates the pointwise max of two duals on the intersection
  of their domains,
* ``model_project`` conjugates a dual restricted to a singularity interval.

Because dual slopes are node coordinates, every envelope constructed this
way has kinks only at grid nodes, so node samples plus end slopes represent
it exactly and every identity below is checked with exact rationals.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter

from ._rational import ONE, rat, rat_str
from .errors import (
    BadReference,
    ConvexityViolation,
    EmptyRooftop,
    GridMismatch,
    IntervalOutOfPolytope,
    SlopeOutOfPolytope,
)


@dataclass(frozen=True)
class Grid:
    """Strictly increasing rational nodes plus the moment interval."""

    nodes: tuple
    polytope: tuple

    def __post_init__(self):
        nodes = tuple(rat(x) for x in self.nodes)
        if len(nodes) < 2:
            raise ValueError("grid needs at least two nodes")
        for a, b in zip(nodes, nodes[1:]):
            if not a < b:
                raise ValueError(
                    "grid nodes must increase strictly: %s then %s" % (rat_str(a), rat_str(b))
                )
        if len(self.polytope) != 2:
            raise ValueError("polytope must be a pair (p_min, p_max)")
        p_min, p_max = (rat(p) for p in self.polytope)
        if not p_min < p_max:
            raise ValueError("polytope must be nondegenerate: [%s, %s]" % (rat_str(p_min), rat_str(p_max)))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "polytope", (p_min, p_max))

    def with_nodes(self, nodes) -> "Grid":
        return Grid(tuple(nodes), self.polytope)


def _contains(outer, inner) -> bool:
    """Interval inner lies inside interval outer; both are (lo, hi) pairs.

    The one test of singularity order: u is at least as singular as v
    exactly when v's dual domain contains u's.
    """
    return outer[0] <= inner[0] and inner[1] <= outer[1]


@dataclass(frozen=True)
class GridPLConvex:
    """Convex PL potential: node values plus end slopes.

    Between consecutive nodes the function is the chord; beyond the first
    and last node it follows slope_left / slope_right.  Validity means the
    slope sequence slope_left, chords..., slope_right is non-decreasing and
    both end slopes sit inside the polytope.  That sequence is kept as
    ``_slopes`` for evaluation, conjugation, refinement and Monge-Ampere:
    ``_slopes[k]`` is the slope between nodes k - 1 and k, rays included.

    A potential is immutable, so every pure function of it is computed at
    most once: ``_memo`` holds its hash, ``legendre(u)``, ``monge_ampere(u)``,
    ``energy(ctx, u)`` per context and ``split_caps(u, reference)`` per
    reference, and lives and dies with it.
    """

    grid: Grid
    values: tuple
    slope_left: object
    slope_right: object
    _slopes: tuple = field(init=False, repr=False, compare=False)
    _memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = tuple(rat(v) for v in self.values)
        if len(values) != len(self.grid.nodes):
            raise ValueError(
                "%d values for %d nodes" % (len(values), len(self.grid.nodes))
            )
        sl = rat(self.slope_left)
        sr = rat(self.slope_right)
        p_min, p_max = self.grid.polytope
        if not _contains(self.grid.polytope, (sl, sr)):
            raise SlopeOutOfPolytope(
                "end slopes [%s, %s] leave polytope [%s, %s]"
                % (rat_str(sl), rat_str(sr), rat_str(p_min), rat_str(p_max))
            )
        xs = self.grid.nodes
        slopes = (
            sl,
            *((values[i + 1] - values[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)),
            sr,
        )
        for i, (a, b) in enumerate(zip(slopes, slopes[1:])):
            if a > b:
                raise ConvexityViolation(
                    "slope sequence decreases at position %d: %s > %s"
                    % (i, rat_str(a), rat_str(b))
                )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "slope_left", sl)
        object.__setattr__(self, "slope_right", sr)
        object.__setattr__(self, "_slopes", slopes)
        object.__setattr__(self, "_memo", {})

    def __hash__(self):
        memo = self._memo
        if "hash" not in memo:
            memo["hash"] = hash((self.grid, self.values, self.slope_left, self.slope_right))
        return memo["hash"]

    def dual_domain(self) -> tuple:
        return (self.slope_left, self.slope_right)

    def evaluate(self, x):
        x = rat(x)
        xs = self.grid.nodes
        k = bisect_right(xs, x)
        j = max(k - 1, 0)
        return self.values[j] + self._slopes[k] * (x - xs[j])

    def shift(self, c) -> "GridPLConvex":
        c = rat(c)
        return GridPLConvex(
            self.grid, tuple(v + c for v in self.values), self.slope_left, self.slope_right
        )


def make_pl(grid: Grid, values, slope_left, slope_right) -> GridPLConvex:
    """Public constructor; rejects non-convex data and out-of-polytope slopes."""
    return GridPLConvex(grid, tuple(values), slope_left, slope_right)


@dataclass(frozen=True)
class DualPL:
    """Convex PL function on a compact slope interval, by breakpoint samples.

    points is a tuple of (p, value) pairs with strictly increasing p; the
    function interpolates linearly between them and is +infinity outside
    [p_first, p_last].  A single point encodes the conjugate of an affine
    potential.  The chord slopes computed for the convexity check are kept
    for the conjugation walk.
    """

    points: tuple
    _chords: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = tuple((rat(p), rat(w)) for p, w in self.points)
        if not pts:
            raise ValueError("dual needs at least one breakpoint")
        for (p, _), (q, _) in zip(pts, pts[1:]):
            if not p < q:
                raise ValueError("dual breakpoints must increase strictly")
        chords = tuple(
            (pts[i + 1][1] - pts[i][1]) / (pts[i + 1][0] - pts[i][0])
            for i in range(len(pts) - 1)
        )
        for a, b in zip(chords, chords[1:]):
            if a > b:
                raise ConvexityViolation("dual breakpoint data is not convex")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_chords", chords)

    @property
    def domain(self) -> tuple:
        return (self.points[0][0], self.points[-1][0])

    def evaluate(self, p):
        p = rat(p)
        pts = self.points
        lo, hi = self.domain
        if p < lo or p > hi:
            raise ValueError("dual evaluated outside its domain")
        return _interpolate(pts, bisect_right(pts, p, key=itemgetter(0)) - 1, p)


def _interpolate(pts, i, p):
    """Value at p of PL data pts, where pts[i][0] <= p < pts[i + 1][0] or p == pts[i][0]."""
    p0, w0 = pts[i]
    if p == p0:
        return w0
    p1, w1 = pts[i + 1]
    return w0 + (p - p0) / (p1 - p0) * (w1 - w0)


def legendre(u: GridPLConvex) -> DualPL:
    """Legendre transform u*(p) = sup_x (p x - u(x)).

    Walks the subdifferential: for p between consecutive chord slopes the
    sup sits at the node separating them, so u* is assembled in one pass
    with breakpoints at the distinct slopes of u.  Computed once per
    potential.
    """
    memo = u._memo
    if "legendre" in memo:
        return memo["legendre"]
    xs, vs = u.grid.nodes, u.values
    pts = []
    # slope _slopes[k] is attained on the piece left of node k (clamped).
    for k, p in enumerate(u._slopes):
        if pts and pts[-1][0] == p:
            continue
        i = min(k, len(xs) - 1)
        pts.append((p, p * xs[i] - vs[i]))
    memo["legendre"] = dual = DualPL(tuple(pts))
    return dual


def biconjugate(dual: DualPL, grid: Grid) -> GridPLConvex:
    """Conjugate back: sup_p (x p - dual(p)), sampled at grid nodes.

    The sup of this concave PL objective over a compact interval sits at a
    breakpoint, and moving from breakpoint k to k + 1 raises it by
    (p_{k+1} - p_k) (x - c_k), with c_k the dual's chord slope there.  The
    chords do not decrease and the nodes increase, so one walk over the
    nodes with one breakpoint pointer, advanced while c_k <= x, finds every
    maximum: O(nodes + breakpoints) exact operations.  Ties leave the value
    unchanged, so each node value is the exact maximum.  End slopes are
    the dual's domain endpoints.
    """
    pts, chords = dual.points, dual._chords
    k, last = 0, len(chords)
    values = []
    for x in grid.nodes:
        while k < last and chords[k] <= x:
            k += 1
        p, w = pts[k]
        values.append(x * p - w)
    lo, hi = dual.domain
    return GridPLConvex(grid, tuple(values), lo, hi)


def restrict_dual(dual: DualPL, lo, hi) -> DualPL:
    """Restrict a dual to [lo, hi] intersected with its own domain.

    One walk over the breakpoints keeps the interior ones and interpolates
    the two new ends.
    """
    lo, hi = rat(lo), rat(hi)
    d_lo, d_hi = dual.domain
    lo = max(lo, d_lo)
    hi = min(hi, d_hi)
    if lo > hi:
        raise EmptyRooftop(
            "dual domains miss the interval [%s, %s]" % (rat_str(lo), rat_str(hi))
        )
    pts = dual.points
    i = 0
    while i + 1 < len(pts) and pts[i + 1][0] <= lo:
        i += 1
    out = [(lo, _interpolate(pts, i, lo))]
    if lo == hi:
        return DualPL(tuple(out))
    i += 1
    while pts[i][0] < hi:
        out.append(pts[i])
        i += 1
    out.append((hi, _interpolate(pts, i - 1, hi)))
    return DualPL(tuple(out))


def _merged_samples(d1: DualPL, d2: DualPL):
    """(p, d1(p), d2(p)) at every breakpoint of either dual, p increasing.

    Both duals share their domain; a two-pointer merge interpolates each
    dual on the segment that holds the other's breakpoints.
    """
    a, b = d1.points, d2.points
    i = j = 0
    out = []
    while i < len(a) and j < len(b):
        p = min(a[i][0], b[j][0])
        if a[i][0] == p:
            w1 = a[i][1]
            i += 1
        else:
            w1 = _interpolate(a, i - 1, p)
        if b[j][0] == p:
            w2 = b[j][1]
            j += 1
        else:
            w2 = _interpolate(b, j - 1, p)
        out.append((p, w1, w2))
    return out


def max_dual(d1: DualPL, d2: DualPL) -> DualPL:
    """Pointwise max of two duals on a common domain, crossings inserted.

    Both inputs must already share their domain (restrict first).  One
    merged walk over both breakpoint lists samples each dual at every
    breakpoint of either, O(m1 + m2).  Within each merged interval both
    functions are affine, so at most one strict crossing exists and it is
    an exact rational.
    """
    if d1.domain != d2.domain:
        raise ValueError("max_dual needs duals on a common domain")
    merged = []
    prev = None
    for cur in _merged_samples(d1, d2):
        p, w1, w2 = cur
        if prev is not None:
            q, u1, u2 = prev
            da, db = u1 - u2, w1 - w2
            if (da > 0 > db) or (da < 0 < db):
                s = da / (da - db)
                merged.append((q + (p - q) * s, u1 + s * (w1 - u1)))
        merged.append((p, max(w1, w2)))
        prev = cur
    return DualPL(tuple(merged))


# --- grid alignment ---------------------------------------------------------


def refine_to(u: GridPLConvex, grid: Grid) -> GridPLConvex:
    """Re-represent u on a finer grid (superset of nodes, same polytope).

    PL refinement is lossless: new node values are exact evaluations, made
    in one merged walk over the old and the new nodes.
    """
    if grid.polytope != u.grid.polytope:
        raise GridMismatch("refinement target has a different polytope")
    xs, vs, slopes = u.grid.nodes, u.values, u._slopes
    k, last = 0, len(xs)
    values = []
    for x in grid.nodes:
        if k < last and xs[k] < x:
            break
        if k < last and xs[k] == x:
            values.append(vs[k])
            k += 1
        else:
            j = max(k - 1, 0)
            values.append(vs[j] + slopes[k] * (x - xs[j]))
    if k < last:
        raise GridMismatch("refinement target must contain all existing nodes")
    return GridPLConvex(grid, tuple(values), u.slope_left, u.slope_right)


def align(*us: GridPLConvex):
    """Bring potentials onto their common node-union grid, exactly."""
    first = us[0].grid
    if all(u.grid == first for u in us):
        return us if len(us) > 1 else us[0]
    if any(u.grid.polytope != first.polytope for u in us):
        raise GridMismatch("potentials live over different polytopes")
    nodes = sorted(set().union(*(u.grid.nodes for u in us)))
    grid = Grid(tuple(nodes), first.polytope)
    out = tuple(refine_to(u, grid) for u in us)
    return out if len(out) > 1 else out[0]


def pl_equal(u: GridPLConvex, v: GridPLConvex) -> bool:
    """Equality as functions on the line, not as representations."""
    u, v = align(u, v)
    return u == v


# --- pointwise operations ---------------------------------------------------


def _crossings(u: GridPLConvex, v: GridPLConvex):
    """Abscissas where u - v changes sign strictly, rays included."""
    xs = u.grid.nodes
    out = []
    d0 = u.values[0] - v.values[0]
    sl = u.slope_left - v.slope_left
    if sl != 0 and d0 != 0:
        t = xs[0] - d0 / sl
        if t < xs[0]:
            out.append(t)
    for i in range(len(xs) - 1):
        a = u.values[i] - v.values[i]
        b = u.values[i + 1] - v.values[i + 1]
        if (a > 0 > b) or (a < 0 < b):
            out.append(xs[i] + (xs[i + 1] - xs[i]) * a / (a - b))
    dm = u.values[-1] - v.values[-1]
    sr = u.slope_right - v.slope_right
    if sr != 0 and dm != 0:
        t = xs[-1] - dm / sr
        if t > xs[-1]:
            out.append(t)
    return out


def pointwise_max(u: GridPLConvex, v: GridPLConvex) -> GridPLConvex:
    """Exact pointwise max; crossing abscissas become new grid nodes.

    Sign changes between nodes, or on either ray, are rational and are
    inserted so the result represents max(u, v) exactly, never a node-wise
    max with its kinks forgotten.
    """
    u, v = align(u, v)
    cross = _crossings(u, v)
    if cross:
        nodes = sorted(set(u.grid.nodes) | set(cross))
        grid = u.grid.with_nodes(nodes)
        u, v = refine_to(u, grid), refine_to(v, grid)
    return GridPLConvex(
        u.grid,
        tuple(max(a, b) for a, b in zip(u.values, v.values)),
        min(u.slope_left, v.slope_left),
        max(u.slope_right, v.slope_right),
    )


def affine_combine(t, u: GridPLConvex, v: GridPLConvex) -> GridPLConvex:
    """t*u + (1-t)*v for rational t in [0, 1]; breakpoints stay on the grid."""
    t = rat(t)
    if t < 0 or t > ONE:
        raise ValueError("combination weight must lie in [0, 1]")
    u, v = align(u, v)
    s = ONE - t
    return GridPLConvex(
        u.grid,
        tuple(t * a + s * b for a, b in zip(u.values, v.values)),
        t * u.slope_left + s * v.slope_left,
        t * u.slope_right + s * v.slope_right,
    )


def is_leq(u: GridPLConvex, v: GridPLConvex) -> bool:
    """u <= v pointwise on the whole line, decided exactly.

    Node comparisons settle the compact part; ray comparisons reduce to the
    end values plus slope inequalities (left slopes reversed).
    """
    u, v = align(u, v)
    if any(a > b for a, b in zip(u.values, v.values)):
        return False
    return _contains(v.dual_domain(), u.dual_domain())


def sup_diff(u: GridPLConvex, v: GridPLConvex):
    """sup over the line of u - v: a rational, or math.inf when unbounded.

    Unbounded iff v's dual domain fails to contain u's on either side; else
    the sup is attained at a node because the difference is affine on rays
    with the favorable slope signs.
    """
    u, v = align(u, v)
    if not _contains(v.dual_domain(), u.dual_domain()):
        return math.inf
    return max(a - b for a, b in zip(u.values, v.values))


# --- envelopes --------------------------------------------------------------


def rooftop(*potentials: GridPLConvex) -> GridPLConvex:
    """Largest convex minorant of min(u1, ..., uk).

    Computed as the conjugate of max of duals on the intersection of dual
    domains; raises EmptyRooftop when that intersection is empty, because
    then no convex function sits below both inputs.
    """
    if len(potentials) < 2:
        raise ValueError("rooftop needs at least two potentials")
    us = align(*potentials)
    lo = max(u.slope_left for u in us)
    hi = min(u.slope_right for u in us)
    if lo > hi:
        raise EmptyRooftop(
            "slope ranges %s are disjoint"
            % ", ".join("[%s, %s]" % (rat_str(u.slope_left), rat_str(u.slope_right)) for u in us)
        )
    duals = [restrict_dual(legendre(u), lo, hi) for u in us]
    g = duals[0]
    for d in duals[1:]:
        g = max_dual(g, d)
    return biconjugate(g, us[0].grid)


@dataclass(frozen=True)
class ModelEnvelope:
    """A singularity level: interval Q with its extremal potential cached.

    The potential is the largest potential whose dual domain is Q and which
    stays below the reference; it is the biconjugate of the reference dual
    restricted to Q.  The reference is carried along because the shape of
    the envelope, entropy caps and sup normalizations all depend on it.
    """

    Q: tuple
    potential: GridPLConvex
    reference: GridPLConvex

    @property
    def grid(self) -> Grid:
        return self.potential.grid

    @property
    def mass(self):
        return self.Q[1] - self.Q[0]

    @property
    def degenerate(self) -> bool:
        return self.Q[0] == self.Q[1]


def check_reference(grid: Grid, reference: GridPLConvex) -> GridPLConvex:
    """A usable reference spans the whole polytope (it encodes the class)."""
    if reference.grid.polytope != grid.polytope:
        raise GridMismatch("reference lives over a different polytope")
    if reference.dual_domain() != grid.polytope:
        lo, hi = reference.dual_domain()
        raise BadReference(
            "reference slope range [%s, %s] must equal the polytope" % (rat_str(lo), rat_str(hi))
        )
    return reference


def model_from_interval(grid: Grid, Q, reference: GridPLConvex) -> ModelEnvelope:
    """Model envelope of the singularity interval Q = [a, b], a <= b.

    Degenerate Q (a == b) is allowed and yields a zero-mass level.
    """
    a, b = (rat(q) for q in Q)
    if a > b:
        raise IntervalOutOfPolytope("interval endpoints out of order")
    p_min, p_max = grid.polytope
    if not _contains(grid.polytope, (a, b)):
        raise IntervalOutOfPolytope(
            "[%s, %s] leaves polytope [%s, %s]"
            % (rat_str(a), rat_str(b), rat_str(p_min), rat_str(p_max))
        )
    reference = check_reference(grid, reference)
    if reference.grid != grid:
        nodes = sorted(set(grid.nodes) | set(reference.grid.nodes))
        reference = refine_to(reference, grid.with_nodes(nodes))
    dual = restrict_dual(legendre(reference), a, b)
    potential = biconjugate(dual, reference.grid)
    return ModelEnvelope((a, b), potential, reference)


def model_project(psi: ModelEnvelope, u: GridPLConvex) -> GridPLConvex:
    """Project u to the ψ-sector: biconjugate of u* restricted to Q(ψ).

    Equals the large-C limit of rooftop(ψ + C, u); the limit stabilizes at
    finite C in this model.  Raises EmptyRooftop when u's dual domain and Q
    are disjoint, since the limit then degenerates to -infinity.
    """
    dual = restrict_dual(legendre(u), *psi.Q)
    return biconjugate(dual, u.grid)
