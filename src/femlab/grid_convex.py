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
  of their domains; that max and ``pointwise_max`` of two potentials go
  through one exact crossing merge, ``_max_merge``,
* ``model_project`` conjugates a dual restricted to a singularity interval.

Because dual slopes are node coordinates, every envelope constructed this
way has kinks only at grid nodes, so node samples plus end slopes represent
it exactly and every identity below is checked with exact rationals.

Each object keeps its numbers as ints over one reduced denominator (a
``Lattice``): grid nodes over the grid's node scale, potential values over
one denominator, dual breakpoints over one and dual values over another.
Checks compare cross-multiplied ints, kernels bring their output to one
denominator with one ``math.lcm``, and the constructor reduces it with one
``math.gcd``, so equal functions have equal representations.  Every
interval (the polytope, a potential's end slopes, a level's Q) is a reduced
two-entry ``Lattice``: containment cross-multiplies, equality is ``==``.
``nodes``, ``polytope``, ``values``, the end slopes and ``points`` are the
backend rationals, built on first read.  Comparisons and pairings build no
object: they read ints in place with ``_values_on`` and ``_pair_on``;
``is_leq``, ``sup_diff`` and ``pl_equal`` test the end slopes first, then
read one grid of ``_union_reads`` at a time, stopping at one that fails.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import reduce
from itertools import compress, repeat
from operator import eq, gt, le, mul, sub

from ._rational import ONE, Lattice, _Frozen, lattice, rat, rat_str
from .errors import (
    BadReference,
    ConvexityViolation,
    EmptyRooftop,
    GridMismatch,
    IntervalOutOfPolytope,
    SingularityMismatch,
    SlopeOutOfPolytope,
)


class Grid(_Frozen):
    """Strictly increasing rational nodes plus the moment interval.

    The nodes are given as exact rationals or as a ``Lattice`` and kept as
    ints ``_xs`` over the node scale ``_scale`` (their least common
    denominator), and the polytope as the reduced lattice ``_poly``;
    ``nodes`` and ``polytope`` give them as backend rationals.  For the
    chord slopes of a potential, ``_step_lcm`` is the lcm of the node steps
    (in units of the node scale) and ``_step_weights[i]`` is it divided by
    step i; on equal steps every weight is 1 and ``_step_weights`` is empty.
    """

    __slots__ = ("_poly", "_xs", "_scale", "_step_lcm", "_step_weights", "_memo")
    _shown = ("nodes", "polytope")

    def __init__(self, nodes, polytope):
        xs, scale = lattice(nodes)
        if len(xs) < 2:
            raise ValueError("grid needs at least two nodes")
        for a, b in zip(xs, xs[1:]):
            if not a < b:
                raise ValueError(
                    "grid nodes must increase strictly: %s then %s"
                    % (rat_str(rat(a, scale)), rat_str(rat(b, scale)))
                )
        if len(polytope) != 2:
            raise ValueError("polytope must be a pair (p_min, p_max)")
        poly = lattice(polytope)
        if not poly.nums[0] < poly.nums[1]:
            raise ValueError("polytope must be nondegenerate: %s" % _interval_str(poly))
        steps = [b - a for a, b in zip(xs, xs[1:])]
        step_lcm = math.lcm(*steps)
        self._set(
            _poly=poly,
            _xs=xs,
            _scale=scale,
            _step_lcm=step_lcm,
            _step_weights=tuple(step_lcm // d for d in steps) if len(set(steps)) > 1 else (),
            _memo={},
        )

    def _key(self):
        return (self._scale, self._xs, self._poly)

    @property
    def nodes(self) -> tuple:
        return self._rationals("nodes", (self._xs, self._scale))

    @property
    def polytope(self) -> tuple:
        return self._rationals("polytope", self._poly)


def _grid_on(grids, points=()) -> Grid:
    """The grid on the nodes of all grids plus points, given as (num, den) int pairs.

    The grids share one polytope.  Equal grids give the first unless points are
    given; a grid with as many nodes as the union holds it and is returned, memo and all.
    """
    if not points and all(g == grids[0] for g in grids):
        return grids[0]
    den = math.lcm(*(g._scale for g in grids), *(d for _, d in points))
    xs = {x * (den // g._scale) for g in grids for x in g._xs}
    xs.update(n * (den // d) for n, d in points)
    for g in grids:
        if len(g._xs) == len(xs):
            return g
    return Grid(Lattice(tuple(sorted(xs)), den), grids[0]._poly)


def _scaled(nums, r):
    return nums if r == 1 else tuple([n * r for n in nums])


def _frac(num, den):
    """num / den as a reduced int pair with a positive denominator."""
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    return num // g, den // g


def _contains(outer: Lattice, inner: Lattice) -> bool:
    """Interval inner lies inside interval outer; both are two-entry lattices."""
    (a, b), m = outer
    (c, d), n = inner
    return a * n <= c * m and d * m <= b * n


def _interval_str(q: Lattice) -> str:
    """An interval as "[lo, hi]" in ``rat_str`` form, for messages."""
    (a, b), den = q
    return "[%s, %s]" % (rat_str(rat(a, den)), rat_str(rat(b, den)))


class GridPLConvex(_Frozen):
    """Convex PL potential: node values plus end slopes.

    Between consecutive nodes the function is the chord; beyond the first
    and last node it follows slope_left / slope_right.  Validity means the
    slope sequence slope_left, chords..., slope_right is non-decreasing and
    both end slopes sit inside the polytope.

    Values are given as exact rationals or as a ``Lattice`` and kept as
    ints ``_num`` over one reduced denominator ``_den``; the end slopes as
    the reduced lattice ``_ends``, which is the dual domain; the slope
    sequence as the ``Lattice`` ``_slope_lattice``, whose entry k is the
    slope between nodes k - 1 and k, rays included.  Every construction
    runs ``__post_init__``, which normalizes and checks.

    A potential is immutable, so every pure function of it is computed at
    most once: ``_memo`` holds its hash, ``values``, ``legendre(u)``,
    ``monge_ampere(u)``, ``energy(psi, u)`` per level,
    ``split_caps(u, reference)`` per reference and, for a reference, the
    level potential of ``model_from_interval`` per Q and the floor of
    ``density_approximant`` per j, and lives and dies with it.
    """

    __slots__ = ("grid", "_num", "_den", "_ends", "_slope_lattice", "_memo")
    _shown = ("grid", "values", "slope_left", "slope_right")

    def __init__(self, grid: Grid, values, ends):
        self.__post_init__(grid, values, ends)

    def __post_init__(self, grid, values, ends):
        nums, den = lattice(values)
        if len(nums) != len(grid._xs):
            raise ValueError("%d values for %d nodes" % (len(nums), len(grid._xs)))
        ends = lattice(ends)
        if not _contains(grid._poly, ends):
            raise SlopeOutOfPolytope(
                "end slopes %s leave polytope %s" % (_interval_str(ends), _interval_str(grid._poly))
            )
        # chord i is (nums[i + 1] - nums[i]) * w_i * scale / (den * step_lcm)
        (sl, sr), eden = ends
        chord_den = den * grid._step_lcm
        sden = math.lcm(eden, chord_den)
        r = grid._scale * (sden // chord_den)
        w = grid._step_weights
        chords = map(mul, map(sub, nums[1:], nums), w) if w else map(sub, nums[1:], nums)
        slopes = (sl * (sden // eden), *_scaled(chords, r), sr * (sden // eden))
        if not all(map(le, slopes, slopes[1:])):
            i = next(i for i in range(len(slopes) - 1) if slopes[i] > slopes[i + 1])
            raise ConvexityViolation(
                "slope sequence decreases at position %d: %s > %s"
                % (i, rat_str(rat(slopes[i], sden)), rat_str(rat(slopes[i + 1], sden)))
            )
        self._set(
            grid=grid,
            _num=nums,
            _den=den,
            _ends=ends,
            _slope_lattice=Lattice(slopes, sden),
            _memo={},
        )

    def _key(self):
        return (self.grid, self._den, self._num, self._ends)

    @property
    def values(self) -> tuple:
        return self._rationals("values", (self._num, self._den))

    @property
    def slope_left(self):
        return self.dual_domain()[0]

    @property
    def slope_right(self):
        return self.dual_domain()[1]

    def dual_domain(self) -> tuple:
        return self._rationals("ends", self._ends)

    def shift(self, c) -> "GridPLConvex":
        c = rat(c)
        den = math.lcm(self._den, c.denominator)
        r, add = den // self._den, c.numerator * (den // c.denominator)
        return GridPLConvex(self.grid, Lattice(tuple(n * r + add for n in self._num), den), self._ends)


def make_pl(grid: Grid, values, slope_left, slope_right) -> GridPLConvex:
    """Public constructor; rejects non-convex data and out-of-polytope slopes."""
    return GridPLConvex(grid, tuple(values), (slope_left, slope_right))


class DualPL(_Frozen):
    """Convex PL function on a compact slope interval, by breakpoint samples.

    Breakpoints ``_p[k] / _pden`` increase strictly and carry the values
    ``_w[k] / _wden``; the function interpolates linearly between them and
    is +infinity outside [p_first, p_last].  A single point encodes the
    conjugate of an affine potential.  The steps ``_dp`` and ``_dw``
    computed for the convexity check are kept for the conjugation walk;
    ``points`` gives the (p, value) pairs as backend rationals.
    """

    __slots__ = ("_p", "_pden", "_w", "_wden", "_dp", "_dw", "_memo")
    _shown = ("points",)

    def __init__(self, breakpoints: Lattice, values: Lattice):
        self.__post_init__(breakpoints, values)

    def __post_init__(self, breakpoints, values):
        ps, pden = lattice(breakpoints)
        ws, wden = lattice(values)
        if not ps:
            raise ValueError("dual needs at least one breakpoint")
        if len(ws) != len(ps):
            raise ValueError("%d values for %d breakpoints" % (len(ws), len(ps)))
        dp = tuple(map(sub, ps[1:], ps))
        if dp and min(dp) <= 0:
            raise ValueError("dual breakpoints must increase strictly")
        dw = tuple(map(sub, ws[1:], ws))
        if any(map(gt, map(mul, dw, dp[1:]), map(mul, dw[1:], dp))):
            raise ConvexityViolation("dual breakpoint data is not convex")
        self._set(_p=ps, _pden=pden, _w=ws, _wden=wden, _dp=dp, _dw=dw, _memo={})

    def _key(self):
        return (self._pden, self._p, self._wden, self._w)

    @property
    def points(self) -> tuple:
        ps = self._rationals("p", (self._p, self._pden))
        return tuple(zip(ps, self._rationals("w", (self._w, self._wden))))


def _on_segment(ps, ws, i, p):
    """PL data (ps, ws) at p on segment i, ps[i] <= p < ps[i + 1] or p == ps[i].

    Returns (num, mult): the value is num / mult in the units of ws.
    """
    if p == ps[i]:
        return ws[i], 1
    dp = ps[i + 1] - ps[i]
    return ws[i] * dp + (p - ps[i]) * (ws[i + 1] - ws[i]), dp


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
    slopes, pden = u._slope_lattice
    xs, vs, last = u.grid._xs, u._num, len(u._num) - 1
    wden = pden * u.grid._scale
    r = wden // u._den
    ps, ws = [], []
    # slope k is attained on the piece left of node k (clamped).
    for k, p in enumerate(slopes):
        if ps and ps[-1] == p:
            continue
        i = min(k, last)
        ps.append(p)
        ws.append(p * xs[i] - vs[i] * r)
    memo["legendre"] = dual = DualPL(Lattice(tuple(ps), pden), Lattice(tuple(ws), wden))
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
    ps, pden, ws, wden = dual._p, dual._pden, dual._w, dual._wden
    scale = pden * grid._scale
    den = math.lcm(scale, wden)
    a, b = den // scale, den // wden
    # c_k <= x/s  <=>  dw_k * pden * s <= x * wden * dp_k  <=>  x >= limits[k]
    limits = [-(-d * scale // (e * wden)) for d, e in zip(dual._dw, dual._dp)] + [math.inf]
    k, limit, s, c = 0, limits[0], ps[0] * a, ws[0] * b
    values = []
    for x in grid._xs:
        if x >= limit:
            while x >= limits[k]:
                k += 1
            limit, s, c = limits[k], ps[k] * a, ws[k] * b
        values.append(x * s - c)
    return GridPLConvex(grid, Lattice(tuple(values), den), Lattice((ps[0], ps[-1]), pden))


def restrict_dual(dual: DualPL, lo, hi) -> DualPL:
    """Restrict a dual to [lo, hi] intersected with its own domain.

    Bisection finds the segment of each new end, ``_on_segment`` gives its
    value (a breakpoint keeps its own), and ``_splice`` puts the two ends
    around the kept slice of the breakpoints strictly between them; when
    [lo, hi] covers the domain, the dual is returned.
    """
    lo, hi = rat(lo), rat(hi)
    pden = math.lcm(dual._pden, lo.denominator, hi.denominator)
    ps, ws = _scaled(dual._p, pden // dual._pden), dual._w
    a = max(lo.numerator * (pden // lo.denominator), ps[0])
    b = min(hi.numerator * (pden // hi.denominator), ps[-1])
    if a == ps[0] and b == ps[-1]:
        return dual
    if a > b:
        raise EmptyRooftop("dual domains miss the interval %s" % _interval_str(Lattice((a, b), pden)))
    i = bisect_right(ps, a)
    first = _on_segment(ps, ws, i - 1, a)
    if a == b:
        values, m = _splice((), [(0, first)])
        return DualPL(Lattice((a,), pden), Lattice(values, dual._wden * m))
    j = bisect_left(ps, b, i)  # ps[i:j] lie strictly between a and b
    end = _on_segment(ps, ws, j if ps[j] == b else j - 1, b)
    values, m = _splice(ws[i:j], [(0, first), (j - i, end)])
    return DualPL(Lattice((a, *ps[i:j], b), pden), Lattice(values, dual._wden * m))


def _splice(nums, inserts):
    """(ints, mult): nums times mult, with each insert (i, (num, k)), sorted by i, before nums[i].

    num / k is in the units of nums; mult is the lcm of the inserts' k.
    """
    if not inserts:
        return tuple(nums), 1
    m = math.lcm(*(k for _, (_, k) in inserts))
    own, out, start = _scaled(nums, m), [], 0
    for i, (n, k) in inserts:
        out += own[start:i]
        out.append(n * (m // k))
        start = i
    out += own[start:]
    return tuple(out), m


def _sampled(ps, ws, points):
    """(ints, mult): PL data (ps, ws) at points, a sorted superset of ps, as ints / mult in ws's units."""
    inserts = []
    for p in sorted(set(points).difference(ps)):
        i = bisect_right(ps, p)
        inserts.append((i, _frac(*_on_segment(ps, ws, i - 1, p))))
    return _splice(ws, inserts)


def _max_merge(ps, w1, w2):
    """The max of two PL functions sampled as ints w1, w2 at the sorted int knots ps.

    Both are affine between knots, so each strict sign change of w1 - w2 is
    one exact crossing, inserted with its value.  Returns the knots and the
    values as lattices whose denominators multiply the units of ps and w1.
    """
    diff = tuple(map(sub, w1, w2))
    ws = [x if x >= y else y for x, y in zip(w1, w2)]
    knots, values = [], []
    for i in compress(range(len(ps) - 1), map(gt, repeat(0), map(mul, diff, diff[1:]))):
        da, k = diff[i], diff[i] - diff[i + 1]  # the crossing sits at the share da / k of the segment
        knots.append((i + 1, _frac(ps[i] * k + (ps[i + 1] - ps[i]) * da, k)))
        values.append((i + 1, _frac(w1[i] * k + (w1[i + 1] - w1[i]) * da, k)))
    return Lattice(*_splice(ps, knots)), Lattice(*_splice(ws, values))


def max_dual(d1: DualPL, d2: DualPL) -> DualPL:
    """Pointwise max of two duals on a common domain, crossings inserted.

    Both inputs must already share their domain (restrict first).  Both are
    sampled at the sorted union of their breakpoints, O(m1 + m2) after the
    sort, and ``_max_merge`` takes the max, which ``pointwise_max`` shares.
    """
    pden = math.lcm(d1._pden, d2._pden)
    a, b = _scaled(d1._p, pden // d1._pden), _scaled(d2._p, pden // d2._pden)
    if a[0] != b[0] or a[-1] != b[-1]:
        raise ValueError("max_dual needs duals on a common domain")
    wden = math.lcm(d1._wden, d2._wden)
    ps = a if a == b else sorted(set(a).union(b))
    w1, m1 = _sampled(a, _scaled(d1._w, wden // d1._wden), ps)
    w2, m2 = _sampled(b, _scaled(d2._w, wden // d2._wden), ps)
    m = math.lcm(m1, m2)
    (ps, pm), (ws, vm) = _max_merge(ps, _scaled(w1, m // m1), _scaled(w2, m // m2))
    return DualPL(Lattice(ps, pden * pm), Lattice(ws, wden * m * vm))


# --- grid alignment ---------------------------------------------------------


def _values_on(u: GridPLConvex, grid: Grid) -> tuple:
    """u at the nodes of grid (same polytope): (ints, denominator), unreduced.

    One walk over both node lists: ``_on_segment`` of u's chord, or its ray.
    """
    if grid is u.grid or grid == u.grid:
        return u._num, u._den
    scale = math.lcm(u.grid._scale, grid._scale)
    xs, vs, n = _scaled(u.grid._xs, scale // u.grid._scale), u._num, len(u._num)
    out, i, mult = [], 0, u._ends.den * scale  # a ray value is num / (u._den * mult)
    m = math.lcm(u.grid._step_lcm * (scale // u.grid._scale), mult)  # every multiplier divides m
    for x in _scaled(grid._xs, scale // grid._scale):
        while i < n and xs[i] <= x:
            i += 1
        if i and x <= xs[-1]:
            num, k = _on_segment(xs, vs, i - 1, x)
        else:
            j = -1 if i else 0  # the end and its slope
            num, k = vs[j] * mult + u._ends.nums[j] * u._den * (x - xs[j]), mult
        out.append(num * (m // k))
    return tuple(out), u._den * m


def _pair_on(u: GridPLConvex, v: GridPLConvex, grid: Grid) -> tuple:
    """u and v at grid's nodes as ((a, ra), (b, rb), den): u is a * ra / den and v is b * rb / den.

    The one reader of two potentials: it refuses two polytopes before it reads
    anything; a dot product scales its sum once, a comparison the ints.
    """
    if u.grid._poly != v.grid._poly:
        raise GridMismatch("potentials live over different polytopes")
    (a, ad), (b, bd) = _values_on(u, grid), _values_on(v, grid)
    den = math.lcm(ad, bd)
    return (a, den // ad), (b, den // bd), den


def _union_reads(u: GridPLConvex, v: GridPLConvex) -> tuple:
    """The grids u and v are compared on: u's, then v's if another; two polytopes are refused at the call."""
    if u.grid._poly != v.grid._poly:
        raise GridMismatch("potentials live over different polytopes")
    return (u.grid,) if v.grid is u.grid or v.grid == u.grid else (u.grid, v.grid)


def _holds_on(u: GridPLConvex, v: GridPLConvex, grids, op) -> bool:
    """op holds between u's and v's ints at each grid's nodes, read up to the first grid that fails."""
    for grid in grids:
        (a, ra), (b, rb), _ = _pair_on(u, v, grid)
        if not all(map(op, _scaled(a, ra), _scaled(b, rb))):
            return False
    return True


def refine_to(u: GridPLConvex, grid: Grid) -> GridPLConvex:
    """Re-represent u on a finer grid (superset of nodes, same polytope).

    PL refinement is lossless: the values are ``_values_on`` the target, one
    that skips an old node is refused, and on u's own grid u is returned.
    """
    if grid == u.grid:
        return u
    if grid._poly != u.grid._poly:
        raise GridMismatch("refinement target has a different polytope")
    if _grid_on([grid, u.grid]) is not grid:  # grid holds the union only if it holds u's nodes
        raise GridMismatch("refinement target must contain all existing nodes")
    return GridPLConvex(grid, Lattice(*_values_on(u, grid)), u._ends)


def align(*us: GridPLConvex):
    """Bring potentials onto their common node-union grid, exactly; one already on it is kept.

    When one input's grid holds the whole union, that grid object is the
    union: the input is returned itself and the others are refined onto it.
    """
    first = us[0].grid
    if all(u.grid == first for u in us):
        return us
    if any(u.grid._poly != first._poly for u in us):
        raise GridMismatch("potentials live over different polytopes")
    grid = _grid_on([u.grid for u in us])
    return tuple(refine_to(u, grid) for u in us)


def pl_equal(u: GridPLConvex, v: GridPLConvex) -> bool:
    """Equality as functions on the line: equal end slopes, and equal values at u's nodes and at v's."""
    grids = _union_reads(u, v)
    return u._ends == v._ends and _holds_on(u, v, grids, eq)


# --- pointwise operations ---------------------------------------------------


def _ray_root(x, d, den, sn, sd, scale):
    """Where d / den + (sn / sd) (y - x / scale) vanishes, as (num, den) ints.

    x is a node over ``scale``, d / den the nonzero difference there and
    sn / sd the nonzero difference of the two end slopes.
    """
    num, mult = _frac(x * den * sn - d * sd * scale, den * sn)
    return num, mult * scale


def pointwise_max(u: GridPLConvex, v: GridPLConvex) -> GridPLConvex:
    """Exact pointwise max; crossing abscissas become new grid nodes.

    Sign changes between nodes, or on either ray, are rational and are
    inserted so the result represents max(u, v) exactly, never a node-wise
    max with its kinks forgotten.  ``_pair_on`` reads both at the ray
    crossings too; ``_max_merge``, shared with ``max_dual``, places the others.
    An ordered pair, which has no crossing, gives back its upper member as aligned.
    """
    u, v = align(u, v)
    xs, scale, ud, vd = u.grid._xs, u.grid._scale, u._den, v._den
    (ul, ur), ue = u._ends
    (vl, vr), ve = v._ends
    dl, dr = u._num[0] * vd - v._num[0] * ud, u._num[-1] * vd - v._num[-1] * ud  # over ud vd
    sl, sr = ul * ve - vl * ue, ur * ve - vr * ue  # over ue ve
    roots = []
    if dl * sl > 0:  # u - v vanishes left of the first node
        roots.append(_ray_root(xs[0], dl, ud * vd, sl, ue * ve, scale))
    if dr * sr < 0:  # and right of the last one
        roots.append(_ray_root(xs[-1], dr, ud * vd, sr, ue * ve, scale))
    grid = _grid_on([u.grid], roots)
    (w1, r1), (w2, r2), den = _pair_on(u, v, grid)
    w1, w2 = _scaled(w1, r1), _scaled(w2, r2)
    if _contains(v._ends, u._ends) and all(map(le, w1, w2)):
        return v
    if _contains(u._ends, v._ends) and all(map(le, w2, w1)):
        return u
    (ps, pm), (ws, vm) = _max_merge(grid._xs, w1, w2)
    grid = grid if len(ps) == len(w1) else Grid(Lattice(ps, grid._scale * pm), grid._poly)
    return GridPLConvex(
        grid,
        Lattice(ws, den * vm),
        Lattice((min(ul * ve, vl * ue), max(ur * ve, vr * ue)), ue * ve),
    )


def affine_combine(t, u: GridPLConvex, v: GridPLConvex) -> GridPLConvex:
    """t*u + (1-t)*v for rational t in [0, 1]; breakpoints stay on the grid."""
    t = rat(t)
    if t < 0 or t > ONE:
        raise ValueError("combination weight must lie in [0, 1]")
    u, v = align(u, v)
    tn, td = t.numerator, t.denominator
    sn = td - tn

    def mix(xs, da, ys, db):
        a, b = tn * db, sn * da
        return Lattice(tuple(x * a + y * b for x, y in zip(xs, ys)), td * da * db)

    return GridPLConvex(u.grid, mix(u._num, u._den, v._num, v._den), mix(*u._ends, *v._ends))


def more_singular(u: GridPLConvex, v: GridPLConvex) -> bool:
    """The singularity order: u is at least as singular as v, that is, v's dual domain contains u's."""
    return _contains(v._ends, u._ends)


def is_leq(u: GridPLConvex, v: GridPLConvex) -> bool:
    """u <= v on the whole line, exactly: v's end slopes contain u's, and u <= v at u's nodes and at v's."""
    grids = _union_reads(u, v)
    return _contains(v._ends, u._ends) and _holds_on(u, v, grids, le)


def sup_diff(u: GridPLConvex, v: GridPLConvex):
    """sup over the line of u - v: a rational, or math.inf when unbounded.

    Unbounded iff v's dual domain fails to contain u's on either side; else
    the sup is attained at a node of u or of v because the difference is
    affine on rays with the favorable slope signs.
    """
    grids = _union_reads(u, v)
    if not _contains(v._ends, u._ends):
        return math.inf
    tops = []
    for grid in grids:
        (a, ra), (b, rb), den = _pair_on(u, v, grid)
        tops.append(rat(max(map(sub, _scaled(a, ra), _scaled(b, rb))), den))
    return max(tops)


# --- envelopes --------------------------------------------------------------


def rooftop(*us: GridPLConvex) -> GridPLConvex:
    """Largest convex minorant of min(u1, ..., uk), on the union of their grids.

    Compares and conjugates the inputs as given and places only the result
    on the union grid: an input below all others, which the conjugation
    would give back too, else the conjugate of max of the inputs' memoized
    duals on the intersection of dual domains (EmptyRooftop when empty: no
    convex function sits below them all).  The ``is_leq`` calls meet every
    input, so two polytopes are refused before any grid is built.
    """
    if len(us) < 2:
        raise ValueError("rooftop needs at least two potentials")
    grids = [u.grid for u in us]
    for u in us:
        if all(is_leq(u, v) for v in us if v is not u):
            return refine_to(u, _grid_on(grids))
    den = math.lcm(*(u._ends.den for u in us))
    lo = max(u._ends.nums[0] * (den // u._ends.den) for u in us)
    hi = min(u._ends.nums[1] * (den // u._ends.den) for u in us)
    if lo > hi:
        raise EmptyRooftop("slope ranges %s are disjoint" % ", ".join(_interval_str(u._ends) for u in us))
    lo, hi = rat(lo, den), rat(hi, den)
    return biconjugate(reduce(max_dual, (restrict_dual(legendre(u), lo, hi) for u in us)), _grid_on(grids))


class ModelEnvelope(_Frozen):
    """A singularity level: interval Q with its extremal potential cached.

    The potential is the largest potential whose dual domain is Q and which
    stays below the reference; it is the biconjugate of the reference dual
    restricted to Q, so its dual domain ``potential._ends`` is exactly Q,
    degenerate Q included.  The reference is carried along because the
    shape of the envelope, entropy caps and sup normalizations all depend
    on it; a level is also the context of ``energy`` and ``dist``.
    """

    __slots__ = ("potential", "reference", "_memo")
    _shown = ("potential", "reference")

    def __init__(self, potential: GridPLConvex, reference: GridPLConvex):
        self._set(potential=potential, reference=reference, _memo={})

    @property
    def grid(self) -> Grid:
        return self.potential.grid

    @property
    def Q(self) -> tuple:
        return self.potential.dual_domain()

    @property
    def mass(self):
        (a, b), den = self.potential._ends
        return rat(b - a, den)

    def require_in_sector(self, u: GridPLConvex):
        q = self.potential._ends
        if u._ends != q:
            raise SingularityMismatch(
                "potential spans %s, sector needs %s" % (_interval_str(u._ends), _interval_str(q))
            )


def check_reference(grid: Grid, reference: GridPLConvex) -> GridPLConvex:
    """A usable reference spans the whole polytope (it encodes the class)."""
    if reference.grid._poly != grid._poly:
        raise GridMismatch("reference lives over a different polytope")
    if reference._ends != grid._poly:
        raise BadReference(
            "reference slope range %s must equal the polytope" % _interval_str(reference._ends)
        )
    return reference


def model_from_interval(grid: Grid, Q, reference: GridPLConvex) -> ModelEnvelope:
    """Model envelope of the singularity interval Q = [a, b], a <= b.

    Degenerate Q (a == b) is allowed and yields a zero-mass level.  It lives
    on the reference's grid, since its kinks are reference nodes.  Every
    input is checked on every call; the level potential is computed once
    per (reference, Q) and kept in the reference's memo under ("level", Q),
    and each call wraps it in a fresh envelope.  The memo keeps the
    potential, not the envelope, which holds the reference itself.
    """
    a, b = (rat(q) for q in Q)
    if a > b:
        raise IntervalOutOfPolytope("interval endpoints out of order")
    q = lattice((a, b))
    if not _contains(grid._poly, q):
        raise IntervalOutOfPolytope("%s leaves polytope %s" % (_interval_str(q), _interval_str(grid._poly)))
    memo = check_reference(grid, reference)._memo
    key = ("level", q)
    if key not in memo:
        memo[key] = biconjugate(restrict_dual(legendre(reference), a, b), reference.grid)
    return ModelEnvelope(memo[key], reference)


def model_project(psi: ModelEnvelope, u: GridPLConvex) -> GridPLConvex:
    """Project u to the ψ-sector: biconjugate of u* restricted to Q(ψ).

    Equals the large-C limit of rooftop(ψ + C, u); the limit stabilizes at
    finite C in this model.  Raises EmptyRooftop when u's dual domain and Q
    are disjoint, since the limit then degenerates to -infinity.  The dual's
    chords are nodes of u's grid, so it is the image's own ``legendre``; when
    Q covers u's dual domain, ``restrict_dual`` gives that dual back and so u.
    """
    own = legendre(u)
    dual = restrict_dual(own, *psi.Q)
    if dual is own:
        return u
    image = biconjugate(dual, u.grid)
    image._memo["legendre"] = dual
    return image
