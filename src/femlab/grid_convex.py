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

Each object keeps its numbers as ints over one reduced denominator (a
``Lattice``): grid nodes over the grid's node scale, potential values over
one denominator, dual breakpoints over one and dual values over another.
Checks compare cross-multiplied ints, kernels bring their output to one
denominator with one ``math.lcm``, and the constructor reduces it with one
``math.gcd``, so equal functions have equal representations.  Every
interval (the polytope, a potential's end slopes, a level's Q) is a reduced
two-entry ``Lattice``: containment cross-multiplies, equality is ``==``.
``nodes``, ``polytope``, ``values``, the end slopes and ``points`` are the
backend rationals, built on first read.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from operator import le

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
    step i.
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
            _step_weights=tuple(step_lcm // d for d in steps),
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

    def with_nodes(self, nodes) -> "Grid":
        return Grid(tuple(nodes), self._poly)


def _grid_on(grids, points=()) -> Grid:
    """The grid on the nodes of all grids plus points, given as (num, den) int pairs.

    The grids share one polytope.
    """
    den = math.lcm(*(g._scale for g in grids), *(d for _, d in points))
    xs = {x * (den // g._scale) for g in grids for x in g._xs}
    xs.update(n * (den // d) for n, d in points)
    return Grid(Lattice(tuple(sorted(xs)), den), grids[0]._poly)


def _scaled(nums, r):
    return nums if r == 1 else tuple(n * r for n in nums)


def _frac(num, den):
    """num / den as a reduced int pair with a positive denominator."""
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    return num // g, den // g


def _common(pairs, den) -> Lattice:
    """The values num / (den * mult), given as (num, mult) pairs, over one denominator."""
    m = math.lcm(*(k for _, k in pairs))
    return Lattice(tuple(n * (m // k) for n, k in pairs), den * m)


def _contains(outer: Lattice, inner: Lattice) -> bool:
    """Interval inner lies inside interval outer; both are two-entry lattices.

    The one test of singularity order: u is at least as singular as v
    exactly when v's dual domain contains u's.
    """
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
    ``monge_ampere(u)``, ``energy(psi, u)`` per level and
    ``split_caps(u, reference)`` per reference, and lives and dies with it.
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
        slopes = (
            sl * (sden // eden),
            *((b - a) * w * r for a, b, w in zip(nums, nums[1:], grid._step_weights)),
            sr * (sden // eden),
        )
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

    def evaluate(self, x):
        x = rat(x)
        scale = math.lcm(self.grid._scale, x.denominator)
        xs = _scaled(self.grid._xs, scale // self.grid._scale)
        t = x.numerator * (scale // x.denominator)
        k = bisect_right(xs, t)
        if k and xs[k - 1] == t:
            return rat(self._num[k - 1], self._den)
        num, mult = _value_at(self, xs, scale, k, t)
        return rat(num, self._den * mult)

    def shift(self, c) -> "GridPLConvex":
        c = rat(c)
        den = math.lcm(self._den, c.denominator)
        r, add = den // self._den, c.numerator * (den // c.denominator)
        return GridPLConvex(self.grid, Lattice(tuple(n * r + add for n in self._num), den), self._ends)


def _value_at(u: GridPLConvex, xs, scale, k, x):
    """u at a non-node x as (num, mult), meaning num / (u._den * mult).

    xs are u's nodes and x a point, all ints over ``scale``, and k is
    bisect_right(xs, x): the ray or chord that holds x.
    """
    vs, den = u._num, u._den
    if 0 < k < len(xs):
        return _on_segment(xs, vs, k - 1, x)
    (sl, sr), eden = u._ends
    j, s = (0, sl) if k == 0 else (k - 1, sr)
    mult = eden * scale
    return vs[j] * mult + s * den * (x - xs[j]), mult


def _difference(u: GridPLConvex, v: GridPLConvex) -> Lattice:
    """u - v node by node, on a grid both share; not reduced."""
    den = math.lcm(u._den, v._den)
    a, b = den // u._den, den // v._den
    return Lattice(tuple(x * a - y * b for x, y in zip(u._num, v._num)), den)


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
        dp = tuple(b - a for a, b in zip(ps, ps[1:]))
        if any(d <= 0 for d in dp):
            raise ValueError("dual breakpoints must increase strictly")
        dw = tuple(b - a for a, b in zip(ws, ws[1:]))
        for i in range(len(dp) - 1):
            if dw[i] * dp[i + 1] > dw[i + 1] * dp[i]:
                raise ConvexityViolation("dual breakpoint data is not convex")
        self._set(_p=ps, _pden=pden, _w=ws, _wden=wden, _dp=dp, _dw=dw, _memo={})

    def _key(self):
        return (self._pden, self._p, self._wden, self._w)

    @property
    def points(self) -> tuple:
        ps = self._rationals("p", (self._p, self._pden))
        return tuple(zip(ps, self._rationals("w", (self._w, self._wden))))

    @property
    def domain(self) -> tuple:
        return (rat(self._p[0], self._pden), rat(self._p[-1], self._pden))

    def evaluate(self, p):
        p = rat(p)
        den = math.lcm(self._pden, p.denominator)
        ps = _scaled(self._p, den // self._pden)
        q = p.numerator * (den // p.denominator)
        if q < ps[0] or q > ps[-1]:
            raise ValueError("dual evaluated outside its domain")
        num, mult = _on_segment(ps, self._w, bisect_right(ps, q) - 1, q)
        return rat(num, self._wden * mult)


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
    # c_k <= x/s  <=>  dw_k * pden * s <= x * wden * dp_k
    rise = [d * scale for d in dual._dw]
    run = [d * wden for d in dual._dp]
    k, last = 0, len(rise)
    values = []
    for x in grid._xs:
        while k < last and rise[k] <= x * run[k]:
            k += 1
        values.append(x * ps[k] * a - ws[k] * b)
    return GridPLConvex(grid, Lattice(tuple(values), den), Lattice((ps[0], ps[-1]), pden))


def restrict_dual(dual: DualPL, lo, hi) -> DualPL:
    """Restrict a dual to [lo, hi] intersected with its own domain.

    One walk over the breakpoints keeps the interior ones and interpolates
    the two new ends; when [lo, hi] covers the domain, the dual is returned.
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
    i = bisect_right(ps, a) - 1
    first = _on_segment(ps, ws, i, a)
    if a == b:
        return DualPL(Lattice((a,), pden), _common([first], dual._wden))
    i += 1
    j = i
    while ps[j] < b:
        j += 1
    end = (ws[j], 1) if ps[j] == b else _on_segment(ps, ws, j - 1, b)
    samples = [first, *((w, 1) for w in ws[i:j]), end]
    return DualPL(Lattice((a, *ps[i:j], b), pden), _common(samples, dual._wden))


def _merged_samples(a, wa, b, wb):
    """(p, d1(p), d2(p)) at every breakpoint of either dual, p increasing.

    a, b are the breakpoints and wa, wb the values of two duals on one
    domain, each pair over a shared denominator; each sample is a (num,
    mult) pair as from ``_on_segment``.  A two-pointer merge interpolates
    each dual on the segment that holds the other's breakpoints.
    """
    i = j = 0
    out = []
    while i < len(a) and j < len(b):
        p = min(a[i], b[j])
        if a[i] == p:
            s1 = (wa[i], 1)
            i += 1
        else:
            s1 = _on_segment(a, wa, i - 1, p)
        if b[j] == p:
            s2 = (wb[j], 1)
            j += 1
        else:
            s2 = _on_segment(b, wb, j - 1, p)
        out.append((p, s1, s2))
    return out


def _crossing(prev, cur):
    """Where d1 - d2 changes sign strictly between two merged samples, or None.

    Returns ((num, mult), (num, mult)): the abscissa over the breakpoint
    denominator and d1's value there over the value denominator.
    """
    q, (u1, e1), (u2, e2) = prev
    p, (w1, f1), (w2, f2) = cur
    da, db = u1 * e2 - u2 * e1, w1 * f2 - w2 * f1  # over e1 e2 and f1 f2
    if not ((da > 0 > db) or (da < 0 < db)):
        return None
    ea, eb = e1 * e2, f1 * f2
    k = da * eb - db * ea  # the crossing sits at the share s = da * eb / k of [q, p]
    t = _frac(q * k + (p - q) * da * eb, k)
    value = _frac(u1 * f1 * k + da * eb * (w1 * e1 - u1 * f1), e1 * f1 * k)
    return t, value


def max_dual(d1: DualPL, d2: DualPL) -> DualPL:
    """Pointwise max of two duals on a common domain, crossings inserted.

    Both inputs must already share their domain (restrict first).  One
    merged walk over both breakpoint lists samples each dual at every
    breakpoint of either, O(m1 + m2).  Within each merged interval both
    functions are affine, so at most one strict crossing exists and it is
    an exact rational.
    """
    pden = math.lcm(d1._pden, d2._pden)
    a, b = _scaled(d1._p, pden // d1._pden), _scaled(d2._p, pden // d2._pden)
    if a[0] != b[0] or a[-1] != b[-1]:
        raise ValueError("max_dual needs duals on a common domain")
    wden = math.lcm(d1._wden, d2._wden)
    wa, wb = _scaled(d1._w, wden // d1._wden), _scaled(d2._w, wden // d2._wden)
    ps, ws = [], []
    prev = None
    for cur in _merged_samples(a, wa, b, wb):
        p, (n1, m1), (n2, m2) = cur
        if prev is not None:
            crossing = _crossing(prev, cur)
            if crossing is not None:
                ps.append(crossing[0])
                ws.append(crossing[1])
        ps.append((p, 1))
        ws.append((n1, m1) if n1 * m2 >= n2 * m1 else (n2, m2))
        prev = cur
    return DualPL(_common(ps, pden), _common(ws, wden))


# --- grid alignment ---------------------------------------------------------


def refine_to(u: GridPLConvex, grid: Grid) -> GridPLConvex:
    """Re-represent u on a finer grid (superset of nodes, same polytope).

    PL refinement is lossless: new node values are exact evaluations, made
    in one merged walk over the old and the new nodes.
    """
    if grid._poly != u.grid._poly:
        raise GridMismatch("refinement target has a different polytope")
    r, rest = divmod(grid._scale, u.grid._scale)
    if rest:  # some old node has a denominator the new grid lacks
        raise GridMismatch("refinement target must contain all existing nodes")
    xs, vs = _scaled(u.grid._xs, r), u._num
    k, last = 0, len(xs)
    values = []
    for x in grid._xs:
        if k < last and xs[k] < x:
            break
        if k < last and xs[k] == x:
            values.append((vs[k], 1))
            k += 1
        else:
            values.append(_value_at(u, xs, grid._scale, k, x))
    if k < last:
        raise GridMismatch("refinement target must contain all existing nodes")
    return GridPLConvex(grid, _common(values, u._den), u._ends)


def align(*us: GridPLConvex):
    """Bring potentials onto their common node-union grid, exactly."""
    first = us[0].grid
    if all(u.grid == first for u in us):
        return us if len(us) > 1 else us[0]
    if any(u.grid._poly != first._poly for u in us):
        raise GridMismatch("potentials live over different polytopes")
    grid = _grid_on([u.grid for u in us])
    out = tuple(refine_to(u, grid) for u in us)
    return out if len(out) > 1 else out[0]


def pl_equal(u: GridPLConvex, v: GridPLConvex) -> bool:
    """Equality as functions on the line, not as representations."""
    u, v = align(u, v)
    return u == v


# --- pointwise operations ---------------------------------------------------


def _ray_root(x, d, den, sn, sd, scale):
    """Where d / den + (sn / sd) (y - x / scale) vanishes, as (num, den) ints, or None.

    x is a node over ``scale``, d / den the difference there and sn / sd
    the difference of the two end slopes.
    """
    if sn == 0 or d == 0:
        return None
    num, mult = _frac(x * den * sn - d * sd * scale, den * sn)
    return num, mult * scale


def _crossings(u: GridPLConvex, v: GridPLConvex):
    """Abscissas where u - v changes sign strictly, rays included, as (num, den) ints."""
    xs, scale = u.grid._xs, u.grid._scale
    d, den = _difference(u, v)
    (ul, ur), ue = u._ends
    (vl, vr), ve = v._ends
    out = []
    left = _ray_root(xs[0], d[0], den, ul * ve - vl * ue, ue * ve, scale)
    if left is not None and left[0] < xs[0] * (left[1] // scale):
        out.append(left)
    for i in range(len(xs) - 1):
        a, b = d[i], d[i + 1]
        if (a > 0 > b) or (a < 0 < b):
            num, mult = _frac(xs[i] * (a - b) + (xs[i + 1] - xs[i]) * a, a - b)
            out.append((num, mult * scale))
    right = _ray_root(xs[-1], d[-1], den, ur * ve - vr * ue, ue * ve, scale)
    if right is not None and right[0] > xs[-1] * (right[1] // scale):
        out.append(right)
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
        grid = _grid_on([u.grid], cross)
        u, v = refine_to(u, grid), refine_to(v, grid)
    den = math.lcm(u._den, v._den)
    a, b = den // u._den, den // v._den
    (ul, ur), ue = u._ends
    (vl, vr), ve = v._ends
    return GridPLConvex(
        u.grid,
        Lattice(tuple(max(x * a, y * b) for x, y in zip(u._num, v._num)), den),
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


def is_leq(u: GridPLConvex, v: GridPLConvex) -> bool:
    """u <= v pointwise on the whole line, decided exactly.

    Node comparisons settle the compact part; ray comparisons reduce to the
    end values plus slope inequalities (left slopes reversed).
    """
    u, v = align(u, v)
    if any(d > 0 for d in _difference(u, v).nums):
        return False
    return _contains(v._ends, u._ends)


def sup_diff(u: GridPLConvex, v: GridPLConvex):
    """sup over the line of u - v: a rational, or math.inf when unbounded.

    Unbounded iff v's dual domain fails to contain u's on either side; else
    the sup is attained at a node because the difference is affine on rays
    with the favorable slope signs.
    """
    u, v = align(u, v)
    if not _contains(v._ends, u._ends):
        return math.inf
    d, den = _difference(u, v)
    return rat(max(d), den)


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
    den = math.lcm(*(u._ends.den for u in us))
    lo = max(u._ends.nums[0] * (den // u._ends.den) for u in us)
    hi = min(u._ends.nums[1] * (den // u._ends.den) for u in us)
    if lo > hi:
        raise EmptyRooftop("slope ranges %s are disjoint" % ", ".join(_interval_str(u._ends) for u in us))
    duals = [restrict_dual(legendre(u), rat(lo, den), rat(hi, den)) for u in us]
    g = duals[0]
    for d in duals[1:]:
        g = max_dual(g, d)
    return biconjugate(g, us[0].grid)


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

    def _key(self):
        return (self.potential, self.reference)

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

    @property
    def degenerate(self) -> bool:
        a, b = self.potential._ends.nums
        return a == b

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

    Degenerate Q (a == b) is allowed and yields a zero-mass level.
    """
    a, b = (rat(q) for q in Q)
    if a > b:
        raise IntervalOutOfPolytope("interval endpoints out of order")
    q = lattice((a, b))
    if not _contains(grid._poly, q):
        raise IntervalOutOfPolytope("%s leaves polytope %s" % (_interval_str(q), _interval_str(grid._poly)))
    reference = check_reference(grid, reference)
    if reference.grid != grid:
        reference = refine_to(reference, _grid_on([grid, reference.grid]))
    dual = restrict_dual(legendre(reference), a, b)
    return ModelEnvelope(biconjugate(dual, reference.grid), reference)


def model_project(psi: ModelEnvelope, u: GridPLConvex) -> GridPLConvex:
    """Project u to the ψ-sector: biconjugate of u* restricted to Q(ψ).

    Equals the large-C limit of rooftop(ψ + C, u); the limit stabilizes at
    finite C in this model.  Raises EmptyRooftop when u's dual domain and Q
    are disjoint, since the limit then degenerates to -infinity.
    """
    dual = restrict_dual(legendre(u), *psi.Q)
    return biconjugate(dual, u.grid)
