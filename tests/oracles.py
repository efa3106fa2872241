"""Slow independent oracles the fast library code is checked against.

Each oracle recomputes a quantity from first principles by a different
route than the library (pointwise enumeration, minimax over candidate
slopes, exhaustive search), so agreement is evidence rather than
tautology.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from femlab import make_pl, rat


def conjugate_by_enumeration(u, p):
    """sup_x (p*x - u(x)) for p inside u's dual domain: attained at a node."""
    return max(rat(p) * x - v for x, v in zip(u.grid.nodes, u.values))


def ray_value(u, x):
    """Evaluate u at any point, extending by its end slopes beyond the grid."""
    x = rat(x)
    nodes, values = u.grid.nodes, u.values
    if x <= nodes[0]:
        return values[0] + u.slope_left * (x - nodes[0])
    if x >= nodes[-1]:
        return values[-1] + u.slope_right * (x - nodes[-1])
    for a, b, va, vb in zip(nodes, nodes[1:], values, values[1:]):
        if a <= x <= b:
            return va + (vb - va) * (x - a) / (b - a)
    raise AssertionError("unreachable")


def biconjugate_by_minimax(nodes, values, s_lo, s_hi, query):
    """sup over s in [s_lo, s_hi] of (s*query - max_i(s*x_i - f_i)).

    The inner max is the conjugate of the node data; the outer objective is
    concave piecewise linear in s, so the sup is attained at an endpoint or
    where two inner lines cross, and those crossings are exactly the chord
    slopes of the data.  Enumerating all of them makes this exact.
    """
    s_lo, s_hi, query = rat(s_lo), rat(s_hi), rat(query)
    candidates = {s_lo, s_hi}
    for (xi, fi), (xj, fj) in itertools.combinations(zip(nodes, values), 2):
        if xi != xj:
            s = (fi - fj) / (xi - xj)
            if s_lo <= s <= s_hi:
                candidates.add(s)
    best = None
    for s in candidates:
        value = s * query - max(s * x - f for x, f in zip(nodes, values))
        if best is None or value > best:
            best = value
    return best


def envelope_by_minimax(potentials, s_lo, s_hi):
    """Node values of the biconjugate of min(potentials) on [s_lo, s_hi].

    The conjugate of a pointwise min is the max of conjugates, finite only
    where every conjugate is finite; on each segment the min of affine
    pieces is concave, so its conjugate only sees node values, which is
    what makes the minimax formula above applicable.
    """
    grid = potentials[0].grid
    mins = tuple(min(u.values[i] for u in potentials) for i in range(len(grid.nodes)))
    return tuple(
        biconjugate_by_minimax(grid.nodes, mins, s_lo, s_hi, x) for x in grid.nodes
    )


def rooftop_by_minimax(*potentials):
    """Independent rooftop: envelope of the min on the dual intersection."""
    s_lo = max(u.slope_left for u in potentials)
    s_hi = min(u.slope_right for u in potentials)
    if s_lo > s_hi:
        return None
    return envelope_by_minimax(potentials, s_lo, s_hi)


def project_by_minimax(psi, u):
    """Independent model projection: u's data on Q intersected with Q(u)."""
    s_lo = max(u.slope_left, psi.Q[0])
    s_hi = min(u.slope_right, psi.Q[1])
    if s_lo > s_hi:
        return None
    return tuple(
        biconjugate_by_minimax(u.grid.nodes, u.values, s_lo, s_hi, x)
        for x in u.grid.nodes
    )


def envelope_values_by_minimax(nodes, values, s_lo, s_hi):
    """Node values of biconjugate_by_minimax at every node, in one sweep.

    The same candidate slopes and the same exact maximum, but each
    candidate's conjugate is computed once instead of once per query, so
    the sweep stays affordable on 65-node grids.  The same route as
    ``envelope_values_by_minimax_fractions``, on ints: with D the common
    denominator of the nodes and values, X = D x and F = D f, a slope is a
    reduced pair (n, d) with d > 0, its conjugate is C / (d D) with C the
    max of n X - d F, and the candidates' (n X - C) / d are compared by
    cross-multiplying.
    """
    nodes, values = [rat(x) for x in nodes], [rat(f) for f in values]
    scale = math.lcm(*(q.denominator for q in nodes + values))
    xs = [int(x * scale) for x in nodes]
    fs = [int(f * scale) for f in values]
    (n_lo, d_lo), (n_hi, d_hi) = ((q.numerator, q.denominator) for q in (rat(s_lo), rat(s_hi)))
    candidates = {(n_lo, d_lo), (n_hi, d_hi)}
    for (xi, fi), (xj, fj) in itertools.combinations(zip(xs, fs), 2):
        n, d = (fi - fj, xi - xj) if xi > xj else (fj - fi, xj - xi)
        g = math.gcd(n, d)
        n, d = n // g, d // g
        if n_lo * d <= n * d_lo and n * d_hi <= n_hi * d:
            candidates.add((n, d))
    conj = [(n, d, max(n * x - d * f for x, f in zip(xs, fs))) for n, d in candidates]
    out = []
    for x in xs:
        best, best_d = None, 1
        for n, d, c in conj:
            v = n * x - c
            if best is None or v * best_d > best * d:
                best, best_d = v, d
        out.append(rat(best, best_d * scale))
    return tuple(out)


def envelope_values_by_minimax_fractions(nodes, values, s_lo, s_hi):
    """envelope_values_by_minimax with every slope and conjugate a rational."""
    s_lo, s_hi = rat(s_lo), rat(s_hi)
    candidates = {s_lo, s_hi}
    for (xi, fi), (xj, fj) in itertools.combinations(zip(nodes, values), 2):
        s = (fi - fj) / (xi - xj)
        if s_lo <= s <= s_hi:
            candidates.add(s)
    conj = [(s, max(s * x - f for x, f in zip(nodes, values))) for s in candidates]
    return tuple(max(s * x - c for s, c in conj) for x in nodes)


def dual_value(points, p):
    """Evaluate dual breakpoint data at p by a linear scan over its segments."""
    p = rat(p)
    if points[0][0] == p:
        return points[0][1]
    for (p0, w0), (p1, w1) in zip(points, points[1:]):
        if p0 <= p <= p1:
            return w0 + (w1 - w0) * (p - p0) / (p1 - p0)
    raise AssertionError("dual evaluated outside its domain")


def biconjugate_by_enumeration(dual, grid):
    """Node values of sup_p (x p - dual(p)): a max over every breakpoint."""
    return tuple(max(x * p - w for p, w in dual.points) for x in grid.nodes)


def restrict_by_sampling(dual, lo, hi):
    """Breakpoints of dual on [lo, hi]: both ends plus every interior breakpoint."""
    lo, hi = rat(lo), rat(hi)
    ps = sorted({lo, hi} | {p for p, _ in dual.points if lo < p < hi})
    return tuple((p, dual_value(dual.points, p)) for p in ps)


def max_dual_by_sampling(d1, d2):
    """{p: max(d1(p), d2(p))} at every abscissa where max(d1, d2) may kink.

    Those are the breakpoints of either dual and every point where a
    segment of one crosses a segment of the other, found by intersecting
    all segment pairs.  Two PL functions whose kinks lie in this set and
    which agree on it agree on the whole common domain.
    """
    a, b = d1.points, d2.points
    ps = {p for p, _ in a} | {p for p, _ in b}
    for (p0, v0), (p1, v1) in zip(a, a[1:]):
        for (q0, w0), (q1, w1) in zip(b, b[1:]):
            sa, sb = (v1 - v0) / (p1 - p0), (w1 - w0) / (q1 - q0)
            if sa == sb:
                continue
            # v0 + sa (t - p0) == w0 + sb (t - q0)
            t = (w0 - v0 + sa * p0 - sb * q0) / (sa - sb)
            if max(p0, q0) <= t <= min(p1, q1):
                ps.add(t)
    return {p: max(dual_value(a, p), dual_value(b, p)) for p in ps}


TINY = rat(1, 10**6)


def slope_jump_by_sampling(u, x):
    """Derivative jump of u at x from two-sided finite differences."""
    x = rat(x)
    right = (ray_value(u, x + TINY) - ray_value(u, x)) / TINY
    left = (ray_value(u, x) - ray_value(u, x - TINY)) / TINY
    return right - left


def ma_atoms_by_sampling(u):
    """Monge-Ampere atoms recomputed from derivative jumps at the nodes."""
    return tuple(slope_jump_by_sampling(u, x) for x in u.grid.nodes)


def ma_pairing_by_sampling(f, g, nodes):
    """integral f dMA(g) for a function f of a point, as a sum over nodes.

    MA(g) is atomic, carrying g's derivative jump at each kink, so the sum
    of f(x) times the sampled jump over nodes that hold g's kinks is exact.
    """
    return sum(f(x) * slope_jump_by_sampling(g, x) for x in nodes)


def union_nodes(u, v):
    return sorted(set(u.grid.nodes) | set(v.grid.nodes))


def rho_by_sampling(hi, lo):
    """integral (hi - lo) dMA(lo) for hi >= lo, summed on the union of both grids' nodes."""

    def gap(x):
        return ray_value(hi, x) - ray_value(lo, x)

    return ma_pairing_by_sampling(gap, lo, union_nodes(hi, lo))


def abs_diff_pairing_by_sampling(u, v):
    """integral |u - v| d(MA(u) + MA(v)), summed on the union of both grids' nodes."""

    def gap(x):
        return abs(ray_value(u, x) - ray_value(v, x))

    nodes = union_nodes(u, v)
    return ma_pairing_by_sampling(gap, u, nodes) + ma_pairing_by_sampling(gap, v, nodes)


def gh_by_enumeration(x, y):
    """Exact GH distance by exhausting all map pairs f: X->Y, g: Y->X.

    Every correspondence contains the graph relation of some (f, g) pair
    and enlarging a correspondence cannot shrink distortion, so the min
    over pairs equals the min over correspondences.  The same loop as
    ``gh_by_enumeration_fractions``, on ints: with dx and dy the common
    denominators of the two matrices' rationals, a table holds
    |d_X * dx * dy - d_Y * dx * dy| for every pair of pairs, and the
    result is one rational.
    """
    nx, ny = x.size, y.size
    dx = math.lcm(*(v.denominator for row in x.matrix for v in row))
    dy = math.lcm(*(v.denominator for row in y.matrix for v in row))
    a = [[int(v * dx) * dy for v in row] for row in x.matrix]
    b = [[int(v * dy) * dx for v in row] for row in y.matrix]
    # pair (i, j) is the index i * ny + j
    gaps = [
        [abs(a[i1][i2] - b[j1][j2]) for i2 in range(nx) for j2 in range(ny)]
        for i1 in range(nx)
        for j1 in range(ny)
    ]
    best = None
    for f in itertools.product(range(ny), repeat=nx):
        for g in itertools.product(range(nx), repeat=ny):
            pairs = {i * ny + f[i] for i in range(nx)} | {g[j] * ny + j for j in range(ny)}
            dis = max(gaps[p][q] for p in pairs for q in pairs)
            if best is None or dis < best:
                best = dis
    return rat(best, 2 * dx * dy)


def gh_by_enumeration_fractions(x, y):
    """gh_by_enumeration with every distortion a rational."""
    nx, ny = x.size, y.size
    best = None
    for f in itertools.product(range(ny), repeat=nx):
        for g in itertools.product(range(nx), repeat=ny):
            pairs = {(i, f[i]) for i in range(nx)} | {(g[j], j) for j in range(ny)}
            dis = max(
                abs(x.d(i1, i2) - y.d(j1, j2))
                for (i1, j1) in pairs
                for (i2, j2) in pairs
            )
            if best is None or dis < best:
                best = dis
    return best / 2


def energy_by_path_integration(ctx, u, pieces=8):
    """Energy recomputed as the exact path integral of the mass pairing.

    The derivative of the energy along the straight path from the envelope
    to u is the pairing of (u - envelope) with the path point's mass.  The
    oracle integrates that derivative by exact trapezoids on a refinement,
    at two different refinements; agreement between refinements proves the
    integrand is affine piecewise, so the value is the exact integral.
    """
    from femlab import affine_combine, monge_ampere

    psi = ctx.potential
    diffs = tuple(a - b for a, b in zip(u.values, psi.values))

    def pairing_at(t):
        mu = monge_ampere(affine_combine(t, psi, u))
        return sum((d * m for d, m in zip(diffs, mu.masses)), rat(0))

    def trapezoid(n):
        total = rat(0)
        for k in range(n):
            a, b = rat(k, n), rat(k + 1, n)
            total += (pairing_at(a) + pairing_at(b)) / (2 * n)
        return total

    coarse, fine = trapezoid(pieces), trapezoid(2 * pieces)
    assert coarse == fine, "path pairing is not piecewise affine"
    return fine


def shortest_path_by_floyd_warshall(matrix):
    """Cheapest path from point 0 to the last point over a complete weighted graph.

    matrix[i][j] is the weight of the edge i -> j; every pair of points is
    relaxed through every intermediate point, so the value is exact.
    """
    d = [list(row) for row in matrix]
    n = len(d)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                through = d[i][k] + d[k][j]
                if through < d[i][j]:
                    d[i][j] = through
    return d[0][-1]


def chain_by_fraction_dijkstra(matrix):
    """(value, path) of the cheapest path from point 0 to the last, on rationals.

    Dijkstra's dense form as the chain search ran before it moved to ints:
    tentative values are rationals, and each round settles the unsettled
    point with the least (value, position), so among equal-cost paths the
    lower position settles first.
    """
    m = [[rat(v) for v in row] for row in matrix]
    target = len(m) - 1
    best = [rat(0)] + m[0][1:]
    prev = [0] * len(m)
    unsettled = list(range(1, len(m)))
    while True:
        i = min(unsettled, key=lambda k: (best[k], k))
        if i == target:
            break
        unsettled.remove(i)
        for j in unsettled:
            nd = best[i] + m[i][j]
            if nd < best[j]:
                best[j], prev[j] = nd, i
    path = [target]
    while path[-1] != 0:
        path.append(prev[path[-1]])
    return best[target], tuple(reversed(path))


def first_triangle_failure(matrix):
    """The first (i, j, k) in index order with d(i, j) > d(i, k) + d(k, j), or None.

    Every triple is checked on rationals, symmetric or not, as the
    definition reads.
    """
    m = [[rat(v) for v in row] for row in matrix]
    for i, j, k in itertools.product(range(len(m)), repeat=3):
        if m[i][j] > m[i][k] + m[k][j]:
            return (i, j, k)
    return None


def nested_distortions_by_recomputation(family, candidates, caps, tolerance):
    """(rows, report) of the nested distortion table, every cap on its own.

    Each cap filters the candidates afresh, projects the kept members with
    project_family, builds every space with space_from_potentials, and
    takes the identity correspondence's distortion on rationals.
    """
    from femlab import Report, entropy_cap_filter, project_family, space_from_potentials

    reference = family.reference
    rows, finals, monotone = [], [], True
    for cap in caps:
        kept = entropy_cap_filter([reference, *candidates], cap, cap, reference)
        limit = space_from_potentials(family.limit, project_family(family.limit, kept))
        n, values = len(kept), []
        for k, env in enumerate(family.levels):
            level = space_from_potentials(env, project_family(env, kept))
            values.append(max(abs(level.d(i, j) - limit.d(i, j)) for i in range(n) for j in range(n)))
            rows.append({"cap": cap, "level": k, "distortion": values[-1], "members": n})
        monotone = monotone and all(a >= b for a, b in zip(values, values[1:]))
        finals.append(values[-1])
    report = Report(
        name="nested_family_distortions",
        passed=monotone and all(v <= Fraction(tolerance) for v in finals),
        lhs=max(finals),
        rhs=rat(0),
        witnesses={"monotone": monotone, "finals": finals, "tolerance": tolerance, "rows": len(rows)},
    )
    return rows, report


def reference_by_fractions(grid):
    """nondegenerate_reference by rational arithmetic on the public fields."""
    a, b = grid.polytope
    x0, xm = grid.nodes[0], grid.nodes[-1]
    values = [rat(0)]
    for lo, hi in zip(grid.nodes, grid.nodes[1:]):
        s = a + (b - a) * (lo + hi - 2 * x0) / (2 * (xm - x0))
        values.append(values[-1] + s * (hi - lo))
    return make_pl(grid, values, a, b)


def sector_potential_by_fractions(rng, grid, interval):
    """random_sector_potential by rational arithmetic, with the same draws.

    Sorted chord slopes lo + span * k/8 and a base height in eighths of
    [-2, 2], integrated node by node.
    """
    lo, hi = rat(interval[0]), rat(interval[1])
    span = hi - lo
    ks = sorted(rng.randint(0, 8) for _ in range(len(grid.nodes) - 1))
    chords = [lo + span * rat(k, 8) for k in ks]
    values = [rat(rng.randint(-16, 16), 8)]
    for s, x0, x1 in zip(chords, grid.nodes, grid.nodes[1:]):
        values.append(values[-1] + s * (x1 - x0))
    return make_pl(grid, values, lo, hi)


def subinterval_by_fractions(rng, polytope):
    """random_subinterval by rational arithmetic, with the same draws."""
    lo, hi = rat(polytope[0]), rat(polytope[1])
    span = hi - lo
    while True:
        a, b = sorted(rng.randint(0, 8) for _ in range(2))
        if a < b:
            return (lo + span * rat(a, 8), lo + span * rat(b, 8))
