"""Slow independent oracles the fast library code is checked against.

Each oracle recomputes a quantity from first principles by a different
route than the library (pointwise enumeration, minimax over candidate
slopes, exhaustive search), so agreement is evidence rather than
tautology.
"""

from __future__ import annotations

import itertools

from femlab import rat


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
    the sweep stays affordable on 65-node grids.
    """
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


def gh_by_enumeration(x, y):
    """Exact GH distance by exhausting all map pairs f: X->Y, g: Y->X.

    Every correspondence contains the graph relation of some (f, g) pair
    and enlarging a correspondence cannot shrink distortion, so the min
    over pairs equals the min over correspondences.
    """
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
        passed=monotone and all(float(v) < tolerance for v in finals),
        lhs=max(finals),
        rhs=rat(0),
        witnesses={"monotone": monotone, "finals": finals, "tolerance": tolerance, "rows": len(rows)},
    )
    return rows, report
