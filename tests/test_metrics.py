import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from trafficpaths import currents, metrics
from trafficpaths.currents import AtomicMeasure

from conftest import counting_milp


def seg(ax, ay, bx, by, th):
    return (np.array([ax, ay], dtype=float), np.array([bx, by], dtype=float), th)


# ---------------------------------------------------------------------------
# flat norm of atomic measures


def test_flat0_zero_measure():
    assert metrics.flat_norm_0(AtomicMeasure.from_atoms([], dim=2)) == 0.0


def test_flat0_two_atoms_move_or_destroy():
    # dipole at distance d costs min(d, 2) per unit mass
    for d, expect in ((0.5, 0.5), (1.0, 1.0), (3.0, 2.0), (10.0, 2.0)):
        mu = AtomicMeasure.from_atoms([((0.0, 0.0), 1.0), ((d, 0.0), -1.0)])
        assert metrics.flat_norm_0(mu) == pytest.approx(expect, abs=1e-9)


def test_flat0_unbalanced_pays_destruction():
    mu = AtomicMeasure.from_atoms([((0.0, 0.0), 2.0), ((0.1, 0.0), -1.0)])
    # move one unit 0.1, destroy the surplus unit
    assert metrics.flat_norm_0(mu) == pytest.approx(1.1, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_flat0_triangle_inequality_and_symmetry(seed):
    rng = np.random.default_rng(seed)
    def rand_measure():
        k = int(rng.integers(1, 5))
        return AtomicMeasure.from_atoms(
            [(rng.uniform(-2, 2, size=2), float(rng.uniform(-1, 1)))
             for _ in range(k)], dim=2)
    a, b, c = rand_measure(), rand_measure(), rand_measure()
    dab = metrics.flat_norm_0(a - b)
    dba = metrics.flat_norm_0(b - a)
    assert dab == pytest.approx(dba, abs=1e-8)
    dac = metrics.flat_norm_0(a - c)
    dcb = metrics.flat_norm_0(c - b)
    assert dab <= dac + dcb + 1e-8


def _lp_flat_norm_0(measure: AtomicMeasure) -> float:
    """The transshipment LP on the same cost matrix: the reference for the transport solve."""
    pos, neg = measure.positive_part(), measure.negative_part()
    n, m = len(pos.masses), len(neg.masses)
    if n == 0 or m == 0:
        return pos.tv() + neg.tv()
    supply = np.concatenate([pos.masses, [neg.tv()]])
    demand = np.concatenate([neg.masses, [pos.tv()]])
    cost = np.ones((n + 1, m + 1))
    for i in range(n):
        for j in range(m):
            cost[i, j] = float(np.linalg.norm(pos.points[i] - neg.points[j]))
    cost[n, m] = 0.0
    rows, cols = [], []
    for i in range(n + 1):
        for j in range(m + 1):
            k = i * (m + 1) + j
            rows += [i, n + 1 + j]
            cols += [k, k]
    a_eq = sparse.coo_matrix((np.ones(len(rows)), (rows, cols)),
                             shape=(n + m + 2, (n + 1) * (m + 1)))
    res = linprog(cost.ravel(), A_eq=a_eq.tocsr(), b_eq=np.concatenate([supply, demand]),
                  bounds=(0, None), method="highs")
    assert res.success
    return float(res.fun)


def _random_signed_measure(rng, dim, kind):
    """1-7 atoms a side: generic, on a half-step lattice (tied distances and
    cancelling atoms), with masses in quarters, or generic at scale 1e-3."""
    n, m = (int(k) for k in rng.integers(1, 8, size=2))
    if kind == "lattice":
        pts = 0.5 * rng.integers(0, 4, size=(n + m, dim))
    else:
        pts = rng.uniform(-2.0, 2.0, size=(n + m, dim))
    masses = rng.uniform(0.05, 2.0, size=n + m)
    if kind in ("lattice", "quarters"):
        masses = np.maximum(np.round(4.0 * masses), 1.0) / 4.0
    if kind == "small":
        pts, masses = 1e-3 * pts, 1e-3 * masses
    signs = np.repeat([1.0, -1.0], [n, m])
    return AtomicMeasure.from_atoms(zip(pts, signs * masses), dim=dim)


@pytest.mark.parametrize("seed, kind", enumerate(["generic", "lattice", "quarters", "small"]))
def test_flat0_transport_matches_lp_reference(seed, kind):
    rng = np.random.default_rng(seed)
    for trial in range(500):
        mu = _random_signed_measure(rng, 2 + trial % 2, kind)
        got, ref = metrics.flat_norm_0(mu), _lp_flat_norm_0(mu)
        assert abs(got - ref) <= 1e-12 * ref, (kind, trial, got, ref)


def test_flat0_undoes_a_greedy_first_path():
    # sources a = (0, 0), b = (0, 0.2); sinks c = (-0.2, -0.3), d = (0.2, -0.1).
    # After the free dummy-dummy path, the shortest path is a -> d (sqrt .05).
    # The optimum pairs a - c and b - d (2 sqrt .13), so b's path must run
    # b -> d -> a -> c, backwards over a -> d: it beats b -> c (sqrt .29) only
    # with the potentials, since a backward arc clipped at 0 would lose sqrt .05
    mu = AtomicMeasure.from_atoms([((0.0, 0.0), 1.0), ((0.0, 0.2), 1.0),
                                   ((-0.2, -0.3), -1.0), ((0.2, -0.1), -1.0)])
    assert metrics.flat_norm_0(mu) == pytest.approx(2.0 * np.sqrt(0.13), rel=1e-12)
    assert metrics.flat_norm_0(mu) == pytest.approx(_lp_flat_norm_0(mu), rel=1e-12)


def test_weak_star_gap_matches_flat0():
    a = AtomicMeasure.from_atoms([((0.0, 0.0), 1.0)])
    b = AtomicMeasure.from_atoms([((0.25, 0.0), 1.0)])
    assert metrics.weak_star_gap(a, b) == pytest.approx(0.25, abs=1e-9)


# ---------------------------------------------------------------------------
# straight-line homotopy bound


def _loop_homotopy_bound(pos, pos_n, edges, flows, flows_n):
    """homotopy_flat_bound term by term, with triangle areas by Lagrange's identity."""
    def area(x, y, z):
        u, w = y - x, z - x
        return 0.5 * np.sqrt(max(0.0, (u @ u) * (w @ w) - (u @ w) ** 2))

    total = 0.0
    inflow = [0.0] * len(pos)
    for (a, b), f, fn in zip(edges.tolist(), flows.tolist(), flows_n.tolist()):
        total += abs(fn) * (area(pos[a], pos[b], pos_n[b]) + area(pos[a], pos_n[b], pos_n[a]))
        total += abs(fn - f) * np.linalg.norm(pos[b] - pos[a])
        inflow[b] += fn
        inflow[a] -= fn
    return total + sum(abs(m) * np.linalg.norm(pos_n[v] - pos[v]) for v, m in enumerate(inflow))


@pytest.mark.parametrize("dim", [2, 3])
def test_homotopy_flat_bound_matches_a_loop_over_edges(dim):
    rng = np.random.default_rng(dim)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        edges = np.array([(int(rng.integers(0, v)), v)[::int(rng.choice([-1, 1]))]
                          for v in range(1, n)])
        pos = rng.normal(size=(n, dim))
        pos_n = pos + 0.2 * rng.normal(size=(n, dim))
        flows, flows_n = rng.normal(size=n - 1), rng.normal(size=n - 1)
        got = metrics.homotopy_flat_bound(pos, pos_n, edges, flows, flows_n)
        assert got == pytest.approx(_loop_homotopy_bound(pos, pos_n, edges, flows, flows_n),
                                    rel=1e-9)
        assert metrics.homotopy_flat_bound(pos, pos, edges, flows, flows) == 0.0


# ---------------------------------------------------------------------------
# grid complex and rasterization


def test_grid_snap_and_contains():
    g = metrics.GridComplex.from_box(-1.0, -1.0, 1.0, 1.0, 0.5)
    assert g.contains([0.3, -0.7])
    assert not g.contains([1.4, 0.0])
    i, j = g.snap([0.26, -0.26])
    p = g.vertex_point(i, j)
    assert np.linalg.norm(p - [0.26, -0.26]) <= 0.5 / np.sqrt(2.0) + 1e-12


def _edge_boundary_matrix(g: metrics.GridComplex) -> sparse.csr_matrix:
    """Vertex x edge incidence (head +1, tail -1): the grid chain's boundary map."""
    nvert = (g.nx + 1) * (g.ny + 1)

    def vid(i, j):
        return j * (g.nx + 1) + i

    rows, cols, vals = [], [], []
    for j in range(g.ny + 1):
        for i in range(g.nx):
            e = g.hedge(i, j)
            rows.extend([vid(i + 1, j), vid(i, j)])
            cols.extend([e, e])
            vals.extend([1.0, -1.0])
    for j in range(g.ny):
        for i in range(g.nx + 1):
            e = g.vedge(i, j)
            rows.extend([vid(i, j + 1), vid(i, j)])
            cols.extend([e, e])
            vals.extend([1.0, -1.0])
    return sparse.coo_matrix((vals, (rows, cols)), shape=(nvert, g.n_edges)).tocsr()


def test_rasterize_preserves_boundary_on_grid_points():
    g = metrics.GridComplex.from_box(0.0, 0.0, 2.0, 2.0, 0.25)
    t = currents.from_segments([seg(0.25, 0.25, 1.75, 1.25, 1.0)])
    chain, err = metrics.rasterize(g, t)
    bnd = _edge_boundary_matrix(g) @ chain
    nz = {}
    for k, v in enumerate(bnd):
        if abs(v) > 1e-12:
            i, j = k % (g.nx + 1), k // (g.nx + 1)
            nz[tuple(g.vertex_point(i, j))] = v
    assert nz == {(0.25, 0.25): pytest.approx(-1.0), (1.75, 1.25): pytest.approx(1.0)}
    assert err > 0.0


def test_boundary_of_boundary_vanishes():
    g = metrics.GridComplex.from_box(0.0, 0.0, 1.0, 1.0, 0.25)
    dd = _edge_boundary_matrix(g) @ g.boundary_matrix()
    assert abs(dd).max() == 0.0


def _loop_boundary_matrix(g: metrics.GridComplex) -> sparse.csr_matrix:
    """The face-by-face reference build of ``GridComplex.boundary_matrix``."""
    rows, cols, vals = [], [], []
    for j in range(g.ny):
        for i in range(g.nx):
            f = j * g.nx + i
            rows.extend([g.hedge(i, j), g.vedge(i + 1, j), g.hedge(i, j + 1), g.vedge(i, j)])
            cols.extend([f, f, f, f])
            vals.extend([1.0, 1.0, -1.0, -1.0])
    return sparse.coo_matrix((vals, (rows, cols)), shape=(g.n_edges, g.n_faces)).tocsr()


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 6), (5, 1), (7, 4), (40, 33)])
def test_boundary_matrix_matches_face_loop(nx, ny):
    g = metrics.GridComplex(-1.0, 0.5, nx, ny, 0.25)
    got, ref = g.boundary_matrix(), _loop_boundary_matrix(g)
    for field in ("data", "indices", "indptr"):
        a, b = getattr(got, field), getattr(ref, field)
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_rasterize_rejects_out_of_box():
    g = metrics.GridComplex.from_box(0.0, 0.0, 1.0, 1.0, 0.25)
    t = currents.from_segments([seg(0.5, 0.5, 3.0, 0.5, 1.0)])
    with pytest.raises(ValueError, match="exits grid box"):
        metrics.rasterize(g, t)


def test_flat_distance_identical_paths_is_zero():
    g = metrics.GridComplex.from_box(-1.0, -1.0, 3.0, 3.0, 0.25)
    t = currents.from_segments([seg(0, 0, 2, 1, 1.0)])
    value, err = metrics.flat_distance_1(t, t, g)
    assert value == pytest.approx(0.0, abs=1e-9)


def test_flat_distance_parallel_segments_area():
    # two parallel unit segments distance delta apart, joined into a cycle by
    # their end posts: the flat distance to the empty path is the enclosed
    # area delta, witnessed on a grid of step delta/10
    delta = 0.4
    h = delta / 10.0
    loop = currents.from_segments([
        seg(0, 0, 1, 0, 1.0), seg(1, 0, 1, delta, 1.0),
        seg(1, delta, 0, delta, 1.0), seg(0, delta, 0, 0, 1.0)])
    g = metrics.GridComplex.from_box(-0.2, -0.2, 1.2, delta + 0.2, h)
    value, err = metrics.flat_distance_1(loop, currents.empty_path(2), g)
    assert value == pytest.approx(delta * 1.0, rel=0.05)


def test_flat_distance_separates_distinct_paths():
    g = metrics.GridComplex.from_box(-1.0, -1.0, 2.0, 2.0, 0.1)
    t1 = currents.from_segments([seg(0, 0, 1, 0, 1.0)])
    t2 = currents.from_segments([seg(0, 1, 1, 1, 1.0)])
    value, err = metrics.flat_distance_1(t1, t2, g)
    # parallel unit segments one apart: filling the square costs area 1 plus
    # two unit verticals, so destroying both (mass 2) is the minimum
    assert value == pytest.approx(2.0, rel=1e-6)
    assert err >= 0.0


# ---------------------------------------------------------------------------
# flat LP on the support's bounding box


def _full_grid_flat_chain_norm(grid, t_chain):
    """The filling LP on every cell of the grid: the reference for the box LP."""
    ne, nf = grid.n_edges, grid.n_faces
    B = grid.boundary_matrix()
    c = np.concatenate([np.full(ne, grid.h), np.full(ne, grid.h),
                        np.full(nf, grid.h ** 2), np.full(nf, grid.h ** 2)])
    eye = sparse.identity(ne, format="csr")
    a_eq = sparse.hstack([eye, -eye, B, -B], format="csr")
    res = linprog(c, A_eq=a_eq, b_eq=t_chain, bounds=[(0, None)] * (2 * ne + 2 * nf),
                  method="highs")
    assert res.success
    return float(res.fun)


def _random_box_chain(rng, grid, i0, i1, j0, j1):
    """Random sparse chain on the edges of the vertex box [i0, i1] x [j0, j1]."""
    chain = np.zeros(grid.n_edges)
    edges = [grid.hedge(i, j) for j in range(j0, j1 + 1) for i in range(i0, i1)]
    edges += [grid.vedge(i, j) for j in range(j0, j1) for i in range(i0, i1 + 1)]
    picked = rng.choice(edges, size=max(1, len(edges) // 3), replace=False)
    chain[picked] = rng.uniform(-2.0, 2.0, size=picked.size)
    return chain


def _assert_box_lp_matches(grid, chain):
    ref = _full_grid_flat_chain_norm(grid, chain)
    assert metrics.flat_chain_norm(grid, chain) == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_flat_chain_norm_zero_chain():
    g = metrics.GridComplex.from_box(0.0, 0.0, 1.0, 1.0, 0.25)
    assert metrics.flat_chain_norm(g, np.zeros(g.n_edges)) == 0.0


def _box_chains(seed):
    """A random grid and one random chain on each of its test boxes."""
    rng = np.random.default_rng(seed)
    g = metrics.GridComplex(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)),
                            int(rng.integers(3, 8)), int(rng.integers(3, 8)),
                            float(rng.uniform(0.1, 0.6)))
    nx, ny = g.nx, g.ny
    boxes = [
        (0, nx, 0, ny),                    # the whole grid
        (0, 2, 1, ny - 1),                 # touches the left side
        (nx - 2, nx, 1, 2),                # touches the right side
        (1, nx - 1, 0, 1),                 # touches the bottom
        (1, 3, ny - 2, ny),                # touches the top
        (1, nx - 1, 2, 2), (0, nx, ny, ny),    # single rows, inner and top
        (2, 2, 0, ny - 1), (nx, nx, 1, ny),    # single columns, inner and right
        (0, 0, 0, 1), (nx, nx, ny - 1, ny),    # one vertical edge in a corner
    ]
    return g, [_random_box_chain(rng, g, *box) for box in boxes]


@pytest.mark.parametrize("seed", range(6))
def test_flat_chain_norm_box_matches_full_grid(seed):
    g, chains = _box_chains(seed)
    for chain in chains:
        _assert_box_lp_matches(g, chain)


@pytest.mark.parametrize("seed", range(6))
def test_flat_chain_norm_equals_linprog_of_its_box_lp(seed, monkeypatch):
    # one dual LP call per chain gives the primal LP on the chain's box (by
    # linprog) to rel 1e-12
    g, chains = _box_chains(seed)
    calls = counting_milp(monkeypatch)
    for k, chain in enumerate(chains):
        value = metrics.flat_chain_norm(g, chain)
        assert len(calls) == k + 1
        box, box_chain = metrics._chain_box(g, chain)
        ref = _full_grid_flat_chain_norm(box, box_chain)
        assert value == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_flat_chain_norms_put_zero_chains_at_exactly_zero(monkeypatch):
    # a zero chain, a negated zero included, is 0.0 with no LP; any other is > 0
    g, chains = _box_chains(0)
    calls = counting_milp(monkeypatch)
    assert metrics.flat_chain_norm(g, np.zeros(g.n_edges)) == 0.0
    assert metrics.flat_chain_norm(g, -0.0 * chains[2]) == 0.0
    assert calls == []
    assert all(metrics.flat_chain_norm(g, chain) > 0.0 for chain in chains[:4])


def test_flat_chain_norms_pick_the_primal_simplex_without_a_warning(monkeypatch):
    # the simplex_strategy option goes to HiGHS through milp, which warns about
    # it; that warning stays inside flat_chain_norm
    g, chains = _box_chains(1)
    calls = counting_milp(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for chain in chains:
            metrics.flat_chain_norm(g, chain)
    assert all(kwargs["options"] == {"simplex_strategy": metrics.HIGHS_PRIMAL_SIMPLEX}
               for _, kwargs in calls)


def test_flat_chain_norms_of_zero_chains_make_no_lp(monkeypatch):
    g = metrics.GridComplex.from_box(0.0, 0.0, 1.0, 1.0, 0.25)
    calls = counting_milp(monkeypatch)
    assert [metrics.flat_chain_norm(g, np.zeros(g.n_edges)) for _ in range(3)] == [0.0] * 3
    assert calls == []


def test_flat_chain_norm_box_matches_full_grid_on_cancelling_difference():
    # two nearby paths with the same ends: their chains cancel on shared edges
    g = metrics.GridComplex.from_box(-1.0, -1.0, 3.0, 3.0, 0.125)
    t1 = currents.from_segments([seg(0, 0, 1, 0.5, 1.0), seg(1, 0.5, 2, 0, 1.0)])
    t2 = currents.from_segments([seg(0, 0, 1, 0.25, 1.0), seg(1, 0.25, 2, 0, 1.0)])
    c1, _ = metrics.rasterize(g, t1)
    c2, _ = metrics.rasterize(g, t2)
    diff = c1 - c2
    assert np.count_nonzero(diff) < np.count_nonzero(c1) + np.count_nonzero(c2)
    _assert_box_lp_matches(g, diff)
