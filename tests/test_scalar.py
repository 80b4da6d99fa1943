import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from vecot import lp
from vecot.measures import FiniteSpace, ScalarMeasure, TransportPlan
from vecot.scalar import (
    InfeasibleTransport,
    glue_feasible,
    local_constraint_feasible,
    solve_capacity,
    solve_capacity_min,
    solve_invariant,
    solve_multimarginal,
    solve_ot,
    solve_partial,
    strassen_feasible,
)


def space(n, prefix="p"):
    return FiniteSpace([f"{prefix}{i}" for i in range(n)])


def uniform(sp):
    return ScalarMeasure(sp, np.full(sp.size, 1.0 / sp.size))


def check_plain_duality(res, mu, nu, c, tol=1e-9):
    gap = res.value - (res.psi @ mu.weights + res.phi @ nu.weights)
    assert abs(gap) <= 1e-7 * (1 + abs(res.value))
    assert np.max(res.psi[:, None] + res.phi[None, :] - c) <= tol
    np.testing.assert_allclose(res.plan.x_marginal().weights, mu.weights, atol=1e-9)
    np.testing.assert_allclose(res.plan.y_marginal().weights, nu.weights, atol=1e-9)


def test_identity_cost_zero_value():
    sp = space(4)
    mu = ScalarMeasure(sp, [0.1, 0.2, 0.3, 0.4])
    c = np.ones((4, 4)) - np.eye(4)
    res = solve_ot(mu, mu, c)
    assert abs(res.value) <= 1e-12
    np.testing.assert_allclose(np.diag(res.plan.matrix), mu.weights, atol=1e-9)
    check_plain_duality(res, mu, mu, c)


def test_forced_two_point_plan():
    sx, sy = space(2, "x"), space(2, "y")
    mu = ScalarMeasure(sx, [1.0, 0.0])
    nu = ScalarMeasure(sy, [0.0, 1.0])
    c = np.array([[5.0, 2.5], [1.0, 0.0]])
    res = solve_ot(mu, nu, c)
    assert abs(res.value - 2.5) < 1e-9
    assert abs(res.plan.matrix[0, 1] - 1.0) < 1e-9
    check_plain_duality(res, mu, nu, c)


def test_uniform_marginals_match_best_permutation():
    rng = np.random.default_rng(42)
    n = 6
    c = rng.uniform(0, 5, size=(n, n))
    sp = space(n)
    mu = uniform(sp)
    res = solve_ot(mu, mu, c)
    best = min(
        sum(c[i, p[i]] for i in range(n)) / n for p in itertools.permutations(range(n))
    )
    assert abs(res.value - best) <= 1e-8
    check_plain_duality(res, mu, mu, c)


def test_mass_mismatch_certificate():
    sx, sy = space(2, "x"), space(2, "y")
    mu = ScalarMeasure(sx, [1.0, 0.5])
    nu = ScalarMeasure(sy, [0.4, 0.4])
    with pytest.raises(InfeasibleTransport) as exc:
        solve_ot(mu, nu, np.zeros((2, 2)))
    cert = exc.value.cert
    assert np.min(cert["psi"][:, None] + cert["phi"][None, :]) >= -1e-12
    assert cert["psi"] @ mu.weights + cert["phi"] @ nu.weights < -1e-9


def test_shift_invariance():
    rng = np.random.default_rng(3)
    sp = space(5)
    mu = ScalarMeasure(sp, rng.uniform(0.1, 1, 5))
    nu = ScalarMeasure(sp, rng.uniform(0.1, 1, 5))
    nu = ScalarMeasure(sp, nu.weights * mu.total() / nu.total())
    c = rng.uniform(0, 3, (5, 5))
    a, b = rng.normal(size=5), rng.normal(size=5)
    base = solve_ot(mu, nu, c)
    shifted = solve_ot(mu, nu, c + a[:, None] + b[None, :])
    expect = base.value + a @ mu.weights + b @ nu.weights
    assert abs(shifted.value - expect) <= 1e-8


def test_zero_mass_atoms_dropped_and_reinserted():
    sx, sy = space(3, "x"), space(3, "y")
    mu = ScalarMeasure(sx, [0.5, 0.0, 0.5])
    nu = ScalarMeasure(sy, [0.0, 1.0, 0.0])
    c = np.arange(9, dtype=float).reshape(3, 3)
    res = solve_ot(mu, nu, c)
    assert res.plan.matrix[1].sum() == 0.0
    assert res.plan.matrix[:, 0].sum() == 0.0
    assert abs(res.value - (0.5 * c[0, 1] + 0.5 * c[2, 1])) < 1e-9
    check_plain_duality(res, mu, nu, c)


def test_partial_zero_mass():
    sp = space(3)
    mu, nu = uniform(sp), uniform(sp)
    res = solve_partial(mu, nu, np.ones((3, 3)), 0.0)
    assert res.value == 0.0
    assert res.plan.mass() == 0.0


def test_partial_full_mass_equals_plain():
    rng = np.random.default_rng(8)
    sp = space(4)
    mu, nu = uniform(sp), uniform(sp)
    c = rng.uniform(0, 2, (4, 4))
    full = solve_partial(mu, nu, c, 1.0)
    plain = solve_ot(mu, nu, c)
    assert abs(full.value - plain.value) <= 1e-8


def test_partial_dual_structure():
    rng = np.random.default_rng(9)
    sx, sy = space(3, "x"), space(4, "y")
    mu = ScalarMeasure(sx, rng.uniform(0.2, 1, 3))
    nu = ScalarMeasure(sy, rng.uniform(0.2, 1, 4))
    c = rng.uniform(0, 2, (3, 4))
    m = 0.5 * min(mu.total(), nu.total())
    res = solve_partial(mu, nu, c, m)
    lam = res.extras["lam"]
    assert np.all(res.psi <= 1e-9)
    assert np.all(res.phi <= 1e-9)
    assert np.max(res.psi[:, None] + res.phi[None, :] + lam - c) <= 1e-9
    ident = res.psi @ mu.weights + res.phi @ nu.weights + lam * m
    assert abs(res.value - ident) <= 1e-7 * (1 + abs(res.value))
    assert abs(res.plan.mass() - m) <= 1e-9
    assert np.all(res.plan.matrix.sum(axis=1) <= mu.weights + 1e-9)
    assert np.all(res.plan.matrix.sum(axis=0) <= nu.weights + 1e-9)


def test_partial_value_monotone_convex_in_m():
    rng = np.random.default_rng(10)
    sp = space(4)
    mu, nu = uniform(sp), uniform(sp)
    c = rng.uniform(0.5, 3, (4, 4))
    ms = np.linspace(0, 1, 9)
    vals = [solve_partial(mu, nu, c, m).value for m in ms]
    diffs = np.diff(vals)
    assert np.all(diffs >= -1e-9)
    assert np.all(np.diff(diffs) >= -1e-8)


def test_capacity_forced_plan():
    sp = space(3)
    mu, nu = uniform(sp), uniform(sp)
    rng = np.random.default_rng(11)
    # any coupling works as a capacity; it is then the only admissible plan
    perm = rng.permutation(3)
    forced = np.zeros((3, 3))
    forced[np.arange(3), perm] = 1.0 / 3
    cap = TransportPlan(sp, sp, forced)
    c = rng.uniform(0, 1, (3, 3))
    res = solve_capacity(mu, nu, c, cap)
    np.testing.assert_allclose(res.plan.matrix, forced, atol=1e-9)
    assert abs(res.value - (c * forced).sum()) < 1e-9


def test_capacity_slack_equals_plain_max():
    rng = np.random.default_rng(12)
    sp = space(4)
    mu, nu = uniform(sp), uniform(sp)
    c = rng.uniform(0, 2, (4, 4))
    cap = TransportPlan(sp, sp, np.full((4, 4), 10.0))
    res = solve_capacity(mu, nu, c, cap)
    plain_max = -solve_ot(mu, nu, -c).value
    assert abs(res.value - plain_max) <= 1e-8
    ident = res.psi @ mu.weights + res.phi @ nu.weights + (res.extras["xi"] * cap.matrix).sum()
    assert abs(res.value - ident) <= 1e-7 * (1 + abs(res.value))


def test_capacity_binding_against_grid_search():
    sx, sy = space(2, "x"), space(2, "y")
    mu = ScalarMeasure(sx, [0.6, 0.4])
    nu = ScalarMeasure(sy, [0.5, 0.5])
    c = np.array([[1.0, 0.2], [0.4, 2.0]])
    capm = np.array([[0.3, 0.4], [0.4, 0.3]])
    cap = TransportPlan(sx, sy, capm)
    res = solve_capacity(mu, nu, c, cap)
    # one free parameter t = pi[0,0]; scan it
    best = -np.inf
    for t in np.linspace(0, 0.3, 20001):
        pi = np.array([[t, 0.6 - t], [0.5 - t, t - 0.1]])
        if np.all(pi >= -1e-12) and np.all(pi <= capm + 1e-12):
            best = max(best, (c * pi).sum())
    assert abs(res.value - best) <= 1e-4
    ident = res.psi @ mu.weights + res.phi @ nu.weights + (res.extras["xi"] * capm).sum()
    assert abs(res.value - ident) <= 1e-7 * (1 + abs(res.value))


def test_capacity_infeasible_kellerer_certificate():
    sx, sy = space(2, "x"), space(2, "y")
    mu = ScalarMeasure(sx, [0.7, 0.3])
    nu = ScalarMeasure(sy, [0.5, 0.5])
    capm = np.array([[0.1, 0.1], [0.5, 0.5]])  # row 0 cannot ship 0.7
    with pytest.raises(InfeasibleTransport) as exc:
        solve_capacity(mu, nu, np.ones((2, 2)), TransportPlan(sx, sy, capm))
    cert = exc.value.cert
    psi, phi = cert["psi"], cert["phi"]
    pos = np.maximum(psi[:, None] + phi[None, :], 0.0)
    slack = (pos * capm).sum() - psi @ mu.weights - phi @ nu.weights
    assert slack < -1e-9


def _capacity_raise(mu, nu, capm):
    """The certificate solve_capacity raises and the pivots it spent."""
    before = lp.pivot_total()
    with pytest.raises(InfeasibleTransport) as exc:
        solve_capacity(mu, nu, np.zeros(capm.shape), TransportPlan(mu.space, nu.space, capm))
    cert = exc.value.cert
    pos = np.maximum(cert["psi"][:, None] + cert["phi"][None, :], 0.0)
    slack = (pos * capm).sum() - cert["psi"] @ mu.weights - cert["phi"] @ nu.weights
    assert slack == pytest.approx(cert["kellerer_slack"])
    assert cert["kellerer_slack"] < -1e-9
    return cert, lp.pivot_total() - before


def test_capacity_short_line_certified_without_pivots():
    # every cap total / (2 n^2): each row and column can carry about half
    # its mass; the LP took n^2 bound-flip pivots to prove it
    n = 100
    rng = np.random.default_rng(0)
    mu = ScalarMeasure(space(n, "x"), rng.uniform(0.5, 1.5, n))
    w = rng.uniform(0.5, 1.5, n)
    nu = ScalarMeasure(space(n, "y"), w * (mu.total() / w.sum()))
    capm = np.full((n, n), mu.total() / (2 * n * n))
    cert, pivots = _capacity_raise(mu, nu, capm)
    assert pivots == 0
    # the unit potential sits on the most deficient row or column
    short = np.concatenate([capm.sum(axis=1) - mu.weights, capm.sum(axis=0) - nu.weights])
    assert np.array_equal(np.concatenate([cert["psi"], cert["phi"]]), np.eye(2 * n)[np.argmin(short)])


def test_capacity_short_column_certified_without_pivots():
    sp = space(3)
    mu, nu = uniform(sp), uniform(sp)
    capm = np.array([[0.1, 1.0, 1.0], [0.1, 1.0, 1.0], [0.05, 1.0, 1.0]])
    cert, pivots = _capacity_raise(mu, nu, capm)
    assert pivots == 0
    assert not cert["psi"].any() and np.array_equal(cert["phi"], [1.0, 0.0, 0.0])


def test_capacity_infeasible_without_short_line_left_to_the_lp():
    # every row and column can carry its mass, but rows 0 and 1 both
    # need column 0, which takes only one of them
    sp = space(3)
    mu, nu = uniform(sp), uniform(sp)
    capm = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    _, pivots = _capacity_raise(mu, nu, capm)
    assert pivots > 0


def test_capacity_monotone_in_cap():
    rng = np.random.default_rng(13)
    sp = space(3)
    mu, nu = uniform(sp), uniform(sp)
    c = rng.uniform(0, 2, (3, 3))
    base = np.full((3, 3), 0.15)
    vals = []
    for s in (1.0, 1.5, 2.5, 5.0):
        vals.append(solve_capacity(mu, nu, c, TransportPlan(sp, sp, base * s)).value)
    assert np.all(np.diff(vals) >= -1e-9)


def test_capacity_min_wrapper():
    rng = np.random.default_rng(14)
    sp = space(3)
    mu, nu = uniform(sp), uniform(sp)
    c = rng.uniform(0, 2, (3, 3))
    cap = TransportPlan(sp, sp, np.full((3, 3), 9.0))
    res = solve_capacity_min(mu, nu, c, cap)
    plain = solve_ot(mu, nu, c)
    assert abs(res.value - plain.value) <= 1e-8
    ident = (
        res.psi @ mu.weights
        + res.phi @ nu.weights
        - (res.extras["xi"] * cap.matrix).sum()
    )
    assert abs(res.value - ident) <= 1e-7 * (1 + abs(res.value))


def test_invariant_identity_map():
    rng = np.random.default_rng(15)
    sx, sy = space(3, "x"), space(4, "y")
    mu = ScalarMeasure(sx, rng.uniform(0.2, 1, 3))
    c = rng.uniform(0, 2, (3, 4))
    res = solve_invariant(mu, list(range(4)), c, sy)
    expect = float(mu.weights @ c.min(axis=1))
    assert abs(res.value - expect) <= 1e-8
    assert res.extras["family_value"] == np.inf


def test_invariant_single_cycle_uniform_marginal():
    rng = np.random.default_rng(16)
    sx, sy = space(2, "x"), space(4, "y")
    mu = ScalarMeasure(sx, [0.5, 0.5])
    c = rng.uniform(0, 2, (2, 4))
    T = [1, 2, 3, 0]
    res = solve_invariant(mu, T, c, sy)
    nu = res.extras["nu"]
    np.testing.assert_allclose(nu.weights, 0.25, atol=1e-9)
    # dual constraint in the difference form
    psi, w = res.psi, res.extras["w"]
    shifted = w - w[np.array(T)]
    assert np.max(psi[:, None] + shifted[None, :] - c) <= 1e-9
    assert abs(res.value - psi @ mu.weights) <= 1e-7 * (1 + abs(res.value))


def test_invariant_measure_already_invariant():
    sp = space(4)
    mu = uniform(sp)
    T = [1, 2, 3, 0]
    coords = np.arange(4.0)
    c = np.abs(coords[:, None] - coords[None, :])
    res = solve_invariant(mu, T, c, sp)
    assert abs(res.value) <= 1e-9


def test_invariant_marginal_is_invariant():
    rng = np.random.default_rng(17)
    sx, sy = space(3, "x"), space(5, "y")
    mu = ScalarMeasure(sx, rng.uniform(0.1, 1, 3))
    c = rng.uniform(0, 3, (3, 5))
    T = [0, 0, 1, 4, 3]  # two components with their own cycles
    res = solve_invariant(mu, T, c, sy)
    nu = res.extras["nu"].weights
    pushed = np.zeros(5)
    np.add.at(pushed, np.array(T), nu)
    np.testing.assert_allclose(pushed, nu, atol=1e-9)
    np.testing.assert_allclose(res.plan.x_marginal().weights, mu.weights, atol=1e-9)


def test_multimarginal_two_matches_plain():
    rng = np.random.default_rng(18)
    sp = space(4)
    mu, nu = uniform(sp), uniform(sp)
    c = rng.uniform(0, 2, (4, 4))
    res2 = solve_multimarginal([mu, nu], c)
    plain = solve_ot(mu, nu, c)
    assert abs(res2.value - plain.value) <= 1e-8
    total = res2.extras["psis"][0] @ mu.weights + res2.extras["psis"][1] @ nu.weights
    assert abs(res2.value - total) <= 1e-7 * (1 + abs(res2.value))


def test_multimarginal_diagonal_zero():
    sp = space(3)
    mu = uniform(sp)
    c = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                c[i, j, k] = abs(i - j) + abs(j - k) + abs(i - k)
    res = solve_multimarginal([mu, mu, mu], c)
    assert abs(res.value) <= 1e-12


def test_multimarginal_random_vs_scipy():
    rng = np.random.default_rng(19)
    sizes = (3, 3, 3)
    sps = [space(3, p) for p in "abc"]
    ws = [rng.uniform(0.2, 1, 3) for _ in range(3)]
    ws = [w / w.sum() for w in ws]
    measures = [ScalarMeasure(sp, w) for sp, w in zip(sps, ws)]
    c = rng.uniform(0, 5, sizes)
    res = solve_multimarginal(measures, c)
    idx = np.indices(sizes)
    A_eq = []
    b_eq = []
    for axis in range(3):
        flat = idx[axis].ravel()
        for a in range(3):
            A_eq.append((flat == a).astype(float))
            b_eq.append(ws[axis][a])
    ref = linprog(c.ravel(), A_eq=np.array(A_eq), b_eq=np.array(b_eq), method="highs")
    assert ref.status == 0
    assert abs(res.value - ref.fun) <= 1e-8
    # marginal consistency of the tensor
    tensor = res.extras["tensor"]
    for axis in range(3):
        got = tensor.sum(axis=tuple(a for a in range(3) if a != axis))
        np.testing.assert_allclose(got, ws[axis], atol=1e-9)


def test_multimarginal_mass_mismatch():
    sps = [space(2, p) for p in "ab"]
    mu = ScalarMeasure(sps[0], [0.6, 0.6])
    nu = ScalarMeasure(sps[1], [0.5, 0.5])
    with pytest.raises(InfeasibleTransport):
        solve_multimarginal([mu, nu], np.zeros((2, 2)))


def test_glue_two_consistent():
    sx, sy, sz = space(2, "x"), space(2, "y"), space(2, "z")
    mu = TransportPlan(sx, sy, np.full((2, 2), 0.25))
    nu = TransportPlan(sy, sz, np.full((2, 2), 0.25))
    res = glue_feasible(mu, nu)
    assert res.feasible
    np.testing.assert_allclose(res.tensor.sum(axis=2), mu.matrix, atol=1e-9)
    np.testing.assert_allclose(res.tensor.sum(axis=0), nu.matrix, atol=1e-9)


def test_glue_mismatched_middle_marginals():
    sx, sy, sz = space(2, "x"), space(2, "y"), space(2, "z")
    mu = TransportPlan(sx, sy, np.array([[0.5, 0.0], [0.0, 0.5]]))
    nu = TransportPlan(sy, sz, np.array([[0.2, 0.2], [0.3, 0.3]]))
    res = glue_feasible(mu, nu)
    assert not res.feasible
    psi, phi = res.cert["psi"], res.cert["phi"]
    sums = psi[:, :, None] + phi[None, :, :]
    assert np.min(sums) >= -1e-9
    total = (psi * mu.matrix).sum() + (phi * nu.matrix).sum()
    assert total < -1e-9
    assert abs(total - res.cert["margin"]) <= 1e-9


def test_glue_three_pairwise_consistent_jointly_empty():
    # X=Y perfectly correlated, Y=Z perfectly correlated, X,Z anti-correlated
    sx, sy, sz = space(2, "x"), space(2, "y"), space(2, "z")
    eye = np.eye(2) * 0.5
    anti = (np.ones((2, 2)) - np.eye(2)) * 0.5
    mu = TransportPlan(sx, sy, eye)
    nu = TransportPlan(sy, sz, eye)
    lam = TransportPlan(sx, sz, anti)
    # all three pair marginals project to the same uniform one-space marginals
    res = glue_feasible(mu, nu, lam)
    assert not res.feasible
    psi, phi, xi = res.cert["psi"], res.cert["phi"], res.cert["xi"]
    # cell (x,y,z) pairs psi[x,y], phi[y,z], xi[x,z]
    sums = psi[:, :, None] + phi[None, :, :] + xi[:, None, :]
    assert np.min(sums) >= -1e-9
    total = (psi * mu.matrix).sum() + (phi * nu.matrix).sum() + (xi * lam.matrix).sum()
    assert total < -1e-9
    # independent emptiness check
    idx = np.indices((2, 2, 2))
    rows, rhs = [], []
    for mat, (a, bx) in ((mu.matrix, (0, 1)), (nu.matrix, (1, 2)), (lam.matrix, (0, 2))):
        for u in range(2):
            for v in range(2):
                rows.append(((idx[a].ravel() == u) & (idx[bx].ravel() == v)).astype(float))
                rhs.append(mat[u, v])
    ref = linprog(np.zeros(8), A_eq=np.array(rows), b_eq=np.array(rhs), method="highs")
    assert ref.status == 2


def test_local_slack_threshold():
    rng = np.random.default_rng(20)
    sp = space(4)
    mu, nu = uniform(sp), uniform(sp)
    c = rng.uniform(0, 2, (4, 4))
    res = local_constraint_feasible(mu, nu, c, float(c.max()))
    assert res.feasible
    assert np.all(res.plan.matrix[c > c.max()] == 0)


def test_local_isolated_atom():
    sx, sy = space(2, "x"), space(2, "y")
    mu = ScalarMeasure(sx, [0.5, 0.5])
    nu = ScalarMeasure(sy, [0.5, 0.5])
    c = np.array([[0.1, 0.1], [5.0, 5.0]])  # atom x1 cannot reach anything
    res = local_constraint_feasible(mu, nu, c, 1.0)
    assert not res.feasible
    psi, phi = res.cert["psi"], res.cert["phi"]
    admissible = c <= 1.0
    assert np.min((psi[:, None] + phi[None, :])[admissible]) >= -1e-9
    assert psi @ mu.weights + phi @ nu.weights < -1e-9


def test_local_matches_flow_oracle():
    import networkx as nx

    rng = np.random.default_rng(21)
    for trial in range(8):
        n = 4
        sp = space(n)
        wu = rng.integers(1, 5, n)
        wv = rng.permutation(wu)  # same multiset keeps the totals equal
        tot = int(wu.sum())
        mu = ScalarMeasure(sp, wu.astype(float))
        nu = ScalarMeasure(sp, wv.astype(float))
        c = rng.uniform(0, 1, (n, n))
        D = float(rng.uniform(0.2, 0.8))
        g = nx.DiGraph()
        for i in range(n):
            g.add_edge("s", f"u{i}", capacity=float(wu[i]))
            g.add_edge(f"v{i}", "t", capacity=float(wv[i]))
        for i in range(n):
            for j in range(n):
                if c[i, j] <= D:
                    g.add_edge(f"u{i}", f"v{j}", capacity=float(tot))
        flow = nx.maximum_flow_value(g, "s", "t")
        res = local_constraint_feasible(mu, nu, c, D)
        assert res.feasible == (abs(flow - tot) < 1e-9)


def test_local_monotone_in_threshold():
    rng = np.random.default_rng(22)
    sp = space(4)
    mu, nu = uniform(sp), uniform(sp)
    c = rng.uniform(0, 1, (4, 4))
    seen_feasible = False
    for D in np.linspace(0, 1, 21):
        ok = local_constraint_feasible(mu, nu, c, float(D)).feasible
        if seen_feasible:
            assert ok
        seen_feasible = seen_feasible or ok


def test_strassen_unconstrained():
    sp = space(3)
    mu, nu = uniform(sp), uniform(sp)
    res = strassen_feasible(mu, nu, [])
    assert res.feasible
    np.testing.assert_allclose(res.plan.x_marginal().weights, mu.weights, atol=1e-9)


def test_strassen_impossible_mass_certificate():
    sp = space(2)
    mu, nu = uniform(sp), uniform(sp)
    G = np.zeros((2, 2))
    G[0, 0] = 1.0
    res = strassen_feasible(mu, nu, [(G, "ge", mu.total() + 1.0)])
    assert not res.feasible
    assert res.cert["lhs"] > res.cert["sup_bound"] + 1e-9


def test_strassen_matches_capacity_feasibility():
    rng = np.random.default_rng(23)
    sp = space(3)
    mu, nu = uniform(sp), uniform(sp)
    for scale in (0.05, 0.12, 0.5):
        capm = np.full((3, 3), scale)
        constraints = []
        for i in range(3):
            for j in range(3):
                G = np.zeros((3, 3))
                G[i, j] = 1.0
                constraints.append((G, "le", capm[i, j]))
        via_strassen = strassen_feasible(mu, nu, constraints).feasible
        try:
            solve_capacity(mu, nu, np.zeros((3, 3)), TransportPlan(sp, sp, capm))
            via_capacity = True
        except InfeasibleTransport:
            via_capacity = False
        assert via_strassen == via_capacity


def _degenerate_families():
    """Transport instances with heavy ties: (name, mu, nu, integer-valued cost)."""
    rng = np.random.default_rng(2024)
    for n in range(6, 11):
        sp = space(n)
        c = rng.integers(0, 4, (n, n)).astype(float)
        yield f"assignment{n}", uniform(sp), uniform(sp), c
    for n in (5, 8):
        a = rng.integers(1, 6, n).astype(float)
        b = rng.integers(1, 6, n).astype(float)
        b[0] += a.sum() - b.sum()
        if b[0] < 1.0:
            a[0] += 1.0 - b[0]
            b[0] = 1.0
        sx, sy = space(n, "x"), space(n, "y")
        c = rng.integers(0, 3, (n, n)).astype(float)
        yield f"integer{n}", ScalarMeasure(sx, a), ScalarMeasure(sy, b), c
    sp = space(7)
    w = rng.uniform(0.5, 1.5, 7)
    yield "constant-cost", ScalarMeasure(sp, w / w.sum()), uniform(sp), np.full((7, 7), 3.0)


def _highs(c, mu, nu, kind, extra):
    nx, ny = c.shape
    rows = np.kron(np.eye(nx), np.ones(ny))
    cols = np.kron(np.ones(nx), np.eye(ny))
    A = np.vstack([rows, cols])
    b = np.concatenate([mu, nu])
    if kind == "ot":
        return linprog(c.ravel(), A_eq=A, b_eq=b, method="highs").fun
    if kind == "partial":
        return linprog(c.ravel(), A_ub=A, b_ub=b, A_eq=np.ones((1, nx * ny)),
                       b_eq=[extra], method="highs").fun
    bounds = list(zip(np.zeros(nx * ny), extra.ravel()))
    return -linprog(-c.ravel(), A_eq=A, b_eq=b, bounds=bounds, method="highs").fun


@pytest.mark.parametrize(
    "mu,nu,c", [pytest.param(*f[1:], id=f[0]) for f in _degenerate_families()]
)
def test_degenerate_families_match_highs_and_certify(mu, nu, c):
    a, b = mu.weights, nu.weights
    tol = 1e-9 * max(1.0, a.sum(), np.abs(c).max())

    def close(value, ref):
        assert abs(value - ref) <= 1e-7 * (1.0 + abs(ref)), (value, ref)

    res = solve_ot(mu, nu, c)
    P, psi, phi = res.plan.matrix, res.psi, res.phi
    close(res.value, _highs(c, a, b, "ot", None))
    check_plain_duality(res, mu, nu, c, tol=tol)
    assert np.abs(P * (c - psi[:, None] - phi[None, :])).max() <= tol

    m = 0.6 * min(a.sum(), b.sum())
    res = solve_partial(mu, nu, c, m)
    P, psi, phi, lam = res.plan.matrix, res.psi, res.phi, res.extras["lam"]
    close(res.value, _highs(c, a, b, "partial", m))
    assert P.min() >= -tol and abs(P.sum() - m) <= tol
    assert (P.sum(axis=1) - a).max() <= tol and (P.sum(axis=0) - b).max() <= tol
    assert psi.max() <= tol and phi.max() <= tol
    reduced = c - psi[:, None] - phi[None, :] - lam
    assert reduced.min() >= -tol
    assert np.abs(P * reduced).max() <= tol
    assert np.abs(psi * (a - P.sum(axis=1))).max() <= tol
    assert np.abs(phi * (b - P.sum(axis=0))).max() <= tol
    close(res.value, psi @ a + phi @ b + lam * m)

    cap = 2.0 * np.outer(a, b) / a.sum()  # the product coupling fits half-way
    res = solve_capacity(mu, nu, c, TransportPlan(mu.space, nu.space, cap))
    P, psi, phi, xi = res.plan.matrix, res.psi, res.phi, res.extras["xi"]
    close(res.value, _highs(c, a, b, "capacity", cap))
    assert P.min() >= -tol and (P - cap).max() <= tol
    np.testing.assert_allclose(P.sum(axis=1), a, atol=tol)
    np.testing.assert_allclose(P.sum(axis=0), b, atol=tol)
    reduced = psi[:, None] + phi[None, :] + xi - c
    assert xi.min() >= 0.0 and reduced.min() >= -tol
    assert np.abs(P * reduced).max() <= tol
    assert np.abs(xi * (cap - P)).max() <= tol
    close(res.value, psi @ a + phi @ b + (xi * cap).sum())
