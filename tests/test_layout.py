"""Every dense transport LP lays its marginal rows out with `scalar._marginal_index`.

The reference builders below are the hand-written loops the solvers used
before the layout had one owner.  Each site's constraint matrix and
right-hand side must equal its reference entry for entry, so the
simplex sees the same LP and takes the same pivots.
"""

import numpy as np
import pytest

from vecot import chain, scalar, vector
from vecot.measures import FiniteSpace, ScalarMeasure, TransportPlan, VectorMeasure
from vecot.network import TransportIncidence

# --- reference builders ------------------------------------------------------


def ref_marginal_matrix(nx, ny):
    A = np.zeros((nx + ny, nx * ny))
    for i in range(nx):
        A[i, i * ny : (i + 1) * ny] = 1.0
    for j in range(ny):
        A[nx + j, j::ny] = 1.0
    return A


def ref_invariant(nx, ny, T):
    A = np.zeros((nx + ny, nx * ny))
    for i in range(nx):
        A[i, i * ny : (i + 1) * ny] = 1.0
    for y in range(ny):
        A[nx + y, y::ny] += 1.0
        for yp in range(ny):
            if T[yp] == y:
                A[nx + y, yp::ny] -= 1.0
    return A


def ref_invariant_family(c, T):
    nx, ny = c.shape
    rows = np.zeros((nx * ny, nx + ny))
    rhs = np.empty(nx * ny)
    k = 0
    for i in range(nx):
        for j in range(ny):
            rows[k, i] = 1.0
            rows[k, nx + j] += 1.0
            rows[k, nx + T[j]] += 1.0
            rhs[k] = c[i, j]
            k += 1
    return rows, rhs


def ref_multimarginal(sizes, weights):
    ncells = int(np.prod(sizes))
    axes_idx = np.indices(tuple(sizes))
    blocks = []
    for axis, n in enumerate(sizes):
        block = np.zeros((n, ncells))
        block[axes_idx[axis].ravel(), np.arange(ncells)] = 1.0
        blocks.append(block)
    return np.vstack(blocks), np.concatenate(weights)


def ref_glue(mxy, nyz, lxz):
    nx, ny = mxy.shape
    nz = nyz.shape[1]
    ix, iy, iz = (a.ravel() for a in np.indices((nx, ny, nz)))
    rows, rhs = [], []
    for x in range(nx):
        for y in range(ny):
            rows.append(((ix == x) & (iy == y)).astype(float))
            rhs.append(mxy[x, y])
    for y in range(ny):
        for z in range(nz):
            rows.append(((iy == y) & (iz == z)).astype(float))
            rhs.append(nyz[y, z])
    if lxz is not None:
        for x in range(nx):
            for z in range(nz):
                rows.append(((ix == x) & (iz == z)).astype(float))
                rhs.append(lxz[x, z])
    return np.vstack(rows), np.array(rhs)


def ref_plan_system(eta_live, t_live, nu_values):
    k, d = eta_live.shape
    ny = nu_values.shape[0]
    A = np.zeros((k + d * ny, k * ny))
    for x in range(k):
        A[x, x * ny : (x + 1) * ny] = 1.0
    for i in range(d):
        for y in range(ny):
            A[k + i * ny + y, y::ny] = eta_live[:, i]
    return A, np.concatenate([t_live, nu_values.T.ravel()])


def ref_blackwell_kernel(vals_live, nu_values):
    k, d = vals_live.shape
    ny = nu_values.shape[0]
    A = np.zeros((k + d * ny, k * ny))
    for x in range(k):
        A[x, x * ny : (x + 1) * ny] = 1.0
    for i in range(d):
        for y in range(ny):
            A[k + i * ny + y, y::ny] = vals_live[:, i]
    return A, np.concatenate([np.ones(k), nu_values.T.ravel()])


def ref_martingale(f, g, mu_w, nu_w):
    nx, d = f.shape
    ny = g.shape[0]
    A = np.zeros((nx + ny + d * ny, nx * ny))
    for x in range(nx):
        A[x, x * ny : (x + 1) * ny] = 1.0
    for y in range(ny):
        A[nx + y, y::ny] = 1.0
    for i in range(d):
        for y in range(ny):
            A[nx + ny + i * ny + y, y::ny] = f[:, i] - g[y, i]
    return A, np.concatenate([mu_w, nu_w, np.zeros(d * ny)])


def ref_multi_range(vals, n, s):
    k, d = vals.shape
    A = np.zeros((k + n * d, n * k + n * d))
    for x in range(k):
        A[x, x : n * k : k] = 1.0
    for i in range(n):
        for j in range(d):
            A[k + i * d + j, i * k : (i + 1) * k] = vals[:, j]
            A[k + i * d + j, n * k + i * d + j] = 1.0
    return A, np.concatenate([np.ones(k), s.ravel()])


def ref_chain(k, n, with_medium_vars):
    rowsum = np.kron(np.eye(k), np.ones(k))
    colsum = np.kron(np.ones(k), np.eye(k))
    nplan = (n + 1) * k * k
    A = np.zeros(((n + 3) * k, nplan + (k if with_medium_vars else 0)))

    def block(i):
        return slice(i * k * k, (i + 1) * k * k)

    A[0:k, block(0)] = rowsum
    for i in range(1, n + 1):
        rows = slice(i * k, (i + 1) * k)
        A[rows, block(i - 1)] = colsum
        A[rows, block(i)] = -rowsum
    med = slice((n + 1) * k, (n + 2) * k)
    for i in range(1, n + 1):
        A[med, block(i)] += rowsum
    if with_medium_vars:
        A[med, nplan:] = -float(n) * np.eye(k)
    A[(n + 2) * k :, block(n)] = colsum
    return A, med


# --- capture of the LP a solver builds ---------------------------------------


class _Built(Exception):
    pass


def _built(monkeypatch, module, call, nth=1):
    """The nth LpProblem `call` hands to `module.solve`; earlier ones are solved."""
    seen = []
    real = module.solve

    def spy(problem, *args, **kwargs):
        seen.append(problem)
        if len(seen) == nth:
            raise _Built
        return real(problem, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(module, "solve", spy)
        with pytest.raises(_Built):
            call()
    return seen[-1]


def _same(A, b, ref_A, ref_b):
    assert A.shape == ref_A.shape
    assert np.array_equal(A, ref_A)
    assert np.array_equal(b, ref_b)


def _space(n, tag):
    return FiniteSpace([f"{tag}{i}" for i in range(n)])


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("nx,ny", [(1, 1), (1, 4), (3, 1), (2, 3), (4, 3)])
def test_marginal_layouts_match_hand_written_loops(monkeypatch, nx, ny, d):
    rng = np.random.default_rng(100 * nx + 10 * ny + d)
    X, Y, Z = _space(nx, "x"), _space(ny, "y"), _space(d, "z")
    mu = ScalarMeasure(X, rng.uniform(0.5, 1.5, nx))
    w = rng.uniform(0.5, 1.5, ny)
    nu = ScalarMeasure(Y, w * (mu.total() / w.sum()))
    c = rng.uniform(size=(nx, ny))

    ix = scalar._marginal_index((nx, ny), (0,))
    iy = scalar._marginal_index((nx, ny), (1,))
    full = TransportIncidence.complete(nx, ny)
    assert np.array_equal(ix, full.tail) and np.array_equal(iy, full.head)

    # scalar.strassen_feasible: marginal rows, then one row per constraint
    cons = [(rng.uniform(size=(nx, ny)), ("le", "ge", "eq")[i], 0.5) for i in range(d)]
    p = _built(monkeypatch, scalar, lambda: scalar.strassen_feasible(mu, nu, cons))
    ref_A = np.vstack([ref_marginal_matrix(nx, ny)] + [G.ravel()[None, :] for G, _, _ in cons])
    _same(p.A, p.b, ref_A, np.concatenate([mu.weights, nu.weights, [0.5] * d]))

    # scalar.solve_invariant and its written dual family
    T = rng.integers(0, ny, ny)
    p = _built(monkeypatch, scalar, lambda: scalar.solve_invariant(mu, T, c, Y))
    _same(p.A, p.b, ref_invariant(nx, ny, T), np.concatenate([mu.weights, np.zeros(ny)]))
    p = _built(monkeypatch, scalar, lambda: scalar._invariant_family_side(mu, T, c))
    _same(p.A, p.b, *ref_invariant_family(c, T))

    # scalar.solve_multimarginal on d + 1 marginals
    sizes = (nx, ny, 2, 1)[: d + 1]
    measures = [ScalarMeasure(_space(n, f"m{a}_"), np.full(n, 1.0 / n)) for a, n in enumerate(sizes)]
    cost = rng.uniform(size=sizes)
    p = _built(monkeypatch, scalar, lambda: scalar.solve_multimarginal(measures, cost))
    _same(p.A, p.b, *ref_multimarginal(sizes, [m.weights for m in measures]))

    # scalar.glue_feasible, with and without the third pair marginal
    P = rng.uniform(size=(nx, ny, d))
    mxy, nyz, lxz = TransportPlan(X, Y, P.sum(2)), TransportPlan(Y, Z, P.sum(0)), TransportPlan(X, Z, P.sum(1))
    for lam in (None, lxz):
        p = _built(monkeypatch, scalar, lambda: scalar.glue_feasible(mxy, nyz, lam))
        _same(p.A, p.b, *ref_glue(mxy.matrix, nyz.matrix, None if lam is None else lam.matrix))

    # vector._plan_system
    eta, t, nu_values = rng.uniform(size=(nx, d)), rng.uniform(size=nx), rng.uniform(size=(ny, d))
    _same(*vector._plan_system(eta, t, nu_values), *ref_plan_system(eta, t, nu_values))

    # vector.blackwell_check's kernel-variable LP, after the dominance LP
    vmu = VectorMeasure(X, rng.uniform(0.1, 1.0, (nx, d)))
    K = rng.uniform(size=(nx, ny))
    vnu = VectorMeasure(Y, (K / K.sum(axis=1, keepdims=True)).T @ vmu.values)
    p = _built(monkeypatch, vector, lambda: vector.blackwell_check(vmu, vnu, g_samples=2), nth=2)
    _same(p.A, p.b, *ref_blackwell_kernel(vmu.values, vnu.values))

    # vector.martingale_polytope
    f, g = rng.uniform(size=(nx, d)), rng.uniform(size=(ny, d))
    p = _built(monkeypatch, vector, lambda: vector.martingale_polytope(mu, nu, f, g, c))
    _same(p.A, p.b, *ref_martingale(f, g, mu.weights, nu.weights))

    # vector.MultiRangeOracle, relaxed: ny parts of a d-dimensional measure
    s = rng.uniform(size=(ny, d))
    p = _built(monkeypatch, vector, lambda: vector.multi_range(vmu, ny).contains(s))
    _same(p.A, p.b, *ref_multi_range(vmu.values, ny, s))

    # chain._chain_system with d hops, medium pinned or free
    for free in (False, True):
        A, med = chain._chain_system(nx, d, free)
        ref_A, ref_med = ref_chain(nx, d, free)
        assert med == ref_med
        assert A.shape == ref_A.shape and np.array_equal(A, ref_A)
