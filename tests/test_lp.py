import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from vecot import lp
from vecot.lp import LpProblem, NumericalBreakdown, farkas_margin, solve, solve_vertex


def check_farkas(problem, y):
    """Independent certificate check, written without reference to the solver."""
    assert y is not None
    for i, k in enumerate(problem.kinds):
        if k == "le":
            assert y[i] >= -1e-9
        elif k == "ge":
            assert y[i] <= 1e-9
    r = problem.A.T @ y
    box_min = 0.0
    for j in range(problem.nvars):
        if r[j] > 1e-9:
            assert np.isfinite(problem.lower[j])
            box_min += r[j] * problem.lower[j]
        elif r[j] < -1e-9:
            assert np.isfinite(problem.upper[j])
            box_min += r[j] * problem.upper[j]
    assert y @ problem.b - box_min < -1e-9


def vertex_oracle(problem):
    """Enumerate candidate vertices of a small LP and return the best value."""
    A, b, kinds = problem.A, problem.b, problem.kinds
    m, n = A.shape
    planes = [(A[i], b[i]) for i in range(m)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if np.isfinite(problem.lower[j]):
            planes.append((e, problem.lower[j]))
        if np.isfinite(problem.upper[j]):
            planes.append((e.copy(), problem.upper[j]))
    sign = 1.0 if problem.sense == "min" else -1.0
    best = None
    for combo in itertools.combinations(range(len(planes)), n):
        M = np.array([planes[i][0] for i in combo])
        rhs = np.array([planes[i][1] for i in combo])
        if abs(np.linalg.det(M)) < 1e-9:
            continue
        x = np.linalg.solve(M, rhs)
        if np.any(x < problem.lower - 1e-8) or np.any(x > problem.upper + 1e-8):
            continue
        Ax = A @ x
        feasible = True
        for i, k in enumerate(kinds):
            if k == "eq" and abs(Ax[i] - b[i]) > 1e-8:
                feasible = False
            elif k == "le" and Ax[i] > b[i] + 1e-8:
                feasible = False
            elif k == "ge" and Ax[i] < b[i] - 1e-8:
                feasible = False
        if not feasible:
            continue
        v = sign * float(problem.c @ x)
        if best is None or v < best:
            best = v
    return None if best is None else sign * best


def to_scipy(problem):
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for i, k in enumerate(problem.kinds):
        if k == "le":
            A_ub.append(problem.A[i])
            b_ub.append(problem.b[i])
        elif k == "ge":
            A_ub.append(-problem.A[i])
            b_ub.append(-problem.b[i])
        else:
            A_eq.append(problem.A[i])
            b_eq.append(problem.b[i])
    bounds = [
        (None if not np.isfinite(lo) else lo, None if not np.isfinite(up) else up)
        for lo, up in zip(problem.lower, problem.upper)
    ]
    c = problem.c if problem.sense == "min" else -problem.c
    return linprog(
        c,
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs",
    )


def test_single_lower_bound_row():
    sol = solve(LpProblem(c=[1.0], A=[[1.0]], b=[3.0], kinds=["ge"]))
    assert sol.status == "optimal"
    assert abs(sol.value - 3.0) < 1e-9
    assert abs(sol.x[0] - 3.0) < 1e-9
    assert abs(sol.y[0] - 1.0) < 1e-9


def test_contradictory_rows_give_certificate():
    p = LpProblem(c=[0.0], A=[[1.0], [1.0]], b=[1.0, 0.0], kinds=["ge", "le"])
    sol = solve(p)
    assert sol.status == "infeasible"
    check_farkas(p, sol.farkas)
    assert farkas_margin(p, sol.farkas) < -1e-9


def test_infeasible_equality_masses():
    # row sums cannot reach both totals when masses differ
    A = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    p = LpProblem(c=[1.0, 2.0], A=A, b=[2.0, 0.5, 0.5], kinds=["eq", "eq", "eq"])
    sol = solve(p)
    assert sol.status == "infeasible"
    check_farkas(p, sol.farkas)


def test_maximize_with_box():
    p = LpProblem(
        c=[3.0, 2.0], A=[[1.0, 1.0]], b=[4.0], kinds=["le"], upper=[2.0, 3.0], sense="max"
    )
    sol = solve(p)
    assert sol.status == "optimal"
    assert abs(sol.value - 10.0) < 1e-9
    np.testing.assert_allclose(sol.x, [2.0, 2.0], atol=1e-9)


def test_free_variable_split():
    # x free, y >= 0, x + y = -5, minimize y - x pushes x down but x = -5 - y
    p = LpProblem(
        c=[-1.0, 1.0], A=[[1.0, 1.0]], b=[-5.0], kinds=["eq"], lower=[-np.inf, 0.0]
    )
    sol = solve(p)
    assert sol.status == "optimal"
    assert abs(sol.value - 5.0) < 1e-9
    np.testing.assert_allclose(sol.x, [-5.0, 0.0], atol=1e-9)


def test_upper_bounded_free_variable():
    # x in (-inf, 2], maximize x
    p = LpProblem(c=[1.0], A=[[0.0]], b=[0.0], kinds=["le"], lower=[-np.inf], upper=[2.0], sense="max")
    sol = solve(p)
    assert sol.status == "optimal"
    assert abs(sol.value - 2.0) < 1e-9


def test_unbounded_ray_is_validated():
    p = LpProblem(c=[1.0], A=[[1.0]], b=[0.0], kinds=["ge"], sense="max")
    sol = solve(p)
    assert sol.status == "unbounded"
    d = sol.ray
    assert d[0] > 0
    assert float(p.c @ d) > 0


def test_unbounded_free_pair():
    # x - y enters along a free direction of the equality row
    p = LpProblem(
        c=[-1.0, -1.0], A=[[1.0, -1.0]], b=[0.0], kinds=["eq"]
    )
    sol = solve(p)
    assert sol.status == "unbounded"
    d = sol.ray
    assert abs(d[0] - d[1]) < 1e-9
    assert float(p.c @ d) < 0


def test_no_rows_bound_flips():
    p = LpProblem(
        c=[1.0, 1.0],
        A=np.zeros((0, 2)),
        b=np.zeros(0),
        kinds=[],
        lower=[1.0, 1.0],
        upper=[2.0, 2.0],
    )
    sol = solve(p)
    assert sol.status == "optimal"
    assert abs(sol.value - 2.0) < 1e-9


def test_fixed_variables_and_empty_row():
    # second variable pinned, first row becomes empty after substitution
    p = LpProblem(
        c=[1.0, 5.0],
        A=[[0.0, 1.0], [1.0, 1.0]],
        b=[2.0, 3.0],
        kinds=["eq", "eq"],
        lower=[0.0, 2.0],
        upper=[np.inf, 2.0],
    )
    sol = solve(p)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [1.0, 2.0], atol=1e-9)


def test_empty_row_infeasible():
    p = LpProblem(
        c=[1.0, 0.0],
        A=[[1.0, 0.0], [0.0, 1.0]],
        b=[1.0, 7.0],
        kinds=["eq", "eq"],
        lower=[0.0, 3.0],
        upper=[np.inf, 3.0],
    )
    sol = solve(p)
    assert sol.status == "infeasible"
    check_farkas(p, sol.farkas)


def test_degenerate_cycling_guard():
    # classic degeneracy-prone instance; Bland's rule must terminate
    A = np.array(
        [
            [0.25, -8.0, -1.0, 9.0],
            [0.5, -12.0, -0.5, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    p = LpProblem(
        c=[-0.75, 150.0, -0.02, 6.0],
        A=A,
        b=[0.0, 0.0, 1.0],
        kinds=["le", "le", "le"],
    )
    sol = solve(p)
    assert sol.status == "optimal"
    ref = to_scipy(p)
    assert abs(sol.value - ref.fun) < 1e-9


def test_pivot_limit_raises():
    c = np.zeros(16)
    c[1], c[2] = 1.0, 1.0
    A = np.zeros((8, 16))
    for i in range(4):
        A[i, 4 * i : 4 * i + 4] = 1.0
        A[4 + i, i::4] = 1.0
    b = np.full(8, 0.25)
    p = LpProblem(c=c, A=A, b=b, kinds=["eq"] * 8)
    with pytest.raises(NumericalBreakdown):
        solve(p, pivot_limit=1)


def test_problem_validation():
    with pytest.raises(ValueError):
        LpProblem(c=[1.0], A=[[1.0]], b=[1.0], kinds=["??"])
    with pytest.raises(ValueError):
        LpProblem(c=[np.nan], A=[[1.0]], b=[1.0], kinds=["eq"])
    with pytest.raises(ValueError):
        LpProblem(c=[1.0], A=[[1.0]], b=[1.0], kinds=["eq"], lower=[2.0], upper=[1.0])
    with pytest.raises(ValueError):
        LpProblem(c=[1.0, 2.0], A=[[1.0]], b=[1.0], kinds=["eq"])


def test_determinism_bit_identical():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(4, 6))
    b = A @ rng.uniform(0.1, 1.0, size=6)
    c = rng.normal(size=6)
    p = LpProblem(c=c, A=A, b=b, kinds=["eq"] * 4)
    s1 = solve(p)
    s2 = solve(p)
    assert s1.status == s2.status == "optimal"
    assert s1.value == s2.value
    assert s1.x.tobytes() == s2.x.tobytes()
    assert s1.y.tobytes() == s2.y.tobytes()
    assert s1.iterations == s2.iterations


def _random_problem(rng):
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, 5))
    A = rng.integers(-3, 4, size=(m, n)).astype(float)
    b = rng.integers(-4, 5, size=m).astype(float)
    c = rng.integers(-5, 6, size=n).astype(float)
    kinds = [("eq", "le", "ge")[int(rng.integers(0, 3))] for _ in range(m)]
    upper = np.where(rng.random(n) < 0.5, rng.integers(1, 6, size=n).astype(float), np.inf)
    sense = "min" if rng.random() < 0.5 else "max"
    return LpProblem(c=c, A=A, b=b, kinds=kinds, upper=upper, sense=sense)


def test_agrees_with_scipy_on_random_instances():
    rng = np.random.default_rng(2024)
    statuses = set()
    for _ in range(120):
        p = _random_problem(rng)
        sol = solve(p)
        ref = to_scipy(p)
        statuses.add(sol.status)
        if ref.status == 0:
            ref_value = ref.fun if p.sense == "min" else -ref.fun
            assert sol.status == "optimal", (p, ref_value)
            assert abs(sol.value - ref_value) <= 1e-7 * (1 + abs(ref_value))
        elif ref.status == 2:
            assert sol.status == "infeasible"
            check_farkas(p, sol.farkas)
        elif ref.status == 3:
            assert sol.status == "unbounded"
    # the sweep must exercise every outcome
    assert statuses == {"optimal", "infeasible", "unbounded"}


def test_lift_x_matches_per_column_reference(monkeypatch):
    # x is lifted through _lift_dir; it must equal, bit for bit, the per-column
    # lift: x_j = w (direct), upper_j - w (mirror), w+ - w- (split), or pinned
    seen = set()
    lift = lp._Engine._lift_x

    def checked(engine):
        ref = np.zeros(engine.p.nvars)
        for j, v in engine.fixed_value.items():
            ref[j] = v
            seen.add("fixed")
        for k, (kind, j) in enumerate(engine.col_origin):
            w = engine.x[k]
            if kind == "direct":
                ref[j] = w
            elif kind == "mirror":
                ref[j] = engine.p.upper[j] - w
            elif kind == "splitp":
                ref[j] += w
            else:
                ref[j] -= w
            seen.add(kind)
        x = lift(engine)
        assert x.tobytes() == ref.tobytes()
        return x

    monkeypatch.setattr(lp._Engine, "_lift_x", checked)
    rng = np.random.default_rng(11)
    for _ in range(40):
        n, m = int(rng.integers(3, 7)), int(rng.integers(1, 4))
        lower = rng.choice([0.0, -1.5, -np.inf], size=n)
        upper = np.where(rng.random(n) < 0.5, rng.uniform(0.5, 3.0, size=n), np.inf)
        upper[0] = lower[0] = 0.25  # one pinned column
        A = rng.normal(size=(m, n))
        point = np.clip(rng.uniform(-1.0, 1.0, size=n), lower, upper)
        p = LpProblem(c=rng.normal(size=n), A=A, b=A @ point, kinds=["eq"] * m,
                      lower=lower, upper=upper)
        solve(p)
    assert seen == {"fixed", "direct", "mirror", "splitp", "splitn"}


def test_agrees_with_vertex_enumeration():
    rng = np.random.default_rng(99)
    hits = 0
    for _ in range(60):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 4))
        A = rng.integers(-2, 3, size=(m, n)).astype(float)
        b = rng.integers(0, 5, size=m).astype(float)
        c = rng.integers(-4, 5, size=n).astype(float)
        kinds = [("le", "ge", "eq")[int(rng.integers(0, 3))] for _ in range(m)]
        upper = rng.integers(1, 5, size=n).astype(float)
        p = LpProblem(c=c, A=A, b=b, kinds=kinds, upper=upper)
        expect = vertex_oracle(p)
        sol = solve(p)
        if expect is None:
            assert sol.status == "infeasible"
            check_farkas(p, sol.farkas)
        else:
            assert sol.status == "optimal"
            assert abs(sol.value - expect) <= 1e-8 * (1 + abs(expect))
            hits += 1
    assert hits > 20


def test_duality_and_slackness_on_transport():
    rng = np.random.default_rng(5)
    nx, ny = 5, 4
    cost = rng.uniform(0, 3, size=(nx, ny))
    mu = rng.uniform(0.2, 1.0, size=nx)
    nu = rng.uniform(0.2, 1.0, size=ny)
    nu *= mu.sum() / nu.sum()
    A = np.zeros((nx + ny, nx * ny))
    for i in range(nx):
        A[i, i * ny : (i + 1) * ny] = 1.0
    for j in range(ny):
        A[nx + j, j::ny] = 1.0
    p = LpProblem(c=cost.ravel(), A=A, b=np.concatenate([mu, nu]), kinds=["eq"] * (nx + ny))
    sol = solve(p)
    assert sol.status == "optimal"
    # dual value matches (all lower bounds zero, no finite uppers bind)
    assert abs(sol.value - sol.y @ p.b) <= 1e-7 * (1 + abs(sol.value))
    # complementary slackness
    for k in range(nx * ny):
        if sol.x[k] > 1e-7:
            assert abs(sol.reduced[k]) <= 1e-6


def test_solve_vertex_support_size():
    rng = np.random.default_rng(11)
    n = 6
    cost = rng.uniform(0, 1, size=(n, n))
    A = np.zeros((2 * n, n * n))
    for i in range(n):
        A[i, i * n : (i + 1) * n] = 1.0
        A[n + i, i::n] = 1.0
    b = np.full(2 * n, 1.0 / n)
    p = LpProblem(c=cost.ravel(), A=A, b=b, kinds=["eq"] * (2 * n))
    sol = solve_vertex(p)
    assert sol.status == "optimal"
    assert int(np.sum(sol.x > 1e-9)) <= 2 * n


def test_solve_vertex_monotone_cost_gives_identity():
    n = 5
    cost = np.array([[(i - j) ** 2 for j in range(n)] for i in range(n)], dtype=float)
    A = np.zeros((2 * n, n * n))
    for i in range(n):
        A[i, i * n : (i + 1) * n] = 1.0
        A[n + i, i::n] = 1.0
    b = np.full(2 * n, 1.0 / n)
    p = LpProblem(c=cost.ravel(), A=A, b=b, kinds=["eq"] * (2 * n))
    sol = solve_vertex(p)
    plan = sol.x.reshape(n, n)
    np.testing.assert_allclose(plan, np.eye(n) / n, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_feasible_equality_systems(data):
    n = data.draw(st.integers(2, 4))
    m = data.draw(st.integers(1, 3))
    entries = data.draw(
        st.lists(st.integers(-3, 3), min_size=m * n, max_size=m * n)
    )
    x0 = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    cvec = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    A = np.array(entries, dtype=float).reshape(m, n)
    x0 = np.array(x0, dtype=float) / 2.0
    b = A @ x0
    p = LpProblem(c=np.array(cvec, dtype=float), A=A, b=b, kinds=["eq"] * m)
    sol = solve(p)
    assert sol.status in ("optimal", "unbounded")
    if sol.status == "optimal":
        assert sol.value <= float(p.c @ x0) + 1e-8
        np.testing.assert_allclose(p.A @ sol.x, b, atol=1e-8)
        assert np.all(sol.x >= -1e-9)
        # with zero lower bounds the dual value is y.b
        assert abs(sol.value - sol.y @ b) <= 1e-7 * (1 + abs(sol.value))
    else:
        d = sol.ray
        np.testing.assert_allclose(p.A @ d, 0.0, atol=1e-8)
        assert float(p.c @ d) < 0
        assert np.all(d >= -1e-9)
