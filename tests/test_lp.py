import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from vecot import generate, lp
from vecot.lp import LpProblem, NumericalBreakdown, farkas_margin, solve, solve_vertex
from vecot.scalar import solve_ot
from vecot.tolerances import DUAL_TOL, PIV_TOL


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


def check_ray(problem, d):
    """Independent recession-direction check: feasible cone, improving objective."""
    assert d is not None and np.max(np.abs(d)) > 0
    tol = 1e-9 * np.max(np.abs(d))
    assert np.all(d[np.isfinite(problem.lower)] >= -tol)
    assert np.all(d[np.isfinite(problem.upper)] <= tol)
    Ad = problem.A @ d
    for i, k in enumerate(problem.kinds):
        if k == "eq":
            assert abs(Ad[i]) <= tol
        elif k == "le":
            assert Ad[i] <= tol
        else:
            assert Ad[i] >= -tol
    sign = 1.0 if problem.sense == "min" else -1.0
    assert sign * float(problem.c @ d) < -1e-9


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


def test_no_rows_unbounded_ray():
    # only bounds: column 1 falls without limit below its upper bound and
    # column 2 rises without limit above its lower bound
    p = LpProblem(
        c=[1.0, 2.0, -3.0],
        A=np.zeros((0, 3)),
        b=np.zeros(0),
        kinds=[],
        lower=[0.0, -np.inf, 1.0],
        upper=[2.0, 1.0, np.inf],
    )
    sol = solve(p)
    assert sol.status == "unbounded"
    check_ray(p, sol.ray)


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


BEALE_A = np.array(
    [
        [0.25, -8.0, -1.0, 9.0],
        [0.5, -12.0, -0.5, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)


def test_degenerate_cycling_guard():
    # degeneracy-prone variant of Beale's example; the pivot rule must terminate
    p = LpProblem(
        c=[-0.75, 150.0, -0.02, 6.0],
        A=BEALE_A,
        b=[0.0, 0.0, 1.0],
        kinds=["le", "le", "le"],
    )
    sol = solve(p)
    assert sol.status == "optimal"
    ref = to_scipy(p)
    assert abs(sol.value - ref.fun) < 1e-9


def test_beale_cycling_example_needs_the_bland_fallback(monkeypatch):
    # Beale (1955): largest-|r_j| pricing with smallest-index leaving cycles
    # among degenerate bases at the origin
    p = LpProblem(c=[-0.75, 20.0, -0.5, 6.0], A=BEALE_A, b=[0.0, 0.0, 1.0],
                  kinds=["le", "le", "le"])
    sol = solve(p, pivot_limit=200)
    assert sol.status == "optimal"
    assert abs(sol.value - (-1.25)) < 1e-9
    assert abs(sol.value - to_scipy(p).fun) < 1e-9
    # without the fallback the same pricing never leaves the cycle
    monkeypatch.setattr(lp, "_BLAND_AFTER", 10**9)
    with pytest.raises(NumericalBreakdown):
        solve(p, pivot_limit=2000)


def test_pivot_count_regression_guard():
    # pivot counts are deterministic: Dantzig pricing takes 1616 here, pure
    # Bland pricing 5252, so a return to Bland fails this bound
    data = generate.gen("scalar_ot", 1, {"nx": 50, "ny": 50}).data
    before = lp.pivot_total()
    solve_ot(data["mu"], data["nu"], data["cost"])
    assert lp.pivot_total() - before <= 2500


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


def test_bounds_that_admit_no_point_are_rejected():
    # no finite x satisfies a lower bound of +inf or an upper bound of -inf
    with pytest.raises(ValueError):
        LpProblem(c=[0.0, 0.0], A=[[1.0, 1.0]], b=[1.0], kinds=["eq"],
                  lower=[np.inf, 0.0], upper=[np.inf, np.inf])
    with pytest.raises(ValueError):
        LpProblem(c=[0.0], A=[[1.0]], b=[1.0], kinds=["eq"],
                  lower=[-np.inf], upper=[-np.inf])


@pytest.mark.parametrize("which", ["x", "y", "value"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_certify_rejects_non_finite_numbers(which, bad):
    # x = 1, y = 1 is the optimal pair of min x s.t. x = 1; NaN compares
    # false, so without the finiteness check every later test would pass
    p = LpProblem(c=[1.0], A=[[1.0]], b=[1.0], kinds=["eq"])
    args = {"x": np.array([1.0]), "y": np.array([1.0]), "value": 1.0}
    lp.certify(p, **args)
    args[which] = bad if which == "value" else np.array([bad])
    with pytest.raises(NumericalBreakdown):
        lp.certify(p, **args)


def _one_eq_row(lower, upper):
    """min x s.t. x = 1 with bounds [lower, upper], solved: x = 1, y = 1."""
    p = LpProblem(c=[1.0], A=[[1.0]], b=[1.0], kinds=["eq"], lower=[lower], upper=[upper])
    return p, solve(p)


def _one_le_row():
    """min x0 + x1 s.t. x0 + x1 <= 1, x >= 0, solved: x = 0, y = 0."""
    p = LpProblem(c=[1.0, 1.0], A=[[1.0, 1.0]], b=[1.0], kinds=["le"])
    return p, solve(p)


# each case moves one number of a certified pair just past its tolerance
# (FEAS_TOL 1e-9, CERT_DUAL_TOL 1e-7, GAP_TOL 1e-7, all at unit scale)
_CERTIFY_REJECTIONS = {
    "primal residual": (lambda: _one_eq_row(0.0, np.inf), "x", 0, 2e-9,
                        "primal residual 2.00e-09 on row 0"),
    "bounds": (_one_le_row, "x", 1, -2e-9, "primal bounds violated"),
    "dual sign": (_one_le_row, "y", 0, 2e-7, "dual sign violated on le row 0"),
    "free variable": (lambda: _one_eq_row(-np.inf, np.inf), "y", 0, -2e-7,
                      "dual infeasibility at free variable 0"),
    "unbounded above": (lambda: _one_eq_row(0.0, np.inf), "y", 0, 2e-7,
                        "dual infeasibility at variable 0"),
    "slackness at the lower side": (lambda: _one_eq_row(0.0, 2.0), "y", 0, -2e-7,
                                    "complementary slackness violated at variable 0"),
    "slackness at the upper side": (lambda: _one_eq_row(0.0, 2.0), "y", 0, 2e-7,
                                    "complementary slackness violated at variable 0"),
    "duality gap": (lambda: _one_eq_row(0.0, np.inf), "value", None, 4e-7,
                    "duality gap 4.000e-07 exceeds tolerance"),
}


@pytest.mark.parametrize("case", sorted(_CERTIFY_REJECTIONS))
def test_certify_rejects_a_pair_just_past_each_tolerance(case):
    build, which, index, delta, message = _CERTIFY_REJECTIONS[case]
    p, sol = build()
    args = {"x": sol.x.copy(), "y": sol.y.copy(), "value": sol.value}
    lp.certify(p, **args)
    if index is None:
        args[which] += delta
    else:
        args[which][index] += delta
    with pytest.raises(NumericalBreakdown) as exc:
        lp.certify(p, **args)
    assert str(exc.value) == message


@pytest.mark.parametrize("entry, delta", [(2, -2e-9), (2, 2e-9), (0, 3e-9)])
def test_ray_check_rejects_a_ray_just_past_each_tolerance(entry, delta):
    # min -x0 s.t. x0 - x1 = 0 with x0, x1 >= 0 and an idle x2 in [0, 1]
    # has the ray (1, 1, 0); the cases leave x2's lower bound, x2's upper
    # bound and the row, each by more than FEAS_TOL
    p = LpProblem(c=[-1.0, 0.0, 0.0], A=[[1.0, -1.0, 0.0]], b=[0.0], kinds=["eq"],
                  upper=[np.inf, np.inf, 1.0])
    sol = solve(p)
    np.testing.assert_array_equal(sol.ray, [1.0, 1.0, 0.0])
    assert lp._ray_valid(p, sol.ray, 1.0)
    ray = sol.ray.copy()
    ray[entry] += delta
    assert not lp._ray_valid(p, ray, 1.0)


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


# bound types of the all-zero columns: [0, inf), a box, (-inf, u], free
_BOUND_TYPES = ((0.0, np.inf), (-1.0, 2.0), (-np.inf, 1.0), (-np.inf, np.inf))


def _problem_with_trivial_parts(rng, seen):
    """A small LP plus fixed columns, all-zero rows and all-zero columns, shuffled."""
    n, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    A = rng.integers(-3, 4, size=(m, n)).astype(float)
    b = rng.integers(-4, 5, size=m).astype(float)
    c = rng.integers(-5, 6, size=n).astype(float)
    kinds = [str(k) for k in rng.choice(["eq", "le", "ge"], size=m)]
    lower = np.zeros(n)
    upper = np.where(rng.random(n) < 0.5, rng.integers(1, 6, size=n).astype(float), np.inf)
    sense = "min" if rng.random() < 0.5 else "max"
    sign = 1.0 if sense == "min" else -1.0
    for _ in range(int(rng.integers(0, 3))):
        v = float(rng.choice([-1.0, 0.0, 1.5]))
        A = np.column_stack([A, rng.integers(-3, 4, size=m)])
        c = np.append(c, rng.integers(-5, 6))
        lower, upper = np.append(lower, v), np.append(upper, v)
        seen.add("fixed column")
    for _ in range(int(rng.integers(0, 3))):
        cmin, t = int(rng.integers(-1, 2)), int(rng.integers(0, 4))
        A = np.column_stack([A, np.zeros(m)])
        c = np.append(c, 2.0 * sign * cmin)
        lower, upper = np.append(lower, _BOUND_TYPES[t][0]), np.append(upper, _BOUND_TYPES[t][1])
        seen.add(("zero column", cmin, t))
    for _ in range(int(rng.integers(0, 3))):
        kind = str(rng.choice(["eq", "le", "ge"]))
        rhs = 0.0 if rng.random() < 0.6 else float(rng.choice([-2.0, 2.0]))
        A = np.vstack([A, np.zeros(A.shape[1])])
        b, kinds = np.append(b, rhs), kinds + [kind]
        seen.add(("zero row", kind, rhs == 0.0))
    rows, cols = rng.permutation(A.shape[0]), rng.permutation(A.shape[1])
    return LpProblem(c=c[cols], A=A[rows][:, cols], b=b[rows], kinds=[kinds[i] for i in rows],
                     lower=lower[cols], upper=upper[cols], sense=sense)


def _assert_agrees_with_scipy(p):
    """Solve p and check its status, certificate or value against HiGHS.

    Every fixed column must come back exactly at its value.
    """
    sol = solve(p)
    # feasibility first, so "infeasible and unbounded" has one answer
    feas = to_scipy(LpProblem(c=np.zeros(p.nvars), A=p.A, b=p.b, kinds=p.kinds,
                              lower=p.lower, upper=p.upper))
    assert feas.status in (0, 2)
    if feas.status == 2:
        assert sol.status == "infeasible"
        check_farkas(p, sol.farkas)
        return sol.status
    ref = to_scipy(p)
    assert ref.status in (0, 3)
    if ref.status == 3:
        assert sol.status == "unbounded"
        check_ray(p, sol.ray)
        return sol.status
    ref_value = ref.fun if p.sense == "min" else -ref.fun
    assert sol.status == "optimal"
    assert abs(sol.value - ref_value) <= 1e-7 * (1 + abs(ref_value))
    fixed = p.lower == p.upper
    assert np.array_equal(sol.x[fixed], p.lower[fixed])
    return sol.status


def test_fixed_and_empty_rows_and_columns_agree_with_scipy():
    rng = np.random.default_rng(808)
    seen, statuses = set(), set()
    for _ in range(400):
        p = _problem_with_trivial_parts(rng, seen)
        statuses.add(_assert_agrees_with_scipy(p))
    kinds = {("zero row", k, z) for k in ("eq", "le", "ge") for z in (True, False)}
    columns = {("zero column", s, t) for s in (-1, 0, 1) for t in range(4)}
    assert seen == {"fixed column"} | kinds | columns
    assert statuses == {"optimal", "infeasible", "unbounded"}


def _problem_with_mixed_bounds(rng, seen):
    """A small LP whose columns draw [0, inf), [l, inf) with l < 0, a box,
    (-inf, u], free or fixed bounds; half of them are built feasible."""
    n, m = int(rng.integers(2, 7)), int(rng.integers(1, 5))
    A = rng.integers(-3, 4, size=(m, n)).astype(float)
    c = rng.integers(-5, 6, size=n).astype(float)
    kinds = [str(k) for k in rng.choice(["eq", "le", "ge"], size=m)]
    lower, upper = np.zeros(n), np.full(n, np.inf)
    for j, t in enumerate(rng.integers(0, 6, size=n)):
        l, u = -float(rng.integers(1, 4)), float(rng.integers(0, 4))
        lower[j], upper[j] = (
            (0.0, np.inf), (l, np.inf), (l, u), (-np.inf, u), (-np.inf, np.inf), (u - 1.5, u - 1.5)
        )[t]
        seen.add(int(t))
    if rng.random() < 0.5:
        point = np.clip(rng.integers(-3, 4, size=n).astype(float), lower, upper)
        b = A @ point
    else:
        b = rng.integers(-4, 5, size=m).astype(float)
    sense = "min" if rng.random() < 0.5 else "max"
    return LpProblem(c=c, A=A, b=b, kinds=kinds, lower=lower, upper=upper, sense=sense)


def test_every_bound_type_agrees_with_scipy():
    # the engine runs on the problem's own columns and bounds: free and
    # (-inf, u] columns are priced and moved as they are, fixed ones never move
    rng = np.random.default_rng(11)
    seen, statuses = set(), set()
    for _ in range(400):
        statuses.add(_assert_agrees_with_scipy(_problem_with_mixed_bounds(rng, seen)))
    assert seen == set(range(6))
    assert statuses == {"optimal", "infeasible", "unbounded"}


def _farkas_margin_loop(problem, y):
    """The per-row, per-column loop `farkas_margin` replaced, kept as a reference."""
    FEAS_TOL = 1e-9
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape[0] != problem.nrows:
        return np.inf
    for i, k in enumerate(problem.kinds):
        if k == "le" and y[i] < -FEAS_TOL:
            return np.inf
        if k == "ge" and y[i] > FEAS_TOL:
            return np.inf
    r = problem.A.T @ y
    scale = max(1.0, float(np.max(np.abs(y))) if y.size else 1.0)
    tol_r = FEAS_TOL * scale
    term = 0.0
    for j in range(problem.nvars):
        rj = float(r[j])
        lo, up = problem.lower[j], problem.upper[j]
        if rj > tol_r:
            if not np.isfinite(lo):
                return np.inf
            term += rj * lo
        elif rj < -tol_r:
            if not np.isfinite(up):
                return np.inf
            term += rj * up
        else:
            cands = [0.0]
            if np.isfinite(lo):
                cands.append(rj * lo)
            if np.isfinite(up):
                cands.append(rj * up)
            term += min(cands)
    return float(y @ problem.b - term)


def test_farkas_margin_matches_the_loop_reference():
    rng = np.random.default_rng(5)
    outcomes = set()
    for trial in range(600):
        m, n = int(rng.integers(0, 6)), int(rng.integers(1, 9))
        kinds = list(rng.choice(["eq", "le", "ge"], size=m))
        # [0, inf), free, mirrored (-inf, u], boxed, fixed
        shape = rng.integers(0, 5, size=n)
        lo = rng.uniform(-2.0, 1.0, size=n)
        up = lo + rng.uniform(0.5, 2.0, size=n)
        lower = np.select([shape == 0, shape <= 2], [0.0, -np.inf], lo)
        upper = np.select([shape == 0, shape == 1, shape == 4], [np.inf, np.inf, lo], up)
        # rows signed as a certificate needs, except now and then
        y = np.abs(rng.normal(size=m)) * rng.choice([1.0, 10.0, 1e3], size=m)
        sign = np.array([{"eq": rng.choice([-1.0, 1.0]), "le": 1.0, "ge": -1.0}[k] for k in kinds])
        y = y * (sign if m else 1.0)
        if m and rng.random() < 0.1:
            y[rng.integers(m)] *= -1.0
        A = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.7)
        if m and y @ y > 0:
            # columns whose multiplier r_j = A_j . y lies inside the band
            band = 1e-9 * max(1.0, float(np.abs(y).max()))
            for j in np.flatnonzero(rng.random(n) < 0.4):
                A[:, j] -= (A[:, j] @ y) / (y @ y) * y
                A[:, j] += rng.uniform(-0.5, 0.5) * band / (y @ y) * y
        b = rng.normal(size=m) * 3.0
        p = LpProblem(c=np.zeros(n), A=A.reshape(m, n), b=b, kinds=kinds,
                      lower=lower, upper=upper)
        if trial % 50 == 0:
            y = np.append(y, 1.0)  # wrong length
        want, got = _farkas_margin_loop(p, y), farkas_margin(p, y)
        if np.isinf(want):
            assert got == want
            outcomes.add("inf")
        else:
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
            outcomes.add("finite")
    assert outcomes == {"inf", "finite"}


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
    reduced = p.c - p.A.T @ sol.y
    for k in range(nx * ny):
        if sol.x[k] > 1e-7:
            assert abs(reduced[k]) <= 1e-6


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


def test_solve_vertex_accepts_a_free_column_at_zero():
    # x2 is free and in no row: it stays nonbasic at 0, which is a vertex
    p = LpProblem(c=[1.0, 0.0, 0.0], A=[[1.0, 1.0, 0.0]], b=[1.0], kinds=["eq"],
                  lower=[0.0, -np.inf, -np.inf], upper=[np.inf] * 3)
    sol = solve_vertex(p)
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, [0.0, 1.0, 0.0], atol=1e-12)


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


# --- reference pivot loop ----------------------------------------------------


class _ReferenceEngine(lp._Engine):
    """The dense engine with the builders and the pivot loop it had before
    pricing moved to one signed array: per-row Python loops, an eligibility
    mask rebuilt on every pivot and a ratio test over boolean masks.  The
    engine must enter, leave and return exactly what this one does."""

    longest_stall = 0  # most degenerate pivots in a row

    def _build(self):
        p = self.p
        slack_rows = [i for i, k in enumerate(p.kinds) if k != "eq"]
        ns = len(slack_rows)
        slacks = np.zeros((p.nrows, ns))
        self.slack_of_row = {}
        for k, i in enumerate(slack_rows):
            slacks[i, k] = 1.0 if p.kinds[i] == "le" else -1.0
            self.slack_of_row[i] = p.nvars + k
        self.Ahat = np.hstack([p.A, slacks])
        self.chat = np.concatenate([self.sense_sign * p.c, np.zeros(ns)])
        self.lohat = np.concatenate([p.lower, np.zeros(ns)])
        self.hihat = np.concatenate([p.upper, np.full(ns, np.inf)])
        self.bhat = p.b

    def _init_phase1(self):
        self._build()
        mh = self.p.nrows
        nh = self.Ahat.shape[1]
        lo_finite, hi_finite = np.isfinite(self.lohat), np.isfinite(self.hihat)
        start_upper = ~lo_finite & hi_finite
        x = np.where(lo_finite, self.lohat, np.where(hi_finite, self.hihat, 0.0))
        resid = self.bhat - self.Ahat @ x
        basis = np.full(mh, -1, dtype=int)
        sigmas, art_hi = [], []
        for pos in range(mh):
            t = float(resid[pos])
            spos = self.slack_of_row.get(pos)
            took_slack = False
            if spos is not None:
                val = t / self.Ahat[pos, spos]
                if val >= 0.0:
                    basis[pos] = spos
                    x[spos] = val
                    took_slack = True
            sigmas.append(1.0 if t >= 0.0 else -1.0)
            if took_slack:
                art_hi.append(0.0)
            else:
                basis[pos] = nh + pos
                art_hi.append(np.inf)
        self.first_art = nh
        # artificial column of row pos: sigma_pos * e_pos
        self.Ahat = np.hstack([self.Ahat, np.diag(sigmas)])
        self.chat = np.concatenate([self.chat, np.zeros(mh)])
        self.phase1_cost = np.concatenate([np.zeros(nh), np.ones(mh)])
        self.lohat = np.concatenate([self.lohat, np.zeros(mh)])
        self.hihat = np.concatenate([self.hihat, np.array(art_hi)])
        x = np.concatenate([x, np.zeros(mh)])
        for pos in range(mh):
            bi = basis[pos]
            if bi >= nh:
                x[bi] = resid[pos] / self.Ahat[pos, bi]
        self.x = x
        self.basis = basis
        ncols = self.Ahat.shape[1]
        self.in_basis = np.zeros(ncols, dtype=bool)
        self.in_basis[basis] = True
        self.at_upper = np.concatenate([start_upper, np.zeros(mh, dtype=bool)])
        self.Binv = np.diag(1.0 / self.Ahat[np.arange(mh), basis])
        self.since_refactor = 0

    def _loop(self, costs: np.ndarray, allow_unbounded: bool):
        """Iterate until optimal or unbounded under the given cost vector."""
        mh = self.p.nrows
        range_open = self.hihat - self.lohat > 0.0
        free = ~np.isfinite(self.lohat) & ~np.isfinite(self.hihat)
        stalled = 0  # degenerate (zero-length) pivots in a row
        while True:
            if self.iterations > self.pivot_limit:
                raise NumericalBreakdown(
                    f"pivot limit {self.pivot_limit} exceeded after {self.iterations} iterations"
                )
            if self.since_refactor >= lp._REFACTOR_EVERY:
                self._refactor()
            y = self.Binv.T @ costs[self.basis]
            r = costs - self.Ahat.T @ y
            eligible = (~self.in_basis) & range_open & (
                ((~self.at_upper) & (r < -DUAL_TOL)) | ((self.at_upper | free) & (r > DUAL_TOL))
            )
            idx = np.nonzero(eligible)[0]
            if idx.size == 0:
                return "optimal", y, r
            if stalled < lp._BLAND_AFTER:
                j = int(idx[np.argmax(np.abs(r[idx]))])  # Dantzig; ties to the smallest index
            else:
                j = int(idx[0])  # Bland: smallest eligible index enters
            sigma = -1.0 if r[j] > 0.0 else 1.0
            d = self.Binv @ self.Ahat[:, j]
            rate = -sigma * d  # change of basic values per unit step
            t_best = self.hihat[j] - self.lohat[j]
            leave_pos = -1
            leave_hits_upper = False
            xB = self.x[self.basis]
            loB = self.lohat[self.basis]
            hiB = self.hihat[self.basis]
            down = rate < -PIV_TOL
            up = rate > PIV_TOL
            t_rows = np.full(mh, np.inf)
            t_rows[down] = (xB[down] - loB[down]) / (-rate[down])
            t_rows[up] = (hiB[up] - xB[up]) / rate[up]
            t_rows = np.maximum(t_rows, 0.0)
            tmin = float(np.min(t_rows)) if mh else np.inf
            if tmin < t_best:
                # Bland: among blocking rows the smallest variable index leaves
                ties = np.nonzero(t_rows <= tmin)[0]
                leave_pos = int(ties[np.argmin(self.basis[ties])])
                t_best = tmin
                leave_hits_upper = rate[leave_pos] > 0.0
            if not np.isfinite(t_best):
                if not allow_unbounded:
                    raise NumericalBreakdown("phase-one subproblem reported unbounded")
                return "unbounded", j, sigma
            self.iterations += 1
            stalled = stalled + 1 if t_best == 0.0 else 0
            self.longest_stall = max(self.longest_stall, stalled)  # not in the engine
            if leave_pos < 0:
                # bound flip, no basis change
                self.x[self.basis] += rate * t_best
                self.x[j] = self.hihat[j] if sigma > 0 else self.lohat[j]
                self.at_upper[j] = not self.at_upper[j]
                continue
            self.x[self.basis] += rate * t_best
            self.x[j] += sigma * t_best
            lv = int(self.basis[leave_pos])
            self.x[lv] = self.hihat[lv] if leave_hits_upper else self.lohat[lv]
            self.at_upper[lv] = leave_hits_upper
            self.in_basis[lv] = False
            self.basis[leave_pos] = j
            self.in_basis[j] = True
            piv = d[leave_pos]
            if abs(piv) < PIV_TOL:
                self._refactor()
                continue
            self.Binv[leave_pos, :] /= piv
            col = d.copy()
            col[leave_pos] = 0.0
            self.Binv -= np.outer(col, self.Binv[leave_pos, :])
            self.since_refactor += 1


def _outcome(engine):
    """Everything a solve returns, as bytes where it is an array."""
    try:
        sol = engine.run()
    except NumericalBreakdown as exc:
        return ("breakdown", str(exc))
    arrays = (sol.x, sol.y, sol.farkas, sol.ray)
    return (sol.status, sol.iterations, repr(sol.value),
            *(None if a is None else a.tobytes() for a in arrays))


def _assert_same_pivots(p):
    limit = 10 * (p.nrows + p.nvars) ** 2
    ref = _ReferenceEngine(p, limit)
    want = _outcome(ref)
    assert _outcome(lp._Engine(p, limit)) == want
    return want[0], ref.longest_stall


BOUND_TYPES = (  # [0, inf), [l, inf) with l < 0, box, (-inf, u], free, fixed
    lambda l, u: (0.0, np.inf), lambda l, u: (l, np.inf), lambda l, u: (l, u),
    lambda l, u: (-np.inf, u), lambda l, u: (-np.inf, np.inf), lambda l, u: (u, u),
)


def _draw_lp(data, scale=1.0):
    n, m = data.draw(st.integers(1, 6)), data.draw(st.integers(0, 4))
    ints = lambda k, lo, hi: np.array(data.draw(st.lists(st.integers(lo, hi), min_size=k,
                                                          max_size=k)), dtype=float)
    A, c = ints(m * n, -3, 3).reshape(m, n) / scale, ints(n, -5, 5)
    kinds = data.draw(st.lists(st.sampled_from(["eq", "le", "ge"]), min_size=m, max_size=m))
    types = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    lu = [BOUND_TYPES[t](-float(l), float(u))
          for t, l, u in zip(types, ints(n, 1, 3), ints(n, 0, 3))]
    lower, upper = np.array(lu).reshape(n, 2).T
    if data.draw(st.booleans()):  # feasible: b is the image of a point in the box
        b = A @ np.clip(ints(n, -3, 3), lower, upper)
    else:
        b = ints(m, -4, 4)
    sense = data.draw(st.sampled_from(["min", "max"]))
    return LpProblem(c=c, A=A, b=b, kinds=kinds, lower=lower, upper=upper, sense=sense)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pivot_loop_matches_the_reference(data):
    p = _draw_lp(data)
    # a small threshold reaches Bland's rule on short degenerate runs too
    bland_after = data.draw(st.sampled_from([lp._BLAND_AFTER, 0, 1, 2]))
    saved = lp._BLAND_AFTER
    lp._BLAND_AFTER = bland_after
    try:
        _assert_same_pivots(p)
    finally:
        lp._BLAND_AFTER = saved


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pivot_loop_matches_the_reference_across_refactors(data):
    # a refactor inside the loop recomputes the basic values, which the
    # loop then reads back in basis order; thirds are inexact, so the
    # recomputed values differ in their last bits from the updated ones
    p = _draw_lp(data, scale=3.0)
    saved = lp._REFACTOR_EVERY
    lp._REFACTOR_EVERY = data.draw(st.sampled_from([1, 2, 3]))
    try:
        _assert_same_pivots(p)
    finally:
        lp._REFACTOR_EVERY = saved


def test_pivot_loop_matches_the_reference_through_bland():
    # Beale's example, with slack rows either way round and in either
    # sense, stalls for more than _BLAND_AFTER pivots, so Bland's rule
    # decides the last entering columns
    c = np.array([-0.75, 20.0, -0.5, 6.0])
    for A, b, kind in ((BEALE_A, [0.0, 0.0, 1.0], "le"), (-BEALE_A, [0.0, 0.0, -1.0], "ge")):
        for sense, sign in (("min", 1.0), ("max", -1.0)):
            p = LpProblem(c=sign * c, A=A, b=b, kinds=[kind] * 3, sense=sense)
            status, longest = _assert_same_pivots(p)
            assert status == "optimal"
            assert longest > lp._BLAND_AFTER
