import numpy as np
import pytest

from vecot import (
    FiniteSpace,
    GridFunction,
    MomentProblem,
    ScalarMeasure,
    conjugate,
    game_value,
    game_value_restricted,
    inf_convolution,
    moment_feasible,
    trig_moment,
)
from vecot import applications
from vecot.applications import _toeplitz
from vecot.lp import LpSolution, NumericalBreakdown


def random_game(rng):
    nx = int(rng.integers(1, 8))
    ny = int(rng.integers(1, 8))
    return rng.normal(size=(nx, ny)) * rng.uniform(0.5, 4.0)


def check_moment_cert(M, m, alpha):
    scale = max(1.0, np.abs(M).max(), np.abs(m).max())
    assert (alpha @ M).min() >= -1e-12 * scale
    assert alpha @ m < -1e-9


def random_convex(rng, xs, max_slope):
    slopes = np.sort(rng.uniform(-max_slope, max_slope, size=xs.size - 1))
    vals = np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])
    return GridFunction(xs, vals + rng.normal())


class TestGameValue:
    def test_matching_pennies(self):
        r = game_value([[1.0, -1.0], [-1.0, 1.0]])
        assert abs(r.value) <= 1e-10
        assert np.allclose(r.row_strategy, [0.5, 0.5], atol=1e-9)
        assert np.allclose(r.col_strategy, [0.5, 0.5], atol=1e-9)

    def test_constant_matrix(self):
        r = game_value(np.full((3, 5), -1.75))
        assert abs(r.value + 1.75) <= 1e-10

    def test_dominant_pure_row(self):
        F = np.array([[5.0, 4.0, 6.0], [1.0, 0.0, 2.0], [3.0, 3.9, 1.0]])
        r = game_value(F)
        assert abs(r.value - 4.0) <= 1e-9
        assert abs(r.row_strategy[0] - 1.0) <= 1e-9

    def test_single_entry(self):
        r = game_value([[2.25]])
        assert r.value == pytest.approx(2.25, abs=1e-12)
        assert r.row_strategy[0] == pytest.approx(1.0)

    def test_saddle_inequalities_random(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            F = random_game(rng)
            r = game_value(F)
            scale = max(1.0, np.abs(F).max())
            # the returned strategies must themselves witness the value
            assert np.min(r.row_strategy @ F) >= r.value - 1e-8 * scale
            assert np.max(F @ r.col_strategy) <= r.value + 1e-8 * scale
            assert abs(r.row_strategy.sum() - 1.0) <= 1e-12
            assert abs(r.col_strategy.sum() - 1.0) <= 1e-12

    def test_player_swap_negates_value(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            F = random_game(rng)
            v = game_value(F).value
            w = game_value(-F.T).value
            assert abs(v + w) <= 1e-8 * max(1.0, np.abs(F).max())

    def test_affine_rescale(self):
        rng = np.random.default_rng(3)
        F = random_game(rng)
        v = game_value(F).value
        assert game_value(2.0 * F + 3.0).value == pytest.approx(2.0 * v + 3.0, abs=1e-8)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            game_value(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            game_value([[1.0, np.nan]])


class TestGameRestricted:
    def space(self, n):
        return FiniteSpace([f"y{i}" for i in range(n)])

    def test_full_support_matches_unrestricted(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            F = random_game(rng)
            ref = ScalarMeasure(self.space(F.shape[1]), np.ones(F.shape[1]))
            r = game_value_restricted(F, ref)
            assert abs(r.value - game_value(F).value) <= 1e-8

    def test_single_column_support(self):
        F = np.array([[3.0, 0.0, 1.0], [0.0, 2.0, 0.5]])
        ref = ScalarMeasure(self.space(3), np.array([0.0, 0.0, 2.0]))
        r = game_value_restricted(F, ref)
        assert r.value == pytest.approx(1.0, abs=1e-9)
        assert r.col_strategy[2] == pytest.approx(1.0)
        assert r.col_strategy[0] == 0.0 and r.col_strategy[1] == 0.0

    def test_shrinking_support_helps_row_player(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            F = rng.normal(size=(4, 5))
            w_full = np.ones(5)
            w_sub = np.array([1.0, 1.0, 0.0, 1.0, 0.0])
            v_full = game_value_restricted(F, ScalarMeasure(self.space(5), w_full)).value
            v_sub = game_value_restricted(F, ScalarMeasure(self.space(5), w_sub)).value
            assert v_sub >= v_full - 1e-8

    def test_strategies_form_saddle(self):
        rng = np.random.default_rng(29)
        F = rng.normal(size=(5, 6))
        weights = np.array([1.0, 0.0, 2.0, 0.0, 1.0, 1.0])
        ref = ScalarMeasure(self.space(6), weights)
        r = game_value_restricted(F, ref)
        support = weights > 0
        assert np.min((r.row_strategy @ F)[support]) >= r.value - 1e-8
        assert np.max(F @ r.col_strategy) <= r.value + 1e-8
        assert np.all(r.col_strategy[~support] == 0.0)

    def test_empty_support_rejected(self):
        F = np.ones((2, 3))
        with pytest.raises(ValueError):
            game_value_restricted(F, ScalarMeasure(self.space(3), np.zeros(3)))

    def test_is_the_game_on_the_support_columns(self):
        rng = np.random.default_rng(31)
        F = rng.normal(size=(4, 6))
        weights = np.array([0.0, 1.0, 3.0, 0.0, 0.5, 1.0])
        r = game_value_restricted(F, ScalarMeasure(self.space(6), weights))
        sub = game_value(F[:, weights > 0])
        assert r.value == sub.value
        np.testing.assert_array_equal(r.row_strategy, sub.row_strategy)
        np.testing.assert_array_equal(r.col_strategy[weights > 0], sub.col_strategy)

    def test_size_mismatch_rejected(self):
        F = np.ones((2, 3))
        with pytest.raises(ValueError):
            game_value_restricted(F, ScalarMeasure(self.space(4), np.ones(4)))


class TestMomentFeasible:
    def quad_setup(self, n=512):
        xs = np.linspace(-2.0, 2.0, n)
        return xs, np.vstack([np.ones_like(xs), xs, xs**2])

    def test_needs_an_atom(self):
        # a function matrix with no columns left the solver nothing to reduce
        with pytest.raises(ValueError, match=r"at least one atom \(column\)"):
            MomentProblem(np.zeros((2, 0)), [1.0, 0.0])

    def test_square_boundary_flip(self):
        # mass, mean, second moment: feasible exactly above the mean squared
        xs, M = self.quad_setup()
        for m2 in (-0.8, -0.4, 0.0, 0.4, 0.8):
            below = moment_feasible(MomentProblem(M, [1.0, m2, m2**2 - 1e-3]))
            above = moment_feasible(MomentProblem(M, [1.0, m2, m2**2 + 1e-3]))
            assert not below.feasible
            check_moment_cert(M, np.array([1.0, m2, m2**2 - 1e-3]), below.cert)
            assert above.feasible
            res = np.abs(M @ above.weights - [1.0, m2, m2**2 + 1e-3]).max()
            assert res <= 1e-9 * 4.0
            assert above.weights.min() >= 0.0

    def test_boundary_band_is_grid_scale(self):
        xs, M = self.quad_setup()
        h = xs[1] - xs[0]
        m2 = 0.3
        # the discrete feasibility threshold sits within h^2 of the true curve
        assert moment_feasible(MomentProblem(M, [1.0, m2, m2**2 + h * h])).feasible
        assert not moment_feasible(MomentProblem(M, [1.0, m2, m2**2 - h * h])).feasible

    def test_zero_target(self):
        _, M = self.quad_setup(64)
        r = moment_feasible(MomentProblem(M, np.zeros(3)))
        assert r.feasible and np.abs(M @ r.weights).max() <= 1e-9

    def test_single_atom_target(self):
        xs, M = self.quad_setup(64)
        r = moment_feasible(MomentProblem(M, M[:, 17]))
        assert r.feasible

    def test_forward_constructed_random(self):
        rng = np.random.default_rng(31)
        xs, M = self.quad_setup(128)
        for _ in range(20):
            w = np.zeros(xs.size)
            idx = rng.choice(xs.size, size=5, replace=False)
            w[idx] = rng.uniform(0.1, 1.0, size=5)
            r = moment_feasible(MomentProblem(M, M @ w))
            assert r.feasible

    def test_mass_zero_positive_spread(self):
        _, M = self.quad_setup(64)
        r = moment_feasible(MomentProblem(M, [0.0, 0.0, 1.0]))
        assert not r.feasible
        check_moment_cert(M, np.array([0.0, 0.0, 1.0]), r.cert)

    def test_mean_outside_range(self):
        _, M = self.quad_setup(64)
        r = moment_feasible(MomentProblem(M, [1.0, 3.0, 9.0]))
        assert not r.feasible
        check_moment_cert(M, np.array([1.0, 3.0, 9.0]), r.cert)

    def test_feasible_set_convex(self):
        xs, M = self.quad_setup(64)
        a = np.array([1.0, 0.5, 0.5])
        b = np.array([1.0, -0.5, 1.5])
        assert moment_feasible(MomentProblem(M, a)).feasible
        assert moment_feasible(MomentProblem(M, b)).feasible
        assert moment_feasible(MomentProblem(M, 0.5 * (a + b))).feasible

    @pytest.mark.parametrize("uniformizer", [True, False])
    def test_a_farkas_floor_just_below_zero_is_lifted_by_a_uniformizer(
        self, monkeypatch, uniformizer
    ):
        # the LP hands back a Farkas vector pairing with M down to -1e-10,
        # past CERT_FLOOR_TOL: a row of ones lifts it pointwise, and with no
        # row bounded away from zero the floor cannot be repaired
        if uniformizer:
            M, m, alpha = np.array([[1.0, 1.0], [0.0, 1.0]]), [1.0, 2.0], [1.0, -1.0 - 1e-10]
        else:
            M, m, alpha = np.eye(2), [1.0, -1.0], [-1e-10, 1.0]
        alpha = np.array(alpha)
        assert -2e-10 < (alpha @ M).min() < -1e-11
        monkeypatch.setattr(applications, "solve",
                            lambda p: LpSolution(status="infeasible", value=np.nan, farkas=alpha))
        if not uniformizer:
            with pytest.raises(NumericalBreakdown, match="^certificate floor not repairable$"):
                moment_feasible(MomentProblem(M, m))
            return
        r = moment_feasible(MomentProblem(M, m))
        assert not r.feasible
        check_moment_cert(M, m, r.cert)
        assert r.cert[0] > alpha[0] and r.cert[1] == alpha[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            MomentProblem(np.ones((2, 5)), np.ones(3))
        with pytest.raises(ValueError):
            MomentProblem(np.array([[1.0, np.inf]]), np.ones(1))


class TestTrigMoment:
    def test_identity_coefficients(self):
        rep = trig_moment([1.0, 0.0, 0.0, 0.0], 64)
        assert rep["psd"] and rep["lp_feasible"]
        assert rep["min_eig"] == pytest.approx(1.0, abs=1e-12)
        assert rep["weights"].sum() == pytest.approx(1.0, abs=1e-9)

    def test_rank_one_on_grid_atom(self):
        G = 64
        z0 = np.exp(-1j * 2.0 * np.pi * 10 / G)
        n = 3
        c = z0 ** np.arange(n + 1)
        C = _toeplitz(c)
        eigs = np.linalg.eigvalsh(C)
        # single mass point: one eigenvalue n+1, the rest zero
        assert eigs[-1] == pytest.approx(n + 1, abs=1e-9)
        assert np.abs(eigs[:-1]).max() <= 1e-9
        v = z0 ** np.arange(n, -1, -1)
        assert np.abs(C @ v - (n + 1) * v).max() <= 1e-9 * (n + 1)
        rep = trig_moment(c, G)
        assert rep["psd"] and rep["lp_feasible"]

    def test_negative_identity_infeasible(self):
        rep = trig_moment([-0.1, 0.0], 16)
        assert rep["min_eig"] == pytest.approx(-0.1, abs=1e-12)
        assert not rep["psd"] and not rep["lp_feasible"]
        assert rep["cert"] is not None

    def test_large_offdiagonal_infeasible(self):
        rep = trig_moment([1.0, 1.2, 0.0], 64)
        assert rep["min_eig"] <= -0.01 * rep["norm"]
        assert not rep["psd"] and not rep["lp_feasible"]

    def test_forward_constructed_measure(self):
        rng = np.random.default_rng(41)
        G = 64
        theta = 2.0 * np.pi * np.arange(G) / G
        w = np.zeros(G)
        w[rng.choice(G, 6, replace=False)] = rng.uniform(0.2, 1.0, 6)
        c = np.exp(-1j * np.outer(np.arange(5), theta)) @ w
        rep = trig_moment(c, G)
        assert rep["psd"] and rep["lp_feasible"]
        back = np.exp(-1j * np.outer(np.arange(5), theta)) @ rep["weights"]
        assert np.abs(back - c).max() <= 1e-7

    def test_seeded_verdicts_agree_off_boundary(self):
        rng = np.random.default_rng(43)
        outside = 0
        for _ in range(40):
            n = int(rng.integers(1, 5))
            c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            c[0] = rng.normal()
            rep = trig_moment(c, 256)
            if not rep["boundary_band"]:
                outside += 1
                assert rep["psd"] == rep["lp_feasible"]
        assert outside >= 20

    def test_preconditions(self):
        with pytest.raises(ValueError):
            trig_moment([1.0, 0.5], 7)
        with pytest.raises(ValueError):
            trig_moment([1.0 + 0.5j, 0.0], 16)


class TestConjugate:
    def test_half_square_self_conjugate(self):
        xs = np.linspace(-3.0, 3.0, 193)
        h = xs[1] - xs[0]
        out = conjugate(GridFunction(xs, 0.5 * xs**2))
        assert np.abs(out.values - 0.5 * xs**2).max() <= h

    def test_young_inequality_exact(self):
        rng = np.random.default_rng(5)
        xs = np.linspace(-1.0, 1.0, 65)
        f = GridFunction(xs, rng.normal(size=65))
        fs = conjugate(f)
        gap = np.add.outer(fs.values, f.values) - np.outer(fs.grid, f.grid)
        assert gap.min() >= -1e-12

    def test_monotone_reversal(self):
        rng = np.random.default_rng(13)
        xs = np.linspace(-1.0, 1.0, 65)
        f = rng.normal(size=65)
        g = f + rng.uniform(0.0, 1.0, size=65)
        fs = conjugate(GridFunction(xs, f)).values
        gs = conjugate(GridFunction(xs, g)).values
        assert np.all(fs >= gs - 1e-12)

    def test_output_convex_even_for_wild_input(self):
        rng = np.random.default_rng(17)
        xs = np.linspace(-2.0, 2.0, 101)
        out = conjugate(GridFunction(xs, rng.normal(size=101) * 5.0))
        d = np.diff(out.values)
        assert np.all(np.diff(d) >= -1e-10 * max(1.0, np.abs(out.values).max()))

    def test_biconjugate_restores_convex(self):
        rng = np.random.default_rng(37)
        xs = np.linspace(-1.0, 1.0, 129)
        h = xs[1] - xs[0]
        for _ in range(10):
            f = random_convex(rng, xs, max_slope=0.8)
            lip = np.abs(np.diff(f.values) / h).max()
            back = conjugate(conjugate(f))
            interior = slice(5, -5)
            dev = np.abs(back.values[interior] - f.values[interior]).max()
            assert dev <= 2.0 * h * (1.0 + lip)

    def test_biconjugate_below_original(self):
        rng = np.random.default_rng(53)
        xs = np.linspace(-1.0, 1.0, 65)
        f = GridFunction(xs, rng.normal(size=65))
        back = conjugate(conjugate(f))
        assert np.all(back.values <= f.values + 1e-12)

    def test_absolute_value_exact(self):
        xs = np.linspace(-2.0, 2.0, 129)
        f = GridFunction(xs, np.abs(xs))
        back = conjugate(conjugate(f))
        assert np.abs(back.values - f.values).max() <= 1e-12

    def test_indicator_like_gives_linear(self):
        xs = np.linspace(-1.0, 1.0, 33)
        vals = np.full(33, 1e6)
        vals[8] = 0.0
        out = conjugate(GridFunction(xs, vals))
        assert np.abs(out.values - xs[8] * xs).max() <= 1e-9

    def test_custom_dual_grid(self):
        xs = np.linspace(0.0, 1.0, 33)
        out = conjugate(GridFunction(xs, xs**2), dual_grid=np.linspace(-4.0, 4.0, 81))
        assert out.grid.shape == (81,)
        with pytest.raises(ValueError):
            conjugate(GridFunction(xs, xs), dual_grid=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("grid,message", [
        ([], "grid must be nonempty"),
        ([1.0, 1.0], "grid must be strictly increasing"),
        ([np.nan, 1.0], "grid data must be finite"),
    ])
    def test_dual_grid_is_checked_by_grid_function(self, grid, message):
        xs = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match=message):
            conjugate(GridFunction(xs, xs**2), dual_grid=np.array(grid))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridFunction(np.array([0.0, 0.0, 1.0]), np.zeros(3))
        with pytest.raises(ValueError):
            GridFunction(np.array([0.0, 1.0]), np.zeros(3))
        with pytest.raises(ValueError):
            GridFunction(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            GridFunction(np.array([0.0, 1.0]), np.array([0.0, np.nan]))


class TestInfConvolution:
    def test_two_quadratics_parallel_sum(self):
        # curvatures combine like resistors in parallel
        xs = np.linspace(-3.0, 3.0, 193)
        h = xs[1] - xs[0]
        a, b = 1.0, 3.0
        conv = inf_convolution(
            GridFunction(xs, 0.5 * a * xs**2), GridFunction(xs, 0.5 * b * xs**2)
        )
        mid = np.abs(conv.grid) <= 2.0
        target = 0.5 * (a * b / (a + b)) * conv.grid[mid] ** 2
        assert np.abs(conv.values[mid] - target).max() <= 2.0 * h

    def test_single_function_identity(self):
        xs = np.linspace(0.0, 1.0, 11)
        f = GridFunction(xs, xs)
        assert inf_convolution(f) is f

    def test_indicators_translate(self):
        xs = np.linspace(-1.0, 1.0, 21)
        big = np.full(21, 1e5)
        fa, fb = big.copy(), big.copy()
        fa[3] = 0.0
        fb[15] = 0.0
        conv = inf_convolution(GridFunction(xs, fa), GridFunction(xs, fb))
        j = np.argmin(conv.values)
        assert conv.values[j] == 0.0
        assert conv.grid[j] == pytest.approx(xs[3] + xs[15], abs=1e-12)

    def test_commutative(self):
        rng = np.random.default_rng(61)
        xs = np.linspace(-1.0, 1.0, 65)
        f = random_convex(rng, xs, 0.9)
        g = random_convex(rng, xs, 0.9)
        ab = inf_convolution(f, g)
        ba = inf_convolution(g, f)
        assert np.abs(ab.values - ba.values).max() <= 1e-12

    def test_conjugate_sum_identity_three_way(self):
        rng = np.random.default_rng(67)
        xs = np.linspace(-1.0, 1.0, 41)
        fs = [random_convex(rng, xs, 0.9) for _ in range(3)]
        conv = inf_convolution(*fs)
        ys = np.linspace(-0.8, 0.8, 33)
        direct = conjugate(conv, dual_grid=ys).values
        summed = sum(conjugate(f, dual_grid=ys).values for f in fs)
        assert np.abs(direct - summed).max() <= 1e-9

    def test_fenchel_duality_gap(self):
        rng = np.random.default_rng(71)
        xs = np.linspace(-1.0, 1.0, 129)
        h = xs[1] - xs[0]
        for _ in range(10):
            f1 = random_convex(rng, xs, 0.9)
            f2 = random_convex(rng, xs, 0.9)
            lip = max(
                np.abs(np.diff(f1.values) / h).max(),
                np.abs(np.diff(f2.values) / h).max(),
            )
            c1 = conjugate(f1).values
            c2 = conjugate(f2).values
            # symmetric grid: reversing the dual values evaluates at -y
            lhs = np.max(-c1[::-1] - c2)
            rhs = np.min(f1.values + f2.values)
            assert lhs <= rhs + 1e-12
            assert rhs - lhs <= 4.0 * h * (1.0 + lip)

    def test_grid_mismatch_rejected(self):
        a = GridFunction(np.linspace(0.0, 1.0, 11), np.zeros(11))
        b = GridFunction(np.linspace(0.0, 1.0, 21), np.zeros(21))
        with pytest.raises(ValueError):
            inf_convolution(a, b)
        bumpy = GridFunction(np.array([0.0, 0.1, 0.4]), np.zeros(3))
        with pytest.raises(ValueError):
            inf_convolution(bumpy, bumpy)
        with pytest.raises(ValueError):
            inf_convolution()


def highs(c, A_eq, b_eq, A_ub=None, b_ub=None, bounds=(0, None)):
    """scipy's HiGHS on the LP as written here: (status, value), status 0 or 2."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status in (0, 2), res.message
    return res.status, res.fun


def moment_instances():
    rng = np.random.default_rng(31)
    for i in range(30):
        k, n = int(rng.integers(1, 5)), int(rng.integers(1, 12))
        M = rng.normal(size=(k, n))
        # half reachable by construction, half a free draw
        m = M @ rng.uniform(0.0, 1.0, n) if i % 2 else rng.normal(size=k)
        yield pytest.param(M, m, id=f"random-{i}")
    xs = np.linspace(-1.0, 1.0, 9)
    powers = np.vstack([xs**p for p in range(3)])
    yield pytest.param(powers, np.array([1.0, 0.0, 0.5]), id="inside-the-moment-cone")
    yield pytest.param(powers, np.array([1.0, 0.0, 1.5]), id="second-moment-past-the-grid")
    yield pytest.param(powers, np.array([1.0, 1.0, 1.0]), id="mass-at-the-right-end")
    yield pytest.param(np.zeros((2, 3)), np.zeros(2), id="all-zero")
    yield pytest.param(np.zeros((1, 3)), np.ones(1), id="zero-functions")
    yield pytest.param(np.ones((1, 1)), -np.ones(1), id="negative-mass")


def trig_instances():
    rng = np.random.default_rng(32)
    for i in range(30):
        n = int(rng.integers(0, 4))
        c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1) * (np.arange(n + 1) > 0)
        c[0] = abs(c[0]) * rng.uniform(0.5, 3.0)
        yield pytest.param(c, 4 * (n + 1) + int(rng.integers(0, 20)), id=f"random-{i}")
    yield pytest.param(np.array([1.0]), 4, id="mass-only")
    yield pytest.param(np.array([0.0, 0.0]), 8, id="zero")
    yield pytest.param(np.array([-1.0, 0.0]), 8, id="negative-mass")
    yield pytest.param(np.array([1.0, 1.0]), 8, id="point-mass-on-the-grid")
    yield pytest.param(np.array([1.0, 1.2]), 64, id="past-the-disc")


class TestHighsOracle:
    @pytest.mark.parametrize("seed", range(25))
    def test_game_value_matches_highs(self, seed):
        # the row player's LP: max v with sigma.F[:, j] >= v for every column j
        rng = np.random.default_rng(seed)
        F = random_game(rng) if seed else np.zeros((3, 2))
        nx, ny = F.shape
        status, value = highs(
            np.r_[np.zeros(nx), -1.0],
            A_ub=np.hstack([-F.T, np.ones((ny, 1))]), b_ub=np.zeros(ny),
            A_eq=np.r_[np.ones(nx), 0.0][None, :], b_eq=[1.0],
            bounds=[(0, None)] * nx + [(None, None)],
        )
        assert status == 0
        assert abs(game_value(F).value + value) <= 1e-9 * max(1.0, abs(value))

    @pytest.mark.parametrize("seed", range(25))
    def test_restricted_game_value_matches_highs(self, seed):
        # the row player's LP with only the support's columns: sigma.F[:, j] >= v, j in S
        rng = np.random.default_rng(100 + seed)
        F = random_game(rng)
        nx, ny = F.shape
        # one column, the full support, then random nonempty subsets
        if seed % 5 == 0:
            support = [int(rng.integers(ny))]
        elif seed % 5 == 1:
            support = list(range(ny))
        else:
            support = sorted(rng.choice(ny, int(rng.integers(1, ny + 1)), replace=False))
        weights = np.zeros(ny)
        weights[support] = rng.uniform(0.1, 1.0, len(support))
        ref = ScalarMeasure(FiniteSpace([f"y{j}" for j in range(ny)]), weights)
        status, value = highs(
            np.r_[np.zeros(nx), -1.0],
            A_ub=np.hstack([-F[:, support].T, np.ones((len(support), 1))]),
            b_ub=np.zeros(len(support)),
            A_eq=np.r_[np.ones(nx), 0.0][None, :], b_eq=[1.0],
            bounds=[(0, None)] * nx + [(None, None)],
        )
        assert status == 0
        res = game_value_restricted(F, ref)
        assert abs(res.value + value) <= 1e-9 * max(1.0, abs(value))
        assert np.all(res.col_strategy[weights == 0.0] == 0.0)

    @pytest.mark.parametrize("M,m", moment_instances())
    def test_moment_verdict_matches_highs(self, M, m):
        status, _ = highs(np.zeros(M.shape[1]), A_eq=M, b_eq=m)
        assert moment_feasible(MomentProblem(M, m)).feasible == (status == 0)

    @pytest.mark.parametrize("c,grid", trig_instances())
    def test_trig_cone_verdict_matches_highs(self, c, grid):
        theta = 2.0 * np.pi * np.arange(grid) / grid
        waves = np.exp(-1j * np.outer(np.arange(c.size), theta))
        status, _ = highs(np.zeros(grid), A_eq=np.vstack([waves.real, waves.imag]),
                          b_eq=np.r_[c.real, c.imag])
        assert trig_moment(c, grid)["lp_feasible"] == (status == 0)
