import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vecot import vector
from vecot.lp import LpProblem, NumericalBreakdown, certify, farkas_margin
from vecot.measures import (
    FiniteSpace,
    Kernel,
    ScalarMeasure,
    VectorMeasure,
    grid_space,
    kernel_apply,
    kernel_compose,
    pushforward,
)
from vecot.scalar import InfeasibleTransport, solve_ot
from vecot.tolerances import CERT_TOL
from vecot.vector import (
    VectorOtProblem,
    blackwell_check,
    dominates,
    dominates_n,
    dual_refinement_study,
    extract_map,
    feasible_range,
    martingale_polytope,
    multi_range,
    solve_vector_ot,
    strong_dominates,
)


def two_atom_measure():
    # components (1,0) and (1/2,1/2) written per atom
    return VectorMeasure(
        FiniteSpace(["x0", "x1"]), np.array([[1.0, 0.5], [0.0, 0.5]])
    )


def coin_target(a, b):
    # components (a,1-a) and (b,1-b) written per atom
    return np.array([[a, b], [1.0 - a, 1.0 - b]])


def linear_density_grid(n):
    sp = grid_space(n)
    xs = sp.coords.ravel()
    vals = np.column_stack([np.ones(n), 2.0 * xs]) / n
    return VectorMeasure(sp, vals, ref_weights=np.full(n, 1.0 / n)), xs


def check_dominance_cert(mu_values, nu_values, eta, cert):
    # separating potentials must pair nonnegatively against eta and
    # strictly negatively against the data
    psi, phi = cert["psi"], cert["phi"]
    floor = np.inf
    for x in range(eta.shape[0]):
        if float(eta[x] @ eta[x]) == 0.0:
            continue
        floor = min(floor, float(np.min((psi[x] + phi) @ eta[x])))
    total = float((psi * mu_values).sum() + (phi * nu_values).sum())
    assert floor >= -1e-12
    assert total < -1e-9


class TestDominance:
    def test_two_atom_region_closed_form(self):
        mu = two_atom_measure()
        for ia in range(21):
            for ib in range(21):
                a, b = ia / 20.0, ib / 20.0
                ok, cert = dominates(mu, coin_target(a, b))
                inside = a / 2.0 - 1e-12 <= b <= (a + 1.0) / 2.0 + 1e-12
                assert ok == inside, (a, b)
                assert cert.kind == ("kernel" if ok else "farkas")

    def test_kernel_cert_pushes_exactly(self):
        mu = two_atom_measure()
        ok, cert = dominates(mu, coin_target(0.4, 0.3))
        assert ok
        pushed = kernel_apply(cert.payload, mu)
        assert np.max(np.abs(pushed.values - coin_target(0.4, 0.3))) <= 1e-9

    def test_farkas_cert_separates(self):
        mu = two_atom_measure()
        target = coin_target(0.2, 0.8)
        ok, cert = dominates(mu, target)
        assert not ok
        check_dominance_cert(mu.values, target, mu.density, cert.payload)

    def test_invalid_target_rejected(self):
        # probing past the simplex: component two would need mass 1.1
        mu = VectorMeasure(
            FiniteSpace(["x0", "x1"]), np.array([[1.0, 0.0], [0.0, 1.0]])
        )
        ok, cert = dominates(mu, np.array([[0.4, 1.1], [0.6, -0.1]]))
        assert not ok
        check_dominance_cert(mu.values, np.array([[0.4, 1.1], [0.6, -0.1]]),
                             mu.density, cert.payload)

    def test_feasible_range_matches_region(self):
        mu = two_atom_measure()
        for a in [0.0, 0.3, 0.7, 1.0]:
            base = np.array([[a, 0.0], [1.0 - a, 1.0]])
            direction = np.array([[0.0, 1.0], [0.0, -1.0]])
            lo, hi = feasible_range(mu, base, direction)
            assert abs(lo - a / 2.0) <= 1e-9
            assert abs(hi - (a + 1.0) / 2.0) <= 1e-9

    def test_reflexive(self):
        rng = np.random.default_rng(5)
        vals = rng.uniform(0.1, 1.0, size=(4, 3))
        mu = VectorMeasure(FiniteSpace([f"x{i}" for i in range(4)]), vals)
        ok, cert = dominates(mu, mu)
        assert ok and cert.kind == "kernel"

    def test_transitive_with_composed_kernel(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            vals = rng.uniform(0.05, 1.0, size=(4, 2))
            mu = VectorMeasure(FiniteSpace([f"x{i}" for i in range(4)]), vals)
            sp3 = FiniteSpace([f"y{i}" for i in range(3)])
            sp2 = FiniteSpace([f"z{i}" for i in range(2)])
            P = Kernel(mu.space, sp3, _random_rows(rng, 4, 3))
            nu = kernel_apply(P, mu)
            Q = Kernel(sp3, sp2, _random_rows(rng, 3, 2))
            lam = kernel_apply(Q, nu)
            ok1, c1 = dominates(mu, nu)
            ok2, c2 = dominates(nu, lam)
            ok3, _ = dominates(mu, lam)
            assert ok1 and ok2 and ok3
            composed = kernel_compose(c1.payload, c2.payload)
            pushed = kernel_apply(composed, mu)
            assert np.max(np.abs(pushed.values - lam.values)) <= 1e-9

    def test_dominated_set_is_convex(self):
        rng = np.random.default_rng(23)
        vals = rng.uniform(0.05, 1.0, size=(3, 2))
        mu = VectorMeasure(FiniteSpace(["x0", "x1", "x2"]), vals)
        tgt = FiniteSpace(["y0", "y1"])
        nu0 = kernel_apply(Kernel(mu.space, tgt, _random_rows(rng, 3, 2)), mu)
        nu1 = kernel_apply(Kernel(mu.space, tgt, _random_rows(rng, 3, 2)), mu)
        for t in (0.25, 0.5, 0.75):
            mix = t * nu1.values + (1.0 - t) * nu0.values
            ok, _ = dominates(mu, mix)
            assert ok

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_pushforward_is_dominated(self, data):
        n = data.draw(st.integers(2, 5))
        d = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(1, 4))
        vals = np.array(
            data.draw(
                st.lists(
                    st.lists(st.floats(0.01, 2.0), min_size=d, max_size=d),
                    min_size=n, max_size=n,
                )
            )
        )
        mapping = data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        mu = VectorMeasure(FiniteSpace([f"x{i}" for i in range(n)]), vals)
        target = FiniteSpace([f"y{j}" for j in range(m)])
        nu = pushforward(mu, mapping, target=target)
        ok, cert = dominates(mu, nu)
        assert ok and cert.kind == "kernel"

    @pytest.mark.parametrize("m", [2, 3])
    def test_kernel_rows_are_normalized_by_their_own_sums(self, m):
        # a draw of test_pushforward_is_dominated whose plan row 1 sums to
        # t + 8e-12: dividing by t gave a row Kernel rejects
        vals = np.array([[2.0, 1.46875, 0.6328125],
                         [1.890625, 1.1574211428099381, 0.1875],
                         [0.3359375, 1.3125, 2.0]])
        mu = VectorMeasure(FiniteSpace(["x0", "x1", "x2"]), vals)
        target = FiniteSpace([f"y{j}" for j in range(m)])
        nu = pushforward(mu, [0, 0, 0], target=target)
        ok, cert = dominates(mu, nu)
        assert ok and cert.kind == "kernel"
        pushed = kernel_apply(cert.payload, mu)
        assert np.max(np.abs(pushed.values - nu.values)) <= 1e-9


def _random_rows(rng, n, m):
    rows = rng.uniform(0.05, 1.0, size=(n, m))
    return rows / rows.sum(axis=1, keepdims=True)


class TestVectorSolve:
    def test_scalar_case_reduces_to_plain_ot(self):
        rng = np.random.default_rng(7)
        w_mu = rng.uniform(0.2, 1.0, size=4)
        w_nu = rng.uniform(0.2, 1.0, size=3)
        w_nu *= w_mu.sum() / w_nu.sum()
        cost = rng.uniform(0.0, 2.0, size=(4, 3))
        sm = solve_ot(
            ScalarMeasure(FiniteSpace(list("abcd")), w_mu),
            ScalarMeasure(FiniteSpace(list("xyz")), w_nu),
            cost,
        )
        mu = VectorMeasure(FiniteSpace(list("abcd")), w_mu[:, None])
        nu = VectorMeasure(FiniteSpace(list("xyz")), w_nu[:, None])
        vm = solve_vector_ot(VectorOtProblem(mu, nu, cost))
        assert abs(vm.value - sm.value) <= 1e-9 * (1.0 + abs(sm.value))
        assert np.max(np.abs(vm.plan.x_marginal().weights - w_mu)) <= 1e-9

    def test_dual_identity_and_feasibility(self):
        mu, xs = linear_density_grid(20)
        nu = VectorMeasure(
            FiniteSpace(["y0", "y1"]), np.array([[0.5, 0.4], [0.5, 0.6]])
        )
        cost = np.column_stack([xs, 1.0 - xs])
        res = solve_vector_ot(VectorOtProblem(mu, nu, cost))
        Psi, t = res.extras["Psi"], res.extras["t"]
        pair = Psi[:, None] + mu.density @ res.phi.T
        assert np.max(pair - cost) <= 1e-9
        dual = float(Psi @ t + (res.phi * nu.values).sum())
        assert abs(res.value - dual) <= 1e-7 * (1.0 + abs(res.value))
        # plan marginals against the density
        assert np.max(np.abs(res.plan.matrix.sum(axis=1) - t)) <= 1e-9
        back = res.plan.matrix.T @ mu.density
        assert np.max(np.abs(back - nu.values)) <= 1e-9

    def test_infeasible_raises_with_cert(self):
        mu = two_atom_measure()
        nu = VectorMeasure(mu.space, coin_target(0.0, 0.9))
        with pytest.raises(InfeasibleTransport) as exc:
            solve_vector_ot(VectorOtProblem(mu, nu, np.zeros((2, 2))))
        check_dominance_cert(mu.values, nu.values, mu.density, exc.value.cert)

    def test_inconsistent_custom_eta_cert(self):
        vals = np.array([[1.0, 0.5], [0.5, 1.0]])
        mu = VectorMeasure(FiniteSpace(["x0", "x1"]), vals)
        eta = np.array([[0.5, 1.0], [1.0, 2.0]])  # not proportional to row 0
        nu = VectorMeasure(FiniteSpace(["y0"]), np.array([[1.5, 1.5]]))
        with pytest.raises(InfeasibleTransport) as exc:
            solve_vector_ot(VectorOtProblem(mu, nu, np.zeros((2, 1)), eta=eta))
        check_dominance_cert(vals, nu.values, eta, exc.value.cert)

    def test_mass_but_zero_density_rejected(self):
        vals = np.array([[1.0, 1.0], [0.0, 0.0]])
        mu = VectorMeasure(
            FiniteSpace(["x0", "x1"]), vals, ref_weights=np.array([2.0, 1.0])
        )
        nu = VectorMeasure(FiniteSpace(["y0"]), np.array([[1.0, 1.0]]))
        with pytest.raises(ValueError):
            VectorOtProblem(mu, nu, np.zeros((2, 1)))

    def test_shape_validation(self):
        mu = two_atom_measure()
        nu3 = VectorMeasure(FiniteSpace(["y0"]), np.array([[1.0, 1.0, 1.0]]))
        with pytest.raises(ValueError):
            VectorOtProblem(mu, nu3, np.zeros((2, 1)))
        nu = VectorMeasure(FiniteSpace(["y0"]), np.array([[1.0, 1.0]]))
        with pytest.raises(ValueError):
            VectorOtProblem(mu, nu, np.zeros((3, 1)))
        with pytest.raises(ValueError):
            VectorOtProblem(mu, nu, np.zeros((2, 1)), eta=np.ones((3, 2)))


class TestSemiDiscrete:
    def test_region_boundary_matches_closed_form(self):
        n = 60
        mu, _ = linear_density_grid(n)
        for a in (0.3, 0.5, 0.7):
            base = np.array([[a, 0.0], [1.0 - a, 1.0]])
            direction = np.array([[0.0, 1.0], [0.0, -1.0]])
            lo, hi = feasible_range(mu, base, direction)
            assert abs(lo - a * a) <= 2.0 / n
            assert abs(hi - (2.0 * a - a * a)) <= 2.0 / n

    def test_dominance_agrees_with_multi_range(self):
        # two encodings of the same membership question
        n = 40
        mu, _ = linear_density_grid(n)
        oracle = multi_range(mu, 2, mode="relaxed")
        for a, b in [(0.5, 0.3), (0.5, 0.2), (0.5, 0.8), (0.2, 0.05),
                     (0.2, 0.2), (0.8, 0.9), (0.8, 0.99), (0.35, 0.2)]:
            s = np.array([[a, b], [1.0 - a, 1.0 - b]])
            ok_dom, _ = dominates(mu, s)
            ok_rng = oracle.contains(s)
            assert ok_dom == ok_rng, (a, b)

    def test_split_map_emerges(self):
        n = 40
        mu, xs = linear_density_grid(n)
        nu = VectorMeasure(
            FiniteSpace(["y0", "y1"]), np.array([[0.5, 0.25], [0.5, 0.75]])
        )
        cost = np.column_stack(
            [np.zeros(n), np.sqrt(np.maximum(xs - 0.5, 0.0))]
        )
        prob = VectorOtProblem(mu, nu, cost)
        res = solve_vector_ot(prob)
        left_mass = res.plan.matrix[xs <= 0.5, 0].sum()
        assert abs(left_mass - 0.5) <= 2.0 / n
        ext = extract_map(prob)
        assert len(ext.split_rows) <= 1
        for x in ext.split_rows:
            assert abs(xs[x] - 0.5) <= 2.0 / n

    def test_vertex_split_bound_random(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            n = int(rng.integers(6, 14))
            vals = rng.uniform(0.01, 1.0, size=(n, 2))
            mu = VectorMeasure(FiniteSpace([f"x{i}" for i in range(n)]), vals)
            rows = _random_rows(rng, n, 2)
            nu_vals = rows.T @ vals
            nu = VectorMeasure(FiniteSpace(["y0", "y1"]), nu_vals)
            cost = rng.uniform(0.0, 1.0, size=(n, 2))
            ext = extract_map(VectorOtProblem(mu, nu, cost))
            assert len(ext.split_rows) <= 2 * 2

    def test_odd_grid_exact_boundary_target_infeasible(self):
        # at n=25 the point 1/2 is itself a grid atom and the quantized
        # region boundary moves strictly above 1/4, so the continuum
        # boundary target is out of reach
        n = 25
        mu, xs = linear_density_grid(n)
        nu = VectorMeasure(
            FiniteSpace(["y0", "y1"]), np.array([[0.5, 0.25], [0.5, 0.75]])
        )
        cost = np.column_stack(
            [np.zeros(n), np.sqrt(np.maximum(xs - 0.5, 0.0))]
        )
        with pytest.raises(InfeasibleTransport) as exc:
            solve_vector_ot(VectorOtProblem(mu, nu, cost))
        check_dominance_cert(mu.values, nu.values, mu.density, exc.value.cert)
        import scipy.optimize

        from vecot.vector import _plan_system, _row_scalars

        t, bad = _row_scalars(mu.values, mu.density, np.arange(n))
        assert bad is None
        A, b = _plan_system(mu.density, t, nu.values)
        lp = scipy.optimize.linprog(
            np.zeros(A.shape[1]), A_eq=A, b_eq=b,
            bounds=[(0, None)] * A.shape[1], method="highs",
        )
        assert lp.status == 2

    def test_refinement_study_sqrt_vs_lipschitz(self):
        def density(x):
            return (1.0, 2.0 * x)

        def split_target(n):
            xs = (np.arange(n) + 0.5) / n
            dens = np.array([density(x) for x in xs]) / n
            left = xs <= 0.5
            return np.array([dens[left].sum(axis=0), dens[~left].sum(axis=0)])

        def sqrt_cost(x, j):
            return 0.0 if j == 0 else float(np.sqrt(max(x - 0.5, 0.0)))

        def lip_cost(x, j):
            return 0.0 if j == 0 else float(max(x - 0.5, 0.0))

        rep = dual_refinement_study(density, sqrt_cost, split_target, [10, 40, 90])
        qs = [e["q"] for e in rep["entries"]]
        assert qs[0] < qs[1] < qs[2]
        for e in rep["entries"]:
            assert abs(e["value"] - e["dual_value"]) <= 1e-7 * (1.0 + abs(e["value"]))
        rep2 = dual_refinement_study(density, lip_cost, split_target, [10, 40, 90])
        assert rep2["q_trend"] == "stable"


class TestBlackwell:
    def test_dominating_pair_report(self):
        mu = two_atom_measure()
        nu = VectorMeasure(
            FiniteSpace(["y0", "y1"]), np.array([[0.3, 0.3], [0.7, 0.7]])
        )
        rep = blackwell_check(mu, nu, g_samples=64, seed=3)
        assert rep["cond_dens"]
        assert rep["dominates"] and rep["plan_feasible"] and rep["kernel_feasible"]
        rk = rep["reversed_kernel"]
        assert rk["marginal_residual"] <= 1e-8
        assert rk["density_average_residual"] <= 1e-8
        assert rep["jensen"]["min_gap"] >= -1e-8
        assert rep["jensen"]["asserted"]

    def test_reversed_kernel_reuses_the_dominance_plan(self, monkeypatch):
        # two LPs: the dominance plan and the kernel-variable encoding; the
        # reversed kernel is read from the dominance kernel, not solved again
        mu = two_atom_measure()
        nu = VectorMeasure(
            FiniteSpace(["y0", "y1"]), np.array([[0.3, 0.3], [0.7, 0.7]])
        )
        calls = []
        real = vector.solve

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(vector, "solve", counted)
        rep = blackwell_check(mu, nu, g_samples=8, seed=3)
        assert len(calls) == 2
        plan = vector._collapsed_solve(
            mu, mu.density, np.zeros((2, 2)), nu.values, nu.space
        ).plan.matrix
        colsum = plan.sum(axis=0)
        Q = plan.T / colsum[:, None]
        np.testing.assert_allclose(rep["reversed_kernel"]["Q"], Q, rtol=0, atol=1e-12)

    def test_witness_g_on_failure(self):
        mu = two_atom_measure()
        nu = VectorMeasure(
            FiniteSpace(["y0", "y1"]), np.array([[0.0, 0.9], [1.0, 0.1]])
        )
        rep = blackwell_check(mu, nu, g_samples=256, seed=3)
        assert not rep["dominates"]
        slopes, offsets = rep["jensen"]["witness"]
        g_mu = np.max(mu.density @ slopes.T + offsets, axis=1)
        g_nu = np.max(nu.density @ slopes.T + offsets, axis=1)
        gap = float(g_mu @ mu.ref_weights - g_nu @ nu.ref_weights)
        assert gap < -1e-8

    def test_encodings_agree_on_random_instances(self):
        rng = np.random.default_rng(29)
        outcomes = set()
        for _ in range(30):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 4))
            vals = rng.uniform(0.05, 1.0, size=(n, 2))
            mu = VectorMeasure(FiniteSpace([f"x{i}" for i in range(n)]), vals)
            if rng.random() < 0.5:
                rows = _random_rows(rng, n, m)
                nu_vals = rows.T @ vals
            else:
                nu_vals = rng.uniform(0.05, 1.0, size=(m, 2))
            nu = VectorMeasure(FiniteSpace([f"y{j}" for j in range(m)]), nu_vals)
            rep = blackwell_check(mu, nu, g_samples=16, seed=int(rng.integers(1 << 16)))
            assert rep["plan_feasible"] == rep["kernel_feasible"]
            outcomes.add(rep["dominates"])
            if rep["dominates"] and rep["cond_dens"]:
                assert rep["jensen"]["min_gap"] >= -1e-8
        assert outcomes == {True, False}

    @pytest.mark.parametrize("samples", [0, -4])
    def test_sample_count_below_one_is_rejected(self, samples):
        mu = two_atom_measure()
        with pytest.raises(ValueError, match=f"g_samples must be at least 1, got {samples}"):
            blackwell_check(mu, mu, g_samples=samples)


class TestPartitionOrder:
    def test_one_block_iff_equal_totals(self):
        mu = two_atom_measure()
        nu_eq = VectorMeasure(
            FiniteSpace(["y0", "y1"]), np.array([[0.0, 0.9], [1.0, 0.1]])
        )
        ok, _ = dominates_n(mu, nu_eq, 1)
        assert ok
        nu_neq = VectorMeasure(
            FiniteSpace(["y0", "y1"]), np.array([[0.0, 0.9], [1.0, 0.2]])
        )
        ok2, wit = dominates_n(mu, nu_neq, 1)
        assert not ok2 and wit == [[0, 1]]

    def test_coarser_implied_by_finer(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            vals = rng.uniform(0.05, 1.0, size=(3, 2))
            mu = VectorMeasure(FiniteSpace(["x0", "x1", "x2"]), vals)
            m = 4
            nu_vals = rng.uniform(0.05, 0.6, size=(m, 2))
            nu_vals *= vals.sum(axis=0) / nu_vals.sum(axis=0)
            nu = VectorMeasure(FiniteSpace([f"y{j}" for j in range(m)]), nu_vals)
            results = [dominates_n(mu, nu, n)[0] for n in range(1, m + 1)]
            # once a block count fails, all finer counts fail too
            for a, b in zip(results, results[1:]):
                assert a or not b

    def test_full_partition_count_equals_dominance(self):
        rng = np.random.default_rng(37)
        for _ in range(6):
            vals = rng.uniform(0.05, 1.0, size=(3, 2))
            mu = VectorMeasure(FiniteSpace(["x0", "x1", "x2"]), vals)
            if rng.random() < 0.5:
                rows = _random_rows(rng, 3, 3)
                nu_vals = rows.T @ vals
            else:
                nu_vals = rng.uniform(0.05, 0.8, size=(3, 2))
                nu_vals *= vals.sum(axis=0) / nu_vals.sum(axis=0)
            nu = VectorMeasure(FiniteSpace(["y0", "y1", "y2"]), nu_vals)
            ok_n, wit = dominates_n(mu, nu, 3)
            ok_d, _ = dominates(mu, nu)
            assert ok_n == ok_d
            if wit is not None:
                sums = np.array([nu.values[idx].sum(axis=0) for idx in wit])
                assert not dominates(mu, sums)[0]

    def test_exactly_n_blocks_matches_brute_force_upto_n(self):
        def partitions(m, n):
            # restricted growth strings: block label of atom j <= 1 + max label so far
            for labels in itertools.product(range(n), repeat=m):
                if all(labels[j] <= max(labels[:j], default=-1) + 1 for j in range(m)):
                    yield [[j for j in range(m) if labels[j] == k]
                           for k in range(max(labels) + 1)]

        def brute(mu, nu, n):
            return all(
                dominates(mu, np.array([nu.values[b].sum(axis=0) for b in part]))[0]
                for part in partitions(nu.space.size, n)
            )

        rng = np.random.default_rng(41)
        verdicts = set()
        for ny in (3, 4, 5):
            for trial in range(4):
                vals = rng.uniform(0.05, 1.0, size=(3, 2))
                mu = VectorMeasure(FiniteSpace(["x0", "x1", "x2"]), vals)
                if trial % 2 == 0:
                    nu_vals = _random_rows(rng, 3, ny).T @ vals
                else:
                    nu_vals = rng.uniform(0.05, 0.8, size=(ny, 2))
                    nu_vals *= vals.sum(axis=0) / nu_vals.sum(axis=0)
                nu = VectorMeasure(FiniteSpace([f"y{j}" for j in range(ny)]), nu_vals)
                for n in range(1, ny + 1):
                    ok, wit = dominates_n(mu, nu, n)
                    assert ok == brute(mu, nu, n), (ny, trial, n)
                    verdicts.add(ok)
                    if wit is None:
                        continue
                    assert len(wit) <= n
                    assert sorted(j for block in wit for j in block) == list(range(ny))
                    sums = np.array([nu.values[b].sum(axis=0) for b in wit])
                    assert not dominates(mu, sums)[0]
        assert verdicts == {True, False}

    def test_guards(self):
        mu = two_atom_measure()
        nu = VectorMeasure(FiniteSpace(["y0", "y1"]), coin_target(0.5, 0.5))
        with pytest.raises(ValueError):
            dominates_n(mu, nu, 0)
        with pytest.raises(ValueError):
            dominates_n(mu, nu, 3)
        big = VectorMeasure(
            FiniteSpace([f"y{j}" for j in range(11)]), np.ones((11, 2))
        )
        # the limit is on S(ny, n), the partitions actually solved:
        # S(11, 4) = 145750 > 10**5
        with pytest.raises(ValueError):
            dominates_n(mu, big, 4)

    def test_eleven_atom_target_single_partition_counts(self):
        # S(11, 1) = S(11, 11) = 1: one LP each, though Bell(11) > 10**5
        mu = two_atom_measure()
        vals = np.random.default_rng(5).uniform(0.5, 1.5, size=(11, 2))
        big = VectorMeasure(FiniteSpace([f"y{j}" for j in range(11)]), vals / vals.sum(axis=0))
        ok1, wit1 = dominates_n(mu, big, 1)
        assert ok1 == dominates(mu, big.values.sum(axis=0)[None, :])[0]
        assert ok1 or wit1 == [list(range(11))]
        ok11, wit11 = dominates_n(mu, big, 11)
        assert ok11 == dominates(mu, big)[0]
        assert ok11 or wit11 == [[j] for j in range(11)]


class TestStrongDomination:
    def test_self_pair_with_split_witness(self):
        vals = np.array([[2.0, 1.0], [0.0, 2.0], [2.0, 0.0], [0.0, 1.0]])
        mu = VectorMeasure(FiniteSpace(["a", "b", "c", "d"]), vals)
        ok_plain, _ = dominates(mu, mu)
        assert ok_plain
        ok, wit = strong_dominates(mu, mu)
        assert not ok
        assert wit == ([0, 3], [1, 2])
        # the witnessing restrictions genuinely fail to dominate
        sub = VectorMeasure(FiniteSpace(["a", "d"]), vals[[0, 3]])
        assert not dominates(sub, vals[[1, 2]])[0]

    def test_paired_components_dominate_duplicated_average_target(self):
        rng = np.random.default_rng(41)
        m1 = rng.uniform(0.1, 1.0, size=3)
        m2 = rng.uniform(0.1, 1.0, size=3)
        m2 *= m1.sum() / m2.sum()
        mu = VectorMeasure(
            FiniteSpace(["x0", "x1", "x2"]), np.column_stack([m1, m2])
        )
        w = rng.uniform(0.1, 1.0, size=2)
        w *= m1.sum() / w.sum()
        nu = VectorMeasure(FiniteSpace(["y0", "y1"]), np.column_stack([w, w]))
        ok, wit = strong_dominates(mu, nu)
        assert ok and wit is None

    def test_one_dimensional_image_target(self):
        rng = np.random.default_rng(43)
        vals = rng.uniform(0.1, 1.0, size=(3, 2))
        mu = VectorMeasure(FiniteSpace(["x0", "x1", "x2"]), vals)
        ref = rng.uniform(0.1, 1.0, size=2)
        ref *= mu.ref_weights.sum() / ref.sum()
        direction = vals.sum(axis=0) / mu.ref_weights.sum()
        nu = VectorMeasure(
            FiniteSpace(["y0", "y1"]), np.outer(ref, direction)
        )
        ok, _ = strong_dominates(mu, nu)
        assert ok

    def test_scalar_short_circuit(self):
        rng = np.random.default_rng(47)
        w = rng.uniform(0.1, 1.0, size=16)
        v = rng.permutation(w)
        mu = VectorMeasure(FiniteSpace([f"x{i}" for i in range(16)]), w[:, None])
        nu = VectorMeasure(FiniteSpace([f"y{i}" for i in range(16)]), v[:, None])
        ok, _ = strong_dominates(mu, nu)
        assert ok

    def test_total_mismatch(self):
        mu = two_atom_measure()
        nu = VectorMeasure(FiniteSpace(["y0"]), np.array([[0.9, 1.0]]))
        ok, wit = strong_dominates(mu, nu)
        assert not ok and wit is None

    def test_size_guard(self):
        big = VectorMeasure(
            FiniteSpace([f"x{i}" for i in range(17)]), np.ones((17, 2))
        )
        with pytest.raises(ValueError):
            strong_dominates(big, big)


class TestMartingale:
    def test_constant_f_g_reduces_to_plain(self):
        rng = np.random.default_rng(53)
        w_mu = rng.uniform(0.2, 1.0, size=4)
        w_nu = rng.uniform(0.2, 1.0, size=3)
        w_nu *= w_mu.sum() / w_nu.sum()
        cost = rng.uniform(0.0, 2.0, size=(4, 3))
        mref = ScalarMeasure(FiniteSpace(list("abcd")), w_mu)
        nref = ScalarMeasure(FiniteSpace(list("xyz")), w_nu)
        plain = solve_ot(mref, nref, cost)
        mart = martingale_polytope(
            mref, nref, np.full((4, 1), 0.7), np.full((3, 1), 0.7), cost
        )
        assert abs(mart.value - plain.value) <= 1e-7 * (1.0 + abs(plain.value))

    def test_mean_preserving_spread_feasible(self):
        mref = ScalarMeasure(FiniteSpace(["x0", "x1"]), np.array([0.5, 0.5]))
        nref = ScalarMeasure(FiniteSpace(["y0"]), np.array([1.0]))
        res = martingale_polytope(
            mref, nref, np.array([[0.0], [1.0]]), np.array([[0.5]]),
            np.zeros((2, 1)),
        )
        assert np.max(np.abs(res.plan.matrix.ravel() - 0.5)) <= 1e-9

    def test_unreachable_barycenter_cert(self):
        mref = ScalarMeasure(FiniteSpace(["x0", "x1"]), np.array([0.5, 0.5]))
        nref = ScalarMeasure(FiniteSpace(["y0"]), np.array([1.0]))
        f = np.array([[0.0], [1.0]])
        with pytest.raises(InfeasibleTransport) as exc:
            martingale_polytope(mref, nref, f, np.array([[2.0]]), np.zeros((2, 1)))
        cert = exc.value.cert
        sums = cert["psi"][:, None] + cert["phi"][None, :] + np.einsum(
            "yi,xyi->xy", cert["zeta"], f[:, None, :] - np.array([[[2.0]]])
        )
        assert sums.min() >= -1e-9
        assert cert["margin"] < -1e-9

    def test_density_constrained_matches_vector_ot(self):
        mu = two_atom_measure()
        nu = VectorMeasure(
            FiniteSpace(["y0", "y1"]), np.array([[0.3, 0.3], [0.7, 0.7]])
        )
        cost = np.array([[0.0, 1.0], [2.0, 0.5]])
        vres = solve_vector_ot(VectorOtProblem(mu, nu, cost))
        mres = martingale_polytope(
            mu.reference(), nu.reference(), mu.density, nu.density, cost
        )
        assert abs(vres.value - mres.value) <= 1e-7 * (1.0 + abs(vres.value))

    def test_mass_mismatch_rejected(self):
        mref = ScalarMeasure(FiniteSpace(["x0"]), np.array([1.0]))
        nref = ScalarMeasure(FiniteSpace(["y0"]), np.array([2.0]))
        with pytest.raises(ValueError):
            martingale_polytope(
                mref, nref, np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1))
            )


class TestMultiRange:
    def test_whole_space_split_member_in_both_modes(self):
        rng = np.random.default_rng(59)
        vals = rng.uniform(0.1, 1.0, size=(4, 2))
        mu = VectorMeasure(FiniteSpace([f"x{i}" for i in range(4)]), vals)
        s = np.vstack([vals.sum(axis=0), np.zeros(2), np.zeros(2)])
        assert multi_range(mu, 3, mode="relaxed").contains(s)
        assert multi_range(mu, 3, mode="atomicExact").contains(s)

    def test_exact_subset_of_relaxed(self):
        rng = np.random.default_rng(61)
        vals = rng.uniform(0.1, 1.0, size=(4, 2))
        mu = VectorMeasure(FiniteSpace([f"x{i}" for i in range(4)]), vals)
        exact = multi_range(mu, 2, mode="atomicExact")
        relaxed = multi_range(mu, 2, mode="relaxed")
        import itertools

        for assign in itertools.product(range(2), repeat=4):
            s = np.zeros((2, 2))
            for x, part in enumerate(assign):
                s[part] += vals[x]
            assert exact.contains(s)
            assert relaxed.contains(s)

    def test_relaxed_strictly_larger_on_atoms(self):
        vals = np.array([[1.0, 0.0], [0.5, 1.0], [0.0, 0.5]])
        mu = VectorMeasure(FiniteSpace(["p", "q", "r"]), vals)
        tot = vals.sum(axis=0)
        s = np.array([[0.5, 0.0], tot - [0.5, 0.0]])
        assert multi_range(mu, 2, mode="relaxed").contains(s)
        assert not multi_range(mu, 2, mode="atomicExact").contains(s)

    def test_guards(self):
        mu = two_atom_measure()
        with pytest.raises(ValueError):
            multi_range(mu, 0)
        with pytest.raises(ValueError):
            multi_range(mu, 2, mode="fancy")
        big = VectorMeasure(
            FiniteSpace([f"x{i}" for i in range(21)]), np.ones((21, 1))
        )
        with pytest.raises(ValueError):
            multi_range(big, 2, mode="atomicExact")
        wide = VectorMeasure(
            FiniteSpace([f"x{i}" for i in range(20)]), np.ones((20, 1))
        )
        with pytest.raises(ValueError):
            multi_range(wide, 3, mode="atomicExact")


def zero_mass_instance(seed):
    """A small vector problem with at least one atom of reference weight 0.

    Every fifth seed has no mass at all; a third of the targets are
    perturbed, so many are not dominated; every third source gives its
    massless atoms a nonzero density row, and every fourth problem
    rescales eta, with arbitrary rows at the massless atoms; one in eight
    draws eta at random, which mostly contradicts the source's directions.
    """
    rng = np.random.default_rng(seed)
    nx, ny, d = (int(v) for v in rng.integers([2, 1, 1], [7, 5, 4]))
    dead = np.ones(nx, bool) if seed % 5 == 0 else rng.random(nx) < 0.4
    dead[rng.integers(nx)] = True
    vals = rng.integers(1, 9, size=(nx, d)) / 8.0
    vals[dead] = 0.0
    ref = vals.sum(axis=1)
    dens = None
    if seed % 3 == 0:
        dens = np.divide(vals, ref[:, None], out=np.zeros((nx, d)), where=~dead[:, None])
        dens[dead] = rng.integers(0, 5, size=(int(dead.sum()), d)) / 4.0
    mu = VectorMeasure(FiniteSpace([f"x{i}" for i in range(nx)]), vals, ref, dens)
    nu_vals = rng.dirichlet(np.ones(ny), size=nx).T @ vals
    if seed % 3 == 1:
        nu_vals = np.maximum(nu_vals + rng.normal(scale=0.2, size=nu_vals.shape), 0.0)
    nu = VectorMeasure(FiniteSpace([f"y{j}" for j in range(ny)]), nu_vals)
    cost = rng.integers(0, 16, size=(nx, ny)) / 4.0
    eta = None
    if seed % 4 == 1:
        eta = mu.density * rng.integers(1, 5, size=(nx, 1)) / 2.0
        eta[dead] = rng.integers(0, 3, size=(int(dead.sum()), d)) / 2.0
    elif seed % 8 == 3:  # mostly contradicts the source's own directions
        eta = rng.integers(1, 5, size=(nx, d)) / 4.0
    return mu, nu, cost, eta, rng.normal(size=(ny, d)), rng


class TestZeroMassAtoms:
    """Atoms without mass sit in every vector LP as rows with t(x) = 0.

    HiGHS on the LP over the atoms with mass is the oracle for verdicts and
    values; every LP the engine solves has a row per atom, and its optimum
    or Farkas vector passes the certificate checks on that whole LP.
    """

    @staticmethod
    def highs(c, A, b, bounds):
        if not len(c):  # no atom has mass: the system is 0 = b
            return SimpleNamespace(status=0 if not b.any() else 2, fun=0.0)
        linprog = pytest.importorskip("scipy.optimize").linprog
        res = linprog(c, A_eq=A, b_eq=b, bounds=bounds, method="highs")
        assert res.status in (0, 2, 3), res.message
        return res

    @staticmethod
    def close(a, b):
        return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))

    @pytest.fixture
    def solved(self, monkeypatch):
        """Every (problem, solution) the vector module's LPs return."""
        out = []
        for name in ("solve", "solve_vertex"):
            real = getattr(vector, name)

            def record(problem, *args, real=real, **kwargs):
                sol = real(problem, *args, **kwargs)
                out.append((problem, sol))
                return sol

            monkeypatch.setattr(vector, name, record)
        return out

    @staticmethod
    def check_whole(solved, nrows):
        for problem, sol in solved:
            assert problem.nrows == nrows
            if sol.status == "optimal":
                certify(problem, sol.x, sol.y, sol.value)
            elif sol.status == "infeasible":
                assert farkas_margin(problem, sol.farkas) < -CERT_TOL
        solved.clear()

    @pytest.mark.parametrize("seed", range(60))
    def test_verdicts_values_and_certificates(self, seed, solved):
        mu, nu, cost, eta, direction, rng = zero_mass_instance(seed)
        nx, ny, d = mu.space.size, nu.space.size, mu.dim
        live = mu.ref_weights > 0.0
        plus = [(0, None)] * (int(live.sum()) * ny)

        # solve_vector_ot against HiGHS on the atoms with mass
        e = mu.density if eta is None else eta
        t, bad = vector._row_scalars(mu.values, e, np.nonzero(live)[0])
        if bad is None:
            A, b = vector._plan_system(e, t, nu.values)
            whole = LpProblem(c=cost.ravel(), A=A, b=b, kinds=["eq"] * len(b))
            ref = self.highs(cost[live].ravel(), *vector._plan_system(e[live], t[live], nu.values),
                             plus)
        try:
            res = solve_vector_ot(VectorOtProblem(mu, nu, cost, eta))
        except InfeasibleTransport as exc:
            assert bad is not None or ref.status == 2
            check_dominance_cert(mu.values, nu.values, e, exc.cert)
            if bad is None:
                psi, phi = exc.cert["psi"], exc.cert["phi"]
                y = np.concatenate([np.einsum("xi,xi->x", psi, e), phi.T.ravel()])
                assert farkas_margin(whole, y) < -CERT_TOL
        else:
            assert bad is None and ref.status == 0
            assert self.close(res.value, ref.fun)
            y = np.concatenate([res.extras["Psi"], res.phi.T.ravel()])
            certify(whole, res.plan.matrix.ravel(), y, res.value)
            assert not res.psi[~live].any()
        self.check_whole(solved, nx + d * ny)

        # dominates: the zero-cost plan LP over the source's own density
        t, bad = vector._row_scalars(mu.values, mu.density, np.nonzero(live)[0])
        ok, cert = dominates(mu, nu)
        if bad is None:
            A, b = vector._plan_system(mu.density[live], t[live], nu.values)
            assert ok == (self.highs(np.zeros(A.shape[1]), A, b, plus).status == 0)
        if not ok:
            check_dominance_cert(mu.values, nu.values, mu.density, cert.payload)
        self.check_whole(solved, nx + d * ny)

        # feasible_range: the same LP with a free column beta
        span = feasible_range(mu, nu.values, direction)
        if bad is None:
            A = np.hstack([A, np.concatenate([np.zeros(int(live.sum())),
                                              -direction.T.ravel()])[:, None]])
            c = np.zeros(A.shape[1])
            ends = []
            for sign in (1.0, -1.0):
                c[-1] = sign
                r = self.highs(c, A, b, plus + [(None, None)])
                ends.append(None if r.status == 2 else -sign * np.inf if r.status == 3
                            else sign * r.fun)
            if ends[0] is None:
                assert span is None
            else:
                assert span is not None
                assert all(p == q or self.close(p, q) for p, q in zip(span, ends))
        self.check_whole(solved, nx + d * ny)

        # blackwell_check: the kernel-variable LP agrees with the plan LP
        rep = blackwell_check(mu, nu, g_samples=2, seed=seed)
        assert rep["dominates"] == rep["kernel_feasible"] == ok
        self.check_whole(solved, nx + d * ny)

        # relaxed multi-range: allocations of each atom over two parts
        s = rng.dirichlet(np.ones(2), size=nx).T @ mu.values
        if seed % 2:
            s = s + rng.normal(scale=0.3, size=s.shape)
        vals = mu.values[live]
        k = vals.shape[0]
        A = np.zeros((k + 2 * d, 2 * k))
        for i in range(2):
            A[np.arange(k), i * k + np.arange(k)] = 1.0
            A[k + i * d: k + (i + 1) * d, i * k: (i + 1) * k] = vals.T
        b = np.concatenate([np.ones(k), s.ravel()])
        expect = self.highs(np.zeros(2 * k), A, b, [(0, 1)] * (2 * k)).status == 0
        assert multi_range(mu, 2).contains(s) == expect
        self.check_whole(solved, nx + 2 * d)
