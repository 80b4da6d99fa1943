import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vecot import chain, lp
from vecot.chain import (
    ChainProblem,
    chain_free_medium,
    chain_ot,
    reduced_cost,
    weighted_reduced_cost,
)
from vecot.generate import gen
from vecot.measures import FiniteSpace, ScalarMeasure, SpaceMismatch
from vecot.scalar import InfeasibleTransport, solve_ot
from vecot.tolerances import CERT_TOL, FEAS_TOL


def grid_cost(n_points, p):
    xs = np.linspace(0.0, 1.0, n_points)
    return np.abs(xs[:, None] - xs[None, :]) ** p


def uniform_on(space, idx):
    w = np.zeros(space.size)
    w[list(idx)] = 1.0 / len(idx)
    return ScalarMeasure(space, w)


class TestReducedCost:
    def test_zero_intermediates_is_identity(self):
        c = np.random.default_rng(1).uniform(0.0, 3.0, (7, 7))
        assert np.array_equal(reduced_cost(c, 0), c)

    def test_metric_admits_no_shortcut(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1.0, 1.0, (9, 2))
        c = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        for n in range(1, 5):
            assert np.max(np.abs(reduced_cost(c, n) - c)) <= 1e-12

    def test_absolute_value_cost_is_stable(self):
        # p = 1 keeps the direct cost at every hop count
        c = grid_cost(32, 1)
        for n in range(5):
            assert np.max(np.abs(reduced_cost(c, n) - c)) <= 1e-12 * c.max()

    def test_power_cost_hop_scaling_on_divisible_pairs(self):
        # an extra stop splits the move into equal legs, scaling the
        # p-th-power cost by hops^(1-p); exact only where the equal-split
        # points land on the grid
        idx = np.arange(32)
        sep = np.abs(idx[:, None] - idx[None, :])
        for p in (2, 3):
            c = grid_cost(32, p)
            for n in range(1, 4):
                hops = n + 1
                r = reduced_cost(c, n)
                target = hops ** (1 - p) * c
                assert np.all(r >= target - 1e-12 * c.max())
                exact = sep % hops == 0
                assert np.max(np.abs((r - target)[exact])) <= 1e-12 * c.max()
                # quantization leaves a real gap elsewhere (adjacent pairs
                # have no interior grid point to stop at)
                assert np.min((r - target)[~exact]) > 1e-6 * c.max()

    def test_power_cost_exact_on_refined_line(self):
        # resolving the line 12x finer supplies every equal-split point
        # for up to 4 hops (lcm of 2, 3, 4), so the hop scaling becomes
        # exact at all coarse pairs simultaneously
        refine = 12
        coarse = 8
        fine = (coarse - 1) * refine + 1
        xs = np.linspace(0.0, 1.0, fine)
        sub = np.arange(coarse) * refine
        for p in (1, 2, 3):
            c_fine = np.abs(xs[:, None] - xs[None, :]) ** p
            c_coarse = c_fine[np.ix_(sub, sub)]
            for hops in (1, 2, 3, 4):
                r = reduced_cost(c_fine, hops - 1)[np.ix_(sub, sub)]
                dev = np.max(np.abs(r - hops ** (1 - p) * c_coarse))
                assert dev <= 1e-12 * c_coarse.max(), (p, hops, dev)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            reduced_cost(np.zeros((2, 2)), -1)
        with pytest.raises(ValueError):
            reduced_cost(np.zeros((2, 3)), 1)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 3), st.integers(1, 3))
    def test_semigroup_law(self, k, n, m):
        rng = np.random.default_rng(100 + 7 * k + n + m)
        c = rng.uniform(0.0, 2.0, (k, k))
        lhs = reduced_cost(c, n + m)
        a, b = reduced_cost(c, n), reduced_cost(c, m - 1)
        composed = np.min(a[:, :, None] + b[None, :, :], axis=1)
        assert np.all(lhs <= composed + 1e-12)


class TestWeightedReducedCost:
    def test_zero_potential_matches_plain(self):
        rng = np.random.default_rng(3)
        c = rng.uniform(0.0, 2.0, (6, 6))
        for n in range(4):
            assert np.array_equal(
                weighted_reduced_cost(c, np.zeros(6), n), reduced_cost(c, n)
            )

    def test_single_stop_closed_form(self):
        c = np.array([[0.0, 1.0], [2.0, 0.5]])
        f = np.array([0.3, -0.2])
        w = weighted_reduced_cost(c, f, 1)
        for x in range(2):
            for y in range(2):
                expect = min(c[x, z] + c[z, y] - f[z] for z in range(2))
                assert w[x, y] == pytest.approx(expect, abs=1e-15)

    def test_matches_tuple_enumeration(self):
        rng = np.random.default_rng(4)
        c = rng.uniform(0.0, 2.0, (5, 5))
        f = rng.uniform(-1.0, 1.0, 5)
        w = weighted_reduced_cost(c, f, 3)
        for x in range(5):
            for y in range(5):
                best = min(
                    c[x, z0] + c[z0, z1] + c[z1, z2] + c[z2, y] - f[z0] - f[z1] - f[z2]
                    for z0, z1, z2 in itertools.product(range(5), repeat=3)
                )
                assert w[x, y] == pytest.approx(best, abs=1e-12)

    def test_bad_potential_rejected(self):
        with pytest.raises(ValueError):
            weighted_reduced_cost(np.zeros((3, 3)), np.zeros(2), 1)
        with pytest.raises(ValueError):
            weighted_reduced_cost(np.zeros((3, 3)), np.array([0.0, np.inf, 0.0]), 1)


def random_chain(rng, k, hops):
    sp = FiniteSpace([f"x{i}" for i in range(k)])
    wmu = rng.uniform(0.2, 1.0, k)
    wnu = rng.uniform(0.2, 1.0, k)
    wnu *= wmu.sum() / wnu.sum()
    wlam = rng.uniform(0.2, 1.0, k)
    wlam *= wmu.sum() / wlam.sum()
    c = rng.uniform(0.0, 2.0, (k, k))
    return ChainProblem(
        sp, c, ScalarMeasure(sp, wmu), ScalarMeasure(sp, wnu), ScalarMeasure(sp, wlam), hops
    )


class TestChainOt:
    def test_single_atom_pays_every_hop(self):
        sp = FiniteSpace(["o"])
        one = ScalarMeasure(sp, np.array([1.0]))
        for n in (1, 2, 3):
            res = chain_ot(ChainProblem(sp, np.array([[0.7]]), one, one, one, n))
            assert res.value == pytest.approx((n + 1) * 0.7, abs=1e-9)

    def test_random_instances_satisfy_constraints_and_duality(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            k = int(rng.integers(3, 7))
            n = int(rng.integers(1, 4))
            p = random_chain(rng, k, n)
            res = chain_ot(p)
            assert len(res.plans) == n + 1
            assert np.max(np.abs(res.plans[0].matrix.sum(axis=1) - p.mu.weights)) <= 1e-8
            assert np.max(np.abs(res.plans[-1].matrix.sum(axis=0) - p.nu.weights)) <= 1e-8
            for a, b in zip(res.plans, res.plans[1:]):
                assert np.max(np.abs(a.matrix.sum(axis=0) - b.matrix.sum(axis=1))) <= 1e-8
            middles = sum(pl.matrix.sum(axis=1) for pl in res.plans[1:])
            assert np.max(np.abs(middles - n * p.medium.weights)) <= 1e-8
            # the reported potential reproduces the value along the
            # independent single-coupling route
            inner = solve_ot(p.mu, p.nu, weighted_reduced_cost(p.cost, res.medium_potential, n))
            other = inner.value + n * float(res.medium_potential @ p.medium.weights)
            assert abs(res.value - other) <= 1e-6 * (1.0 + abs(res.value))

    def test_stages_expose_the_visited_measures(self):
        rng = np.random.default_rng(6)
        p = random_chain(rng, 4, 2)
        res = chain_ot(p)
        assert res.stages.shape == (4, 4)
        assert np.max(np.abs(res.stages[0] - p.mu.weights)) <= 1e-8
        assert np.max(np.abs(res.stages[-1] - p.nu.weights)) <= 1e-8

    def test_discount_value_is_concave_in_the_potential(self):
        rng = np.random.default_rng(7)
        sp = FiniteSpace([f"x{i}" for i in range(5)])
        wmu = rng.uniform(0.2, 1.0, 5)
        wnu = rng.uniform(0.2, 1.0, 5)
        wnu *= wmu.sum() / wnu.sum()
        mu, nu = ScalarMeasure(sp, wmu), ScalarMeasure(sp, wnu)
        c = rng.uniform(0.0, 2.0, (5, 5))

        def value(h):
            return solve_ot(mu, nu, weighted_reduced_cost(c, h, 2)).value

        for _ in range(5):
            f = rng.uniform(-1.0, 1.0, 5)
            g = rng.uniform(-1.0, 1.0, 5)
            vf, vg = value(f), value(g)
            for t in (0.25, 0.5, 0.75):
                assert value(t * f + (1 - t) * g) >= t * vf + (1 - t) * vg - 1e-9

    def test_zero_hops_rejected(self):
        p = random_chain(np.random.default_rng(8), 3, 1)
        q = ChainProblem(p.space, p.cost, p.mu, p.nu, p.medium, 0)
        with pytest.raises(ValueError):
            chain_ot(q)

    def test_validation_errors(self):
        rng = np.random.default_rng(9)
        sp = FiniteSpace(["a", "b"])
        m1 = ScalarMeasure(sp, np.array([0.5, 0.5]))
        m2 = ScalarMeasure(sp, np.array([0.4, 0.4]))
        # a mass gap is the chain LP's to decide, with its Farkas vector
        with pytest.raises(InfeasibleTransport) as exc:
            chain_ot(ChainProblem(sp, np.zeros((2, 2)), m1, m2, m1, 1))
        assert exc.value.cert["margin"] < -CERT_TOL
        other = ScalarMeasure(FiniteSpace(["c", "d"]), np.array([0.5, 0.5]))
        with pytest.raises(SpaceMismatch):
            ChainProblem(sp, np.zeros((2, 2)), m1, other, m1, 1)
        with pytest.raises(ValueError):
            ChainProblem(sp, np.zeros((2, 3)), m1, m1, m1, 1)
        with pytest.raises(ValueError):
            ChainProblem(sp, np.zeros((2, 2)), m1, m1, m1, -1)


def assert_chain_farkas(cert, mu, nu, medium, hops):
    """Check a chain certificate from its named rows alone.

    Leg i's cell (x, z) pairs to head_i(x) + tail_i(z): the source row or
    the medium row less the incoming link, then the outgoing link or the
    target row.  Every pairing must be nonnegative, and the rows' pairing
    with (mu, medium, nu) is the margin, below -CERT_TOL.
    """
    src, link, tgt = cert["source"], cert["linking"], cert["target"]
    med = cert.get("medium")
    assert (med is None) == (medium is None)
    pinned = 0.0 if med is None else med
    heads = [src] + [pinned - link[i] for i in range(hops)]
    tails = [link[i] for i in range(hops)] + [tgt]
    scale = max(1.0, float(np.abs(np.concatenate([src, link.ravel(), tgt])).max()))
    for head, tail in zip(heads, tails):
        assert (head[:, None] + tail[None, :]).min() >= -FEAS_TOL * scale
    margin = src @ mu.weights + tgt @ nu.weights
    if med is not None:
        margin += hops * (med @ medium.weights)
    assert margin == pytest.approx(cert["margin"], rel=1e-9, abs=1e-12)
    assert margin < -CERT_TOL


def raised_copy(gap):
    """50 atoms of 2.0 and a copy with its first atom raised by `gap`."""
    sp = FiniteSpace([f"x{i}" for i in range(50)])
    w = np.full(50, 2.0)
    w[0] += gap
    return ScalarMeasure(sp, np.full(50, 2.0)), ScalarMeasure(sp, w)


class TestMassGap:
    def test_chain_ot_certifies_an_endpoint_gap(self):
        mu, nu = raised_copy(0.1)
        with pytest.raises(InfeasibleTransport, match="prescribed medium average") as exc:
            chain_ot(ChainProblem(mu.space, grid_cost(50, 1), mu, nu, mu, 2))
        assert_chain_farkas(exc.value.cert, mu, nu, mu, 2)

    def test_chain_ot_certifies_a_medium_gap(self):
        sp = FiniteSpace(["a", "b", "c"])
        mu = ScalarMeasure(sp, np.array([0.2, 0.3, 0.5]))
        medium = ScalarMeasure(sp, np.array([0.5, 0.5, 0.5]))
        with pytest.raises(InfeasibleTransport) as exc:
            chain_ot(ChainProblem(sp, grid_cost(3, 2), mu, mu, medium, 2))
        assert_chain_farkas(exc.value.cert, mu, mu, medium, 2)

    @pytest.mark.parametrize("gap", [0.1, 5e-8, -0.1])
    def test_free_medium_certifies_an_endpoint_gap(self, gap):
        mu, nu = raised_copy(gap)
        with pytest.raises(InfeasibleTransport) as exc:
            chain_free_medium(mu, nu, grid_cost(50, 1), 2)
        # the free chain has no medium, and its message names none
        assert str(exc.value) == "no chain of plans carries mu to nu"
        assert_chain_farkas(exc.value.cert, mu, nu, None, 2)


class TestFreeMedium:
    def test_agrees_with_shortcut_transport(self):
        rng = np.random.default_rng(10)
        for _ in range(6):
            k = int(rng.integers(3, 6))
            n = int(rng.integers(1, 4))
            p = random_chain(rng, k, n)
            v = chain_free_medium(p.mu, p.nu, p.cost, n)
            direct = solve_ot(p.mu, p.nu, reduced_cost(p.cost, n)).value
            assert abs(v - direct) <= 1e-7 * (1.0 + abs(v))

    def test_lower_bound_for_any_prescribed_medium(self):
        rng = np.random.default_rng(11)
        p = random_chain(rng, 5, 2)
        free = chain_free_medium(p.mu, p.nu, p.cost, 2)
        assert free <= chain_ot(p).value + 1e-8

    def test_metric_cost_ignores_hops(self):
        rng = np.random.default_rng(12)
        pts = rng.uniform(-1.0, 1.0, (6, 2))
        c = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        sp = FiniteSpace([f"x{i}" for i in range(6)])
        wmu = rng.uniform(0.2, 1.0, 6)
        wnu = rng.uniform(0.2, 1.0, 6)
        wnu *= wmu.sum() / wnu.sum()
        mu, nu = ScalarMeasure(sp, wmu), ScalarMeasure(sp, wnu)
        base = solve_ot(mu, nu, c).value
        for n in (1, 2, 3):
            assert chain_free_medium(mu, nu, c, n) == pytest.approx(base, abs=1e-8)

    def test_two_hop_chain_halves_quadratic_cost(self):
        # one intermediate stop splits every move in half; with all
        # optimal displacements even, the midpoints are grid atoms and
        # the squared cost drops by exactly one half
        sp = FiniteSpace([f"g{i}" for i in range(32)])
        c = grid_cost(32, 2)
        mu = uniform_on(sp, [0, 2, 4, 6])
        nu = uniform_on(sp, [10, 14, 20, 24])
        direct = solve_ot(mu, nu, c).value
        before = lp.pivot_total()
        chained = chain_free_medium(mu, nu, c, 1)
        assert chained == pytest.approx(0.5 * direct, rel=1e-9)
        spent = lp.pivot_total() - before
        # the free chain is one shortcut solve, lifted and gated without a pivot
        before = lp.pivot_total()
        solve_ot(mu, nu, reduced_cost(c, 1))
        assert spent <= lp.pivot_total() - before

    def test_free_chain_gates_without_a_dense_matrix(self):
        # k sorted uniform points, squared-distance cost, normalised U(0.5, 1.5)
        # endpoints: the dense (5k x 4k^2) chain matrix alone would take 276 MB
        rng = np.random.default_rng(3)
        k = 120
        pts = np.sort(rng.uniform(size=k))
        w = rng.uniform(0.5, 1.5, (2, k))
        w /= w.sum(axis=1, keepdims=True)
        sp = FiniteSpace([f"x{i}" for i in range(k)])
        mu, nu = ScalarMeasure(sp, w[0]), ScalarMeasure(sp, w[1])
        tracemalloc.start()
        try:
            res = chain_ot(ChainProblem(sp, (pts[:, None] - pts[None, :]) ** 2, mu, nu, None, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.plans) == 4
        assert peak < 50 * 2**20, peak

    def test_zero_hops_rejected(self):
        p = random_chain(np.random.default_rng(13), 3, 1)
        with pytest.raises(ValueError):
            chain_free_medium(p.mu, p.nu, p.cost, 0)


def chain_highs(mu, nu, cost, medium, hops):
    """(status, value) of the chain LP under scipy's HiGHS, stated here.

    Leg i of the hops + 1 plans fills columns i*k*k onward, cell (x, z) at
    x*k + z.  Rows: the last leg's column sums (nu), each link from the
    last back (leg i-1's column sums less leg i's row sums), the medium
    average when pinned, then the first leg's row sums (mu).
    """
    linprog = pytest.importorskip("scipy.optimize").linprog
    k, legs = len(mu), hops + 1
    rows_op = np.kron(np.eye(k), np.ones((1, k)))
    cols_op = np.kron(np.ones((1, k)), np.eye(k))

    def on_leg(op, i):
        block = np.zeros((k, legs * k * k))
        block[:, i * k * k : (i + 1) * k * k] = op
        return block

    A = [on_leg(cols_op, hops)]
    A += [on_leg(cols_op, i - 1) - on_leg(rows_op, i) for i in range(hops, 0, -1)]
    b = [nu] + [np.zeros(k)] * hops
    if medium is not None:
        A.append(sum(on_leg(rows_op, i) for i in range(1, legs)))
        b.append(hops * medium)
    A.append(on_leg(rows_op, 0))
    b.append(mu)
    res = linprog(np.tile(np.ravel(cost), legs), A_eq=np.vstack(A), b_eq=np.concatenate(b),
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    assert res.status in (0, 2), res.message
    return ("optimal", res.fun) if res.status == 0 else ("infeasible", None)


def vecot_chain(mu, nu, cost, medium, hops):
    """(status, value) of `chain_ot`, or of `chain_free_medium` without a medium."""
    try:
        if medium is None:
            return "optimal", chain_free_medium(mu, nu, cost, hops)
        return "optimal", chain_ot(ChainProblem(mu.space, cost, mu, nu, medium, hops)).value
    except InfeasibleTransport:
        return "infeasible", None


def gen_chains():
    # ten seeds each at k = 5 and 8, and one free chain at k = 24 routing its shortcut
    # plan over many paths
    cases = [(k, seed, 1 + seed % 3) for k in (5, 8) for seed in range(10)] + [(24, 0, 2)]
    for k, seed, hops in cases:
        data = gen("chain", seed, {"k": k, "hops": hops}).data
        yield pytest.param(data["mu"], data["nu"], data["cost"], data["medium"],
                           data["hops"], id=f"k{k}-seed{seed}")


def mass_gap_chains():
    # TestMassGap's families: 50 atoms of 2.0 with the first raised, and a medium gap
    for gap in (0.1, 5e-8, -0.1):
        mu, nu = raised_copy(gap)
        yield pytest.param(mu, nu, grid_cost(50, 1), mu, 2, id=f"raised-{gap}")
    sp = FiniteSpace(["a", "b", "c"])
    mu = ScalarMeasure(sp, np.array([0.2, 0.3, 0.5]))
    yield pytest.param(mu, mu, grid_cost(3, 2), ScalarMeasure(sp, np.full(3, 0.5)), 2,
                       id="medium-gap")


class TestHighsOracle:
    @pytest.mark.parametrize("mu,nu,cost,medium,hops", [*gen_chains(), *mass_gap_chains()])
    @pytest.mark.parametrize("pinned", [True, False])
    def test_value_and_verdict_match_highs(self, mu, nu, cost, medium, hops, pinned):
        medium = medium if pinned else None
        status, value = vecot_chain(mu, nu, cost, medium, hops)
        ref_status, ref_value = chain_highs(mu.weights, nu.weights, cost,
                                            None if medium is None else medium.weights, hops)
        assert status == ref_status
        if status == "optimal":
            assert abs(value - ref_value) <= 1e-9 * max(1.0, abs(ref_value))


def min_plus_reference(a, b):
    return np.min(a[:, :, None] + b[None, :, :], axis=1)


def default_gen_chains():
    for seed in range(20):
        d = gen("chain", seed).data
        yield pytest.param(d["mu"], d["nu"], d["cost"], d["medium"], d["hops"], id=f"seed{seed}")


class TestShortcutLift:
    """A free chain is one shortcut transport solve, lifted onto the chain LP
    and gated there; a pinned chain gates its plans against the lifted dual."""

    @pytest.mark.parametrize("mu,nu,cost,medium,hops", [*default_gen_chains(), *mass_gap_chains()])
    def test_free_chain_runs_no_dense_solve_and_pivots_as_its_shortcut(
        self, monkeypatch, mu, nu, cost, medium, hops
    ):
        def shortcut_pivots(run):
            before = lp.pivot_total()
            try:
                run()
            except InfeasibleTransport:
                pass
            return lp.pivot_total() - before

        dense = []
        real_engine = lp._Engine
        monkeypatch.setattr(lp, "_Engine", lambda *a: dense.append(a) or real_engine(*a))
        spent = shortcut_pivots(lambda: chain_free_medium(mu, nu, cost, hops))
        assert dense == []
        assert spent == shortcut_pivots(lambda: solve_ot(mu, nu, reduced_cost(cost, hops)))

    @pytest.mark.parametrize("pinned", [True, False])
    def test_shortcut_dual_off_its_optimum_fails_the_gate(self, monkeypatch, pinned):
        p = random_chain(np.random.default_rng(14), 5, 2)
        if not pinned:
            p = ChainProblem(p.space, p.cost, p.mu, p.nu, None, p.hops)
        real_ot, real_gate = chain.solve_ot, chain.gate

        def off_optimum(mu, nu, cost):
            res = real_ot(mu, nu, cost)
            res.psi = res.psi + 0.1
            return res

        failed = []

        def spy(problem, sol):
            try:
                return real_gate(problem, sol)
            except lp.NumericalBreakdown:
                failed.append(problem)
                raise

        monkeypatch.setattr(chain, "solve_ot", off_optimum)
        monkeypatch.setattr(chain, "gate", spy)
        with pytest.raises(lp.NumericalBreakdown):
            chain_ot(p)
        assert len(failed) == 1
        assert np.array_equal(failed[0].A.toarray(), chain._chain_lp(p).A.toarray())

    @pytest.mark.parametrize("gap", [0.1, 5e-8, -0.1])
    def test_free_mass_gap_links_at_minus_min_psi(self, gap):
        mu, nu = raised_copy(gap)
        with pytest.raises(InfeasibleTransport) as exc:
            chain_free_medium(mu, nu, grid_cost(50, 1), 2)
        cert = exc.value.cert
        assert np.all(cert["linking"] == -cert["source"].min())
        y = np.concatenate([cert["source"], cert["linking"].ravel(), cert["target"]])
        p = chain._chain_lp(ChainProblem(mu.space, grid_cost(50, 1), mu, nu, None, 2))
        assert lp.farkas_margin(p, y) < -CERT_TOL

    @pytest.mark.parametrize("gap", [2e-7, 5e-7])
    def test_pinned_gap_the_dense_engine_misses_is_certified_by_the_shortcut(self, gap):
        # the dense engine's infeasibility cutoff scales with max|b|, here the
        # 3 * 300 of the medium rows, the shortcut's with max(mu, nu) = 100
        sp = FiniteSpace(["a", "b", "c"])
        mu = ScalarMeasure(sp, np.full(3, 100.0))
        nu = ScalarMeasure(sp, np.array([100.0, 100.0, 100.0 + gap]))
        medium = ScalarMeasure(sp, np.array([300.0, 0.0, 0.0]))
        p = ChainProblem(sp, grid_cost(3, 1), mu, nu, medium, 3)
        assert lp.solve(chain._chain_lp(p)).status == "optimal"
        with pytest.raises(InfeasibleTransport, match="prescribed medium average") as exc:
            chain_ot(p)
        cert = exc.value.cert
        assert np.all(cert["medium"] == 0.0)
        assert_chain_farkas(cert, mu, nu, medium, 3)
        y = np.concatenate([cert["source"], cert["linking"].ravel(), cert["medium"], cert["target"]])
        assert lp.farkas_margin(chain._chain_lp(p), y) < -CERT_TOL

    @pytest.mark.parametrize("seed", range(5))
    def test_shortcut_costs_stay_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        k, n = int(rng.integers(2, 9)), int(rng.integers(0, 4))
        # small integers tie often; uniform floats rarely
        c = rng.integers(0, 4, (k, k)).astype(float) if seed % 2 else rng.uniform(0, 2, (k, k))
        pot = rng.uniform(-1, 1, k)
        plain, weighted = c.copy(), c.copy()
        for _ in range(n):
            plain = min_plus_reference(plain, c)
            weighted = min_plus_reference(weighted, c - pot[:, None])
        assert np.array_equal(reduced_cost(c, n), plain)
        assert np.array_equal(chain._powers(c, c, n)[-1], plain)
        assert np.array_equal(weighted_reduced_cost(c, pot, n), weighted)

    def test_ties_resolve_to_the_first_stop(self):
        # from 0 to 2 through one stop: 0 -> 0 -> 2, 0 -> 1 -> 2 and 0 -> 2 -> 2 all cost 1
        c = np.array([[0.0, 0.5, 1.0], [0.5, 0.0, 0.5], [1.0, 0.5, 0.0]])
        powers = chain._powers(c, c, 1)
        assert powers[1][0, 2] == 1.0
        cell = np.zeros((3, 3))
        cell[0, 2] = 1.0
        first, second = chain._routed(cell, powers, c).reshape(2, 3, 3)
        assert first[0, 0] == 1.0 and second[0, 2] == 1.0 and first.sum() == second.sum() == 1.0
        # all stops tie on a zero cost: every cell goes through stop 0
        zero, full = np.zeros((3, 3)), np.ones((3, 3))
        first, second = chain._routed(full, chain._powers(zero, zero, 1), zero).reshape(2, 3, 3)
        assert np.array_equal(first[:, 0], np.full(3, 3.0)) and first.sum() == 9.0
        assert np.array_equal(second[0], np.full(3, 3.0)) and second.sum() == 9.0

    @pytest.mark.parametrize("seed", range(12))
    def test_routed_free_paths_are_exactly_tight(self, seed):
        # each support cell of the shortcut plan, routed alone, pays its shortcut
        # cost bit for bit when the legs are summed left to right
        rng = np.random.default_rng(40 + seed)
        k, n = int(rng.integers(2, 13)), 1 + seed % 3
        p = random_chain(rng, k, n)
        # small integers tie often; uniform floats rarely
        c = rng.integers(0, 4, (k, k)).astype(float) if seed % 2 else p.cost
        powers = chain._powers(c, c, n)
        plan = solve_ot(p.mu, p.nu, powers[-1]).plan.matrix
        for x, y in zip(*np.nonzero(plan)):
            cell = np.zeros((k, k))
            cell[x, y] = plan[x, y]
            path = [x]
            for leg in chain._routed(cell, powers, c).reshape(n + 1, k, k):
                ((tail, head),) = np.argwhere(leg)
                assert tail == path[-1]
                path.append(head)
            assert path[-1] == y
            total = c[path[0], path[1]]
            for a, b in zip(path[1:], path[2:]):
                total = total + c[a, b]
            assert total == powers[-1][x, y]
