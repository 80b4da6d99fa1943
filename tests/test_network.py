"""The network simplex against the dense engine and HiGHS, and its certificates.

`reference_run` below is `_Tree.run` as it was before pricing became
incremental: it prices every arc on every pivot, and pivots one arc at a
time with the tree walks the engine had then (`reference_potentials`,
`reference_pivot`).  The engine must pick the same entering arcs, bound
flips replayed in one pass included, and end with the same flows and
potentials, bit for bit.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vecot import generate, lp, scalar
from vecot.lp import LpProblem, NumericalBreakdown, certify, farkas_margin
from vecot.measures import FiniteSpace, ScalarMeasure, TransportPlan
from vecot.network import TransportIncidence, _Tree
from vecot.tolerances import CERT_TOL


def dense_twin(problem):
    """The same LP with its constraint matrix written out."""
    return LpProblem(
        c=problem.c, A=problem.A.toarray(), b=problem.b, kinds=problem.kinds,
        lower=problem.lower, upper=problem.upper, sense=problem.sense,
    )


def highs(problem):
    """(status, value) of the dense twin under scipy's HiGHS."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    if problem.nvars == 0:
        return lp.solve(dense_twin(problem)).status, None
    A, b, kinds = problem.A.toarray(), problem.b, np.asarray(problem.kinds)
    sign = 1.0 if problem.sense == "min" else -1.0
    le = kinds == "le"
    res = linprog(
        sign * problem.c,
        A_ub=A[le] if le.any() else None, b_ub=b[le] if le.any() else None,
        A_eq=A[~le], b_eq=b[~le],
        bounds=list(zip(problem.lower, [None if np.isinf(u) else u for u in problem.upper])),
        method="highs",
    )
    assert res.status in (0, 2), res.message
    return ("optimal", sign * res.fun) if res.status == 0 else ("infeasible", None)


def close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def check_against_oracles(problem, sol):
    """The network result agrees with the dense engine and HiGHS, and both
    engines' results pass the gates on both forms of the problem."""
    twin = dense_twin(problem)
    ref = lp.solve(twin)
    assert sol.status == ref.status
    status, value = highs(problem)
    assert status == sol.status
    if value is not None:
        assert close(sol.value, value), (sol.value, value)
    if sol.status == "optimal":
        assert close(sol.value, ref.value), (sol.value, ref.value)
        for p in (problem, twin):
            certify(p, sol.x, sol.y, sol.value)
            certify(p, ref.x, ref.y, ref.value)
    else:
        for p in (problem, twin):
            assert farkas_margin(p, sol.farkas) < -CERT_TOL
            assert farkas_margin(p, ref.farkas) < -CERT_TOL


def instance(seed, nx, ny, integer_costs):
    """Marginals of a random integer plan (zero rows and columns give zero-mass
    atoms), a cost, a capacity that may not fit, a mass and a threshold."""
    rng = np.random.default_rng(seed)
    P0 = rng.integers(0, 3, (nx, ny)) * (rng.random((nx, ny)) < 0.6)
    sx = FiniteSpace([f"x{i}" for i in range(nx)])
    sy = FiniteSpace([f"y{j}" for j in range(ny)])
    mu = ScalarMeasure(sx, P0.sum(axis=1).astype(float))
    nu = ScalarMeasure(sy, P0.sum(axis=0).astype(float))
    c = rng.integers(0, 4, (nx, ny)).astype(float) if integer_costs else rng.normal(size=(nx, ny))
    cap = rng.integers(0, 3, (nx, ny)) + (P0 if rng.random() < 0.5 else 0)
    cap = TransportPlan(sx, sy, cap.astype(float))
    m = float(rng.integers(0, int(P0.sum()) + 1))
    D = max(0.0, float(np.quantile(c, rng.uniform(0.2, 0.9))))
    return mu, nu, c, cap, m, D


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(1, 12),
    ny=st.integers(1, 12),
    integer_costs=st.booleans(),
)
def test_four_solvers_match_dense_engine_and_highs(seed, nx, ny, integer_costs):
    mu, nu, c, cap, m, D = instance(seed, nx, ny, integer_costs)
    seen = []

    def spy(problem, pivot_limit=None):
        sol = lp.solve(problem, pivot_limit)
        assert isinstance(problem.A, TransportIncidence)
        seen.append((problem, sol))
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scalar, "solve", spy)
        scalar.solve_ot(mu, nu, c)
        scalar.solve_partial(mu, nu, c, m)
        try:
            scalar.solve_capacity(mu, nu, c, cap)
        except scalar.InfeasibleTransport as exc:
            assert exc.cert["kellerer_slack"] < -CERT_TOL
        res = scalar.local_constraint_feasible(mu, nu, c, D)
        if not res.feasible:
            assert res.cert["margin"] < -CERT_TOL
    for problem, sol in seen:
        check_against_oracles(problem, sol)


def test_infeasible_partial_mass_certified_by_both_engines():
    A = TransportIncidence.complete(2, 3, total=True)
    p = LpProblem(c=np.arange(6.0), A=A, b=[1.0, 1.0, 0.5, 0.5, 0.5, 1.8], kinds=["le"] * 5 + ["eq"])
    sol = lp.solve(p)
    assert sol.status == "infeasible"
    check_against_oracles(p, sol)


def test_incidence_operator_matches_its_dense_matrix():
    rng = np.random.default_rng(3)
    for total in (False, True):
        A = TransportIncidence(4, 5, rng.integers(0, 4, 9), rng.integers(0, 5, 9), total=total)
        dense = A.toarray()
        x, y = rng.normal(size=9), rng.normal(size=A.shape[0])
        np.testing.assert_allclose(A @ x, dense @ x)
        np.testing.assert_allclose(A.T @ y, dense.T @ y)
        assert A.size == np.count_nonzero(dense)
    with pytest.raises(ValueError):
        TransportIncidence(2, 2, [0, 2], [0, 1])
    with pytest.raises(ValueError):
        lp.solve(LpProblem(c=[1.0], A=TransportIncidence(1, 1, [0], [0]), b=[1.0, 1.0], kinds=["ge", "eq"]))


def test_network_pivot_count_guard():
    # network pivots are deterministic and still count in lp.pivot_total():
    # 131 for this solve_ot (1616 on the dense engine), 713 for this
    # solve_capacity (2349)
    for kind, n, bound in (("scalar_ot", 50, 160), ("capacity", 30, 850)):
        data = generate.gen(kind, 1, {"nx": n, "ny": n}).data
        before = lp.pivot_total()
        if kind == "scalar_ot":
            scalar.solve_ot(data["mu"], data["nu"], data["cost"])
        else:
            scalar.solve_capacity(data["mu"], data["nu"], data["cost"], data["cap"])
        assert 0 < lp.pivot_total() - before <= bound


def test_pivot_limit_applies_to_the_network():
    data = generate.gen("scalar_ot", 1, {"nx": 10, "ny": 10}).data
    A = TransportIncidence.complete(10, 10)
    b = np.concatenate([data["mu"].weights, data["nu"].weights])
    p = LpProblem(c=data["cost"].ravel(), A=A, b=b, kinds=["eq"] * 20)
    with pytest.raises(NumericalBreakdown):
        lp.solve(p, pivot_limit=5)


# --- reference: every arc priced on every pivot -------------------------------


def reference_potentials(tree, cost):
    c = cost.tolist()
    pi = [0.0] * len(tree.parent)
    stack = [len(tree.parent) - 1]
    while stack:
        w = stack.pop()
        for v in tree.children[w]:
            a = tree.pred[v]
            pi[v] = pi[w] + c[a] if tree.up[v] else pi[w] - c[a]
            stack.append(v)
    tree.pi[:] = pi


def reference_pivot(tree, e, rc_e):
    parent, pred, up, depth = tree.parent, tree.pred, tree.up, tree.depth
    flow, cap = tree.flow, tree.cap
    forward = tree.state[e] > 0.0
    a, b = int(tree.tail[e]), int(tree.head[e])
    first, second = (a, b) if forward else (b, a)
    side1, side2 = [], []
    u, v = first, second
    while u != v:
        if depth[u] >= depth[v]:
            side1.append(u)
            u = parent[u]
        else:
            side2.append(v)
            v = parent[v]
    delta, out, out_side1 = cap[e], -1, False
    for k, u in enumerate(side1):
        f = flow[pred[u]]
        d = f if up[u] else cap[pred[u]] - f
        if d < delta:
            delta, out, out_side1 = d, k, True
    for k, u in enumerate(side2):
        f = flow[pred[u]]
        d = cap[pred[u]] - f if up[u] else f
        if d <= delta:
            delta, out, out_side1 = d, k, False
    if delta == np.inf:
        raise NumericalBreakdown("network has a cycle of unbounded arcs with negative cost")
    if delta > 0.0:
        flow[e] += delta if forward else -delta
        for u in side1:
            flow[pred[u]] += -delta if up[u] else delta
        for u in side2:
            flow[pred[u]] += delta if up[u] else -delta
    if out < 0:
        flow[e] = cap[e] if forward else 0.0
        tree.state[e] = -tree.state[e]
        return []
    path = (side1 if out_side1 else side2)[: out + 1]
    u_out = path[-1]
    leave = pred[u_out]
    at_cap = up[u_out] != out_side1
    flow[leave] = cap[leave] if at_cap else 0.0
    tree.state[leave] = -1.0 if at_cap else 1.0
    tree.state[e] = 0.0
    u_in, v_in = (first, second) if out_side1 else (second, first)
    children = tree.children
    children[parent[u_out]].remove(u_out)
    prev, prev_pred, prev_up = v_in, e, a == u_in
    for w in path:
        old_parent, old_pred, old_up = parent[w], pred[w], up[w]
        if w != u_out:
            children[old_parent].remove(w)
        parent[w], pred[w], up[w] = prev, prev_pred, prev_up
        children[prev].append(w)
        prev, prev_pred, prev_up = w, old_pred, not old_up
    depth[u_in] = depth[v_in] + 1
    moved, stack = [], [u_in]
    while stack:
        w = stack.pop()
        moved.append(w)
        dw = depth[w] + 1
        for ch in children[w]:
            depth[ch] = dw
            stack.append(ch)
    tree.pi[moved] += rc_e if u_in == a else -rc_e
    return moved


def reference_run(tree, cost):
    reference_potentials(tree, cost)
    tail, head, state, pi = tree.tail, tree.head, tree.state, tree.pi
    rc = np.empty(cost.size)
    buf = np.empty(cost.size)
    while rc.size:
        pi.take(tail, out=rc)
        np.subtract(cost, rc, out=rc)
        rc += pi.take(head, out=buf)
        np.multiply(state, rc, out=buf)
        e = int(buf.argmin())
        if not buf[e] < -tree.tol:
            return
        if tree.pivots >= tree.pivot_limit:
            raise NumericalBreakdown(
                f"pivot limit {tree.pivot_limit} exceeded after {tree.pivots} iterations"
            )
        tree.pivots += 1
        tree._pivot(e, float(rc[e]))


def traced_solve(problem, run, pivot=_Tree._pivot, pivot_limit=None):
    """Solve `problem` with `run` as `_Tree.run` and `pivot` as
    `_Tree._pivot`.  Returns the entering arcs (each replayed flip too),
    the replayed flips, whether each `pivot` call was a bound flip, each
    run's (pivots, flows, potentials) at its end, and the solution."""
    entering, replayed, flips, ends = [], [], [], []
    replay = _Tree._replay_flips

    def traced_pivot(tree, e, rc_e):
        entering.append(e)
        moved = pivot(tree, e, rc_e)
        flips.append(not moved)
        return moved

    def traced_replay(tree, priced):
        flipped = replay(tree, priced)
        entering.extend(flipped)
        replayed.extend(flipped)
        return flipped

    def traced_run(tree, cost):
        run(tree, cost)
        ends.append((tree.pivots, list(tree.flow), tree.pi.tobytes()))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Tree, "_pivot", traced_pivot)
        mp.setattr(_Tree, "_replay_flips", traced_replay)
        mp.setattr(_Tree, "run", traced_run)
        sol = lp.solve(problem, pivot_limit)
    return entering, replayed, flips, ends, sol


@st.composite
def network_lps(draw):
    """A transportation LP over complete or sparse arcs, with zero-balance
    nodes, tight caps (so arcs flip, and some LPs are infeasible) and,
    with the total row, a mass that may not fit."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nx, ny = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    density, total = draw(st.sampled_from([1.0, 0.6, 0.25])), draw(st.booleans())
    tail, head = np.nonzero(rng.random((nx, ny)) < density)
    order = rng.permutation(tail.size)
    tail, head = tail[order], head[order]
    dead_x, dead_y = rng.random(nx) < 0.2, rng.random(ny) < 0.2
    flow = rng.integers(0, 4, tail.size) * ~(dead_x[tail] | dead_y[head])
    b_x = np.bincount(tail, weights=flow, minlength=nx)
    b_y = np.bincount(head, weights=flow, minlength=ny)
    c = rng.integers(0, 5, tail.size).astype(float) if draw(st.booleans()) else rng.normal(size=tail.size)
    cap = draw(st.sampled_from(["none", "tight", "loose"]))
    if cap == "none":
        upper = np.full(tail.size, np.inf)
    else:
        upper = rng.integers(0, 3, tail.size) + (flow if cap == "loose" else 0)
    m = [[float(rng.integers(0, b_x.sum() + 2))]] if total else []
    b = np.concatenate([b_x, b_y] + m)
    kinds = ["le" if total else "eq"] * (nx + ny) + (["eq"] if total else [])
    return LpProblem(
        c=c, A=TransportIncidence(nx, ny, tail, head, total), b=b, kinds=kinds,
        upper=upper, sense=draw(st.sampled_from(["min", "max"])),
    )


@settings(max_examples=80, deadline=None)
@given(problem=network_lps())
def test_incremental_pricing_pivots_as_full_pricing(problem):
    assert_pivots_as_full_pricing(problem)


def assert_pivots_as_full_pricing(problem):
    """The engine against `reference_run`, bit for bit; returns the arcs
    the engine flipped in replayed streaks, and whether each of the
    reference's pivots was a bound flip."""
    entering, replayed, _, ends, sol = traced_solve(problem, _Tree.run)
    ref_entering, ref_replayed, ref_flips, ref_ends, ref = traced_solve(
        problem, reference_run, reference_pivot
    )
    assert not ref_replayed
    assert entering == ref_entering
    assert ends == ref_ends
    assert sol.status == ref.status and sol.iterations == ref.iterations
    for got, want in ((sol.x, ref.x), (sol.y, ref.y), (sol.farkas, ref.farkas)):
        assert (got is None and want is None) or (got.tobytes() == want.tobytes())
    return replayed, ref_flips


def capacity_lp(seed):
    """The LP `solve_capacity` states for the 30x30 `capacity` instance."""
    data = generate.gen("capacity", seed, {"nx": 30, "ny": 30}).data
    seen = []

    def spy(problem, pivot_limit=None):
        seen.append(problem)
        return lp.solve(problem, pivot_limit)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scalar, "solve", spy)
        scalar.solve_capacity(data["mu"], data["nu"], data["cost"], data["cap"])
    (problem,) = seen
    return problem


@pytest.mark.parametrize("seed", range(5))
def test_replayed_star_flips_pivot_as_full_pricing(seed):
    # caps below the balances make the star's first pivots a streak of
    # bound flips, which the engine replays in one pass, all of it
    replayed, ref_flips = assert_pivots_as_full_pricing(capacity_lp(seed))
    assert replayed and ref_flips[: len(replayed) + 1] == [True] * len(replayed) + [False]


@pytest.mark.parametrize("left_at", ["source", "sink"])
def test_a_cap_equal_to_what_is_left_at_one_end(left_at):
    # arc 0 costs least; its cap equals the supply its source has left
    # (a bound flip, replayed) or the demand its sink has left (the sink's
    # artificial arc leaves the tree instead)
    if left_at == "source":
        A, b = TransportIncidence(2, 1, [0, 1], [0, 0]), [2.0, 1.0, 3.0]
    else:
        A, b = TransportIncidence(1, 2, [0, 0], [0, 1]), [3.0, 2.0, 1.0]
    problem = LpProblem(c=[-1.0, 0.0], A=A, b=b, kinds=["eq"] * 3, upper=[2.0, np.inf])
    replayed, ref_flips = assert_pivots_as_full_pricing(problem)
    assert replayed == ([0] if left_at == "source" else [])
    assert ref_flips[0] == (left_at == "source")


def test_pivot_limit_inside_the_replayed_streak():
    problem = capacity_lp(0)
    entering, replayed, _, _, _ = traced_solve(problem, _Tree.run)
    assert entering[: len(replayed)] == replayed and len(replayed) > 2
    for limit in (1, len(replayed) // 2, len(replayed) - 1, len(replayed)):
        messages = []
        for run, pivot in ((_Tree.run, _Tree._pivot), (reference_run, reference_pivot)):
            with pytest.raises(NumericalBreakdown) as exc:
                traced_solve(problem, run, pivot, pivot_limit=limit)
            messages.append(str(exc.value))
        assert messages[0] == messages[1] == (
            f"pivot limit {limit} exceeded after {limit} iterations"
        )


def test_pricing_passes_over_all_arcs_are_rare(monkeypatch):
    # a bound flip reprices one entry and a basis change the arcs at the
    # re-hung nodes; all arcs are priced only when a run starts or after a
    # basis change that re-hangs many nodes
    events = []
    run, price, pivot, replay = _Tree.run, _Tree._price, _Tree._pivot, _Tree._replay_flips

    def counted_run(tree, cost):
        events.append("run")
        run(tree, cost)

    def counted_price(tree, *args):
        events.append("all")
        price(tree, *args)

    def counted_pivot(tree, e, rc_e):
        moved = pivot(tree, e, rc_e)
        events.append("move" if moved else "flip")
        return moved

    def counted_replay(tree, priced):
        flipped = replay(tree, priced)
        events.extend(["flip"] * len(flipped))
        return flipped

    monkeypatch.setattr(_Tree, "run", counted_run)
    monkeypatch.setattr(_Tree, "_price", counted_price)
    monkeypatch.setattr(_Tree, "_pivot", counted_pivot)
    monkeypatch.setattr(_Tree, "_replay_flips", counted_replay)
    data = generate.gen("capacity", 1, {"nx": 30, "ny": 30}).data
    scalar.solve_capacity(data["mu"], data["nu"], data["cost"], data["cap"])
    assert events.count("flip") > events.count("move") > 0
    assert all(prev in ("run", "move") for prev, ev in zip(events, events[1:]) if ev == "all")
    events.clear()
    data = generate.gen("scalar_ot", 1, {"nx": 300, "ny": 300}).data
    scalar.solve_ot(data["mu"], data["nu"], data["cost"])
    pivots = events.count("move") + events.count("flip")
    # measured: 918 pivots, 103 passes over all 90600 arcs
    assert (pivots, events.count("all")) == (918, 103)


def test_trees_stay_strongly_feasible_on_degenerate_instances(monkeypatch):
    # the leaving rule's guard against cycling: after every pivot each tree
    # arc with zero flow points to the root and each arc at its cap away
    pivot = _Tree._pivot
    checked = []

    def checked_pivot(tree, e, rc_e):
        moved = pivot(tree, e, rc_e)
        for v, a in enumerate(tree.pred[:-1]):
            if tree.flow[a] == 0.0:
                assert tree.up[v]
            if tree.flow[a] == tree.cap[a]:
                assert not tree.up[v]
        checked.append(e)
        return moved  # run reprices the arcs at these nodes

    monkeypatch.setattr(_Tree, "_pivot", checked_pivot)
    rng = np.random.default_rng(7)
    for n in (6, 9, 12):
        sp = FiniteSpace([f"p{i}" for i in range(n)])
        uniform = ScalarMeasure(sp, np.ones(n))
        c = rng.integers(0, 3, (n, n)).astype(float)
        scalar.solve_ot(uniform, uniform, c)
        scalar.solve_partial(uniform, uniform, c, n / 2)
        scalar.solve_capacity(uniform, uniform, c, TransportPlan(sp, sp, np.full((n, n), 0.5)))
    assert checked


def test_solve_ot_300_certifies_without_a_dense_matrix(monkeypatch):
    data = generate.gen("scalar_ot", 1, {"nx": 300, "ny": 300}).data
    seen = []

    def spy(problem, pivot_limit=None):
        sol = lp.solve(problem, pivot_limit)
        seen.append((problem, sol))
        return sol

    monkeypatch.setattr(scalar, "solve", spy)
    tracemalloc.start()
    try:
        res = scalar.solve_ot(data["mu"], data["nu"], data["cost"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (problem, sol), = seen
    assert isinstance(problem.A, TransportIncidence) and problem.A.size == 2 * 300 * 300
    certify(problem, sol.x, sol.y, sol.value)
    assert res.value == sol.value
    # the dense (600 x 90000) matrix alone would take 432 MB
    assert peak < 64 * 2**20, peak


def zero_balance_pair(seed, sparse, total):
    """An LP with zero-balance sources and sinks, and the same LP without them.

    With `total` the total row moves every unit both sides hold, so the
    dummy source and sink have zero balance as well, and the LP without
    them is the eq LP on the live sources and sinks.  Returns (full,
    reduced, live arcs of the full LP).
    """
    rng = np.random.default_rng(seed)
    nx, ny = rng.integers(2, 9, 2)
    if sparse:
        tail, head = np.nonzero(rng.random((nx, ny)) < 0.5)
        order = rng.permutation(tail.size)
        tail, head = tail[order], head[order]
    else:
        tail, head = np.repeat(np.arange(nx), ny), np.tile(np.arange(ny), nx)
    dead_x, dead_y = rng.random(nx) < 0.4, rng.random(ny) < 0.4
    flow = rng.integers(0, 3, tail.size) * ~(dead_x[tail] | dead_y[head])
    b_x = np.bincount(tail, weights=flow, minlength=nx)
    b_y = np.bincount(head, weights=flow, minlength=ny)
    c = rng.integers(0, 5, tail.size).astype(float)
    cap = rng.integers(0, 3, tail.size) + (flow if rng.random() < 0.5 else 0)
    b = np.concatenate([b_x, b_y] + ([[b_x.sum()]] if total else []))
    kinds = ["le" if total else "eq"] * (nx + ny) + (["eq"] if total else [])
    full = LpProblem(c=c, A=TransportIncidence(nx, ny, tail, head, total), b=b, kinds=kinds, upper=cap)
    live_x, live_y = b_x != 0, b_y != 0
    live = live_x[tail] & live_y[head]
    A = TransportIncidence(
        live_x.sum(), live_y.sum(),
        (np.cumsum(live_x) - 1)[tail[live]], (np.cumsum(live_y) - 1)[head[live]],
    )
    b = np.concatenate([b_x[live_x], b_y[live_y]])
    reduced = LpProblem(c=c[live], A=A, b=b, kinds=["eq"] * b.size, upper=cap[live])
    return full, reduced, live


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("total", [False, True])
def test_zero_balance_nodes_are_pruned_and_priced(sparse, total):
    # the tree runs without zero-balance nodes: the same pivots and flows
    # as the LP without them, and the full LP's gates still pass
    statuses = set()
    for seed in range(40):
        full, reduced, live = zero_balance_pair(seed, sparse, total)
        if live.all():
            continue
        sol, ref = lp.solve(full), lp.solve(reduced)
        assert sol.status == ref.status
        assert sol.iterations == ref.iterations, seed
        statuses.add(sol.status)
        if sol.status == "optimal":
            assert np.array_equal(sol.x[live], ref.x) and not sol.x[~live].any()
            assert sol.value == ref.value
            certify(full, sol.x, sol.y, sol.value)
        else:
            assert farkas_margin(full, sol.farkas) < -CERT_TOL
    assert statuses == {"optimal", "infeasible"}


@pytest.mark.parametrize("solver", ["ot", "partial", "capacity"])
def test_all_zero_marginals_make_one_certified_lp_call(monkeypatch, solver):
    sx, sy = FiniteSpace(["a", "b", "c"]), FiniteSpace(["u", "v"])
    mu, nu = ScalarMeasure(sx, np.zeros(3)), ScalarMeasure(sy, np.zeros(2))
    c = np.array([[1.0, -2.0], [0.5, 3.0], [-1.0, 0.0]])
    seen = []

    def spy(problem, pivot_limit=None):
        sol = lp.solve(problem, pivot_limit)
        seen.append((problem, sol))
        return sol

    monkeypatch.setattr(scalar, "solve", spy)
    if solver == "ot":
        res = scalar.solve_ot(mu, nu, c)
    elif solver == "partial":
        res = scalar.solve_partial(mu, nu, c, 0.0)
    else:
        res = scalar.solve_capacity(mu, nu, c, TransportPlan(sx, sy, np.ones((3, 2))))
    (problem, sol), = seen
    assert problem.nvars == 6 and sol.status == "optimal"
    certify(problem, sol.x, sol.y, sol.value)
    assert res.value == sol.value == 0.0 and not res.plan.matrix.any()
    assert np.array_equal(res.psi, sol.y[:3]) and np.array_equal(res.phi, sol.y[3:5])
