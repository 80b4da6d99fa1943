import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vecot.measures import (
    FiniteSpace,
    Kernel,
    ScalarMeasure,
    SpaceMismatch,
    TransportPlan,
    VectorMeasure,
    disintegrate,
    grid_space,
    kernel_apply,
    kernel_compose,
    product,
    pushforward,
    variation,
)


def space(n, prefix="p"):
    return FiniteSpace([f"{prefix}{i}" for i in range(n)])


def random_kernel(rng, src, tgt):
    r = rng.uniform(0.1, 1.0, size=(src.size, tgt.size))
    return Kernel(src, tgt, r / r.sum(axis=1, keepdims=True))


def random_measure(rng, sp, d):
    return VectorMeasure(sp, rng.uniform(0.0, 2.0, size=(sp.size, d)))


def test_space_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        FiniteSpace(["a", "a"])


def test_grid_space_midpoints():
    g = grid_space(4)
    np.testing.assert_allclose(g.coords.ravel(), [0.125, 0.375, 0.625, 0.875])


def test_scalar_measure_clamps_tiny_negative():
    m = ScalarMeasure(space(2), [1.0, -5e-10])
    assert m.weights[1] == 0.0
    with pytest.raises(ValueError):
        ScalarMeasure(space(2), [1.0, -1e-8])


def test_constructors_clear_the_sign_of_negative_zero():
    # a clamped -0.0 must come out as 0.0, as the serialize readers give it
    one, two = space(1), space(2)
    vm = VectorMeasure(one, [[-0.0, 1.0]], ref_weights=[1.0])
    dead = VectorMeasure(one, [[-0.0, -0.0]], ref_weights=[-0.0])
    arrays = {
        "scalar weights": ScalarMeasure(one, [-0.0]).weights,
        "vector values": vm.values,
        "vector density": vm.density,
        "vector ref_weights": dead.ref_weights,
        "vector values, dead atom": dead.values,
        "plan": TransportPlan(one, two, [[-0.0, 1.0]]).matrix,
        "kernel rows": Kernel(one, two, [[-0.0, 1.0]]).rows,
    }
    for name, arr in arrays.items():
        assert not np.signbit(arr).any(), name


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_every_constructor_array_must_be_finite(bad):
    # the reference weights, a density and kernel rows took NaN before, and
    # the density's NaN hid behind the zero reference weight it multiplies
    one, two = space(1), space(2)
    builds = {
        "weights": lambda: ScalarMeasure(one, [bad]),
        "values": lambda: VectorMeasure(one, [[bad, 1.0]]),
        "ref_weights": lambda: VectorMeasure(one, [[0.0]], ref_weights=[bad]),
        "density": lambda: VectorMeasure(two, [[1.0], [0.0]], ref_weights=[1.0, 0.0],
                                         density=[[1.0], [bad]]),
        "plan": lambda: TransportPlan(one, two, [[bad, 1.0]]),
        "rows": lambda: Kernel(one, two, [[bad, 1.0]]),
    }
    for name, build in builds.items():
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            build()


def test_vector_measure_defaults():
    mu = VectorMeasure(space(2), [[1.0, 3.0], [0.0, 0.0]])
    np.testing.assert_allclose(mu.ref_weights, [4.0, 0.0])
    np.testing.assert_allclose(mu.density[0], [0.25, 0.75])
    np.testing.assert_allclose(mu.density[1], [0.0, 0.0])
    assert mu.dim == 2


def test_vector_measure_rejects_undominated_reference():
    with pytest.raises(ValueError):
        VectorMeasure(space(2), [[1.0, 0.0], [1.0, 0.0]], ref_weights=[1.0, 0.0])


def test_vector_measure_checks_given_density():
    VectorMeasure(space(1), [[2.0, 2.0]], ref_weights=[2.0], density=[[1.0, 1.0]])
    with pytest.raises(ValueError):
        VectorMeasure(space(1), [[2.0, 2.0]], ref_weights=[2.0], density=[[1.0, 0.5]])


def test_vector_measure_needs_a_component():
    # d = 0 left every solver a zero-width array to reduce
    with pytest.raises(ValueError, match=r"at least one component \(d >= 1\)"):
        VectorMeasure(space(2), np.zeros((2, 0)))


def test_measures_are_frozen():
    mu = VectorMeasure(space(2), [[1.0], [2.0]])
    with pytest.raises(ValueError):
        mu.values[0, 0] = 5.0


def test_kernel_validation():
    sp = space(2)
    with pytest.raises(ValueError):
        Kernel(sp, sp, [[0.5, 0.4], [0.5, 0.5]])
    with pytest.raises(ValueError, match=r"^rows has negative entry -5\.000e-01 at \(0, 1\)$"):
        Kernel(sp, sp, [[1.5, -0.5], [0.5, 0.5]])


def test_pushforward_identity():
    rng = np.random.default_rng(0)
    mu = random_measure(rng, space(4), 3)
    out = pushforward(mu, list(range(4)))
    np.testing.assert_array_equal(out.values, mu.values)


def test_pushforward_constant_map_sums_rows():
    mu = VectorMeasure(space(2), [[1.0, 0.0], [0.0, 1.0]])
    out = pushforward(mu, [0, 0])
    np.testing.assert_allclose(out.values, [[1.0, 1.0], [0.0, 0.0]])


def test_pushforward_discrete_support():
    # mass b_j at source atom j landing on distinct targets keeps the vector
    src, tgt = space(3, "s"), space(5, "t")
    b = np.array([0.2, 0.5, 0.3])
    mu = VectorMeasure(src, b.reshape(-1, 1))
    out = pushforward(mu, [4, 0, 2], target=tgt)
    np.testing.assert_allclose(out.values.ravel(), [0.5, 0.0, 0.3, 0.0, 0.2])
    assert abs(out.values.sum() - b.sum()) < 1e-12


def test_pushforward_accepts_labels_and_callables():
    mu = VectorMeasure(space(2), [[1.0], [1.0]])
    by_label = pushforward(mu, ["p1", "p1"])
    by_fn = pushforward(mu, lambda i: 1)
    np.testing.assert_array_equal(by_label.values, by_fn.values)


def test_kernel_apply_matches_pushforward_for_deterministic():
    rng = np.random.default_rng(1)
    src, tgt = space(4, "s"), space(3, "t")
    mu = random_measure(rng, src, 2)
    mapping = [2, 0, 0, 1]
    P = Kernel.deterministic(src, tgt, mapping)
    np.testing.assert_array_equal(
        kernel_apply(P, mu).values, pushforward(mu, mapping, target=tgt).values
    )


def test_kernel_apply_random_walk_window():
    # one lazy step of a +-1 walk from the middle of a 5-point window
    sp = space(5)
    l, m, r = 0.3, 0.5, 0.2
    rows = np.eye(5) * m
    for i in range(5):
        rows[i, max(i - 1, 0)] += l
        rows[i, min(i + 1, 4)] += r
    P = Kernel(sp, sp, rows)
    delta = VectorMeasure(sp, [[0.0], [0.0], [1.0], [0.0], [0.0]])
    out = kernel_apply(P, delta)
    np.testing.assert_allclose(out.values.ravel(), [0.0, l, m, r, 0.0])


def test_kernel_apply_two_state_dominance_example():
    sp = space(2)
    p, q = 0.7, 0.4
    P = Kernel(sp, sp, [[p, 1 - p], [q, 1 - q]])
    mu = VectorMeasure(sp, [[1.0, 0.0], [0.0, 1.0]])
    out = kernel_apply(P, mu)
    np.testing.assert_allclose(out.values, [[p, q], [1 - p, 1 - q]])


def test_kernel_apply_space_mismatch():
    P = Kernel.identity(space(3))
    mu = VectorMeasure(space(4), np.ones((4, 1)))
    with pytest.raises(SpaceMismatch):
        kernel_apply(P, mu)


def test_compose_with_identity():
    rng = np.random.default_rng(2)
    sp = space(3)
    P = random_kernel(rng, sp, sp)
    out = kernel_compose(P, Kernel.identity(sp))
    np.testing.assert_allclose(out.rows, P.rows, atol=1e-15)


def test_compose_deterministic_maps():
    a, b, c = space(3, "a"), space(3, "b"), space(3, "c")
    f, g = [1, 2, 0], [2, 2, 1]
    PQ = kernel_compose(Kernel.deterministic(a, b, f), Kernel.deterministic(b, c, g))
    expected = Kernel.deterministic(a, c, [g[f[i]] for i in range(3)])
    np.testing.assert_array_equal(PQ.rows, expected.rows)


def test_compose_agrees_with_sequential_application():
    rng = np.random.default_rng(3)
    sp = space(3)
    P, Q = random_kernel(rng, sp, sp), random_kernel(rng, sp, sp)
    mu = random_measure(rng, sp, 2)
    once = kernel_apply(kernel_compose(P, Q), mu)
    twice = kernel_apply(Q, kernel_apply(P, mu))
    np.testing.assert_allclose(once.values, twice.values, atol=1e-12)


def test_product_with_constant_rows_is_product_measure():
    rng = np.random.default_rng(4)
    src, tgt = space(3, "s"), space(4, "t")
    nu = rng.uniform(0.1, 1.0, size=4)
    P = Kernel(src, tgt, np.tile(nu / nu.sum(), (3, 1)))
    mu = random_measure(rng, src, 1)
    plan = product(P, mu)
    outer = np.outer(mu.ref_weights, nu / nu.sum())
    np.testing.assert_allclose(plan.matrix, outer, atol=1e-14)


def test_product_marginals():
    rng = np.random.default_rng(5)
    src, tgt = space(4, "s"), space(3, "t")
    P = random_kernel(rng, src, tgt)
    mu = random_measure(rng, src, 2)
    plan = product(P, mu)
    np.testing.assert_allclose(plan.x_marginal().weights, mu.ref_weights, atol=1e-12)
    np.testing.assert_allclose(
        plan.y_marginal().weights, kernel_apply(P, mu).ref_weights, atol=1e-12
    )


def test_disintegrate_product_plan():
    src, tgt = space(2, "s"), space(3, "t")
    nu = np.array([0.5, 0.3, 0.2])
    plan = TransportPlan(src, tgt, np.outer([1.0, 2.0], nu))
    Q, m = disintegrate(plan)
    np.testing.assert_allclose(Q.rows, np.tile(nu, (2, 1)), atol=1e-14)
    np.testing.assert_allclose(m.weights, [1.0, 2.0])


def test_disintegrate_graph_plan_is_deterministic():
    src, tgt = space(3, "s"), space(3, "t")
    mat = np.zeros((3, 3))
    mat[0, 2] = 0.4
    mat[1, 0] = 0.1
    mat[2, 0] = 0.5
    Q, _ = disintegrate(TransportPlan(src, tgt, mat))
    assert set(np.unique(Q.rows)) == {0.0, 1.0}


def test_disintegrate_reconstruction():
    rng = np.random.default_rng(6)
    src, tgt = space(4, "s"), space(3, "t")
    plan = TransportPlan(src, tgt, rng.uniform(0.0, 1.0, size=(4, 3)))
    for axis in (0, 1):
        Q, m = disintegrate(plan, axis=axis)
        rebuilt = Q.rows * m.weights[:, None]
        target = plan.matrix if axis == 0 else plan.matrix.T
        np.testing.assert_allclose(rebuilt, target, atol=1e-12)


def test_disintegrate_zero_row_uniform():
    src, tgt = space(2, "s"), space(4, "t")
    mat = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
    Q, m = disintegrate(TransportPlan(src, tgt, mat))
    assert m.weights[1] == 0.0
    np.testing.assert_allclose(Q.rows[1], 0.25)


def test_variation_scalar_is_reference():
    mu = VectorMeasure(space(3), [[0.5], [1.5], [0.0]])
    np.testing.assert_allclose(variation(mu).weights, mu.ref_weights)


def test_variation_l2_pythagorean():
    mu = VectorMeasure(space(1), [[3.0, 4.0]], ref_weights=[1.0])
    assert abs(variation(mu, norm="l2").weights[0] - 5.0) < 1e-12


def test_variation_renormalization_reproduces_values():
    rng = np.random.default_rng(7)
    mu = random_measure(rng, space(5), 3)
    for norm, ordv in (("l1", 1), ("l2", 2), ("linf", np.inf)):
        V = variation(mu, norm=norm)
        lens = np.linalg.norm(mu.density, ord=ordv, axis=1)
        unit = np.where(lens[:, None] > 0, mu.density / np.where(lens == 0, 1, lens)[:, None], 0)
        np.testing.assert_allclose(unit * V.weights[:, None], mu.values, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_kernel_apply_preserves_component_totals(data):
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, 4))
    d = data.draw(st.integers(1, 3))
    seed = data.draw(st.integers(0, 10**6))
    rng = np.random.default_rng(seed)
    src, tgt = space(n, "s"), space(k, "t")
    P = random_kernel(rng, src, tgt)
    mu = random_measure(rng, src, d)
    out = kernel_apply(P, mu)
    np.testing.assert_allclose(
        out.component_totals(), mu.component_totals(), atol=1e-10
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_kernel_compose_associative(seed):
    rng = np.random.default_rng(seed)
    a, b, c, d = (space(rng.integers(2, 5), p) for p in "abcd")
    P, Q, R = random_kernel(rng, a, b), random_kernel(rng, b, c), random_kernel(rng, c, d)
    left = kernel_compose(kernel_compose(P, Q), R)
    right = kernel_compose(P, kernel_compose(Q, R))
    np.testing.assert_allclose(left.rows, right.rows, atol=1e-12)


def test_disintegrate_then_product_roundtrip():
    rng = np.random.default_rng(8)
    src, tgt = space(3, "s"), space(4, "t")
    Q0 = random_kernel(rng, src, tgt)
    mu = random_measure(rng, src, 2)
    plan = product(Q0, mu)
    Q1, m1 = disintegrate(plan)
    np.testing.assert_allclose(m1.weights, mu.ref_weights, atol=1e-12)
    np.testing.assert_allclose(Q1.rows, Q0.rows, atol=1e-12)


def test_product_with_identity_kernel_is_diagonal():
    rng = np.random.default_rng(9)
    sp = space(4)
    mu = random_measure(rng, sp, 2)
    plan = product(Kernel.identity(sp), mu)
    np.testing.assert_allclose(plan.x_marginal().weights, mu.ref_weights)
    np.testing.assert_allclose(plan.y_marginal().weights, mu.ref_weights)
    np.testing.assert_allclose(np.diag(np.diag(plan.matrix)), plan.matrix)
