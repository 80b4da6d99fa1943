"""Finite-space measures, kernels, and transport plans.

Measures here live on finite labeled point sets.  A vector measure assigns
each atom a nonnegative vector in R^d; it is stored together with scalar
reference weights and the density of the vector part with respect to them,
so that ``density(x) * refWeights(x) == values(x)`` atom by atom.  Kernels
are row-stochastic matrices, and a transport plan is a nonnegative matrix
on a product of two spaces.

Everything is immutable after construction (the arrays are frozen), so all
operations are pure and safe to share across threads.
"""

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .tolerances import ENTRY_TOL, NEG_TOL

__all__ = [
    "SpaceMismatch",
    "FiniteSpace",
    "ScalarMeasure",
    "VectorMeasure",
    "Kernel",
    "TransportPlan",
    "grid_space",
    "pushforward",
    "kernel_apply",
    "kernel_compose",
    "product",
    "disintegrate",
    "variation",
]


class SpaceMismatch(Exception):
    """Two objects that must share a finite space do not."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _clean_nonneg(arr: np.ndarray, name: str) -> np.ndarray:
    """Reject entries below -1e-9, clamp tiny negatives to zero."""
    if np.any(arr < -NEG_TOL):
        pos = np.unravel_index(int(np.argmin(arr)), arr.shape)
        raise ValueError(f"{name} has negative entry {arr[pos]:.3e} at {pos}")
    return np.where(arr < 0.0, 0.0, arr)


@dataclass(eq=False)
class FiniteSpace:
    """A finite labeled point set, optionally with coordinates.

    Parameters
    ----------
    labels : sequence of str
        Distinct identifiers, one per atom.
    coords : array_like, optional
        One real vector per atom; used by grid discretizations of
        intervals and for coordinate-based costs.
    """

    labels: Sequence[str]
    coords: Optional[np.ndarray] = None

    def __post_init__(self):
        self.labels = tuple(str(l) for l in self.labels)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be distinct")
        if len(self.labels) == 0:
            raise ValueError("a space needs at least one atom")
        if self.coords is not None:
            c = np.atleast_2d(np.asarray(self.coords, dtype=float))
            if c.shape[0] != len(self.labels):
                raise ValueError(
                    f"coords has {c.shape[0]} rows for {len(self.labels)} labels"
                )
            self.coords = _freeze(c)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def matches(self, other: "FiniteSpace") -> bool:
        return self.labels == other.labels

    def __repr__(self):
        return f"FiniteSpace({self.size} atoms)"


def grid_space(n: int, lo: float = 0.0, hi: float = 1.0) -> FiniteSpace:
    """Midpoint discretization of [lo, hi] into n cells.

    Atom i sits at lo + (i + 1/2) * (hi - lo) / n; pair it with uniform
    weights (hi - lo) / n to discretize Lebesgue measure.
    """
    if n < 1:
        raise ValueError("grid needs at least one cell")
    pts = lo + (np.arange(n) + 0.5) * (hi - lo) / n
    return FiniteSpace(labels=[f"g{i}" for i in range(n)], coords=pts.reshape(-1, 1))


@dataclass(eq=False)
class ScalarMeasure:
    """Nonnegative weights on the atoms of a finite space."""

    space: FiniteSpace
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.shape[0] != self.space.size:
            raise ValueError(f"weights has length {w.shape[0]} for {self.space.size} atoms")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        self.weights = _freeze(_clean_nonneg(w, "weights"))

    def total(self) -> float:
        return float(self.weights.sum())


@dataclass(eq=False)
class VectorMeasure:
    """A measure with values in R^d, all components nonnegative.

    Parameters
    ----------
    space : FiniteSpace
    values : array_like, shape (n_atoms, d)
        Per-atom vector masses.
    ref_weights : array_like, optional
        Scalar reference weights |mu|.  Defaults to the componentwise sum
        of `values` per atom, which makes the density rows sum to 1 at
        every atom carrying mass.  A supplied reference must dominate the
        measure: atoms with zero reference weight must carry zero values.
    density : array_like, optional
        Density of the values with respect to `ref_weights`; computed
        when omitted, verified when given.

    Notes
    -----
    Atoms with zero reference weight get a zero density row by convention.
    """

    space: FiniteSpace
    values: np.ndarray
    ref_weights: Optional[np.ndarray] = None
    density: Optional[np.ndarray] = None

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if v.shape[0] != self.space.size:
            raise ValueError(f"values has {v.shape[0]} rows for {self.space.size} atoms")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        v = _clean_nonneg(v, "values")
        if self.ref_weights is None:
            ref = v.sum(axis=1)
        else:
            ref = np.asarray(self.ref_weights, dtype=float).reshape(-1)
            if ref.shape[0] != self.space.size:
                raise ValueError("ref_weights length does not match the space")
            ref = _clean_nonneg(ref, "ref_weights")
            dead = ref == 0.0
            if np.any(dead) and np.any(np.abs(v[dead]) > ENTRY_TOL):
                raise ValueError("atom with zero reference weight carries mass")
        if self.density is None:
            dens = np.zeros_like(v)
            alive = ref > 0.0
            dens[alive] = v[alive] / ref[alive, None]
        else:
            dens = np.atleast_2d(np.asarray(self.density, dtype=float))
            if dens.shape != v.shape:
                raise ValueError("density shape does not match values")
            scale = max(1.0, float(np.max(np.abs(v))) if v.size else 1.0)
            if np.max(np.abs(dens * ref[:, None] - v)) > ENTRY_TOL * scale:
                raise ValueError("density * ref_weights does not reproduce values")
        self.values = _freeze(v)
        self.ref_weights = _freeze(ref)
        self.density = _freeze(dens)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def component_totals(self) -> np.ndarray:
        """Total mass of each of the d components."""
        return self.values.sum(axis=0)

    def reference(self) -> ScalarMeasure:
        return ScalarMeasure(self.space, self.ref_weights.copy())


@dataclass(eq=False)
class Kernel:
    """Row-stochastic matrix from the atoms of `source` to those of `target`."""

    source: FiniteSpace
    target: FiniteSpace
    rows: np.ndarray

    def __post_init__(self):
        r = np.atleast_2d(np.asarray(self.rows, dtype=float))
        if r.shape != (self.source.size, self.target.size):
            raise ValueError(
                f"rows has shape {r.shape}, expected "
                f"({self.source.size}, {self.target.size})"
            )
        if np.any(r < -1e-15):
            raise ValueError("kernel entries must be nonnegative")
        r = np.where(r < 0.0, 0.0, r)
        sums = r.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > ENTRY_TOL * max(1.0, self.target.size):
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise ValueError(f"row {bad} sums to {sums[bad]!r}, not 1")
        self.rows = _freeze(r)

    @classmethod
    def deterministic(cls, source: FiniteSpace, target: FiniteSpace, mapping) -> "Kernel":
        """The kernel sending atom x to the single atom mapping[x]."""
        idx = _mapping_to_indices(mapping, source, target)
        r = np.zeros((source.size, target.size))
        r[np.arange(source.size), idx] = 1.0
        return cls(source, target, r)

    @classmethod
    def identity(cls, space: FiniteSpace) -> "Kernel":
        return cls(space, space, np.eye(space.size))


@dataclass(eq=False)
class TransportPlan:
    """Nonnegative matrix on the product of two finite spaces."""

    source: FiniteSpace
    target: FiniteSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if m.shape != (self.source.size, self.target.size):
            raise ValueError(
                f"matrix has shape {m.shape}, expected "
                f"({self.source.size}, {self.target.size})"
            )
        if not np.all(np.isfinite(m)):
            raise ValueError("plan entries must be finite")
        self.matrix = _freeze(_clean_nonneg(m, "plan"))

    def mass(self) -> float:
        return float(self.matrix.sum())

    def x_marginal(self) -> ScalarMeasure:
        return ScalarMeasure(self.source, self.matrix.sum(axis=1))

    def y_marginal(self) -> ScalarMeasure:
        return ScalarMeasure(self.target, self.matrix.sum(axis=0))


def _mapping_to_indices(mapping, source: FiniteSpace, target: FiniteSpace) -> np.ndarray:
    """Normalize a map on atoms to an index array; the map must be total."""
    if callable(mapping):
        raw = [mapping(i) for i in range(source.size)]
    else:
        raw = list(mapping)
        if len(raw) != source.size:
            raise ValueError(f"mapping covers {len(raw)} of {source.size} source atoms")
    idx = np.empty(source.size, dtype=int)
    for i, t in enumerate(raw):
        j = target.index(t) if isinstance(t, str) else int(t)
        if not 0 <= j < target.size:
            raise ValueError(f"mapping sends atom {i} outside the target space")
        idx[i] = j
    return idx


def pushforward(
    mu: VectorMeasure, mapping, target: Optional[FiniteSpace] = None
) -> VectorMeasure:
    """Image of mu under a map between atom sets.

    Parameters
    ----------
    mu : VectorMeasure
    mapping : sequence of target indices/labels, or callable on source indices
    target : FiniteSpace, optional
        Defaults to the source space (self-map).

    Returns
    -------
    VectorMeasure on `target` collecting, at each target atom, the values
    and reference weights of its preimage.  Componentwise total mass is
    preserved.
    """
    tgt = target if target is not None else mu.space
    idx = _mapping_to_indices(mapping, mu.space, tgt)
    values = np.zeros((tgt.size, mu.dim))
    ref = np.zeros(tgt.size)
    np.add.at(values, idx, mu.values)
    np.add.at(ref, idx, mu.ref_weights)
    return VectorMeasure(tgt, values, ref_weights=ref)


def kernel_apply(P: Kernel, mu: VectorMeasure) -> VectorMeasure:
    """Push mu through a kernel: output values at y are sum_x P(x,y) values(x)."""
    if not P.source.matches(mu.space):
        raise SpaceMismatch("kernel source does not match the measure's space")
    values = P.rows.T @ mu.values
    ref = P.rows.T @ mu.ref_weights
    return VectorMeasure(P.target, values, ref_weights=ref)


def kernel_compose(P: Kernel, Q: Kernel) -> Kernel:
    """Composition of kernels as the matrix product of their rows."""
    if not P.target.matches(Q.source):
        raise SpaceMismatch("inner spaces of the kernels do not match")
    return Kernel(P.source, Q.target, P.rows @ Q.rows)


def product(P: Kernel, mu: VectorMeasure) -> TransportPlan:
    """Plan with rows P(x, .) scaled by the reference weight at x.

    The X-marginal equals mu's reference weights; pairing the plan with
    mu's density on the X side yields kernel_apply(P, mu) on the Y side.
    """
    if not P.source.matches(mu.space):
        raise SpaceMismatch("kernel source does not match the measure's space")
    matrix = P.rows * mu.ref_weights[:, None]
    return TransportPlan(P.source, P.target, matrix)


def disintegrate(plan: TransportPlan, axis: Union[int, str] = 0):
    """Split a plan into (kernel, marginal) along the chosen axis.

    axis 0 or "x": returns (Q: source -> target, X-marginal) with
    Q(x, .) = plan(x, .) / marginal(x).  axis 1 or "y" transposes the
    roles.  Atoms with zero marginal get a uniform kernel row; any row
    reconstructs the plan through `product` except those.
    """
    if axis in (0, "x"):
        mat = plan.matrix
        src, tgt = plan.source, plan.target
    elif axis in (1, "y"):
        mat = plan.matrix.T
        src, tgt = plan.target, plan.source
    else:
        raise ValueError(f"axis must be 0/'x' or 1/'y', got {axis!r}")
    m = mat.sum(axis=1)
    rows = np.full((src.size, tgt.size), 1.0 / tgt.size)
    alive = m > 0.0
    rows[alive] = mat[alive] / m[alive, None]
    return Kernel(src, tgt, rows), ScalarMeasure(src, m)


_NORMS = {"l1": 1, "l2": 2, "linf": np.inf}


def variation(mu: VectorMeasure, norm: str = "l1") -> ScalarMeasure:
    """Variation measure: weight at x is ||density(x)|| * refWeights(x).

    With the default reference weights and the default l1 norm this is
    just the reference measure itself.  Renormalizing the density by its
    norm against this measure represents the same vector measure.
    """
    if norm not in _NORMS:
        raise ValueError(f"norm must be one of {sorted(_NORMS)}, got {norm!r}")
    lengths = np.linalg.norm(mu.density, ord=_NORMS[norm], axis=1)
    return ScalarMeasure(mu.space, lengths * mu.ref_weights)
