"""Transportation network simplex: the bipartite LPs on a spanning-tree basis.

A transportation LP ships flow along arcs (i, j) from sources i < nx to
sinks j < ny.  Row i sums the flow leaving source i, row nx + j the flow
entering sink j, and an optional last row sums every arc.
`TransportIncidence` is that constraint matrix as an operator: it gives
``A @ x`` and ``A.T @ y`` without the dense (rows x arcs) array, and
`lp.solve` hands every problem whose ``A`` is one to `solve_network`.

Network.  Sources supply b_i and sinks demand b_j.  With the total row
(marginal rows "le", total row "eq" with right-hand side m), a dummy
source feeds every sink the demand left unmet and every source sends
its unshipped supply to a dummy sink.  There is no dummy-to-dummy arc,
so exactly m crosses the real arcs.  An artificial root joins every
node by one arc pointing the way the node's balance flows.

Zero balances.  The solvers state their LP over every atom; a source or
sink (a dummy too) whose balance is exactly 0 carries no flow, so the
tree leaves it out and `solve_network` prices it afterwards.

Basis.  A spanning tree over the other nodes, rooted at the artificial root.
Nonbasic arcs sit at 0 or at their cap.  Node potentials pi make the
reduced cost c_a - pi[tail] + pi[head] of every tree arc zero; the LP
duals are read off them (`_lp_duals`).

Start.  The tree of artificial arcs, each carrying its node's balance
and priced at M = (1 + max|c|) * (nodes + 1).  A cycle that moves flow
off the root costs at most (nodes - 1) * max|c| - 2M < 0, so an optimum
still routing flow through the root proves the LP infeasible.  The
engine then prices artificial arcs at 1 and the rest at 0 (phase one)
and turns the phase-one potentials into a Farkas certificate.  While the
tree is still this star, the cycle of an arc (i, j) at its lower bound
is i -> j -> root, and the arc is a bound flip exactly when the flow left
on i's artificial arc is at least its cap and the flow left on j's is
more than its cap (the ratio test's strict and non-strict comparisons).
A flip moves no potential, so a leading streak of flips is replayed in
one pass, in the order Dantzig pricing would take them, to its first
arc that is not a flip.

Pivots.  The nonbasic arc with the most negative signed reduced cost
enters (Dantzig; ties to the smallest index).  The leaving arc is the
last blocking arc met going round the cycle from its apex in the
direction of flow (Cunningham 1976).  This keeps the tree strongly
feasible: every tree arc with zero flow points to the root and every
tree arc at its cap points away from it, so every node can send flow up
to the root.  A degenerate pivot therefore blocks between the apex and
the node the entering flow leaves; the re-hung subtree holds that node,
and all its potentials fall by |reduced cost|.  The sum of the
potentials strictly falls, no tree repeats, and the method cannot cycle.

Pricing is incremental and exact.  Each arc's state (+1 at its lower
bound, -1 at its cap, 0 otherwise) times its reduced cost is kept from
one pivot to the next: a bound flip negates the entering arc's entry,
and a basis change moves only the potentials of the re-hung subtree,
each shifted as the walk that re-hangs it visits the node, so only the
arcs at its nodes are repriced.  Every entry is then bit for bit what
pricing all arcs would give, the pivots are the ones full pricing takes,
and the argument above holds unchanged.
"""

import numpy as np

from .lp import LpSolution, NumericalBreakdown, certify, farkas_margin
from .tolerances import CERT_TOL, DUAL_TOL, FEAS_TOL

__all__ = ["TransportIncidence", "solve_network"]


class TransportIncidence:
    """Constraint matrix of a transportation LP, as an operator.

    Column k is the arc from source ``tail[k]`` to sink ``head[k]``: a one
    in row ``tail[k]``, a one in row ``nx + head[k]`` and, with ``total``,
    a one in the last row.  ``size`` counts the stored ones, as for a
    sparse matrix, not rows times columns.
    """

    def __init__(self, nx: int, ny: int, tail, head, total: bool = False):
        self.nx, self.ny, self.total = int(nx), int(ny), bool(total)
        self.tail = np.asarray(tail, dtype=np.intp).reshape(-1)
        self.head = np.asarray(head, dtype=np.intp).reshape(-1)
        if self.tail.shape != self.head.shape:
            raise ValueError("tail and head must have the same length")
        if np.any((self.tail < 0) | (self.tail >= self.nx) | (self.head < 0) | (self.head >= self.ny)):
            raise ValueError("arc endpoint out of range")
        self.shape = (self.nx + self.ny + self.total, self.tail.size)

    @classmethod
    def complete(cls, nx: int, ny: int, total: bool = False) -> "TransportIncidence":
        """Every source-sink pair, in row-major order (arc i * ny + j)."""
        return cls(nx, ny, np.repeat(np.arange(nx), ny), np.tile(np.arange(ny), nx), total)

    @property
    def size(self) -> int:
        return (2 + self.total) * self.tail.size

    @property
    def T(self) -> "_Transpose":
        return _Transpose(self)

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        parts = [
            np.bincount(self.tail, weights=x, minlength=self.nx),
            np.bincount(self.head, weights=x, minlength=self.ny),
        ]
        if self.total:
            parts.append([x.sum()])
        return np.concatenate(parts)

    def rmatvec(self, y) -> np.ndarray:
        """``A.T @ y``: the row multipliers summed along each arc."""
        y = np.asarray(y, dtype=float)
        out = y[self.tail] + y[self.nx + self.head]
        return out + y[-1] if self.total else out

    def toarray(self) -> np.ndarray:
        """The dense matrix, for checks against the dense engine."""
        A = np.zeros(self.shape)
        k = np.arange(self.tail.size)
        A[self.tail, k] = 1.0
        A[self.nx + self.head, k] = 1.0
        if self.total:
            A[-1] = 1.0
        return A


class _Transpose:
    def __init__(self, op: TransportIncidence):
        self._op = op

    def __matmul__(self, y) -> np.ndarray:
        return self._op.rmatvec(y)


class _Tree:
    """Strongly feasible spanning-tree simplex for one min-cost flow; not reusable.

    Nodes are 0..n-1 and the root is n; flow conservation is
    out - in = balance.  Arc k < E is given, arc E + v joins node v and
    the root.  The walks run on Python lists, and on memoryviews of the
    arrays that pricing reads, which index faster than arrays one element
    at a time; pricing runs on arrays and is exact and incremental
    (`run`); the module docstring's termination argument stands.
    """

    def __init__(self, tail, head, cap, balance, pivot_limit: int, tol: float):
        n, E = balance.size, tail.size
        nodes = np.arange(n)
        supply = balance >= 0.0
        self.n_real = E
        # row 0 the tails, row 1 the heads, so one gather reads both ends
        self.ends = np.concatenate(
            [tail, np.where(supply, nodes, n), head, np.where(supply, n, nodes)]
        ).reshape(2, E + n)
        self.tail, self.head = self.ends
        self.tails, self.heads = memoryview(self.tail), memoryview(self.head)
        self.real_cap = cap
        self.cap = [np.inf] * (E + n) if np.isinf(cap).all() else cap.tolist() + [np.inf] * n
        self.flow = [0.0] * E + np.abs(balance).tolist()
        # +1 at the lower bound, -1 at the cap, 0 in the tree or never movable
        self.state = np.concatenate([(cap > 0.0).astype(float), np.zeros(n)])
        self.states = memoryview(self.state)
        self.parent = [n] * n + [-1]
        self.pred = list(range(E, E + n)) + [-1]
        self.up = supply.tolist() + [False]  # pred arc points from the node to its parent
        self.depth = [1] * n + [0]
        self.children = [[] for _ in range(n)] + [list(range(n))]
        self.star = True  # the tree is still the artificial arcs
        self.pi = np.zeros(n + 1)
        self.pis = memoryview(self.pi)
        # arcs at each node, the root included; their lists when needed
        self.degree = np.bincount(self.ends.ravel(), minlength=n + 1)
        self.incident = None
        self.pivots = 0
        self.pivot_limit = pivot_limit
        self.tol = tol

    def artificial_flow(self) -> float:
        return float(sum(self.flow[self.n_real :]))

    def arc_flow(self) -> np.ndarray:
        """The flow on the E given arcs, as an array.

        A nonbasic arc carries exactly 0.0 or, at its cap, exactly its cap,
        so only the tree arcs are read from the flow list.
        """
        E, flow = self.n_real, self.flow
        x = np.zeros(E)
        at_cap = self.state[:E] < 0.0
        x[at_cap] = self.real_cap[at_cap]
        arcs = [a for a in self.pred[:-1] if a < E]
        x[arcs] = [flow[a] for a in arcs]
        return x

    def run(self, cost: np.ndarray) -> None:
        """Pivot to an optimal tree under `cost` (one entry per arc).

        `priced` holds each arc's state times its reduced cost from one
        pivot to the next, and a pivot recomputes only the entries it
        changed (see the module docstring), with the expression `_price`
        uses: a bound flip negates its arc's entry, a basis change
        reprices the arcs at the re-hung nodes.  The entering arc's state
        is +1 or -1, so its reduced cost is its entry times its state,
        exactly.  All arcs are priced when the run starts, and after a
        basis change whose re-hung nodes may hold a quarter of the arcs
        less 128 (the largest degree times their number), where one pass
        is the cheaper; a network of at most 512 arcs is always priced in
        full.  While the tree is the artificial star, a streak of bound
        flips is replayed in one pass (`_replay_flips`).
        """
        self._potentials(cost)
        scratch, priced = np.empty(cost.size), np.empty(cost.size)
        self._price(cost, scratch, priced)
        ends, state, pi = self.ends, self.state, self.pi
        prices, states, limit = memoryview(priced), self.states, -self.tol
        # repricing k arcs through an index costs about as much as one pass
        # over 4k + 512 arcs; a re-hung node has at most `reach` arcs
        reach = int(self.degree[:-1].max(initial=0))
        full_at = (cost.size - 512) / 4
        while priced.size:
            e = int(priced.argmin())
            if not prices[e] < limit:
                return
            if self.star and self._star_flips(e) and self._replay_flips(priced):
                continue
            if self.pivots >= self.pivot_limit:
                raise NumericalBreakdown(
                    f"pivot limit {self.pivot_limit} exceeded after {self.pivots} iterations"
                )
            self.pivots += 1
            moved = self._pivot(e, prices[e] * states[e])
            if not moved:  # a bound flip: the tree and the potentials stand
                prices[e] = -prices[e]
            elif reach * len(moved) >= full_at:
                self._price(cost, scratch, priced)
            else:
                arcs = self._arcs_at(moved)
                at = pi.take(ends.take(arcs, axis=1))
                r = cost[arcs]
                r -= at[0]
                r += at[1]
                r *= state[arcs]
                priced[arcs] = r

    def _star_flips(self, e: int) -> bool:
        """Whether entering arc `e` at its lower bound, with the tree still
        the star, is a bound flip: `_pivot`'s ratio test over the cycle
        tail -> head -> root, with its strict and non-strict comparisons."""
        if self.states[e] <= 0.0:
            return False
        cap, flow, pred, up = self.cap, self.flow, self.pred, self.up
        a, b, c = self.tails[e], self.heads[e], cap[e]
        pa, pb = pred[a], pred[b]
        room_a = flow[pa] if up[a] else cap[pa] - flow[pa]
        room_b = cap[pb] - flow[pb] if up[b] else flow[pb]
        return not room_a < c and not room_b <= c

    def _replay_flips(self, priced: np.ndarray) -> list:
        """Apply the streak of bound flips that starts at the entering arc.

        While the tree is the star a flip moves no potential, so no reduced
        cost changes and only the flipped arc's price does: Dantzig pricing
        then visits the eligible arcs in stable sorted order of `priced`.
        The replay walks that order and stops at the first arc that is not
        a flip, with the flows, states, prices and pivot count that
        pivoting each arc in turn gives.  Returns the flipped arcs.
        """
        eligible = np.flatnonzero(priced < -self.tol)
        order = eligible[priced[eligible].argsort(kind="stable")].tolist()
        cap, flow, pred, up = self.cap, self.flow, self.pred, self.up
        tails, heads, states = self.tails, self.heads, self.states
        prices = memoryview(priced)
        flipped = []
        for e in order:
            if not self._star_flips(e):
                break
            if self.pivots >= self.pivot_limit:
                raise NumericalBreakdown(
                    f"pivot limit {self.pivot_limit} exceeded after {self.pivots} iterations"
                )
            self.pivots += 1
            delta = cap[e]
            a, b = tails[e], heads[e]
            flow[e] = delta
            flow[pred[a]] += -delta if up[a] else delta
            flow[pred[b]] += delta if up[b] else -delta
            states[e] = -1.0
            prices[e] = -prices[e]
            flipped.append(e)
        return flipped

    def _price(self, cost: np.ndarray, rc: np.ndarray, priced: np.ndarray) -> None:
        """Every arc's reduced cost into `rc`, and state * rc into `priced`."""
        self.pi.take(self.tail, out=rc)
        np.subtract(cost, rc, out=rc)
        rc += self.pi.take(self.head, out=priced)
        np.multiply(self.state, rc, out=priced)

    def _arcs_at(self, nodes: list) -> np.ndarray:
        """The arcs with an end in `nodes`, one with both ends there twice.

        The per-node lists are built on the first call, so a solve that
        never reprices a subtree never builds them.
        """
        if self.incident is None:
            arcs = np.argsort(self.ends.ravel(), kind="stable")
            np.subtract(arcs, self.tail.size, out=arcs, where=arcs >= self.tail.size)
            start = [0] + np.cumsum(self.degree).tolist()
            self.incident = [arcs[i:j] for i, j in zip(start, start[1:])]
        incident = self.incident
        if len(nodes) == 1:
            return incident[nodes[0]]
        return np.concatenate([incident[v] for v in nodes])

    def _potentials(self, cost: np.ndarray) -> None:
        """Potentials from the tree, root first, under a new cost vector."""
        pi, up, children = self.pis, self.up, self.children
        c = cost.take(self.pred[:-1]).tolist()
        root = len(c)
        pi[root] = 0.0
        stack = [root]
        while stack:
            w = stack.pop()
            for v in children[w]:
                pi[v] = pi[w] + c[v] if up[v] else pi[w] - c[v]
                stack.append(v)

    def _pivot(self, e: int, rc_e: float) -> list:
        """Pivot arc `e` in; return the re-hung nodes, none for a bound flip."""
        parent, pred, up, depth = self.parent, self.pred, self.up, self.depth
        flow, cap, states = self.flow, self.cap, self.states
        forward = states[e] > 0.0  # at its lower bound: flow grows tail -> head
        a, b = self.tails[e], self.heads[e]
        first, second = (a, b) if forward else (b, a)
        # walk the cycle apex -> ... -> first -> second -> ... -> apex up
        # from both ends; the leaving arc is the last blocking arc met from
        # the apex: on side 1 the one nearest `first` (strict <), then the
        # entering arc, then on side 2 the one nearest the apex (<=), so the
        # two sides may be met in any interleaving
        delta, out, out_side1 = cap[e], -1, False
        side1, side2 = [], []
        u, v = first, second
        while u != v:
            if depth[u] >= depth[v]:  # flow runs down side 1, towards `first`
                p = pred[u]
                d = flow[p] if up[u] else cap[p] - flow[p]
                if d < delta:
                    delta, out, out_side1 = d, len(side1), True
                side1.append(u)
                u = parent[u]
            else:  # flow runs up side 2, away from `second`
                p = pred[v]
                d = cap[p] - flow[p] if up[v] else flow[p]
                if d <= delta:
                    delta, out, out_side1 = d, len(side2), False
                side2.append(v)
                v = parent[v]
        if delta == np.inf:
            raise NumericalBreakdown("network has a cycle of unbounded arcs with negative cost")
        if delta > 0.0:
            flow[e] += delta if forward else -delta
            for u in side1:
                flow[pred[u]] += -delta if up[u] else delta
            for u in side2:
                flow[pred[u]] += delta if up[u] else -delta
        if out < 0:  # the entering arc blocks itself: a bound flip
            flow[e] = cap[e] if forward else 0.0
            states[e] = -states[e]
            return []
        self.star = False
        path = (side1 if out_side1 else side2)[: out + 1]
        u_out = path[-1]
        leave = pred[u_out]
        at_cap = up[u_out] != out_side1
        flow[leave] = cap[leave] if at_cap else 0.0
        states[leave] = -1.0 if at_cap else 1.0
        states[e] = 0.0
        u_in, v_in = (first, second) if out_side1 else (second, first)
        # re-hang the subtree under u_out from u_in, reversing the path between
        children = self.children
        children[parent[u_out]].remove(u_out)
        prev, prev_pred, prev_up = v_in, e, a == u_in
        for w in path:
            old_parent, old_pred, old_up = parent[w], pred[w], up[w]
            if w != u_out:
                children[old_parent].remove(w)
            parent[w], pred[w], up[w] = prev, prev_pred, prev_up
            children[prev].append(w)
            prev, prev_pred, prev_up = w, old_pred, not old_up
        # the whole subtree moves by one potential shift, applied as the
        # walk visits each node: e's reduced cost becomes zero
        shift = rc_e if u_in == a else -rc_e
        pi = self.pis
        depth[u_in] = depth[v_in] + 1
        moved = [u_in]
        for w in moved:  # breadth first: `moved` grows as it is walked
            pi[w] += shift
            dw = depth[w] + 1
            for ch in children[w]:
                depth[ch] = dw
                moved.append(ch)
        return moved


def _lp_duals(A: TransportIncidence, pi: np.ndarray) -> np.ndarray:
    """Row multipliers of the LP (min convention) from node potentials."""
    nx, ny = A.nx, A.ny
    src, snk = pi[:nx], pi[nx : nx + ny]
    if not A.total:
        return np.concatenate([src, -snk])
    ds, dt = pi[nx + ny], pi[nx + ny + 1]
    return np.concatenate([src - dt, ds - snk, [dt - ds]])


def _price_dropped(pi: np.ndarray, live: np.ndarray, tail, head, cost) -> None:
    """Price the dropped nodes in `pi`, in place, as tightly as their arcs allow.

    Dropped sinks first, from the live sources: pi[h] = max(pi[t] - cost).
    Then dropped sources, from every sink: pi[t] = min(cost + pi[h]).  Each
    arc at a dropped node then has reduced cost cost - pi[t] + pi[h] >= 0,
    the sign an arc without flow needs.  A dropped node with no such arc
    keeps its potential.
    """
    if live.all():
        return
    into = live[tail] & ~live[head]
    bound = np.full(pi.size, -np.inf)
    np.maximum.at(bound, head[into], pi[tail[into]] - cost[into])
    priced = np.isfinite(bound)
    pi[priced] = bound[priced]
    out = ~live[tail]
    bound = np.full(pi.size, np.inf)
    np.minimum.at(bound, tail[out], cost[out] + pi[head[out]])
    priced = np.isfinite(bound)
    pi[priced] = bound[priced]


def solve_network(problem, pivot_limit: int) -> LpSolution:
    """Solve an LP whose ``A`` is a `TransportIncidence`.

    The marginal rows must all be "eq" (no total row) or all "le" with an
    "eq" total row, and every lower bound 0; caps may be infinite.  The
    result carries the same guarantees as the dense engine's: an optimum
    that passes `lp.certify`, or a Farkas certificate that passes
    `lp.farkas_margin`.

    Zero balances.  A source or sink whose balance is exactly 0 carries no
    flow, and that includes a dummy node of the total row.  The tree runs
    without such nodes and their arcs, the others renumbered in order;
    afterwards `_price_dropped` gives each dropped node a potential, under
    the phase's arc costs for an optimum and under phase one's zero arc
    costs for a Farkas vector.  Every arc of the full problem then has a
    reduced cost of the right sign, so both gates pass on the full LP.
    The rule holds only because every node here is a pure source or a
    pure sink; a transshipment node with zero balance may pass flow
    through and must stay.
    """
    A = problem.A
    nx, ny = A.nx, A.ny
    marginal = "le" if A.total else "eq"
    kinds = problem.kinds
    if any(k != marginal for k in kinds[: nx + ny]) or (A.total and kinds[-1] != "eq"):
        raise ValueError("network rows must be eq marginals, or le marginals and an eq total")
    if np.any(problem.lower != 0.0):
        raise ValueError("network arcs must have lower bound 0")
    sign = 1.0 if problem.sense == "min" else -1.0
    b = problem.b
    tail, head = A.tail, nx + A.head
    cost, cap = sign * problem.c, problem.upper
    balance = np.concatenate([b[:nx], -b[nx : nx + ny]])
    live = balance != 0.0
    if A.total:
        ds, dt = nx + ny, nx + ny + 1
        tail = np.concatenate([tail, np.arange(nx), np.full(ny, ds)])
        head = np.concatenate([head, np.full(nx, dt), nx + np.arange(ny)])
        cost = np.concatenate([cost, np.zeros(nx + ny)])
        cap = np.concatenate([cap, np.full(nx + ny, np.inf)])
        # summed over the live nodes alone, so that the tree's network is
        # exactly the one without the dropped nodes
        supply, demand = b[:nx][live[:nx]].sum(), b[nx:-1][live[nx:]].sum()
        dummy = np.array([demand - b[-1], b[-1] - supply])
        balance = np.concatenate([balance, dummy])
        live = np.concatenate([live, dummy != 0.0])
    keep = live[tail] & live[head]
    number = np.cumsum(live) - 1
    nodes, arcs = int(live.sum()), int(keep.sum())
    c_max = float(np.max(np.abs(cost[keep]))) if arcs else 0.0
    tree = _Tree(
        number[tail[keep]], number[head[keep]], cap[keep], balance[live],
        pivot_limit, DUAL_TOL * max(1.0, c_max),
    )
    tree.run(np.concatenate([cost[keep], np.full(nodes, (1.0 + c_max) * (nodes + 1))]))
    b_tol = FEAS_TOL * max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    pi = np.zeros(balance.size)
    if tree.artificial_flow() > b_tol:
        tree.run(np.concatenate([np.zeros(arcs), np.ones(nodes)]))
        if not tree.artificial_flow() > b_tol:
            raise NumericalBreakdown("phase one found a feasible flow the priced start missed")
        pi[live] = tree.pi[:-1]
        _price_dropped(pi, live, tail, head, np.zeros(tail.size))
        y = -_lp_duals(A, pi)
        scale = float(np.max(np.abs(y))) if y.size else 0.0
        if scale > 0:
            y = y / scale
        if not farkas_margin(problem, y) < -CERT_TOL:
            raise NumericalBreakdown("infeasibility certificate failed validation")
        return LpSolution(
            status="infeasible",
            value=np.inf if problem.sense == "min" else -np.inf,
            farkas=y,
            iterations=tree.pivots,
        )
    real = keep[: A.shape[1]]
    x = np.zeros(A.shape[1])
    x[real] = tree.arc_flow()[: int(real.sum())]
    # shifting every potential alike changes no reduced cost; anchor the
    # first node hung from the root at zero, so that the duals do not carry
    # the artificial price M
    anchor = tree.pi[tree.children[-1][0]] if nodes else 0.0
    pi[live] = tree.pi[:-1] - anchor
    _price_dropped(pi, live, tail, head, cost)
    y = sign * _lp_duals(A, pi)
    value = float(problem.c[real] @ x[real])
    certify(problem, x, y, value)
    return LpSolution(status="optimal", value=value, x=x, y=y, iterations=tree.pivots)
