"""Arithmetic graphs of special fibers of minimal regular models.

A graph holds one vertex per fiber component (multiplicity ``m``, arithmetic
genus ``pa``, and ``w``, the intersection number with the rest of a canonical
divisor) and one weighted edge per pair of meeting components.  The module
validates the intersection relations, classifies multiplicity-1 (-2)-curves
into chains and A^1-component cases, checks the structural bounds on those
counts, and applies the local rewrites that turn tangency / triple-point
configurations into honest A^1-chains hanging off a multiplicity-2 component.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (
    BoundViolated,
    Disconnected,
    NonIntegralGenus,
    NothingToRewrite,
    RelationViolated,
    UnclassifiableVertex,
)
from .intpoly import as_int

EdgeTriple = Tuple[int, int, int]


@dataclass(frozen=True)
class Vertex:
    """One fiber component: multiplicity, arithmetic genus, canonical degree.

    ``case3_point_ids`` marks a (-2)-curve that passes through a single point
    shared with the two listed components; the dual graph alone cannot express
    that coincidence, so it is carried as an annotation.
    """

    m: int
    pa: int
    w: int
    case3_point_ids: Optional[Tuple[int, int]] = None


def _edge_key(a: int, b: int) -> Tuple[int, int]:
    return (a, b) if a < b else (b, a)


class ArithGraph:
    """Immutable multigraph of fiber components with intersection data."""

    def __init__(
        self,
        vertices: Sequence[Vertex],
        edges: Iterable[Sequence[int]] = (),
    ) -> None:
        verts: List[Vertex] = []
        for v in vertices:
            ids = v.case3_point_ids
            v = Vertex(as_int(v.m, "m"), as_int(v.pa, "pa"), as_int(v.w, "w"),
                       None if ids is None
                       else tuple(as_int(j, "case3_point_ids") for j in ids))
            if v.m < 1:
                raise ValueError(f"vertex multiplicity must be >= 1, got {v.m}")
            if v.pa < 0:
                raise ValueError(f"arithmetic genus must be >= 0, got {v.pa}")
            if v.w < 0:
                raise ValueError(f"w must be >= 0, got {v.w}")
            verts.append(v)
        if not verts:
            raise ValueError("graph needs at least one vertex")
        n = len(verts)
        for i, v in enumerate(verts):
            ids = v.case3_point_ids
            if ids is None:
                continue
            if len(ids) != 2 or ids[0] == ids[1]:
                raise ValueError("case3_point_ids must be two distinct indices")
            if not all(0 <= j < n for j in ids) or i in ids:
                raise ValueError("case3_point_ids out of range")

        emap: Dict[Tuple[int, int], int] = {}
        for e in edges:
            if len(e) != 3:
                raise ValueError(f"edge must be [i, j, multiplicity], got {e!r}")
            a, b, mult = (as_int(x, "edge entry") for x in e)
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge endpoint out of range: {e!r}")
            if a == b:
                raise ValueError(f"self-edges are not allowed: {e!r}")
            if mult < 1:
                raise ValueError(f"edge multiplicity must be >= 1: {e!r}")
            key = _edge_key(a, b)
            if key in emap:
                raise ValueError(f"duplicate edge pair {key}; merge multiplicities")
            emap[key] = mult

        self._vertices: Tuple[Vertex, ...] = tuple(verts)
        self._edges: Dict[Tuple[int, int], int] = emap
        adj: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        for (a, b), mult in emap.items():
            adj[a].append((b, mult))
            adj[b].append((a, mult))
        self._adj = [sorted(lst) for lst in adj]

    # -- basic accessors -----------------------------------------------------

    @property
    def vertices(self) -> Tuple[Vertex, ...]:
        return self._vertices

    def edges(self) -> List[EdgeTriple]:
        return sorted((a, b, m) for (a, b), m in self._edges.items())

    def edge_multiplicity(self, a: int, b: int) -> int:
        return self._edges.get(_edge_key(a, b), 0)

    def neighbors(self, i: int) -> List[Tuple[int, int]]:
        """Adjacent vertex indices with edge multiplicities, sorted by index."""
        return list(self._adj[i])

    def weighted_degree(self, i: int) -> int:
        """Sum of m(neighbor) * edge multiplicity over all incident edges."""
        return sum(self._vertices[j].m * mult for j, mult in self._adj[i])

    # -- validation ------------------------------------------------------------

    def validate(self) -> Tuple[int, int, int]:
        """Check connectivity and the intersection relations.

        Returns ``(g, t_prime, p_sum)``: the genus from ``sum(m*w) = 2g - 2``,
        the loop rank of the graph with edges counted by multiplicity, and the
        plain sum of the per-component arithmetic genera.
        """
        n = len(self._vertices)
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j, _ in self._adj[i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != n:
            missing = sorted(set(range(n)) - seen)
            raise Disconnected(f"vertices unreachable from 0: {missing}")

        for i, v in enumerate(self._vertices):
            lhs = self.weighted_degree(i)
            rhs = v.m * (v.w + 2) - 2 * v.m * v.pa
            if lhs != rhs:
                raise RelationViolated(i, lhs, rhs)

        total = sum(v.m * v.w for v in self._vertices)
        if total % 2:
            raise NonIntegralGenus(f"sum(m*w) = {total} is odd")
        g = 1 + total // 2
        if g < 2:
            raise NonIntegralGenus(f"genus {g} is below 2")
        t_prime = sum(self._edges.values()) - n + 1
        p_sum = sum(v.pa for v in self._vertices)
        return g, t_prime, p_sum

    # -- serialization ---------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "ArithGraph":
        try:
            raw_verts = data["vertices"]
            raw_edges = data.get("edges", [])
        except (TypeError, KeyError) as exc:
            raise ValueError(f"malformed graph payload: {exc}") from exc
        verts = [Vertex(d["m"], d["pa"], d["w"], d.get("case3_point_ids"))
                 for d in raw_verts]
        return cls(verts, raw_edges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArithGraph({len(self._vertices)} vertices, {self.edges()})"


# -- classification ------------------------------------------------------------


@dataclass(frozen=True)
class FiberClassification:
    """Chains and A^1-component cases of the multiplicity-1 (-2)-curves of
    ``graph``, with the ``(genus, t_prime, p_sum)`` its ``validate()`` gave."""

    graph: ArithGraph
    genus: int
    t_prime: int
    p_sum: int
    N: int
    chains: Tuple[Tuple[int, ...], ...]
    case2: Tuple[int, ...]
    case3: Tuple[int, ...]
    case4: Tuple[int, ...]

    @property
    def a1_outside_chains(self) -> int:
        return len(self.case2) + len(self.case3) + len(self.case4)


def _is_minus_two(v: Vertex) -> bool:
    return v.m == 1 and v.pa == 0 and v.w == 0


def classify(graph: ArithGraph) -> FiberClassification:
    """Assign every multiplicity-1 (-2)-curve to a chain or an A^1 case.

    A vertex with ``m=1, pa=0, w=0`` has weighted degree exactly 2, so it
    either sits on a chain between two multiplicity-1 components (case 1),
    meets a multiplicity-2 component (case 2), shares a single point with two
    multiplicity-1 components (case 3, flagged by the vertex annotation), or
    meets one multiplicity-1 component with intersection multiplicity 2
    (case 4).  Annotations on vertices that are not (-2)-curves are ignored.
    """
    g, t_prime, p_sum = graph.validate()
    N = sum(1 for v in graph.vertices if v.w > 0)

    case2: List[int] = []
    case3: List[int] = []
    case4: List[int] = []
    members: List[int] = []
    for i, v in enumerate(graph.vertices):
        if not _is_minus_two(v):
            continue
        nbrs = graph.neighbors(i)
        if graph.weighted_degree(i) != 2:
            raise UnclassifiableVertex(
                f"vertex {i}: weighted degree {graph.weighted_degree(i)} != 2"
            )
        if v.case3_point_ids is not None:
            a, b = v.case3_point_ids
            ok = (
                len(nbrs) == 2
                and sorted(j for j, _ in nbrs) == sorted((a, b))
                and all(mult == 1 for _, mult in nbrs)
                and graph.vertices[a].m == 1
                and graph.vertices[b].m == 1
                and graph.edge_multiplicity(a, b) >= 1
            )
            if not ok:
                raise UnclassifiableVertex(
                    f"vertex {i}: annotation ({a}, {b}) does not match a "
                    f"triple-point configuration"
                )
            case3.append(i)
        elif len(nbrs) == 1:
            j, mult = nbrs[0]
            mj = graph.vertices[j].m
            if mj == 2 and mult == 1:
                case2.append(i)
            elif mj == 1 and mult == 2:
                case4.append(i)
            else:  # pragma: no cover - excluded by the weighted-degree check
                raise UnclassifiableVertex(f"vertex {i}: unexpected neighbor profile")
        else:
            # Two simple edges to two distinct multiplicity-1 components.
            members.append(i)

    member_set = set(members)
    chains: List[Tuple[int, ...]] = []
    seen: set = set()
    for i in members:
        if i in seen:
            continue
        nbrs = [j for j, _ in graph.neighbors(i)]
        outside = [j for j in nbrs if j not in member_set]
        if not outside:
            continue  # interior vertex; reached from an endpoint
        path = [i]
        seen.add(i)
        prev = i
        cur = nbrs[1] if nbrs[0] == outside[0] else nbrs[0]
        while cur in member_set:
            path.append(cur)
            seen.add(cur)
            nxt = [j for j, _ in graph.neighbors(cur) if j != prev]
            prev, cur = cur, nxt[0]
        chains.append(tuple(path))
    leftover = member_set - seen
    if leftover:
        raise UnclassifiableVertex(
            f"(-2)-curve cycle without an anchor component: {sorted(leftover)}"
        )

    return FiberClassification(
        graph=graph, genus=g, t_prime=t_prime, p_sum=p_sum, N=N,
        chains=tuple(sorted(chains)),
        case2=tuple(case2), case3=tuple(case3), case4=tuple(case4),
    )


# -- structural bounds ---------------------------------------------------------


def check_specialfiber_bounds(cls: FiberClassification) -> dict:
    """Verify the three count bounds a special fiber must satisfy.

    Checks ``N <= 2g - 2``, ``#chains <= N - 1 + t'``, and that the number of
    multiplicity-1 (-2)-curves outside chains is at most ``3u``.  ``u`` is
    the proxy ``g - t' - p_sum`` evaluated on the graph with all tangency /
    triple-point configurations rewritten (each rewrite lowers the loop rank
    by one), which is the graph the A^1 bound actually applies to; the
    report's ``u_source`` names it.

    >>> chain = ArithGraph([Vertex(1, 2, 3), Vertex(1, 0, 0), Vertex(1, 0, 0),
    ...                     Vertex(1, 2, 3)], [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    >>> report = check_specialfiber_bounds(classify(chain))
    >>> report["chain_count"], report["chain_bound"], report["ok"]
    (1, 1, True)
    """
    g, t_prime, p_sum = cls.genus, cls.t_prime, cls.p_sum
    a1 = cls.a1_outside_chains
    n_rewrites = len(cls.case3) + len(cls.case4)
    u = g - (t_prime - n_rewrites) - p_sum

    report = {
        "genus": g,
        "t_prime": t_prime,
        "p_sum": p_sum,
        "N": cls.N,
        "N_bound": 2 * g - 2,
        "chain_count": len(cls.chains),
        "chain_bound": cls.N - 1 + t_prime,
        "a1_outside_chains": a1,
        "a1_bound": 3 * u,
        "u": u,
        "u_source": "proxy",
    }
    failures = []
    if cls.N > 2 * g - 2:
        failures.append(f"N = {cls.N} > 2g-2 = {2 * g - 2}")
    if len(cls.chains) > cls.N - 1 + t_prime:
        failures.append(
            f"chains = {len(cls.chains)} > N-1+t' = {cls.N - 1 + t_prime}"
        )
    if a1 > 3 * u:
        failures.append(f"A^1 components = {a1} > 3u = {3 * u}")
    if failures:
        raise BoundViolated("; ".join(failures))
    report["ok"] = True
    return report


# -- local modification --------------------------------------------------------


def local_modification(cls: FiberClassification) -> ArithGraph:
    """Rewrite every case-3 and case-4 configuration of ``cls.graph``.

    A triple point (case 3) is replaced by a multiplicity-2 hub joining the
    two ambient components, with two new (-2)-leaves; the (-2)-curve through
    the point and the point's edge between the ambient components disappear.
    A tangency (case 4) splits the double edge through a multiplicity-2 hub
    carrying two new leaves; the tangent (-2)-curve survives and now meets
    the hub.  Both rewrites preserve the intersection relations and the
    genus, and strictly increase the A^1-component count (1 -> 2 and 1 -> 3).
    """
    if not cls.case3 and not cls.case4:
        raise NothingToRewrite("no case-3 or case-4 configuration present")
    graph = cls.graph
    state = _Builder.of(graph)
    for x in cls.case3:
        y1, y2 = graph.vertices[x].case3_point_ids  # type: ignore[misc]
        state.remove_edge(x, y1, 1)
        state.remove_edge(x, y2, 1)
        state.remove_edge(y1, y2, 1)
        state.removed.add(x)
        state.add_hub(y1, y2)
    for x in cls.case4:
        ((y, mult),) = graph.neighbors(x)
        assert mult == 2
        state.remove_edge(x, y, 2)
        state.add_hub(y, x)
    return state.graph()


# -- generator -----------------------------------------------------------------


class _Builder:
    """Mutable vertex and edge lists: the generator grows a graph in one, and
    ``local_modification`` rewrites a copy of its input in another."""

    def __init__(self) -> None:
        self.verts: List[List[int]] = []
        self.annot: Dict[int, Tuple[int, int]] = {}
        self.edges: Dict[Tuple[int, int], int] = {}
        self.reserved: Dict[Tuple[int, int], int] = {}
        self.removed: set = set()

    @classmethod
    def of(cls, graph: ArithGraph) -> "_Builder":
        state = cls()
        for i, v in enumerate(graph.vertices):
            state.add_vertex(v.m, v.pa, v.w)
            if v.case3_point_ids is not None:
                state.annot[i] = v.case3_point_ids
        state.edges = dict(graph._edges)
        return state

    @property
    def genus(self) -> int:
        """From sum(m*w) = 2g - 2, which every generator move keeps."""
        return 1 + sum(m * w for m, _, w in self.verts) // 2

    def eligible(self) -> List[int]:
        return [
            i
            for i, v in enumerate(self.verts)
            if v[0] == 1 and i not in self.annot
        ]

    def add_vertex(self, m: int, pa: int, w: int) -> int:
        self.verts.append([m, pa, w])
        return len(self.verts) - 1

    def add_edge(self, a: int, b: int, k: int = 1) -> None:
        key = _edge_key(a, b)
        self.edges[key] = self.edges.get(key, 0) + k

    def remove_edge(self, a: int, b: int, k: int) -> None:
        key = _edge_key(a, b)
        have = self.edges.get(key, 0)
        if have < k:
            raise ValueError(
                f"edge {key} is shared between overlapping rewrites; "
                f"configurations must be edge-disjoint"
            )
        if have == k:
            del self.edges[key]
        else:
            self.edges[key] = have - k

    def add_hub(self, *ends: int) -> None:
        """A multiplicity-2 hub joined to ``ends`` and to 4 - len(ends) new
        (-2)-leaves."""
        hub = self.add_vertex(2, 0, 0)
        for end in ends:
            self.add_edge(end, hub)
        for _ in range(4 - len(ends)):
            self.add_edge(hub, self.add_vertex(1, 0, 0))

    def graph(self) -> ArithGraph:
        """The graph without the removed vertices and the annotations that
        name one of them."""
        kept = [i for i in range(len(self.verts)) if i not in self.removed]
        new = {old: i for i, old in enumerate(kept)}

        def ids(i: int) -> Optional[Tuple[int, int]]:
            pair = self.annot.get(i)
            if pair is None or any(j not in new for j in pair):
                return None
            return (new[pair[0]], new[pair[1]])

        verts = [Vertex(*self.verts[i], ids(i)) for i in new]
        return ArithGraph(
            verts, [(new[a], new[b], k) for (a, b), k in self.edges.items()]
        )


def _move_leaf(state: _Builder, rng: random.Random, budget: int) -> None:
    a = rng.choice(state.eligible())
    pa = rng.choice((1, 2)) if budget >= 2 else 1
    b = state.add_vertex(1, pa, 2 * pa - 1)
    state.add_edge(a, b)
    state.verts[a][2] += 1


def _move_edge(state: _Builder, rng: random.Random) -> bool:
    pool = state.eligible()
    if len(pool) < 2:
        return False
    a, b = rng.sample(pool, 2)
    state.add_edge(a, b)
    state.verts[a][2] += 1
    state.verts[b][2] += 1
    return True


def _move_hub(state: _Builder, rng: random.Random) -> None:
    a = rng.choice(state.eligible())
    state.add_hub(a)
    state.verts[a][2] += 2


def _move_tangency(state: _Builder, rng: random.Random) -> None:
    a = rng.choice(state.eligible())
    x = state.add_vertex(1, 0, 0)
    state.add_edge(a, x, 2)
    state.verts[a][2] += 2


def _move_triple_point(state: _Builder, rng: random.Random) -> bool:
    pool = state.eligible()
    if len(pool) < 2:
        return False
    a, b = rng.sample(pool, 2)
    x = state.add_vertex(1, 0, 0)
    state.annot[x] = (a, b)
    state.add_edge(x, a)
    state.add_edge(x, b)
    state.add_edge(a, b)
    key = _edge_key(a, b)
    state.reserved[key] = state.reserved.get(key, 0) + 1
    state.verts[a][2] += 2
    state.verts[b][2] += 2
    return True


def _move_pa_bump(state: _Builder, rng: random.Random) -> None:
    a = rng.choice(state.eligible())
    state.verts[a][1] += 1
    state.verts[a][2] += 2


def _move_chain_insert(state: _Builder, rng: random.Random) -> bool:
    candidates = [
        key
        for key, mult in state.edges.items()
        if state.verts[key[0]][0] == 1
        and state.verts[key[1]][0] == 1
        and key[0] not in state.annot
        and key[1] not in state.annot
        and mult > state.reserved.get(key, 0)
    ]
    if not candidates:
        return False
    a, b = candidates[rng.randrange(len(candidates))]
    state.remove_edge(a, b, 1)
    prev = a
    for _ in range(rng.randint(1, 3)):
        x = state.add_vertex(1, 0, 0)
        state.add_edge(prev, x)
        prev = x
    state.add_edge(prev, b)
    return True


def random_fiber_graph(
    rng: random.Random, max_genus: int = 10
) -> ArithGraph:
    """Build a random valid fiber graph by relation-preserving moves.

    Starting from a good-reduction component, each move grafts on one of the
    structures the classifier must recognize: chains, multiplicity-2 hubs
    with (-2)-leaves, tangencies, triple points, extra edges (raising the
    loop rank), and arithmetic-genus bumps.  Every move keeps the per-vertex
    relations intact, so the output always validates.
    """
    if max_genus < 2:
        raise ValueError("max_genus must be >= 2")
    g0 = rng.randint(2, min(3, max_genus))
    target = rng.randint(g0, max_genus)
    state = _Builder()
    state.add_vertex(1, g0, 2 * g0 - 2)
    while state.genus < target:
        budget = target - state.genus
        moves = ["leaf", "hub", "tangency", "pa"]
        if len(state.eligible()) >= 2:
            moves.append("edge")
            if budget >= 2:
                moves.append("triple")
        name = rng.choice(moves)
        if name == "leaf":
            _move_leaf(state, rng, budget)
        elif name == "hub":
            _move_hub(state, rng)
        elif name == "tangency":
            _move_tangency(state, rng)
        elif name == "pa":
            _move_pa_bump(state, rng)
        elif name == "edge":
            _move_edge(state, rng)
        elif name == "triple":
            _move_triple_point(state, rng)
        if state.edges and rng.random() < 0.4:
            _move_chain_insert(state, rng)
    return state.graph()
