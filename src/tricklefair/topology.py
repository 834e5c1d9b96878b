"""Node layouts and radio adjacency for Trickle networks.

A topology is an undirected graph over nodes 0..N-1. It is built either from
2D geometry with a unit-disk rule (nodes are linked when their distance is at
most the radio range) or from an explicit edge list when no coordinates are
available.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .io import _is_finite_number, _is_int, read_records, write_records

# The unit-disk test is inclusive with a tiny relative slack so that exact
# radii such as sqrt(2) on an integer grid keep their boundary pairs despite
# floating-point rounding.
RANGE_SLACK = 1e-12


class TopologyError(ValueError):
    """Malformed topology file or inconsistent adjacency input."""


@dataclass(frozen=True, eq=False)
class Topology:
    """Immutable undirected graph with optional 2D node positions.

    neighbor_lists holds, for each node id, the sorted tuple of its radio
    neighbors. positions is an (N, 2) float array or None for edge-list-only
    topologies. radio_range is the disk radius the edges were derived from,
    or None when edges were given explicitly.
    """

    neighbor_lists: tuple[tuple[int, ...], ...]
    positions: np.ndarray | None = None
    radio_range: float | None = None

    @property
    def n(self) -> int:
        return len(self.neighbor_lists)

    def degree(self, node: int) -> int:
        return len(self.neighbor_lists[node])

    @property
    def degrees(self) -> np.ndarray:
        return np.array([len(nl) for nl in self.neighbor_lists], dtype=int)

    @property
    def mean_degree(self) -> float:
        return float(self.degrees.mean())

    @property
    def num_edges(self) -> int:
        return sum(len(nl) for nl in self.neighbor_lists) // 2

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Sorted list of unordered edges as (low id, high id) pairs."""
        return [(i, j) for i in range(self.n) for j in self.neighbor_lists[i] if i < j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        if self.n != other.n or self.radio_range != other.radio_range:
            return False
        if self.neighbor_lists != other.neighbor_lists:
            return False
        if (self.positions is None) != (other.positions is None):
            return False
        if self.positions is None:
            return True
        return bool(np.array_equal(self.positions, other.positions))

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges,
        positions: np.ndarray | None = None,
    ) -> "Topology":
        """Build a topology from an explicit list of undirected edges.

        Edges may appear in either orientation and more than once; they are
        normalized to a symmetric, irreflexive adjacency. ``n`` must be an
        integer >= 1 and each edge a pair (list or tuple) of integers; self
        loops and ids outside 0..n-1 are rejected.
        """
        if not _is_int(n) or n < 1:
            raise TopologyError("n must be a positive integer")
        adjacency: list[set[int]] = [set() for _ in range(n)]
        for edge in edges:
            if not (isinstance(edge, (list, tuple)) and len(edge) == 2 and all(map(_is_int, edge))):
                raise TopologyError(f"edge {edge!r} is not a pair of integers")
            i, j = edge
            if not (0 <= i < n and 0 <= j < n):
                raise TopologyError(f"edge [{i}, {j}] references a node id outside 0..{n - 1}")
            if i == j:
                raise TopologyError(f"edge [{i}, {j}] is a self loop")
            adjacency[i].add(j)
            adjacency[j].add(i)
        neighbor_lists = tuple(tuple(sorted(adj)) for adj in adjacency)
        if positions is not None:
            positions = _check_positions(positions, n)
        return cls(neighbor_lists, positions, None)

    @classmethod
    def from_positions(cls, positions, radio_range: float) -> "Topology":
        """Build a unit-disk topology: edge iff distance <= radio_range.

        A sort-and-sweep search: with the nodes sorted by x, each node is
        compared with its k-th successor for k = 1, 2, ... (one array step per
        k) until no successor is within 2 * radio_range in x.
        """
        pos = _check_positions(positions, None)
        # written so that NaN fails it too
        if not 0 < radio_range < math.inf:
            raise TopologyError("radio range must be positive and finite")
        n = pos.shape[0]
        # Differences are rescaled by a power of two, which is exact, so that the
        # square of a huge or tiny range stays a normal float.
        scale = 2.0**-600 if radio_range > 2.0**500 else 2.0**600 if radio_range < 2.0**-500 else 1.0
        reach = radio_range * scale
        limit = reach * reach * (1.0 + RANGE_SLACK)
        order = np.argsort(pos[:, 0])
        x, y = pos[order, 0], pos[order, 1]
        near, far = [np.empty(0, dtype=order.dtype)], []  # the two ends of each edge found
        with np.errstate(over="ignore"):  # an overflowing distance is out of range
            for k in range(1, n):
                dx = x[k:] - x[:-k]
                if dx.min() > 2.0 * radio_range:  # x is sorted: later successors are farther
                    break
                hits = np.nonzero((dx * scale) ** 2 + ((y[k:] - y[:-k]) * scale) ** 2 <= limit)[0]
                near.append(order[hits])
                far.append(order[hits + k])
        src, dst = np.concatenate(near + far), np.concatenate(far + near)
        dst = dst[np.lexsort((dst, src))].tolist()
        ends = np.cumsum(np.bincount(src, minlength=n)).tolist()
        neighbor_lists = tuple(tuple(dst[lo:hi]) for lo, hi in zip([0] + ends, ends))
        return cls(neighbor_lists, pos, float(radio_range))


def _check_positions(positions, n: int | None) -> np.ndarray:
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise TopologyError("positions must be an (N, 2) array")
    if n is not None and pos.shape[0] != n:
        raise TopologyError(f"got {pos.shape[0]} positions for {n} nodes")
    if pos.shape[0] < 1:
        raise TopologyError("topology needs at least one node")
    if not np.all(np.isfinite(pos)):
        raise TopologyError("positions must be finite")
    return pos


def generate_grid(rows: int, cols: int, spacing: float = 1.0, radio_range: float = 1.0) -> Topology:
    """Regular rows x cols grid with row-major ids and unit-disk edges.

    Node r*cols + c sits at (r*spacing, c*spacing). With spacing 1 and
    radio_range sqrt(2) the diagonals are included, which on a 7x7 grid gives
    degrees 3 (corners), 5 (edges) and 8 (interior).
    """
    if not (_is_int(rows) and _is_int(cols)) or rows < 1 or cols < 1:
        raise TopologyError("rows and cols must be positive integers")
    if not 0 < spacing < math.inf:  # written so that NaN fails it too
        raise TopologyError("spacing must be positive and finite")
    # an oversized grid fails at this allocation; an overflowing coordinate, in from_positions
    with np.errstate(over="ignore"):
        positions = np.column_stack(np.divmod(np.arange(rows * cols), cols)) * spacing
    return Topology.from_positions(positions, radio_range)


def generate_random_udg(n: int, side: float, radio_range: float, seed: int) -> Topology:
    """Random unit-disk topology: n nodes placed i.i.d. uniformly in [0, side]^2.

    Deterministic for a fixed seed, an integer >= 0. Use the reported mean
    degree to tune side and radio_range toward a target density.
    """
    if not _is_int(n) or n < 1:
        raise TopologyError("n must be a positive integer")
    if not 0 < side < math.inf:  # written so that NaN fails it too
        raise TopologyError("side must be positive and finite")
    if not _is_int(seed) or seed < 0:  # a usage error, as for TrickleParams.base_seed
        raise ValueError("seed must be an integer >= 0")
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, side, size=(n, 2))
    return Topology.from_positions(positions, radio_range)


def save_topology(topology: Topology, path) -> None:
    """Write a topology as JSON (schema documented in the README)."""
    n = topology.n
    xs, ys = ([None] * n, [None] * n) if topology.positions is None else topology.positions.T.tolist()
    edges = None if topology.radio_range is not None else [list(e) for e in topology.edges]
    write_records(path, {"x": xs, "y": ys}, "nodes", range=topology.radio_range, edges=edges)


def load_topology(path) -> Topology:
    """Read a topology JSON file; the inverse of save_topology.

    Node i is the "nodes" record with id i, the ids checked by
    io.read_records. Exactly one of "range" / "edges" must be non-null. With
    "range", edges are re-derived from node positions; with "edges",
    positions are optional (all nodes or none).
    """
    doc, nodes = read_records(path, key="nodes", error=TopologyError)
    if not nodes:
        raise TopologyError(f"{path}: field 'nodes' must be a non-empty list")
    coords = [(rec.get("x"), rec.get("y")) for rec in nodes]
    for i, (x, y) in enumerate(coords):
        if (x is None) != (y is None):
            raise TopologyError(f"{path}: node {i} has only one of 'x'/'y'")
        if x is not None and not (_is_finite_number(x) and _is_finite_number(y)):
            raise TopologyError(f"{path}: node {i}: 'x' and 'y' must be finite numbers")
    placed = sum(x is not None for x, _ in coords)
    if placed not in (0, len(nodes)):
        raise TopologyError(f"{path}: positions must be given for all nodes or for none")
    positions = np.array(coords, dtype=float) if placed else None

    radio_range = doc.get("range")
    edges = doc.get("edges")
    if (radio_range is None) == (edges is None):
        raise TopologyError(f"{path}: exactly one of 'range' / 'edges' must be non-null")

    if radio_range is not None:
        if not _is_finite_number(radio_range):
            raise TopologyError(f"{path}: 'range' must be a positive and finite number")
        if positions is None:
            raise TopologyError(f"{path}: 'range' mode requires node positions")
        return Topology.from_positions(positions, radio_range)

    if not isinstance(edges, list):
        raise TopologyError(f"{path}: field 'edges' must be a list of [i, j] pairs")
    try:
        return Topology.from_edges(len(nodes), edges, positions)
    except TopologyError as exc:
        raise TopologyError(f"{path}: {exc}") from exc
