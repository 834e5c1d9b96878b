"""Per-node redundancy constants.

Either a fixed network-wide K, or a local rule that scales K with the number
of neighbors: K = 1 for nodes with at most `offset` neighbors, and K grows by
one for every further `step` neighbors. Denser neighborhoods then tolerate
more suppression, which evens out the transmission load.
"""
from __future__ import annotations

from dataclasses import dataclass

from .io import _is_int

DEFAULT_STEP = 3
DEFAULT_OFFSET = 0


@dataclass(frozen=True)
class KAssignment:
    """Redundancy constant per node id, each an integer >= 1, plus the policy that produced it."""

    k: tuple[int, ...]
    policy: dict

    def __post_init__(self) -> None:
        for i, k in enumerate(self.k):
            if not _is_int(k) or k < 1:
                raise ValueError(f"node {i}: redundancy constant {k!r} must be an integer >= 1")


def fixed_policy(k: int) -> dict:
    return {"mode": "fixed", "k": k}


def heuristic_policy(step: int = DEFAULT_STEP, offset: int = DEFAULT_OFFSET) -> dict:
    return {"mode": "heuristic", "step": step, "offset": offset}


def calculate_k(num_neighbors: int, step: int, offset: int = 0) -> int:
    """Local redundancy constant from the neighbor count.

    Returns 1 when num_neighbors <= offset, otherwise
    ceil((num_neighbors - offset) / step), which is >= 1 there.
    """
    if not _is_int(step) or step < 1:
        raise ValueError("step must be an integer >= 1")
    if not _is_int(offset) or offset < 0:
        raise ValueError("offset must be an integer >= 0")
    if not _is_int(num_neighbors) or num_neighbors < 0:
        raise ValueError("num_neighbors must be an integer >= 0")
    if num_neighbors <= offset:
        return 1
    return -(-(num_neighbors - offset) // step)


def assign_k(topology, policy: dict) -> KAssignment:
    """Evaluate a policy descriptor on every node of a topology."""
    if not isinstance(policy, dict):
        raise ValueError(f"policy {policy!r} is not a dict")
    mode = policy.get("mode")
    if mode == "fixed":
        ks = (policy.get("k"),) * topology.n
    elif mode == "heuristic":
        step = policy.get("step", DEFAULT_STEP)
        offset = policy.get("offset", DEFAULT_OFFSET)
        ks = tuple(calculate_k(topology.degree(i), step, offset) for i in range(topology.n))
    else:
        raise ValueError(f"unknown policy mode {mode!r}")
    return KAssignment(ks, dict(policy))
