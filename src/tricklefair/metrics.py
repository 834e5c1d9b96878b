"""Fairness summaries and model-vs-simulation comparison over per-node probabilities."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .io import write_csv, write_records_csv


@dataclass(frozen=True)
class FairnessReport:
    """Spread statistics of per-node transmission probabilities.

    variance is the population variance (divide by N). message_count is the
    expected network-wide message count per interval, i.e. the sum.
    """

    max_p: float
    min_p: float
    mean_p: float
    variance: float
    message_count: float
    source: str


@dataclass(frozen=True)
class Comparison:
    p_model: np.ndarray
    p_sim: np.ndarray
    abs_diff: np.ndarray
    model_report: FairnessReport
    sim_report: FairnessReport

    @property
    def max_abs_diff(self) -> float:
        return float(self.abs_diff.max())


def fairness(probabilities, source: str = "model") -> FairnessReport:
    """Extremes, mean, population variance and total of per-node probabilities."""
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probabilities must be a non-empty 1D sequence")
    if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN fails it too
        raise ValueError("probabilities must lie in [0, 1]")
    return FairnessReport(
        max_p=float(p.max()),
        min_p=float(p.min()),
        mean_p=float(p.mean()),
        variance=float(np.var(p)),
        message_count=float(p.sum()),
        source=source,
    )


def compare(p_model, p_sim) -> Comparison:
    """Per-node absolute deviations plus fairness reports for both sides."""
    pm = np.asarray(p_model, dtype=float)
    ps = np.asarray(p_sim, dtype=float)
    if pm.shape != ps.shape:
        raise ValueError(f"length mismatch: model has {pm.size} nodes, simulation {ps.size}")
    return Comparison(
        p_model=pm,
        p_sim=ps,
        abs_diff=np.abs(pm - ps),
        model_report=fairness(pm, source="model"),
        sim_report=fairness(ps, source="simulation"),
    )


def class_means(topology, probabilities) -> dict[int, float]:
    """Mean probability per degree class, keyed by degree.

    On the 7x7 grid with range sqrt(2) the classes are the corners (degree
    3), the border (5) and the interior (8).
    """
    p = np.asarray(probabilities, dtype=float)
    if p.shape != (topology.n,):
        raise ValueError(f"probabilities must have shape ({topology.n},)")
    degrees = topology.degrees
    return {int(d): float(p[degrees == d].mean()) for d in np.unique(degrees)}


def export_surface(topology, probabilities, path) -> None:
    """Write x,y,p rows for surface plotting; needs node positions."""
    if topology.positions is None:
        raise ValueError("surface export needs a topology with node positions")
    p = np.asarray(probabilities, dtype=float)
    if p.shape != (topology.n,):
        raise ValueError(f"probabilities must have shape ({topology.n},)")
    write_csv(path, ["x", "y", "p"], zip(*topology.positions.T.tolist(), p.tolist()))


def save_comparison_csv(path, degrees, ks, comparison: Comparison) -> None:
    """Per-node comparison rows: id,degree,k,p_model,p_sim,abs_diff; degrees and ks as given."""
    columns = comparison.p_model.tolist(), comparison.p_sim.tolist(), comparison.abs_diff.tolist()
    write_records_csv(path, dict(zip(("degree", "k", "p_model", "p_sim", "abs_diff"), (degrees, ks, *columns))))
