"""Loss metrics, slice bookkeeping, and time-series export.

All powers and currents handled here refer to the full device.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import find_peaks

from .mesh import Mesh
from .spaces import DofLayout
from .variants import FormulationVariant

TRACE_COLUMNS = ("t", "p", "i_t", "newton_iters")


@dataclass
class LossSeries:
    """Instantaneous full-device losses sampled at accepted solver steps."""

    times: np.ndarray
    p: np.ndarray
    frequency: float
    variant: str = ""
    n_dofs: int = 0
    n_turns: int = 0

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if self.times.shape != self.p.shape:
            raise ValueError("times and p must have matching shapes")
        if self.times.size and np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(self.p < 0):
            raise ValueError("instantaneous losses must be non-negative")
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")

    @property
    def period(self) -> float:
        return 1.0 / self.frequency

    @property
    def P(self) -> float:
        return mean_losses(self)


@dataclass
class ComparisonReport:
    r_squared: float
    one_minus_r2: float
    rel_err_P: float
    interpolation: str = "linear"

    def __post_init__(self) -> None:
        if self.r_squared > 1.0 + 1e-12:
            raise ValueError("r_squared cannot exceed 1")


def mean_losses(series: LossSeries) -> float:
    """Mean losses over the trailing half period, scaled by 2/T."""
    half = 0.5 * series.period
    if series.times.size < 2:
        raise ValueError("series too short for a mean-loss window")
    t1 = series.times[-1]
    t0 = t1 - half
    if series.times[0] > t0 + 1e-12 * series.period:
        raise ValueError(
            f"series spans [{series.times[0]:.6e}, {t1:.6e}] s; "
            f"needs to reach back to {t0:.6e} s"
        )
    inside = (series.times > t0) & (series.times <= t1)
    t = np.concatenate([[t0], series.times[inside]])
    p = np.concatenate([[np.interp(t0, series.times, series.p)], series.p[inside]])
    return float(2.0 * series.frequency * np.trapezoid(p, t))


def r_squared(series: LossSeries, reference: LossSeries) -> ComparisonReport:
    """Coefficient of determination of ``series`` against ``reference``.

    Both series must cover one common full period ending at the earlier of
    the two final timestamps; the test series is linearly interpolated onto
    the reference grid there.
    """
    if abs(series.frequency - reference.frequency) > 1e-12 * reference.frequency:
        raise ValueError("series frequencies differ")
    period = reference.period
    t1 = min(series.times[-1], reference.times[-1])
    t0 = t1 - period
    tiny = 1e-12 * period
    if series.times[0] > t0 + tiny or reference.times[0] > t0 + tiny:
        raise ValueError("series do not overlap on a common full period")

    inside = (reference.times > t0) & (reference.times < t1)
    grid = np.concatenate([[t0], reference.times[inside], [t1]])
    p_ref = np.interp(grid, reference.times, reference.p)
    p = np.interp(grid, series.times, series.p)

    p_bar = float(np.trapezoid(p_ref, grid)) / period
    den = float(np.trapezoid((p_ref - p_bar) ** 2, grid))
    if den == 0.0:
        raise ValueError("reference series is constant; r_squared undefined")
    num = float(np.trapezoid((p - p_ref) ** 2, grid))
    r2 = 1.0 - num / den
    return ComparisonReport(
        r_squared=r2,
        one_minus_r2=1.0 - r2,
        rel_err_P=rel_err_mean(mean_losses(series), mean_losses(reference)),
    )


def rel_err_mean(P: float, P_ref: float) -> float:
    if P_ref <= 0:
        raise ValueError("reference mean losses must be positive")
    return abs(P - P_ref) / P_ref


def turns_per_slice(mesh: Mesh, layout: DofLayout) -> float:
    """How many physical turns one slice stands for."""
    if layout.variant is FormulationVariant.REF_H_PHI:
        return 1.0
    return mesh.geom.n_turns / mesh.n_alpha


def count_loss_peaks(series: LossSeries, window_periods: float = 1.0) -> int:
    """Number of loss peaks within the trailing window (2 per period in steady state)."""
    t0 = series.times[-1] - window_periods * series.period
    inside = series.times >= t0 - 1e-12 * series.period
    p = series.p[inside]
    if p.size < 3:
        return 0
    prominence = 1e-3 * (p.max() - p.min())
    peaks, _ = find_peaks(p, prominence=prominence if prominence > 0 else None)
    return int(peaks.size)


# -- CSV export ---------------------------------------------------------------


def write_trace_csv(path: str | Path, trace) -> Path:
    """Time series of full-device losses and drive (header always written)."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for k in range(len(trace.times)):
            writer.writerow(
                [
                    f"{trace.times[k]:.12e}",
                    f"{trace.p[k]:.12e}",
                    f"{trace.i_target[k]:.12e}",
                    int(trace.newton_iters[k]),
                ]
            )
    return path


def write_slice_csv(path: str | Path, trace) -> Path:
    path = Path(path)
    n_slices = trace.slice_currents.shape[1] if trace.slice_currents.size else 0
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"slice_{i}" for i in range(n_slices)])
        for k in range(len(trace.times)):
            writer.writerow(
                [f"{trace.times[k]:.12e}"]
                + [f"{v:.12e}" for v in trace.slice_currents[k]]
            )
    return path


def read_trace_csv(path: str | Path) -> dict[str, np.ndarray]:
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != TRACE_COLUMNS:
            raise ValueError(f"{path}: unexpected columns {header}")
        rows = [[float(v) for v in row] for row in reader if row]
    data = np.array(rows) if rows else np.empty((0, len(TRACE_COLUMNS)))
    return {name: data[:, i] for i, name in enumerate(TRACE_COLUMNS)}


def write_sweep_csv(path: str | Path, rows: list[dict]) -> Path:
    """Sweep summary: one row per parameter value."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value", "P", "one_minus_r2", "n_dofs", "linsys_count"])
        for row in rows:
            writer.writerow(
                [
                    row["value"],
                    f"{row['P']:.12e}",
                    f"{row['one_minus_r2']:.12e}",
                    int(row["n_dofs"]),
                    int(row["linsys_count"]),
                ]
            )
    return path
