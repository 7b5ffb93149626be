"""Loss metrics, slice bookkeeping, and time-series export.

All powers and currents handled here refer to the full device.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mesh import Mesh
from .spaces import DofLayout

TRACE_COLUMNS = ("t", "p", "i_t", "newton_iters")


@dataclass
class LossSeries:
    """Instantaneous full-device losses sampled at accepted solver steps."""

    times: np.ndarray
    p: np.ndarray
    frequency: float

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if self.times.shape != self.p.shape:
            raise ValueError("times and p must have matching shapes")
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.p))):
            raise ValueError("times and p must be finite")
        if self.times.size and np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(self.p < 0):
            raise ValueError("instantaneous losses must be non-negative")
        if not self.frequency > 0:
            raise ValueError("frequency must be positive")

    @property
    def period(self) -> float:
        return 1.0 / self.frequency


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
    if min(series.times.size, reference.times.size) < 2:
        raise ValueError("series too short for a mean-loss window")
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
    P, P_ref = mean_losses(series), mean_losses(reference)
    if P_ref <= 0:
        raise ValueError("reference mean losses must be positive")
    return ComparisonReport(
        r_squared=r2, one_minus_r2=1.0 - r2, rel_err_P=abs(P - P_ref) / P_ref
    )


def turns_per_slice(mesh: Mesh, layout: DofLayout) -> float:
    """How many physical turns one slice of the voltage modes stands for."""
    return mesh.geom.n_turns / layout.mode_means.shape[0]


# -- CSV export ---------------------------------------------------------------


def _write_rows(path: str | Path, header, rows) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_trace_csv(path: str | Path, trace) -> Path:
    """Time series of full-device losses and drive (header always written)."""
    return _write_rows(path, TRACE_COLUMNS, (
        [f"{t:.12e}", f"{p:.12e}", f"{i:.12e}", int(n)]
        for t, p, i, n in zip(trace.times, trace.p, trace.i_target, trace.newton_iters)
    ))


def write_slice_csv(path: str | Path, trace) -> Path:
    n_slices = trace.slice_currents.shape[1] if trace.slice_currents.size else 0
    return _write_rows(path, ["t"] + [f"slice_{i}" for i in range(n_slices)], (
        [f"{t:.12e}"] + [f"{v:.12e}" for v in currents]
        for t, currents in zip(trace.times, trace.slice_currents)
    ))


def read_trace_csv(path: str | Path) -> dict[str, np.ndarray]:
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, no header")
        if tuple(header) != TRACE_COLUMNS:
            raise ValueError(f"{path}: unexpected columns {header}")
        rows = []
        for row in filter(None, reader):
            if len(row) != len(TRACE_COLUMNS):
                raise ValueError(f"{path}: line {reader.line_num} has {len(row)} fields, "
                                 f"not {len(TRACE_COLUMNS)}")
            rows.append([float(v) for v in row])
    data = np.array(rows) if rows else np.empty((0, len(TRACE_COLUMNS)))
    return {name: data[:, i] for i, name in enumerate(TRACE_COLUMNS)}


def write_sweep_csv(path: str | Path, rows: list[dict]) -> Path:
    """Sweep summary: one row per parameter value."""
    return _write_rows(path, ["value", "P", "one_minus_r2", "n_dofs", "linsys_count"], (
        [row["value"], f"{row['P']:.12e}", f"{row['one_minus_r2']:.12e}",
         int(row["n_dofs"]), int(row["linsys_count"])]
        for row in rows
    ))
