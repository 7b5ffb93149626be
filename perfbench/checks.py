"""Correctness checks applied to every benchmark run.

They use only what a run returns (its SolutionTrace and summary) and the
public ``AssemblyContext.power_balance``, so they hold for any
implementation of the solver stack.
"""

from __future__ import annotations

import numpy as np

# Newton stops at a scaled residual of 1e-11; the transport-current rows
# land near 1e-13 A today, so 1e-9 of the drive still flags any real drift.
CURRENT_TOL_REL = 1e-9
# Worst normalized Galerkin energy imbalance over consecutive stored states;
# observed values are 7e-8 (fcm-tw), 7e-10 (ref) and 2e-11 (fcm-hfull).
ENERGY_TOL = 1e-6


def loss_energy(trace) -> float:
    """Time integral of the full-device loss p(t) over the run's window [J]."""
    return float(np.trapezoid(trace.p, trace.times))


def transport_current_error(trace, is_reference: bool, n_turns: int) -> float:
    """Worst deviation [A] of the stored slice currents from the target.

    Homogenized variants: the slice currents sum to n_turns * I(t).
    Per-turn reference: every turn carries I(t).
    """
    if is_reference:
        err = trace.slice_currents - trace.i_target[:, None]
    else:
        err = trace.slice_currents.sum(axis=1) - n_turns * trace.i_target
    return float(np.max(np.abs(err), initial=0.0))


def energy_imbalance_max(ctx, trace) -> float:
    """Worst |imbalance| / (|dW/dt| + dissipation + |coupling power|).

    Evaluated over consecutive stored states. The dissipation alone is no
    normalizer: below jc it is ~0 and the ratio explodes.
    """
    worst = 0.0
    for k in range(1, len(trace.times)):
        dt = trace.times[k] - trace.times[k - 1]
        pb = ctx.power_balance(trace.states[k], trace.states[k - 1], dt)
        scale = abs(pb["magnetic_energy_rate"]) + pb["dissipation"] + abs(pb["coupling_power"])
        if scale > 0:
            worst = max(worst, abs(pb["imbalance"]) / scale)
    return worst


def check_run(cfg, ctx, trace) -> tuple[list[str], dict[str, float]]:
    """Check one finished run; returns (failure messages, measured values)."""
    from foilwind.variants import FormulationVariant

    failures = []
    if not (np.all(np.isfinite(trace.p)) and np.all(trace.p >= 0)):
        failures.append("p(t) is not finite and non-negative")

    is_ref = cfg.variant is FormulationVariant.REF_H_PHI
    n_turns = cfg.geometry.n_turns
    i_err = transport_current_error(trace, is_ref, n_turns)
    i_tol = CURRENT_TOL_REL * cfg.excitation.amplitude * (1 if is_ref else n_turns)
    if not i_err <= i_tol:
        failures.append(f"transport current off by {i_err:.3e} A (tolerance {i_tol:.3e} A)")

    if trace.states is None:
        failures.append("the trace stores no states; energy balance cannot be evaluated")
        imbalance = float("nan")
    else:
        imbalance = energy_imbalance_max(ctx, trace)
        if not imbalance <= ENERGY_TOL:
            failures.append(f"energy imbalance {imbalance:.3e} exceeds {ENERGY_TOL:.0e}")
    values = {
        "transport_current_err_a": i_err,
        "energy_imbalance_max": imbalance,
        "loss_energy_j": loss_energy(trace),
    }
    return failures, values
