"""Implicit transient driver: backward Euler with damped Newton iterations.

Every Newton iteration factors its linear system directly, which is robust
against the power-law's extreme stiffness; no iterative solvers are
attempted. The context's one elimination leaves out, for every variant, the
field unknowns that only the mass matrix reaches, the exterior air (none on
fcm-h-full, which factors the full sparse Jacobian in a COLAMD order
computed once, bit for bit as with SuperLU's defaults). They follow the
other field unknowns linearly, so Newton iterates on the rest: each
iteration factors the elimination's ``matrix`` with its SuperLU
``factor_options`` and ``solve`` returns an update that leaves them
unchanged; the converged state is then ``lift``-ed once. A factorization
that fails is a Newton failure like any other: the step is retried with
half the dt.

Convergence is judged on a block-scaled Euclidean residual norm: field rows
and current-constraint rows carry different units, so each block is
normalized by the largest leading-assembly magnitude seen so far in the run.
The scales are touched only by iteration-zero assemblies, never by trial
points of the line search, which keeps a diverging iterate from poisoning
the stopping test.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import splu

from .formulations import AssemblyContext, Excitation

log = logging.getLogger(__name__)

MAX_BACKTRACKS = 8
DT_GROWTH = 1.2
FAST_STEP_ITERS = 3


class NonConvergenceError(RuntimeError):
    """Newton failed to reach tolerance; the stepper may retry with smaller dt."""

    def __init__(self, message: str, stats: "NewtonStats | None" = None):
        super().__init__(message)
        self.stats = stats


class SingularMatrixError(NonConvergenceError):
    """The linearized system factorization failed.

    The failed factorization counts as a Newton iteration of the attempt, and
    the stepper retries with a smaller dt as for any other Newton failure.
    """


@dataclass(frozen=True)
class SolverConfig:
    # abs_tol must sit above the LU roundoff floor of the scaled residual or
    # Newton stalls just shy of a tolerance it cannot reach in double
    # precision. On pancake2d_fcm_hfull 5e-12 sits below that floor: the
    # residual stalls between 5.1e-12 and 9.3e-12, and a stalled attempt runs
    # all max_newton_iters before it is rejected and dt is halved.
    newton_tol_rel: float = 1e-11
    newton_tol_abs: float = 5e-12
    max_newton_iters: int = 25
    dt_init: float = 2e-5
    dt_min: float = 2e-9
    dt_max: float = 1e-4
    periods: float = 2.0
    damping: float = 0.5

    def __post_init__(self) -> None:
        if self.newton_tol_rel <= 0 or self.newton_tol_abs <= 0:
            raise ValueError("Newton tolerances must be positive")
        if not (0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")
        if self.max_newton_iters < 1:
            raise ValueError("max_newton_iters must be >= 1")
        if not 0 < self.damping < 1:
            raise ValueError("damping must lie in (0, 1)")
        if self.periods <= 0:
            raise ValueError("periods must be positive")


@dataclass
class NewtonStats:
    iterations: int = 0
    residual_norms: list[float] = field(default_factory=list)
    converged: bool = False

    @property
    def final_residual(self) -> float:
        return self.residual_norms[-1] if self.residual_norms else float("nan")


class BlockScales:
    """Residual normalization for the two unit families of the system.

    Field rows and current-constraint rows carry different units, so each
    family is normalized by the largest term magnitude it has shown in the
    run. Finer splits would starve row groups that are physically near zero
    in some regimes (e.g. radial-field rows early in a ramp), whose roundoff
    is set by the globally coupled solve, not by their own magnitude.

    Scales absorb the assembly's per-row term magnitudes (which dominate the
    residual entrywise), and only from non-diverging iterates so a runaway
    trial point cannot loosen the stopping test.
    """

    def __init__(self, n_field: int):
        # field rows come first, current-constraint (voltage) rows after them
        self.slices = (slice(0, n_field), slice(n_field, None))
        self.scale = np.zeros(len(self.slices))

    def absorb(self, row_scale: np.ndarray) -> None:
        for i, sl in enumerate(self.slices):
            self.scale[i] = max(self.scale[i], float(np.linalg.norm(row_scale[sl])))

    def norm(self, residual: np.ndarray) -> float:
        if not np.all(np.isfinite(residual)):
            return float("inf")
        # floor guards families that never carried signal from roundoff blowup
        floor = max(1e-8 * self.scale.max(initial=0.0), 1e-300)
        acc = 0.0
        for i, sl in enumerate(self.slices):
            b = float(np.linalg.norm(residual[sl])) / max(self.scale[i], floor)
            acc += b * b
        return float(np.sqrt(acc))


def newton_solve(
    system_fn,
    u0: np.ndarray,
    config: SolverConfig,
    scales: BlockScales,
) -> tuple[np.ndarray, NewtonStats]:
    """Damped Newton on ``system_fn``'s residual, starting at ``u0``.

    Stops when the scaled residual drops under
    max(newton_tol_abs, newton_tol_rel * |r0|); a non-finite r0 raises
    NonConvergenceError. A trial point whose residual does not decrease is
    halved up to MAX_BACKTRACKS times; then the last trial is accepted anyway
    and the outer iteration continues. The state returned is lifted by the
    context's elimination.
    """
    stats = NewtonStats()
    u = np.asarray(u0, dtype=float).copy()
    system = system_fn(u)
    # checked before the scales absorb it, so a runaway start point can
    # neither pass as converged nor loosen the stopping test of later attempts
    if not np.all(np.isfinite(system.residual)):
        raise NonConvergenceError("residual not finite at the start point", stats)
    scales.absorb(system.row_scale)
    r_norm = scales.norm(system.residual)
    stats.residual_norms.append(r_norm)
    tol = max(config.newton_tol_abs, config.newton_tol_rel * r_norm)
    elimination = system.context.elimination
    if r_norm <= tol:
        stats.converged = True
        return elimination.lift(u), stats

    for _ in range(config.max_newton_iters):
        stats.iterations += 1
        try:
            lu = splu(elimination.matrix(system.dt, system.d_tan), **elimination.factor_options)
        except RuntimeError as exc:
            raise SingularMatrixError(f"factorization failed: {exc}", stats) from exc
        du = elimination.solve(lu, -system.residual)

        step = 1.0
        for _bt in range(MAX_BACKTRACKS + 1):
            u_trial = u + step * du
            system_trial = system_fn(u_trial)
            r_trial = scales.norm(system_trial.residual)
            if r_trial < r_norm:
                scales.absorb(system_trial.row_scale)
                r_trial = scales.norm(system_trial.residual)
                break
            step *= config.damping
        if not np.isfinite(r_trial):
            raise NonConvergenceError(
                f"residual not finite after {MAX_BACKTRACKS} backtracks", stats
            )
        u, system, r_norm = u_trial, system_trial, r_trial
        stats.residual_norms.append(r_norm)
        if r_norm <= tol:
            stats.converged = True
            return elimination.lift(u), stats

    raise NonConvergenceError(
        f"no convergence in {config.max_newton_iters} iterations "
        f"(residual {r_norm:.3e}, tol {tol:.3e})",
        stats,
    )


def step(
    formulation: AssemblyContext,
    w: np.ndarray,
    t: float,
    dt: float,
    excitation: Excitation,
    config: SolverConfig,
    scales: BlockScales,
    t_end: float,
) -> tuple[np.ndarray, float, NewtonStats, int]:
    """One backward-Euler step from state ``w`` at time ``t``.

    Halves dt (not below dt_min) on Newton failure, a singular factorization
    included, until an attempt converges. A failed step that lands on
    ``t_end`` and is shorter than 2 dt_min is not retried: no split of it
    keeps both parts at least dt_min long. Returns the new state, the dt
    taken, its Newton stats and the linear solves of all attempts, rejected
    ones included.
    """
    solves = 0
    while True:
        t_new = t + dt

        def system_fn(u, _t=t_new, _dt=dt):
            return formulation.assemble(u, w, _dt, _t, excitation)

        try:
            w_new, stats = newton_solve(system_fn, w, config, scales)
        except NonConvergenceError as exc:
            if exc.stats is not None:
                solves += exc.stats.iterations
            landing = dt == t_end - t and dt < 2 * config.dt_min
            if landing or dt <= config.dt_min * (1 + 1e-12):
                raise NonConvergenceError(
                    f"dt underflow at t={t:.6e}: dt={dt:.3e} cannot be split into "
                    f"steps of at least dt_min={config.dt_min:.3e}; {exc}; residual history "
                    f"{[f'{r:.3e}' for r in (exc.stats.residual_norms if exc.stats else [])]}",
                    exc.stats,
                ) from exc
            dt = max(0.5 * dt, config.dt_min)
            log.info("newton failed at t=%.6e, retrying with dt=%.3e", t_new, dt)
            continue
        return w_new, dt, stats, solves + stats.iterations


@dataclass
class SolutionTrace:
    """Accepted-step history of one transient run (full-device quantities)."""

    times: np.ndarray
    p: np.ndarray
    i_target: np.ndarray
    slice_currents: np.ndarray  # (n_samples, n_slices)
    newton_iters: np.ndarray
    dt: np.ndarray
    states: list[np.ndarray] | None
    linsys_count: int
    excitation: Excitation

    def __post_init__(self) -> None:
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trace timestamps must be strictly increasing")


def run_transient(
    config: SolverConfig,
    formulation: AssemblyContext,
    excitation: Excitation,
    store_states: bool = True,
) -> SolutionTrace:
    """Simulate ``config.periods`` periods from the zero state."""
    layout = formulation.layout
    t_end = config.periods * excitation.period
    t0 = time.perf_counter()
    # the one-time elimination build belongs to the run, not to its first assembly
    formulation.elimination

    w = np.zeros(layout.n_dofs)
    t = 0.0
    scales = BlockScales(layout.n_field_dofs)

    times = [0.0]
    p = [0.0]
    i_target = [excitation.current(0.0)]
    slices = [formulation.slice_currents(w)]
    iters = [0]
    dts = [config.dt_init]
    states = [w.copy()] if store_states else None
    linsys = 0
    # dt control: grow by DT_GROWTH after a step of at most FAST_STEP_ITERS
    # Newton iterations, up to dt_max; after a halving, restart from the dt
    # that converged. The landing on t_end does not touch the controller.
    dt_ctrl = config.dt_init

    while t < t_end:
        dt = min(dt_ctrl, t_end - t)
        if t_end - (t + dt) < max(config.dt_min, 1e-12 * t_end):
            # a step that would leave less than dt_min (or a roundoff sliver)
            # lands on t_end, so that no step is shorter than dt_min
            dt = t_end - t
        w_new, dt_taken, stats, solves = step(
            formulation, w, t, dt, excitation, config, scales, t_end
        )
        linsys += solves
        if dt_taken < dt:
            dt_ctrl = dt_taken
        if stats.iterations <= FAST_STEP_ITERS:
            dt_ctrl = min(dt_ctrl * DT_GROWTH, config.dt_max)
        # t + (t_end - t) can round off t_end; the landing step ends on it
        t_new = t_end if dt_taken == t_end - t else t + dt_taken

        times.append(t_new)
        p.append(formulation.mesh.symmetry_factor * formulation.dissipation(w_new, w))
        i_target.append(excitation.current(t_new))
        slices.append(formulation.slice_currents(w_new))
        iters.append(stats.iterations)
        dts.append(t_new - t)
        if store_states:
            states.append(w_new.copy())
        log.info(
            "step %d: t=%.6e dt=%.3e newton=%d residual=%.3e",
            len(times) - 1,
            t_new,
            t_new - t,
            stats.iterations,
            stats.final_residual,
        )
        w, t = w_new, t_new

    wall = time.perf_counter() - t0
    log.info(
        "run complete: %d steps, %d linear solves, %.2f s wall",
        len(times) - 1,
        linsys,
        wall,
    )
    return SolutionTrace(
        times=np.array(times),
        p=np.array(p),
        i_target=np.array(i_target),
        slice_currents=np.array(slices),
        newton_iters=np.array(iters),
        dt=np.array(dts),
        states=states,
        linsys_count=linsys,
        excitation=excitation,
    )
