"""Implicit transient driver: backward Euler with damped Newton iterations.

Every Newton iteration factors its linear system directly, which is robust
against the power-law's extreme stiffness; no iterative solvers are
attempted. The context's one elimination leaves out, for every variant, the
field unknowns that only the mass matrix reaches, the exterior air (none on
fcm-h-full; an elimination of nothing factors the full sparse Jacobian in a
COLAMD order computed once, bit for bit as with SuperLU's defaults). They
follow the other field unknowns linearly, so Newton iterates on the rest: each
iteration factors the elimination's ``matrix`` with its SuperLU
``factor_options`` and ``solve`` returns an update that leaves them
unchanged; the converged state is then ``lift``-ed once. A factorization
that fails is a Newton failure like any other.

``run_transient`` is the one stepping loop: it owns the dt controller, the
halving of a failed attempt's dt, the landing on t_end, the dt_min floor,
the linear-solve count of every attempt, and the NonConvergenceError that
records how far a run got when it gives up. It also evaluates the step's
one input besides the previous state: the critical current density, lagged
at that state (``jc_effective``) once before the step's first attempt and
passed to every assembly of the step and to its dissipation.

Convergence is judged on a block-scaled Euclidean residual norm: field rows
and current-constraint rows carry different units, so each block is
normalized by the largest leading-assembly magnitude seen so far in the run.
The scales are touched only by the start point and by the points Newton
moves to that lowered the residual (a trial, or a mirror guess that is
taken), never by a refused trial or one taken after every halving failed,
which keeps a diverging iterate from poisoning the stopping test.

Two moves spend fewer factorizations per step. Where a full Newton step
lowers the residual by less than 10x while the residual is still far above
the tolerance, convergence has turned linear: the n = 25 power law in cells
that unload from about jc behaves as a root of high multiplicity, where
Newton undershoots by a constant factor (Griewank, SIAM Review 27(4), 1985).
Such a step is then stretched to 2, 4, ... MAX_STRIDE times its length for as
long as the residual keeps falling; each stretch costs one assembly and no
factorization. From 0.75 T on, ``run_transient`` also offers each attempt the
half-wave mirror of the state half a period back (``mirror_guess``), which
Newton starts from when its residual is below the previous state's.
"""

from __future__ import annotations

import logging
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from math import inf, isfinite, sqrt

import numpy as np
from scipy.sparse.linalg import splu

from .formulations import AssemblyContext, Excitation

log = logging.getLogger(__name__)

MAX_BACKTRACKS = 8
# a full step that keeps more than STRIDE_RATIO of the residual, with the
# residual above STRIDE_FLOOR tolerances, is stretched up to MAX_STRIDE times
STRIDE_RATIO = 0.1
STRIDE_FLOOR = 100.0
MAX_STRIDE = 64
DT_GROWTH = 1.2
FAST_STEP_ITERS = 3
# what run_transient counts of Newton's work; newton_iterations is linsys_count
COUNTERS = ("newton_iterations", "rejected_attempts", "line_search_trials", "stride_trials",
            "strides_taken", "backtracks_exhausted", "mirror_guesses_evaluated", "mirror_seeds_taken")


class NonConvergenceError(RuntimeError):
    """Newton failed to reach tolerance; run_transient may retry with smaller dt.

    ``progress`` says how far the run got when it gave up: its accepted steps,
    its linear solves (rejected attempts included), its last accepted time and
    its Newton ``counters``.
    """

    def __init__(self, message: str, stats: "NewtonStats", progress: dict | None = None):
        super().__init__(message)
        self.stats = stats
        self.progress = progress or {}

    def __reduce__(self):
        # whole across a process boundary: the default would call cls(message)
        return type(self), (str(self), self.stats, self.progress)


class SingularMatrixError(NonConvergenceError):
    """The linearized system factorization failed.

    The failed factorization counts as a Newton iteration of the attempt, and
    run_transient retries with a smaller dt as for any other Newton failure.
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
        if not (0 < self.newton_tol_rel < inf and 0 < self.newton_tol_abs < inf):
            raise ValueError("Newton tolerances must be positive and finite")
        if not (0 < self.dt_min <= self.dt_init <= self.dt_max < inf):
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max, all finite")
        if self.max_newton_iters < 1:
            raise ValueError("max_newton_iters must be >= 1")
        if not 0 < self.damping < 1:
            raise ValueError("damping must lie in (0, 1)")
        if not 0 < self.periods < inf:
            raise ValueError("periods must be positive and finite")


@dataclass
class NewtonStats:
    iterations: int = 0
    residual_norms: list[float] = field(default_factory=list)
    trials: int = 0  # residual evaluations along a Newton direction, strides included
    stride_trials: int = 0  # trials longer than the Newton step
    strides: int = 0  # iterations that kept a step longer than the Newton step
    backtracks_exhausted: int = 0  # iterations that took a trial that did not lower the residual
    mirror_evaluated: bool = False  # evaluated the mirror guess
    mirror_seeded: bool = False  # started from the mirror guess


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
        # floor guards families that never carried signal from roundoff blowup
        floor = max(1e-8 * self.scale.max(initial=0.0), 1e-300)
        acc = 0.0
        for i, sl in enumerate(self.slices):
            square = float(residual[sl] @ residual[sl])  # np.linalg.norm's own sum
            if not isfinite(square):  # a NaN or inf entry, or an overflow
                return inf
            b = sqrt(square) / max(self.scale[i], floor)
            acc += b * b
        return sqrt(acc)


def newton_solve(
    system_fn,
    u0: np.ndarray,
    config: SolverConfig,
    scales: BlockScales,
    guess: np.ndarray | None = None,
) -> tuple[np.ndarray, NewtonStats]:
    """Damped Newton on ``system_fn``'s residual, starting at ``u0``.

    Stops when the scaled residual drops under
    max(newton_tol_abs, newton_tol_rel * |r0|), r0 taken at ``u0``; a
    non-finite r0 raises NonConvergenceError. An unconverged ``u0`` is
    replaced by ``guess`` when the residual there is lower.

    A step's length is one search along the Newton direction du: the full
    step first. If it decreases the residual by less than 1/STRIDE_RATIO
    while the residual is above STRIDE_FLOOR tolerances, it is doubled, up
    to MAX_STRIDE times, and each doubling is kept while the residual keeps
    falling. Otherwise a step whose residual does not decrease is halved by
    ``damping`` up to MAX_BACKTRACKS times, and the last one is taken anyway
    unless its residual is not finite. Only a step that lowered the residual
    is absorbed into the scales. The state returned is lifted by the
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
    tol = max(config.newton_tol_abs, config.newton_tol_rel * r_norm)
    elimination = system.context.elimination
    if r_norm > tol and guess is not None:
        stats.mirror_evaluated = True
        system_guess = system_fn(guess)
        if scales.norm(system_guess.residual) < r_norm:
            scales.absorb(system_guess.row_scale)
            u, system, r_norm = guess, system_guess, scales.norm(system_guess.residual)
            stats.mirror_seeded = True
    stats.residual_norms.append(r_norm)

    def trial(step):
        stats.trials += 1
        system_trial = system_fn(u + step * du)
        return system_trial, scales.norm(system_trial.residual)

    while r_norm > tol:
        if stats.iterations == config.max_newton_iters:
            raise NonConvergenceError(
                f"no convergence in {config.max_newton_iters} iterations "
                f"(residual {r_norm:.3e}, tol {tol:.3e})",
                stats,
            )
        stats.iterations += 1
        try:
            lu = splu(elimination.matrix(system.dt, system.d_tan), **elimination.factor_options)
        except RuntimeError as exc:
            raise SingularMatrixError(f"factorization failed: {exc}", stats) from exc
        du = elimination.solve(lu, -system.residual)

        step = 1.0
        system_trial, r_trial = trial(step)
        if r_norm > r_trial > STRIDE_RATIO * r_norm and r_norm > STRIDE_FLOOR * tol:
            # linear convergence far from the tolerance: Newton undershoots
            # by a constant factor, so go further along du
            while 2.0 * step <= MAX_STRIDE:
                stats.stride_trials += 1
                system_long, r_long = trial(2.0 * step)
                if not r_long < r_trial:
                    break
                step, system_trial, r_trial = 2.0 * step, system_long, r_long
            stats.strides += step > 1.0
        else:
            for _ in range(MAX_BACKTRACKS):
                if r_trial < r_norm:
                    break
                step *= config.damping
                system_trial, r_trial = trial(step)
        if r_trial < r_norm:
            scales.absorb(system_trial.row_scale)
            r_trial = scales.norm(system_trial.residual)
        elif isfinite(r_trial):  # taken anyway, without loosening the stopping test
            stats.backtracks_exhausted += 1
        else:
            raise NonConvergenceError(
                f"residual not finite after {MAX_BACKTRACKS} backtracks", stats
            )
        u, system, r_norm = u + step * du, system_trial, r_trial
        stats.residual_norms.append(r_norm)
    return elimination.lift(u), stats


def mirror_guess(
    times: list[float], states: list[np.ndarray], t_new: float, period: float
) -> np.ndarray | None:
    """Newton's seed for the step ending at ``t_new``: the half-wave mirror.

    A sine drive of an odd hysteretic medium has w(t + T/2) = -w(t) in steady
    state, so the guess is -[(1 - theta) w_k + theta w_k+1], the stored states
    interpolated linearly at t_new - T/2 and negated; a combination of lifted
    states is lifted. The first current peak is at T/4, and from 0.75 T on the
    mirror reaches back past it; before that, or when a step is longer than
    T/2, there is no guess.
    """
    tau = t_new - 0.5 * period
    if t_new < 0.75 * period or tau >= times[-1]:
        return None
    k = bisect_right(times, tau) - 1
    theta = (tau - times[k]) / (times[k + 1] - times[k])
    return -((1.0 - theta) * states[k] + theta * states[k + 1])


@dataclass
class SolutionTrace:
    """Accepted-step history of one transient run: full-device quantities, every state."""

    times: np.ndarray
    p: np.ndarray
    i_target: np.ndarray
    slice_currents: np.ndarray  # (n_samples, n_slices)
    newton_iters: np.ndarray
    states: list[np.ndarray]
    linsys_count: int
    # Newton's work over every attempt, rejected ones included (COUNTERS)
    counters: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trace timestamps must be strictly increasing")


def run_transient(
    config: SolverConfig,
    formulation: AssemblyContext,
    excitation: Excitation,
) -> SolutionTrace:
    """Simulate ``config.periods`` periods from the zero state.

    Each backward-Euler step is attempted with the controller's dt, or lands
    on t_end when it would leave less than dt_min (or a roundoff sliver) to
    go. A failed Newton solve, a singular factorization included, is retried
    with half the dt, not below dt_min. The run gives up with a
    NonConvergenceError carrying its progress when a failed attempt is at
    dt_min, or lands on t_end and is shorter than 2 dt_min: no split of it
    keeps both parts at least dt_min long. ``linsys_count`` counts the
    linear solves of every attempt, rejected ones included, and ``counters``
    the rest of Newton's work (COUNTERS). From 0.75 T on, each attempt offers
    Newton the ``mirror_guess`` of the stored states.
    """
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
    states = [w.copy()]
    counters = dict.fromkeys(COUNTERS, 0)

    def tally(stats: NewtonStats) -> None:
        counters["newton_iterations"] += stats.iterations
        counters["line_search_trials"] += stats.trials
        counters["stride_trials"] += stats.stride_trials
        counters["strides_taken"] += stats.strides
        counters["backtracks_exhausted"] += stats.backtracks_exhausted
        counters["mirror_guesses_evaluated"] += stats.mirror_evaluated
        counters["mirror_seeds_taken"] += stats.mirror_seeded

    # dt control: grow by DT_GROWTH after a step of at most FAST_STEP_ITERS
    # Newton iterations, up to dt_max; after a halving, restart from the dt
    # that converged. The landing on t_end does not touch the controller.
    dt_ctrl = config.dt_init

    while t < t_end:
        dt = min(dt_ctrl, t_end - t)
        if t_end - (t + dt) < max(config.dt_min, 1e-12 * t_end):
            dt = t_end - t
        # jc lagged at the step's start: every attempt and the dissipation share it
        jc = formulation.jc_effective(w)
        while True:  # attempts of this step, each with half the dt of the last

            def system_fn(u, _w=w, _jc=jc, _dt=dt, _t=t + dt):
                return formulation.assemble(u, _w, _jc, _dt, _t, excitation)

            guess = mirror_guess(times, states, t + dt, excitation.period)
            try:
                w_new, stats = newton_solve(system_fn, w, config, scales, guess)
                break
            except NonConvergenceError as exc:
                tally(exc.stats)
                counters["rejected_attempts"] += 1
                landing = dt == t_end - t and dt < 2 * config.dt_min
                if landing or dt <= config.dt_min * (1 + 1e-12):
                    raise NonConvergenceError(
                        f"dt underflow at t={t:.6e}: dt={dt:.3e} cannot be split into "
                        f"steps of at least dt_min={config.dt_min:.3e}; {exc}; residual history "
                        f"{[f'{r:.3e}' for r in exc.stats.residual_norms]}",
                        exc.stats,
                        dict(accepted_steps=len(times) - 1,
                             linsys_count=counters["newton_iterations"],
                             last_accepted_time_s=t, counters=dict(counters)),
                    ) from exc
                log.info("newton failed at t=%.6e with dt=%.3e, retrying", t + dt, dt)
                dt_ctrl = dt = max(0.5 * dt, config.dt_min)
        tally(stats)
        if stats.iterations <= FAST_STEP_ITERS:
            dt_ctrl = min(dt_ctrl * DT_GROWTH, config.dt_max)
        # t + (t_end - t) can round off t_end; the landing step ends on it
        t_new = t_end if dt == t_end - t else t + dt

        times.append(t_new)
        p.append(formulation.mesh.symmetry_factor * formulation.dissipation(w_new, jc))
        i_target.append(excitation.current(t_new))
        slices.append(formulation.slice_currents(w_new))
        iters.append(stats.iterations)
        states.append(w_new.copy())
        log.info("step %d: t=%.6e dt=%.3e newton=%d residual=%.3e",
                 len(times) - 1, t_new, t_new - t, stats.iterations, stats.residual_norms[-1])
        w, t = w_new, t_new

    wall = time.perf_counter() - t0
    linsys = counters["newton_iterations"]
    log.info("run complete: %d steps, %d linear solves, %.2f s wall", len(times) - 1, linsys, wall)
    return SolutionTrace(times=np.array(times), p=np.array(p), i_target=np.array(i_target),
                         slice_currents=np.array(slices), newton_iters=np.array(iters),
                         states=states, linsys_count=linsys, counters=counters)
