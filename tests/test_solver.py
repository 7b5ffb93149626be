"""Transient driver: Newton loop, adaptive stepping, trace bookkeeping."""

import numpy as np
import pytest
import scipy.sparse as sp

from foilwind.formulations import AssembledSystem, Excitation
from foilwind.postprocess import LossSeries, mean_losses
from foilwind.solver import (
    BlockScales,
    NonConvergenceError,
    SolutionTrace,
    SolverConfig,
    newton_solve,
    run_transient,
    step,
)
from foilwind.variants import FormulationVariant

from helpers import small_context


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(newton_tol_rel=0.0)
    with pytest.raises(ValueError):
        SolverConfig(newton_tol_abs=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(dt_min=1e-3, dt_init=1e-4)
    with pytest.raises(ValueError):
        SolverConfig(dt_init=1e-3, dt_max=1e-4)
    with pytest.raises(ValueError):
        SolverConfig(max_newton_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(damping=1.0)
    with pytest.raises(ValueError):
        SolverConfig(periods=0.0)


def test_trace_requires_increasing_times():
    with pytest.raises(ValueError, match="increasing"):
        SolutionTrace(
            times=np.array([0.0, 1.0, 1.0]),
            p=np.zeros(3),
            i_target=np.zeros(3),
            slice_currents=np.zeros((3, 1)),
            newton_iters=np.zeros(3, dtype=int),
            dt=np.full(3, 1e-5),
            states=None,
            linsys_count=0,
            wall_time=0.0,
            excitation=Excitation(1.0, 50.0),
            variant="x",
            n_dofs=1,
        )


# -- newton loop -----------------------------------------------------------------


def test_already_converged_state_takes_no_iterations():
    ctx = small_context(FormulationVariant.FCM_T_OMEGA, n_turns=2)
    exc = Excitation(amplitude=9.6, frequency=50.0)
    w0 = np.zeros(ctx.layout.n_dofs)

    def system_fn(u):
        return ctx.assemble(u, w0, 1e-5, 0.0, exc)

    scales = BlockScales(ctx.layout.n_field_dofs)
    u, stats = newton_solve(system_fn, w0, SolverConfig(), scales)
    assert stats.converged
    assert stats.iterations == 0
    assert np.all(u == w0)


def test_restarting_from_a_converged_step_is_cheap():
    ctx = small_context(FormulationVariant.FCM_H_PHI, n_turns=2)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    trace = run_transient(SolverConfig(periods=0.2), ctx, exc, store_states=True)
    dt = trace.times[-1] - trace.times[-2]
    t = trace.times[-1]
    w_prev = trace.states[-2]

    def system_fn(u):
        return ctx.assemble(u, w_prev, dt, t, exc)

    scales = BlockScales(ctx.layout.n_field_dofs)
    u, stats = newton_solve(system_fn, trace.states[-1], SolverConfig(), scales)
    assert stats.converged
    assert stats.iterations <= 1


def test_newton_residual_history_is_monotone():
    ctx = small_context(FormulationVariant.FCM_H_PHI, n_turns=2)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    trace = run_transient(SolverConfig(periods=0.26), ctx, exc, store_states=True)
    # redo the last accepted step from its starting point
    dt = trace.times[-1] - trace.times[-2]
    w_prev = trace.states[-2]

    def system_fn(u):
        return ctx.assemble(u, w_prev, dt, trace.times[-1], exc)

    scales = BlockScales(ctx.layout.n_field_dofs)
    u, stats = newton_solve(system_fn, w_prev, SolverConfig(), scales)
    assert stats.converged
    r = stats.residual_norms
    assert all(b < a for a, b in zip(r, r[1:]))
    assert np.allclose(u, trace.states[-1], rtol=1e-6, atol=1e-12)


def _stuck_system(n=4):
    """Residual that no Newton step can reduce (constant, nonzero)."""
    jac = sp.identity(n, format="csc")
    r = np.ones(n)

    def system_fn(u):
        return AssembledSystem(
            residual=r.copy(),
            jacobian=jac,
            row_scale=np.ones(n),
        )

    return system_fn


def test_nonconvergence_raises_with_stats():
    cfg = SolverConfig(max_newton_iters=3)
    with pytest.raises(NonConvergenceError) as err:
        newton_solve(_stuck_system(), np.zeros(4), cfg, BlockScales(4))
    assert err.value.stats is not None
    assert err.value.stats.iterations == 3
    assert not err.value.stats.converged
    # every backtrack was exhausted, the trial accepted anyway
    assert len(err.value.stats.residual_norms) == 4


def test_step_halves_dt_then_gives_up_at_dt_min():
    attempted = []

    class StuckFormulation:
        def assemble(self, u, u_prev, dt, t, excitation):
            attempted.append(dt)
            return _stuck_system(u.size)(u)

    cfg = SolverConfig(max_newton_iters=2, dt_init=1e-5, dt_min=1e-5, dt_max=8e-5)
    w = np.zeros(4)
    with pytest.raises(NonConvergenceError, match="dt underflow"):
        step(StuckFormulation(), w, 0.0, 8e-5, Excitation(1.0, 50.0), cfg, BlockScales(4))
    assert sorted(set(attempted), reverse=True) == [8e-5, 4e-5, 2e-5, 1e-5]


def test_block_scales_two_unit_families():
    scales = BlockScales(8)
    # field rows form one family, voltage rows the other
    assert scales.slices == (slice(0, 8), slice(8, None))
    scales.absorb(np.concatenate([np.full(8, 3.0), np.full(2, 7.0)]))
    r = np.concatenate([np.full(8, 3.0), np.full(2, 7.0)])
    n1 = scales.norm(r)
    scales.absorb(np.concatenate([np.full(8, 1.0), np.full(2, 1.0)]))  # smaller: no effect
    assert scales.norm(r) == n1
    assert scales.norm(np.zeros(10)) == 0.0
    assert scales.norm(np.full(10, np.nan)) == np.inf


# -- transient runs ----------------------------------------------------------------


def test_zero_drive_stays_at_zero_state():
    ctx = small_context(FormulationVariant.FCM_T_OMEGA, n_turns=2)
    exc = Excitation(amplitude=0.0, frequency=50.0)
    trace = run_transient(SolverConfig(periods=0.1), ctx, exc, store_states=True)
    assert np.all(trace.p == 0.0)
    assert all(np.all(s == 0.0) for s in trace.states)
    assert np.all(trace.newton_iters <= 1)


def test_trace_covers_requested_horizon():
    ctx = small_context(FormulationVariant.FCM_T_OMEGA, n_turns=2)
    exc = Excitation(amplitude=9.6, frequency=50.0)
    cfg = SolverConfig(periods=0.25)
    trace = run_transient(cfg, ctx, exc, store_states=False)
    assert trace.times[0] == 0.0  # initial sample included
    assert trace.times[-1] == pytest.approx(0.25 * exc.period, rel=1e-12)
    assert np.all(np.diff(trace.times) > 0)
    assert trace.states is None
    assert trace.n_dofs == ctx.layout.n_dofs
    assert trace.variant == ctx.layout.variant.value
    # i_target samples the drive exactly
    assert np.allclose(trace.i_target, 9.6 * np.sin(2 * np.pi * 50.0 * trace.times))


def test_fast_steps_grow_dt_to_the_cap():
    ctx = small_context(FormulationVariant.FCM_T_OMEGA, n_turns=2)
    exc = Excitation(amplitude=9.6, frequency=50.0)
    cfg = SolverConfig(periods=0.3, dt_init=1e-5, dt_max=1e-4)
    trace = run_transient(cfg, ctx, exc, store_states=False)
    assert trace.dt.max() == pytest.approx(1e-4)
    # growth is capped at 20% per step
    applied = trace.dt[1:]
    assert np.all(applied[1:] <= applied[:-1] * 1.2 * (1 + 1e-9))


def test_dt_controller_restarts_from_the_converged_dt_after_a_halving():
    ctx = small_context(FormulationVariant.FCM_T_OMEGA, n_turns=2)
    exc = Excitation(amplitude=9.6, frequency=50.0)
    cfg = SolverConfig(periods=0.25, dt_init=1e-5, dt_max=1e-4)
    assemble = ctx.assemble
    attempts = []  # (w_prev, dt) of every Newton attempt, in order

    def flaky_assemble(w, w_prev, dt, t, excitation):
        system = assemble(w, w_prev, dt, t, excitation)
        if np.array_equal(w, w_prev):
            attempts.append((w_prev, dt))
        elif 1e-3 <= t <= 2e-3 and dt > 2e-5:
            # every trial point is non-finite: the attempt fails after one
            # Newton iteration, and the step retries with half the dt
            system.residual = np.full_like(system.residual, np.nan)
        return system

    ctx.assemble = flaky_assemble
    trace = run_transient(cfg, ctx, exc, store_states=False)

    # an attempt was rejected when the next one starts from the same state
    rejected = [a[0] is b[0] for a, b in zip(attempts, attempts[1:])] + [False]
    accepted = [i for i, r in enumerate(rejected) if not r]
    assert len(accepted) == len(trace.times) - 1
    t_end = cfg.periods * exc.period
    halvings = 0
    for k, i in enumerate(accepted[:-1], start=1):
        if i == 0 or not rejected[i - 1]:
            continue
        halvings += 1
        dt_ok = attempts[i][1]
        grown = min(dt_ok * 1.2, cfg.dt_max) if trace.newton_iters[k] <= 3 else dt_ok
        assert attempts[i + 1][1] == min(grown, t_end - trace.times[k])
    assert halvings >= 2
    # each rejected attempt factored once before its trials all failed
    assert trace.linsys_count == int(trace.newton_iters.sum()) + sum(rejected)


def test_linear_solve_audit():
    ctx = small_context(FormulationVariant.FCM_H_PHI, n_turns=2)
    exc = Excitation(amplitude=9.6, frequency=50.0)
    trace = run_transient(SolverConfig(periods=0.2), ctx, exc, store_states=False)
    # no rejected steps in this benign run: every factorization is accounted
    # for by an accepted Newton iteration
    assert trace.linsys_count == int(trace.newton_iters.sum())


def test_runs_are_deterministic():
    ctx = small_context(FormulationVariant.FCM_H_FULL, n_turns=2)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    cfg = SolverConfig(periods=0.2)
    a = run_transient(cfg, ctx, exc, store_states=False)
    b = run_transient(cfg, ctx, exc, store_states=False)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.p, b.p)
    assert np.array_equal(a.slice_currents, b.slice_currents)


def test_losses_nonnegative_through_the_peak():
    ctx = small_context(FormulationVariant.FCM_H_PHI, n_turns=2)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    trace = run_transient(SolverConfig(periods=0.5), ctx, exc, store_states=False)
    assert np.all(trace.p >= 0.0)
    assert trace.p.max() > 0.0


def test_mean_losses_insensitive_to_dt_cap():
    ctx = small_context(FormulationVariant.FCM_T_OMEGA, n_turns=2)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    means = []
    for dt_max in (1e-4, 5e-5):  # T/200 and T/400
        cfg = SolverConfig(periods=1.0, dt_init=1e-5, dt_max=dt_max)
        trace = run_transient(cfg, ctx, exc, store_states=False)
        series = LossSeries(trace.times, trace.p, exc.frequency)
        means.append(mean_losses(series))
    assert means[1] == pytest.approx(means[0], rel=0.01)
