"""Transient driver: Newton loop, adaptive stepping, trace bookkeeping."""

import pickle
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foilwind import formulations, solver
from foilwind.config import config_from_preset
from foilwind.formulations import AssembledSystem, Excitation
from foilwind.postprocess import LossSeries, mean_losses
from foilwind.runner import build_mesh
from foilwind.materials import JcConstant, JcKim
from foilwind.solver import (
    BlockScales,
    NewtonStats,
    NonConvergenceError,
    SingularMatrixError,
    SolutionTrace,
    SolverConfig,
    newton_solve,
    run_transient,
)
from foilwind.spaces import build_dof_layout
from foilwind.variants import FormulationVariant

from helpers import pancake_materials, small_context


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
            states=[],
            linsys_count=0,
        )


# -- newton loop -----------------------------------------------------------------


def test_already_converged_state_takes_no_iterations():
    ctx = small_context(FormulationVariant.FCM_T_OMEGA, n_turns=2)
    exc = Excitation(amplitude=9.6, frequency=50.0)
    w0 = np.zeros(ctx.layout.n_dofs)

    def system_fn(u):
        return ctx.assemble(u, w0, ctx.jc_effective(w0), 1e-5, 0.0, exc)

    scales = BlockScales(ctx.layout.n_field_dofs)
    u, stats = newton_solve(system_fn, w0, SolverConfig(), scales)
    assert stats.iterations == 0
    assert np.all(u == w0)


def test_restarting_from_a_converged_step_is_cheap():
    ctx = small_context(FormulationVariant.FCM_H_PHI, n_turns=2)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    trace = run_transient(SolverConfig(periods=0.2), ctx, exc)
    dt = trace.times[-1] - trace.times[-2]
    t = trace.times[-1]
    w_prev = trace.states[-2]
    jc = ctx.jc_effective(w_prev)

    def system_fn(u):
        return ctx.assemble(u, w_prev, jc, dt, t, exc)

    scales = BlockScales(ctx.layout.n_field_dofs)
    u, stats = newton_solve(system_fn, trace.states[-1], SolverConfig(), scales)
    assert stats.iterations <= 1


def test_newton_residual_history_is_monotone():
    ctx = small_context(FormulationVariant.FCM_H_PHI, n_turns=2)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    trace = run_transient(SolverConfig(periods=0.26), ctx, exc)
    # redo the last accepted step from its starting point
    dt = trace.times[-1] - trace.times[-2]
    w_prev = trace.states[-2]
    jc = ctx.jc_effective(w_prev)

    def system_fn(u):
        return ctx.assemble(u, w_prev, jc, dt, trace.times[-1], exc)

    scales = BlockScales(ctx.layout.n_field_dofs)
    u, stats = newton_solve(system_fn, w_prev, SolverConfig(), scales)
    r = stats.residual_norms
    assert all(b < a for a, b in zip(r, r[1:]))
    assert np.allclose(u, trace.states[-1], rtol=1e-6, atol=1e-12)


class _IdentityContext:
    """Assembly context stand-in that is its own elimination of no unknowns.

    Its matrix is the identity; above ``dt_ok`` the last diagonal entry is
    zero, so that it is singular. With no unknowns eliminated, a lift changes
    nothing.
    """

    factor_options = {}

    def __init__(self, n, dt_ok=np.inf):
        self.n = n
        self.dt_ok = dt_ok
        self.elimination = self

    def matrix(self, dt, d_tan):
        diag = np.ones(self.n)
        if dt > self.dt_ok:
            diag[-1] = 0.0
        return sp.diags(diag, format="csc")

    def solve(self, lu, b):
        return lu.solve(b)

    def lift(self, w):
        return w


def _constant_system(r):
    """System whose residual is ``r`` at every point (identity tangent)."""

    def system_fn(u):
        return AssembledSystem(
            residual=r.copy(),
            row_scale=np.ones(r.size),
            dt=1.0,
            d_tan=np.zeros(0),
            context=_IdentityContext(r.size),
        )

    return system_fn


def _stuck_system(n=4):
    """Residual that no Newton step can reduce (constant, nonzero)."""
    return _constant_system(np.ones(n))


def test_nonconvergence_raises_with_stats():
    cfg = SolverConfig(max_newton_iters=3)
    with pytest.raises(NonConvergenceError) as err:
        newton_solve(_stuck_system(), np.zeros(4), cfg, BlockScales(4))
    assert err.value.stats is not None
    assert err.value.stats.iterations == 3
    # every backtrack was exhausted, the trial accepted anyway
    assert len(err.value.stats.residual_norms) == 4


def test_nonfinite_start_residual_raises_instead_of_converging():
    scales = BlockScales(4)
    with pytest.raises(NonConvergenceError) as err:
        newton_solve(_constant_system(np.full(4, np.nan)), np.zeros(4), SolverConfig(), scales)
    assert err.value.stats is not None
    assert err.value.stats.iterations == 0
    assert np.all(scales.scale == 0.0)  # the stopping test of later attempts is untouched


def _scripted_system(residual_at, scale_at=lambda step: 1.0):
    """One unknown with residual ``residual_at(step)`` at u = -step, identity tangent.

    From u = 0, where the residual must be 1, the Newton direction is -1, so
    each evaluation reads off the step length of its trial point exactly;
    ``steps`` lists them, the start point's 0 first. The scaled norm of the
    residual is |residual_at(step)| while the scale stays the start point's 1.
    """
    steps = []
    context = _IdentityContext(1)

    def system_fn(u):
        step = -u[0]
        steps.append(step)
        return AssembledSystem(
            residual=np.array([residual_at(step)]),
            row_scale=np.array([scale_at(step)]),
            dt=1.0,
            d_tan=np.zeros(0),
            context=context,
        )

    return system_fn, steps


def _one_newton_iteration(system_fn):
    """Run newton_solve from u = 0 for one iteration that does not converge."""
    scales = BlockScales(1)
    with pytest.raises(NonConvergenceError) as err:
        newton_solve(system_fn, np.zeros(1), SolverConfig(max_newton_iters=1), scales)
    return err.value, scales


HALVINGS = [0.5**k for k in range(solver.MAX_BACKTRACKS + 1)]


def test_a_damped_step_halves_until_the_residual_falls():
    # the full step and its first two halvings raise the residual
    system_fn, steps = _scripted_system(lambda s: 1.0 if s == 0 else (2.0 if s > 0.2 else 0.95))
    err, _ = _one_newton_iteration(system_fn)
    assert steps == [0.0] + HALVINGS[:4]
    assert err.stats.residual_norms == [1.0, 0.95]
    assert err.stats.trials == 4 and err.stats.strides == err.stats.stride_trials == 0
    assert err.stats.backtracks_exhausted == 0


def test_a_step_that_never_lowers_the_residual_is_taken_at_the_last_halving():
    # every trial raises the residual, by its step length, and shows larger row scales
    system_fn, steps = _scripted_system(lambda s: 1.0 + s, scale_at=lambda s: 1.0 + 100.0 * s)
    err, scales = _one_newton_iteration(system_fn)
    assert steps == [0.0] + HALVINGS
    assert err.stats.residual_norms == [1.0, 1.0 + HALVINGS[-1]]
    assert err.stats.trials == solver.MAX_BACKTRACKS + 1
    assert err.stats.backtracks_exhausted == 1
    # none of the trials lowered the residual, so none loosened the stopping test
    assert np.array_equal(scales.scale, [1.0, 0.0])


def test_a_nonfinite_residual_after_the_last_halving_raises():
    system_fn, steps = _scripted_system(lambda s: 1.0 if s == 0 else np.nan)
    err, scales = _one_newton_iteration(system_fn)
    assert "not finite" in str(err)
    assert steps == [0.0] + HALVINGS
    assert err.stats.iterations == 1 and err.stats.residual_norms == [1.0]
    assert np.array_equal(scales.scale, [1.0, 0.0])


def test_a_stretched_step_doubles_and_keeps_the_last_decrease():
    # the full step keeps half the residual; the doubled steps lower it
    # further up to 4, and 8 raises it again
    residual = {0.0: 1.0, 1.0: 0.5, 2.0: 0.4, 4.0: 0.3, 8.0: 0.35}
    scale = {1.0: 5.0, 4.0: 2.0}  # the kept trial's scales, not the full step's, are absorbed
    system_fn, steps = _scripted_system(residual.get, scale_at=lambda s: scale.get(s, 1.0))
    err, scales = _one_newton_iteration(system_fn)
    assert steps == [0.0, 1.0, 2.0, 4.0, 8.0]
    assert np.array_equal(scales.scale, [2.0, 0.0])
    assert err.stats.residual_norms == [1.0, 0.3 / 2.0]
    assert err.stats.trials == 4 and err.stats.stride_trials == 3 and err.stats.strides == 1
    assert err.stats.backtracks_exhausted == 0


def test_a_damped_step_is_never_stretched():
    # the half step keeps 90 % of the residual, far above the tolerance
    system_fn, steps = _scripted_system(lambda s: {0.0: 1.0, 0.5: 0.9}.get(s, 2.0))
    err, _ = _one_newton_iteration(system_fn)
    assert steps == [0.0, 1.0, 0.5]
    assert err.stats.residual_norms == [1.0, 0.9]
    assert err.stats.strides == err.stats.stride_trials == 0


class _DiagonalContext(_IdentityContext):
    """Elimination of no unknowns whose matrix is diag(d_tan)."""

    def matrix(self, dt, d_tan):
        return sp.diags(d_tan, format="csc")


def _multiple_root_system(m=25):
    """Residual u**m entrywise: a root of multiplicity m at u = 0, where a
    Newton step keeps (1 - 1/m)**m, about 0.36, of the residual."""
    context = _DiagonalContext(3)

    def system_fn(u):
        return AssembledSystem(
            residual=u**m,
            row_scale=np.ones(u.size),
            dt=1.0,
            d_tan=m * u ** (m - 1),
            context=context,
        )

    return system_fn


def test_stride_recovers_linear_convergence_at_a_multiple_root(monkeypatch):
    cfg = SolverConfig(max_newton_iters=60)
    u0 = np.array([1.0, 0.9, 0.8])
    _, stats = newton_solve(_multiple_root_system(), u0, cfg, BlockScales(3))
    r = stats.residual_norms
    assert all(b < a for a, b in zip(r, r[1:]))
    assert r[-1] <= cfg.newton_tol_rel * r[0]
    # every full step is stretched, 32 times its length: u(1 - 32/m) keeps
    # 0.28**25, about 1e-14, of the residual
    assert stats.strides == stats.iterations == 1
    assert stats.trials == 7  # the full step, then 2, 4, ... 32 kept and 64 refused
    assert stats.stride_trials == 6 and stats.backtracks_exhausted == 0

    monkeypatch.setattr(solver, "MAX_STRIDE", 1)
    _, plain = newton_solve(_multiple_root_system(), u0, cfg, BlockScales(3))
    assert plain.strides == 0 and plain.trials == plain.iterations
    p = plain.residual_norms
    assert all(b < a for a, b in zip(p, p[1:]))
    # Newton alone contracts by about e^-1 per iteration
    assert p[-1] / p[-2] == pytest.approx((1 - 1 / 25) ** 25, rel=1e-6)
    assert plain.iterations >= 20


def test_stride_leaves_quadratic_convergence_alone(monkeypatch):
    # gate 6's linear limit: with n = 1 every full step lands on the answer
    mats = pancake_materials(n_exponent=1.0, jc_model=JcConstant(1e6))
    exc = Excitation(amplitude=96.0, frequency=50.0)
    cfg = SolverConfig(periods=0.3)
    ctx = small_context(FormulationVariant.FCM_T_OMEGA, n_turns=2, materials=mats)
    strided = run_transient(cfg, ctx, exc)
    assert strided.counters["strides_taken"] == 0
    monkeypatch.setattr(solver, "MAX_STRIDE", 1)
    plain = run_transient(cfg, ctx, exc)
    assert np.array_equal(plain.times, strided.times)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(plain.states, strided.states))
    assert plain.counters == strided.counters


def _counters(**counts):
    return {**dict.fromkeys(solver.COUNTERS, 0), **counts}


class _Formulation:
    """What run_transient reads of a formulation besides ``assemble``, for n unknowns."""

    def __init__(self, n):
        self.layout = SimpleNamespace(n_dofs=n, n_field_dofs=n)
        self.elimination = None
        self.mesh = SimpleNamespace(symmetry_factor=1.0)

    def slice_currents(self, w):
        return np.zeros(1)

    def jc_effective(self, w):
        return np.zeros(0)

    def dissipation(self, w, jc):
        return 0.0


def test_step_halves_dt_then_gives_up_at_dt_min():
    attempted = []

    class StuckFormulation(_Formulation):
        def assemble(self, u, u_prev, jc, dt, t, excitation):
            attempted.append(dt)
            return _stuck_system(u.size)(u)

    # t_end = 1e-4: the first attempt, 8e-5, leaves more than dt_min to go
    cfg = SolverConfig(max_newton_iters=2, dt_init=8e-5, dt_min=1e-5, dt_max=8e-5, periods=0.005)
    exc = Excitation(1.0, 50.0)
    with pytest.raises(NonConvergenceError, match="dt underflow") as err:
        run_transient(cfg, StuckFormulation(4), exc)
    assert sorted(set(attempted), reverse=True) == [8e-5, 4e-5, 2e-5, 1e-5]
    # four attempts of two iterations each, none accepted, every iteration
    # through all its backtracks
    assert err.value.progress == dict(
        accepted_steps=0, linsys_count=8, last_accepted_time_s=0.0,
        counters=_counters(newton_iterations=8, rejected_attempts=4, line_search_trials=72,
                           backtracks_exhausted=8),
    )

    # a landing step shorter than 2 dt_min has no split into two steps of at
    # least dt_min, so it fails without a retry
    attempted.clear()
    cfg = replace(cfg, dt_init=1e-5, periods=7.5e-4)
    with pytest.raises(NonConvergenceError, match="dt underflow") as err:
        run_transient(cfg, StuckFormulation(4), exc)
    assert set(attempted) == {cfg.periods * exc.period}
    assert 1e-5 < attempted[0] < 2e-5
    assert err.value.progress == dict(
        accepted_steps=0, linsys_count=2, last_accepted_time_s=0.0,
        counters=_counters(newton_iterations=2, rejected_attempts=1, line_search_trials=18,
                           backtracks_exhausted=2),
    )


class _LinearFormulation(_Formulation):
    """Residual u - 1 with an identity tangent that is singular above ``dt_ok``."""

    def __init__(self, n, dt_ok):
        super().__init__(n)
        self.context = _IdentityContext(n, dt_ok)
        self.attempted = []

    def assemble(self, u, u_prev, jc, dt, t, excitation):
        if np.array_equal(u, u_prev):
            self.attempted.append(dt)
        return AssembledSystem(
            residual=u - 1.0,
            row_scale=np.abs(u) + 1.0,
            dt=dt,
            d_tan=np.zeros(0),
            context=self.context,
        )


def test_singular_factorization_counts_as_an_iteration():
    form = _LinearFormulation(4, dt_ok=1e-5)
    w = np.zeros(4)
    with pytest.raises(SingularMatrixError) as err:
        newton_solve(
            lambda u: form.assemble(u, w, None, 2e-5, 0.0, None), w, SolverConfig(), BlockScales(4)
        )
    assert isinstance(err.value, NonConvergenceError)
    assert err.value.stats.iterations == 1


def test_step_retries_a_singular_factorization_with_half_the_dt(monkeypatch):
    calls = []
    splu = solver.splu
    monkeypatch.setattr(solver, "splu", lambda *a, **kw: calls.append(a) or splu(*a, **kw))
    form = _LinearFormulation(4, dt_ok=2e-5)
    # t_end = 1e-4: the first attempt, 8e-5, leaves more than dt_min to go
    cfg = SolverConfig(dt_init=8e-5, dt_min=1e-5, dt_max=8e-5, periods=0.005)
    exc = Excitation(1.0, 50.0)
    trace = run_transient(cfg, form, exc)
    assert form.attempted[:3] == [8e-5, 4e-5, 2e-5]
    assert trace.times[1] == 2e-5
    assert trace.newton_iters[1] == 1
    assert np.allclose(trace.states[1], 1.0)
    # the later steps start converged: no iteration, no retry
    assert len(form.attempted) == 2 + len(trace.times) - 1
    assert np.all(trace.newton_iters[2:] == 0)
    # one failed factorization per rejected attempt, one for the accepted one
    assert trace.linsys_count == len(calls) == 3

    # at dt_min the run gives up and names the failed factorization
    calls.clear()
    form = _LinearFormulation(4, dt_ok=1e-6)
    cfg = replace(cfg, dt_init=2e-5)
    with pytest.raises(NonConvergenceError, match="dt underflow.*factorization failed") as err:
        run_transient(cfg, form, exc)
    assert isinstance(err.value.__cause__, SingularMatrixError)
    assert form.attempted == [2e-5, 1e-5]
    assert err.value.progress == dict(
        accepted_steps=0, linsys_count=len(calls), last_accepted_time_s=0.0,
        counters=_counters(newton_iterations=2, rejected_attempts=2),
    )
    assert len(calls) == 2


def test_nonconvergence_error_pickles_whole():
    stats = NewtonStats(iterations=2, residual_norms=[1.0, 0.5, 0.25])
    progress = dict(accepted_steps=3, linsys_count=7, last_accepted_time_s=1e-4)
    for cls in (NonConvergenceError, SingularMatrixError):
        err = cls("dt underflow at t=1.0", stats, progress)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is cls
        assert str(back) == str(err) == "dt underflow at t=1.0"
        assert back.stats == stats
        assert back.progress == progress


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


def test_block_scales_norm_is_the_scaled_two_norm_bit_for_bit():
    rng = np.random.default_rng(29)
    for _ in range(400):
        n_field = int(rng.integers(0, 40))
        size = n_field + int(rng.integers(1, 6))
        scales = BlockScales(n_field)
        scales.absorb(np.abs(rng.standard_normal(size)) * 10.0 ** rng.uniform(-20, 20))
        r = rng.standard_normal(size) * 10.0 ** rng.uniform(-20, 20, size)
        # each block's np.linalg.norm over its scale, squared and summed in block order
        floor = max(1e-8 * scales.scale.max(initial=0.0), 1e-300)
        acc = 0.0
        for sl, scale in zip(scales.slices, scales.scale):
            b = float(np.linalg.norm(r[sl])) / max(scale, floor)
            acc += b * b
        assert scales.norm(r) == float(np.sqrt(acc))
        # a NaN or inf entry in either block gives inf
        for bad in (np.nan, np.inf, -np.inf):
            hit = r.copy()
            hit[rng.integers(size)] = bad
            assert scales.norm(hit) == np.inf


# -- transient runs ----------------------------------------------------------------


def test_zero_drive_stays_at_zero_state():
    ctx = small_context(FormulationVariant.FCM_T_OMEGA, n_turns=2)
    exc = Excitation(amplitude=0.0, frequency=50.0)
    trace = run_transient(SolverConfig(periods=0.1), ctx, exc)
    assert np.all(trace.p == 0.0)
    assert all(np.all(s == 0.0) for s in trace.states)
    assert np.all(trace.newton_iters <= 1)


def test_trace_covers_requested_horizon():
    ctx = small_context(FormulationVariant.FCM_T_OMEGA, n_turns=2)
    exc = Excitation(amplitude=9.6, frequency=50.0)
    cfg = SolverConfig(periods=0.25)
    trace = run_transient(cfg, ctx, exc)
    assert trace.times[0] == 0.0  # initial sample included
    assert trace.times[-1] == pytest.approx(0.25 * exc.period, rel=1e-12)
    assert np.all(np.diff(trace.times) > 0)
    assert len(trace.states) == len(trace.times)
    # i_target samples the drive exactly
    assert np.allclose(trace.i_target, 9.6 * np.sin(2 * np.pi * 50.0 * trace.times))


def test_fast_steps_grow_dt_to_the_cap():
    ctx = small_context(FormulationVariant.FCM_T_OMEGA, n_turns=2)
    exc = Excitation(amplitude=9.6, frequency=50.0)
    cfg = SolverConfig(periods=0.3, dt_init=1e-5, dt_max=1e-4)
    trace = run_transient(cfg, ctx, exc)
    applied = np.diff(trace.times)
    assert applied.max() == pytest.approx(1e-4)
    # growth is capped at 20% per step
    assert np.all(applied[1:] <= applied[:-1] * 1.2 * (1 + 1e-9))


def test_dt_controller_restarts_from_the_converged_dt_after_a_halving():
    ctx = small_context(FormulationVariant.FCM_T_OMEGA, n_turns=2)
    exc = Excitation(amplitude=9.6, frequency=50.0)
    cfg = SolverConfig(periods=0.25, dt_init=1e-5, dt_max=1e-4)
    assemble = ctx.assemble
    attempts = []  # (w_prev, dt) of every Newton attempt, in order

    def flaky_assemble(w, w_prev, jc, dt, t, excitation):
        system = assemble(w, w_prev, jc, dt, t, excitation)
        if np.array_equal(w, w_prev):
            attempts.append((w_prev, dt))
        elif 1e-3 <= t <= 2e-3 and dt > 2e-5:
            # every trial point is non-finite: the attempt fails after one
            # Newton iteration, and the step retries with half the dt
            system.residual = np.full_like(system.residual, np.nan)
        return system

    ctx.assemble = flaky_assemble
    trace = run_transient(cfg, ctx, exc)

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


@settings(max_examples=10, deadline=None)
@given(
    periods=st.floats(0.005, 0.05),
    dt_init=st.floats(2e-6, 1e-4),
    growth=st.floats(1.0, 8.0),
    halvings=st.integers(0, 4),
    max_newton_iters=st.integers(3, 25),
)
# fixed steps of 2e-6 s sum to 1e-4 s a roundoff short of t_end
@example(periods=0.005, dt_init=2e-6, growth=1.0, halvings=0, max_newton_iters=3)
# fixed steps of 3e-5 s would leave 1e-5 s, a third of dt_min, for the last one
@example(periods=0.005, dt_init=3e-5, growth=1.0, halvings=0, max_newton_iters=25)
# fixed steps of dt_min leave 1.3 dt_min for the landing step, whose Newton
# solve fails: halving it would leave a last step of 0.3 dt_min
@example(
    periods=0.046875, dt_init=6.550363790681805e-05, growth=1.0, halvings=0, max_newton_iters=3
)
def test_stepper_properties(periods, dt_init, growth, halvings, max_newton_iters):
    # a low Newton iteration cap makes some attempts fail and halve the dt
    cfg = SolverConfig(
        periods=periods,
        dt_init=dt_init,
        dt_min=dt_init / 2**halvings,
        dt_max=dt_init * growth,
        max_newton_iters=max_newton_iters,
    )
    exc = Excitation(amplitude=96.0, frequency=50.0)
    ctx = small_context(FormulationVariant.FCM_T_OMEGA, n_turns=2)
    t_end = cfg.periods * exc.period
    rejected = []  # Newton iterations, end time and dt of every rejected attempt
    last = {}  # end time and dt of the latest assembly
    newton_solve, assemble = solver.newton_solve, ctx.assemble

    def recorded(u, w, jc, dt, t, excitation):
        last.update(t=t, dt=dt)
        return assemble(u, w, jc, dt, t, excitation)

    def counted(*args):
        try:
            return newton_solve(*args)
        except NonConvergenceError as err:
            rejected.append((err.stats.iterations, last["t"], last["dt"]))
            raise

    ctx.assemble = recorded

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "newton_solve", counted)
        try:
            trace = run_transient(cfg, ctx, exc)
        except NonConvergenceError as err:
            # only a failed landing step shorter than 2 dt_min may end the run
            _, t_new, dt = rejected[-1]
            assert "dt underflow" in str(err)
            assert t_new == pytest.approx(t_end, rel=1e-12) and dt < 2 * cfg.dt_min
            return
    assert trace.times[-1] == t_end
    steps = np.diff(trace.times)
    assert steps.min() > 1e-12 * t_end  # no step is a roundoff sliver
    # no step is shorter than dt_min, the landing one included, but for the
    # roundoff of t + dt - t
    assert np.all(steps >= cfg.dt_min * (1 - 1e-12))
    assert trace.linsys_count == int(trace.newton_iters.sum()) + sum(r[0] for r in rejected)


def test_mirror_guess_is_the_negated_interpolation_half_a_period_back():
    period = 0.02
    times = [0.0, 0.004, 0.006, 0.016]
    states = [np.full(2, float(k)) for k in range(4)]
    # t_new - T/2 = 0.0055 lies three quarters of the way from 0.004 to 0.006
    assert np.allclose(solver.mirror_guess(times, states, 0.0155, period), -1.75, rtol=1e-12)
    assert np.array_equal(solver.mirror_guess(times, states, 0.016, period), [-2.0, -2.0])
    assert solver.mirror_guess(times, states, 0.0149, period) is None  # before 0.75 T
    # a step longer than half a period reaches past the stored states
    assert solver.mirror_guess(times, states, 0.0265, period) is None


def test_no_mirror_guess_is_evaluated_before_three_quarters_of_a_period(monkeypatch):
    ctx = small_context(FormulationVariant.FCM_H_PHI, n_turns=2)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    guesses = []  # every guess run_transient offers, with its step's end time
    evaluated = []  # end times of the assemblies at a guess
    mirror_guess, assemble = solver.mirror_guess, ctx.assemble

    def recorded_guess(times, states, t_new, period):
        guess = mirror_guess(times, states, t_new, period)
        guesses.append((t_new, guess))
        return guess

    def recorded_assemble(u, w_prev, jc, dt, t, excitation):
        if any(u is g for _, g in guesses):
            evaluated.append(t)
        return assemble(u, w_prev, jc, dt, t, excitation)

    monkeypatch.setattr(solver, "mirror_guess", recorded_guess)
    ctx.assemble = recorded_assemble
    trace = run_transient(SolverConfig(periods=1.0), ctx, exc)
    assert len(guesses) == len(trace.times) - 1  # no rejected attempts in this run
    assert all((g is None) == (t < 0.75 * exc.period) for t, g in guesses)
    assert evaluated and min(evaluated) >= 0.75 * exc.period
    assert 0 < trace.counters["mirror_seeds_taken"] <= len(evaluated)


def test_refused_mirror_guesses_change_nothing(monkeypatch):
    ctx = small_context(FormulationVariant.FCM_T_OMEGA, n_turns=2)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    cfg = SolverConfig(periods=1.0)
    mirror_guess = solver.mirror_guess
    monkeypatch.setattr(solver, "mirror_guess", lambda *args: None)
    unseeded = run_transient(cfg, ctx, exc)
    offered = []

    def far_off(*args):
        # the state half a period back, not mirrored, and three times as large
        guess = mirror_guess(*args)
        offered.append(guess is not None)
        return None if guess is None else -3.0 * guess

    monkeypatch.setattr(solver, "mirror_guess", far_off)
    refused = run_transient(cfg, ctx, exc)
    assert refused.counters["mirror_seeds_taken"] == unseeded.counters["mirror_seeds_taken"] == 0
    assert np.array_equal(refused.times, unseeded.times)
    assert np.array_equal(refused.p, unseeded.p)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(refused.states, unseeded.states))
    # every guess offered is evaluated, and refused; the rest of Newton's work is the same
    evaluated = refused.counters.pop("mirror_guesses_evaluated")
    assert evaluated == sum(offered) > 0
    assert unseeded.counters.pop("mirror_guesses_evaluated") == 0
    assert refused.counters == unseeded.counters


def test_linear_solve_audit():
    ctx = small_context(FormulationVariant.FCM_H_PHI, n_turns=2)
    exc = Excitation(amplitude=9.6, frequency=50.0)
    trace = run_transient(SolverConfig(periods=0.2), ctx, exc)
    # no rejected steps in this benign run: every factorization is accounted
    # for by an accepted Newton iteration
    assert trace.linsys_count == int(trace.newton_iters.sum())


@pytest.mark.parametrize(
    "variant",
    [FormulationVariant.FCM_T_OMEGA, FormulationVariant.FCM_H_FULL, FormulationVariant.REF_H_PHI],
)
def test_one_factorization_per_linear_solve(variant, monkeypatch):
    # the benchmark reconciles solver.splu calls with linsys_count; each
    # Newton iteration fills the context's one elimination once, which for
    # t-omega and ref leaves out air unknowns
    ctx = small_context(variant, n_turns=2)
    calls = {"splu": [], "matrix": []}
    splu, matrix = solver.splu, formulations.Elimination.matrix

    def counted_splu(*args, **kwargs):
        calls["splu"].append(kwargs)
        return splu(*args, **kwargs)

    def counted_matrix(elimination, dt, d_tan):
        calls["matrix"].append(elimination)
        return matrix(elimination, dt, d_tan)

    monkeypatch.setattr(solver, "splu", counted_splu)
    monkeypatch.setattr(formulations.Elimination, "matrix", counted_matrix)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    trace = run_transient(SolverConfig(periods=0.1), ctx, exc)
    assert trace.linsys_count > 0
    assert len(calls["splu"]) == trace.linsys_count
    assert len(calls["matrix"]) == trace.linsys_count
    assert all(elimination is ctx.elimination for elimination in calls["matrix"])
    condensed = variant is not FormulationVariant.FCM_H_FULL
    assert (ctx.elimination.size < ctx.layout.n_dofs) == condensed
    # every eliminating variant is renumbered in a minimum-degree order of
    # A^T + A, once, and factored in that order in symmetric mode, with
    # unrelaxed supernodes and a diagonal-pivot threshold of 1e-3, the
    # factorization that computes the order included; h-full is renumbered
    # in SuperLU's default COLAMD order, once, and factored in it with
    # SuperLU's other defaults
    symmetric = {"relax": 1, "diag_pivot_thresh": 1e-3, "options": {"SymmetricMode": True}}
    assert ctx.elimination.order == (
        {"permc_spec": "MMD_AT_PLUS_A", **symmetric} if condensed else {}
    )
    natural = {"permc_spec": "NATURAL"}
    expected = {**natural, **symmetric} if condensed else natural
    assert ctx.elimination.factor_options == expected
    assert all(kwargs == expected for kwargs in calls["splu"])


@pytest.mark.parametrize(
    "preset, periods",
    [("pancake2d_fcm_hphi", 0.1), ("pancake2d_fcm_tw", 0.1), ("pancake2d_ref", 0.0125)],
)
def test_newton_factorizations_are_backward_stable(preset, periods, monkeypatch):
    # a diagonal-pivot threshold of 1e-3 accepts small diagonal pivots, and
    # on fcm-h-phi max|U| / max|A| grows to about 1e4; every factorization of
    # a run must still solve its system to a normwise backward error of the
    # order of the unit roundoff
    errors = []
    splu = solver.splu
    rng = np.random.default_rng(7)

    def checked_splu(a, **kwargs):
        lu = splu(a, **kwargs)
        b = rng.standard_normal(a.shape[0])
        x = lu.solve(b)
        a_norm = np.bincount(a.indices, weights=np.abs(a.data), minlength=a.shape[0]).max()
        residual = np.abs(a @ x - b).max()
        errors.append(residual / (a_norm * np.abs(x).max() + np.abs(b).max()))
        return lu

    monkeypatch.setattr(solver, "splu", checked_splu)
    cfg = config_from_preset(preset)
    layout = build_dof_layout(build_mesh(cfg), cfg.variant, cfg.voltage_order)
    ctx = formulations.AssemblyContext(layout, cfg.materials)
    trace = run_transient(replace(cfg.solver, periods=periods), ctx, cfg.excitation)
    assert len(errors) == trace.linsys_count > 50
    assert max(errors) <= 1e-14


@pytest.mark.parametrize("variant", [FormulationVariant.FCM_T_OMEGA, FormulationVariant.REF_H_PHI])
def test_stored_states_keep_the_eliminated_mass_rows_at_zero(variant):
    # the eliminated unknowns follow the kept ones from the zero state on, so
    # no step changes the mass rows of the eliminated unknowns
    ctx = small_context(variant, n_turns=2)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    trace = run_transient(SolverConfig(periods=0.1), ctx, exc)
    e = ctx.elimination.eliminated
    assert e.size > 0 and len(trace.states) > 10
    mass_e, abs_e = ctx.mass[e], ctx.abs_mass[e]
    nf = ctx.layout.n_field_dofs
    for w, w_prev in zip(trace.states[1:], trace.states[:-1]):
        u, u_prev = w[:nf], w_prev[:nf]
        change = mass_e @ (u - u_prev)
        assert np.abs(change).max() <= 1e-13 * (abs_e @ (np.abs(u) + np.abs(u_prev))).max()


def test_kim_jc_is_evaluated_once_per_accepted_step(monkeypatch):
    from foilwind import materials

    mats = pancake_materials(jc_model=JcKim(1e10, 0.05))
    exc = Excitation(amplitude=96.0, frequency=50.0)
    cfg = SolverConfig(periods=0.1)
    ctx = small_context(FormulationVariant.FCM_T_OMEGA, n_turns=2, materials=mats)
    evals = []
    jc_eval = materials.jc_eval
    monkeypatch.setattr(materials, "jc_eval", lambda *a: evals.append(1) or jc_eval(*a))
    trace = run_transient(cfg, ctx, exc)
    # every assembly and the dissipation of a step share the step's lagged jc
    assert len(evals) == len(trace.times) - 1
    assert int(trace.newton_iters.sum()) > len(evals)

    # the same run with every assembly evaluating the jc lagged at its own
    # w_prev instead of taking the step's
    fresh = small_context(FormulationVariant.FCM_T_OMEGA, n_turns=2, materials=mats)
    assemble = fresh.assemble
    fresh.assemble = lambda w, w_prev, jc, *args: assemble(
        w, w_prev, fresh.jc_effective(w_prev), *args
    )
    steps = len(evals)
    ref = run_transient(cfg, fresh, exc)
    assert len(evals) - steps > int(ref.newton_iters.sum()) + steps  # one per assembly, too
    assert np.array_equal(ref.times, trace.times)
    assert np.array_equal(ref.p, trace.p)
    assert np.array_equal(ref.slice_currents, trace.slice_currents)


def test_runs_are_deterministic():
    ctx = small_context(FormulationVariant.FCM_H_FULL, n_turns=2)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    cfg = SolverConfig(periods=0.2)
    a = run_transient(cfg, ctx, exc)
    b = run_transient(cfg, ctx, exc)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.p, b.p)
    assert np.array_equal(a.slice_currents, b.slice_currents)


def test_losses_nonnegative_through_the_peak():
    ctx = small_context(FormulationVariant.FCM_H_PHI, n_turns=2)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    trace = run_transient(SolverConfig(periods=0.5), ctx, exc)
    assert np.all(trace.p >= 0.0)
    assert trace.p.max() > 0.0


def test_mean_losses_insensitive_to_dt_cap():
    ctx = small_context(FormulationVariant.FCM_T_OMEGA, n_turns=2)
    exc = Excitation(amplitude=96.0, frequency=50.0)
    means = []
    for dt_max in (1e-4, 5e-5):  # T/200 and T/400
        cfg = SolverConfig(periods=1.0, dt_init=1e-5, dt_max=dt_max)
        trace = run_transient(cfg, ctx, exc)
        series = LossSeries(trace.times, trace.p, exc.frequency)
        means.append(mean_losses(series))
    assert means[1] == pytest.approx(means[0], rel=0.01)
