"""Constitutive models: power law and field-dependent jc."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foilwind.materials import (
    JcConstant,
    JcKim,
    MaterialParams,
    jc_eval,
    power_law,
)

from helpers import pancake_materials


def test_engineering_density_and_tape_critical_current():
    params = pancake_materials()
    assert params.jc_engineering() == pytest.approx(1e8)
    # 100 um x 12 mm tape at 1e8 A/m^2 engineering density
    i_c = params.jc_engineering() * 1e-4 * 12e-3
    assert i_c == pytest.approx(120.0)
    assert 0.8 * i_c == pytest.approx(96.0)


def test_power_law_pins_e_c_at_critical_density():
    params = pancake_materials()
    for jc in (1e10, 1e8, 3.7e6):
        re = power_law(jc, jc, params)
        e = float(re.rho) * jc
        assert e == pytest.approx(params.e_c, rel=1e-15)
    # resistivity value at the bare (non-engineering) critical density
    assert float(power_law(1e10, 1e10, params).rho) == pytest.approx(1e-14, rel=1e-12)


def test_power_law_zero_current():
    params = pancake_materials()
    re = power_law(0.0, 1e8, params)
    assert float(re.rho) == 0.0
    assert np.isfinite(re.drho_dj2)
    assert float(re.drho_dj2) == 0.0  # floored tangent of an exactly zero rho


def test_power_law_ohmic_limit():
    params = pancake_materials(n_exponent=1.0)
    js = np.array([0.0, 1e6, 1e8, 5e8])
    re = power_law(js, 1e8, params)
    assert np.allclose(re.rho, params.e_c / 1e8, rtol=1e-15)
    assert np.allclose(re.drho_dj2, 0.0)


def test_power_law_monotone_and_steep():
    params = pancake_materials()
    j = np.linspace(1e6, 2e8, 50)
    rho = power_law(j, 1e8, params).rho
    assert np.all(np.diff(rho) > 0)
    # doubling j multiplies rho by 2^(n-1)
    r1 = float(power_law(5e7, 1e8, params).rho)
    r2 = float(power_law(1e8, 1e8, params).rho)
    assert r2 / r1 == pytest.approx(2.0**24, rel=1e-10)


def test_power_law_derivative_nonnegative():
    params = pancake_materials()
    j = np.geomspace(1e0, 1e9, 30)
    re = power_law(j, 1e8, params)
    assert np.all(re.drho_dj2 >= 0)


@settings(max_examples=60, deadline=None)
@given(
    jfrac=st.floats(min_value=0.1, max_value=1.5),
    n=st.floats(min_value=2.0, max_value=40.0),
)
def test_power_law_tangent_matches_finite_differences(jfrac, n):
    params = pancake_materials(n_exponent=n)
    jc = 1e8
    j = jfrac * jc
    s = j * j
    h = 1e-5 * s
    re = power_law(j, jc, params)
    rp = float(power_law(np.sqrt(s + h), jc, params).rho)
    rm = float(power_law(np.sqrt(s - h), jc, params).rho)
    fd = (rp - rm) / (2.0 * h)
    assert float(re.drho_dj2) == pytest.approx(fd, rel=1e-6)


def test_kim_model_identities():
    model = JcKim(1e10, 0.1)
    assert jc_eval(model) == pytest.approx(1e10)
    assert jc_eval(model, b_parallel=0.1) == pytest.approx(5e9)
    assert jc_eval(model, b_perp=0.1) == pytest.approx(5e9)
    # only the magnitude matters
    b = 0.1 / np.sqrt(2.0)
    assert jc_eval(model, b, b) == pytest.approx(5e9)
    # monotone suppression with field
    bs = np.linspace(0, 1, 11)
    vals = jc_eval(model, bs)
    assert np.all(np.diff(vals) < 0)


def test_constant_model_ignores_field():
    model = JcConstant(1e10)
    assert jc_eval(model, 0.3, 0.4) == 1e10
    vals = jc_eval(model, np.array([0.0, 0.5, 2.0]))
    assert np.all(vals == 1e10)


def test_params_validation():
    with pytest.raises(ValueError):
        pancake_materials(e_c=0.0)
    with pytest.raises(ValueError):
        pancake_materials(n_exponent=0.5)
    with pytest.raises(ValueError):
        pancake_materials(lambda_fill=0.0)
    with pytest.raises(ValueError):
        pancake_materials(lambda_fill=1.5)
    with pytest.raises(ValueError):
        pancake_materials(rho_spurious_air=0.0)
    with pytest.raises(ValueError):
        JcConstant(-1.0)
    with pytest.raises(ValueError):
        JcKim(1e10, 0.0)
    with pytest.raises(ValueError):
        power_law(1e7, -1e8, pancake_materials())


def test_fill_factor_scales_engineering_density():
    kim = pancake_materials(jc_model=JcKim(1e10, 0.1))
    assert kim.jc_engineering() == pytest.approx(1e8)
    assert kim.jc_engineering(b_parallel=0.1) == pytest.approx(5e7)
    full = pancake_materials(lambda_fill=1.0)
    assert full.jc_engineering() == pytest.approx(1e10)

