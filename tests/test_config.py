"""Config parsing: strict schema, presets, round trips, sweep points."""

from dataclasses import fields, replace

import pytest

from foilwind.config import (
    PRESETS,
    ConfigError,
    apply_sweep_value,
    config_from_preset,
    load_config,
    parse_config_text,
    serialize_config,
)
from foilwind.materials import JcKim
from foilwind.runner import build_mesh
from foilwind.spaces import build_dof_layout
from foilwind.variants import FormulationVariant

from helpers import small_config

MINIMAL = """\
[geometry]
inner_radius = 25e-3
n_turns = 2
cc_thickness = 1e-4
cc_width = 12e-3

[mesh]
n_alpha = 4
n_beta = 8

[formulation]
variant = fcm-h-phi

[excitation]
amplitude = 9.6
frequency = 50.0
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.variant is FormulationVariant.FCM_H_PHI
    assert cfg.voltage_order == 3
    assert cfg.materials.e_c == 1e-4
    assert cfg.materials.n_exponent == 25.0
    assert cfg.solver.periods == 2.0
    assert cfg.mesh.grading == 1.3
    assert cfg.output_dir == "out"


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\n" + MINIMAL.replace(
        "n_turns = 2", "n_turns = 2   # two turns"
    )
    assert parse_config_text(text).geometry.n_turns == 2


def test_unknown_section_reports_line():
    text = MINIMAL + "\n[turbo]\nboost = 1\n"
    with pytest.raises(ConfigError, match=r"cfg:18: unknown section \[turbo\]"):
        parse_config_text(text, source="cfg")


def test_unknown_key_reports_line():
    text = MINIMAL.replace("n_beta = 8", "n_beta = 8\nn_gamma = 3")
    with pytest.raises(ConfigError, match=r"cfg:10: unknown key mesh.n_gamma"):
        parse_config_text(text, source="cfg")
    # removed in config format version 2
    text = MINIMAL + "\n[materials]\nrho_spurious_alpha = 5e-2\n"
    with pytest.raises(ConfigError, match="unknown key materials.rho_spurious_alpha"):
        parse_config_text(text)
    # removed in config format version 3: the variant decides it
    text = MINIMAL.replace("cc_width = 12e-3", "cc_width = 12e-3\nhomogenized = true")
    with pytest.raises(ConfigError, match="cfg:6: unknown key geometry.homogenized"):
        parse_config_text(text, source="cfg")


def test_duplicate_key_rejected():
    text = MINIMAL + "\n[mesh]\nn_alpha = 6\n"
    with pytest.raises(ConfigError, match="duplicate key mesh.n_alpha"):
        parse_config_text(text)


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError, match="outside any"):
        parse_config_text("n_alpha = 4\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text("[mesh]\nn_alpha 4\n")


def test_missing_required_key_named():
    text = MINIMAL.replace("frequency = 50.0\n", "")
    with pytest.raises(ConfigError, match="missing required key excitation.frequency"):
        parse_config_text(text)


def test_bad_value_reports_key_and_line():
    text = MINIMAL.replace("n_beta = 8", "n_beta = eight")
    with pytest.raises(ConfigError, match="bad value for mesh.n_beta"):
        parse_config_text(text)
    # a non-finite float is refused where it is read, not after a full run
    for text, where in [
        (MINIMAL + "[solver]\nperiods = nan\n", ":18: bad value for solver.periods"),
        (MINIMAL + "[solver]\nnewton_tol_abs = nan\n", ":18: bad value for solver.newton_tol_abs"),
        (MINIMAL.replace("amplitude = 9.6", "amplitude = inf"), ":15: bad value for excitation.amplitude"),
        (MINIMAL.replace("cc_width = 12e-3", "cc_width = -inf"), ":5: bad value for geometry.cc_width"),
    ]:
        with pytest.raises(ConfigError, match=f"{where}: must be finite"):
            parse_config_text(text)


def test_physical_validation_wrapped_as_config_error():
    text = MINIMAL.replace("inner_radius = 25e-3", "inner_radius = -1.0")
    with pytest.raises(ConfigError, match="inner_radius"):
        parse_config_text(text)


def test_reference_variant_rejects_homogenized_geometry():
    # the variant alone decides whether the winding is one homogenized annulus
    text = MINIMAL.replace("variant = fcm-h-phi", "variant = ref-h-phi")
    assert not parse_config_text(text).geometry.homogenized
    assert parse_config_text(MINIMAL).geometry.homogenized
    with pytest.raises(ConfigError, match="unknown key geometry.homogenized"):
        parse_config_text(text + "\n[geometry]\nhomogenized = true\n")


def test_kim_model_requires_field_scale():
    text = MINIMAL + "\n[materials]\njc_model = kim\n"
    with pytest.raises(ConfigError, match="kim_b0"):
        parse_config_text(text)
    cfg = parse_config_text(text + "kim_b0 = 0.1\n")
    assert isinstance(cfg.materials.jc_model, JcKim)
    assert cfg.materials.jc_model.b_0 == 0.1


def test_unknown_jc_model_rejected():
    text = MINIMAL + "\n[materials]\njc_model = tabulated\n"
    with pytest.raises(ConfigError, match="constant or kim"):
        parse_config_text(text)


def test_negative_voltage_order_rejected():
    text = MINIMAL + "\n[formulation]\n"  # keep section; order goes with variant
    text = MINIMAL.replace("variant = fcm-h-phi", "variant = fcm-h-phi\nvoltage_order = -1")
    with pytest.raises(ConfigError, match="voltage_order"):
        parse_config_text(text)


def test_round_trip_identity():
    for name in PRESETS:
        cfg = config_from_preset(name)
        again = parse_config_text(serialize_config(cfg))
        assert again == cfg


@pytest.mark.parametrize("variant", list(FormulationVariant), ids=lambda v: v.value)
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_echo_of_any_variant_reproduces_the_run(preset, variant):
    # the echo in config.txt names no geometry.homogenized, so the variant must
    # decide it in the config itself, not only where a preset or file sets it
    cfg = replace(config_from_preset(preset), variant=variant)
    echo = parse_config_text(serialize_config(cfg))
    assert echo == cfg
    built = []
    for c in (cfg, echo):
        try:
            built.append(build_dof_layout(build_mesh(c), c.variant, c.voltage_order))
        except ValueError as exc:  # a detailed winding needs n_alpha divisible by n_turns
            built.append(str(exc))
    a, b = built
    if isinstance(a, str):
        assert a == b
    else:
        assert a.blocks == b.blocks and a.n_voltage_dofs == b.n_voltage_dofs
        assert (a.basis != b.basis).nnz == 0


def test_round_trip_preserves_overrides():
    cfg = small_config(FormulationVariant.FCM_T_OMEGA, periods=0.5, dt_max=5e-5)
    again = parse_config_text(serialize_config(cfg))
    assert again == cfg
    assert again.solver.dt_max == 5e-5


def test_round_trip_kim_materials():
    from helpers import with_materials

    cfg = with_materials(small_config(FormulationVariant.FCM_H_FULL), jc_model=JcKim(1e10, 0.07))
    again = parse_config_text(serialize_config(cfg))
    assert again == cfg


def test_presets_available():
    assert set(PRESETS) == {
        "pancake2d_ref",
        "pancake2d_fcm_hphi",
        "pancake2d_fcm_hfull",
        "pancake2d_fcm_tw",
    }
    ref = config_from_preset("pancake2d_ref")
    assert ref.variant is FormulationVariant.REF_H_PHI
    assert not ref.geometry.homogenized
    assert (ref.mesh.n_alpha, ref.mesh.n_beta) == (40, 48)
    for name in ("pancake2d_fcm_hphi", "pancake2d_fcm_hfull", "pancake2d_fcm_tw"):
        cfg = config_from_preset(name)
        assert cfg.geometry.homogenized
        assert (cfg.mesh.n_alpha, cfg.mesh.n_beta) == (5, 31)
        assert cfg.voltage_order == 3
    # shared drive: 96 A peak (80% of the 120 A tape) at 50 Hz, 20 turns
    for name in PRESETS:
        cfg = config_from_preset(name)
        assert cfg.geometry.n_turns == 20
        assert cfg.excitation.amplitude == 96.0
        assert cfg.excitation.frequency == 50.0
        assert cfg.solver.periods == 2.0


def test_unknown_preset_lists_choices():
    with pytest.raises(ConfigError, match="pancake2d_ref"):
        config_from_preset("nope")


def test_variant_aliases():
    for alias, variant in [
        ("ref", FormulationVariant.REF_H_PHI),
        ("h-full", FormulationVariant.FCM_H_FULL),
        ("fcm_t_omega", FormulationVariant.FCM_T_OMEGA),
    ]:
        text = MINIMAL.replace("variant = fcm-h-phi", f"variant = {alias}")
        assert parse_config_text(text).variant is variant


def test_sweep_points():
    cfg = small_config(FormulationVariant.FCM_T_OMEGA)
    assert apply_sweep_value(cfg, "n_turns", 50).geometry.n_turns == 50
    assert apply_sweep_value(cfg, "n_alpha", 10).mesh.n_alpha == 10
    assert apply_sweep_value(cfg, "voltage_order", 1).voltage_order == 1
    assert apply_sweep_value(cfg, "n_alpha", 6.0).mesh.n_alpha == 6
    # a count is never truncated: n_alpha 4.5 would run n_alpha 4
    for name in ("n_turns", "n_alpha", "voltage_order"):
        for value in (4.5, 19.9, float("inf"), float("nan")):
            with pytest.raises(ConfigError, match="whole numbers"):
                apply_sweep_value(cfg, name, value)
    # the reference has no voltage modes across the stack
    with pytest.raises(ConfigError, match="voltage_order"):
        apply_sweep_value(small_config(FormulationVariant.REF_H_PHI), "voltage_order", 1)
    hfull = small_config(FormulationVariant.FCM_H_FULL)
    swept = apply_sweep_value(hfull, "rho0", 1e-2)
    assert swept.materials.rho_spurious_air == 1e-2
    # the original is untouched
    assert hfull.materials.rho_spurious_air == 1e-3
    for value in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="rho0 takes finite values"):
            apply_sweep_value(hfull, "rho0", value)
    # only the all-edge variant has a spurious air resistivity
    for variant in FormulationVariant:
        if variant is not FormulationVariant.FCM_H_FULL:
            with pytest.raises(ConfigError, match="rho0"):
                apply_sweep_value(small_config(variant), "rho0", 1e-2)
    with pytest.raises(ConfigError, match="unknown sweep parameter"):
        apply_sweep_value(cfg, "frequency", 60.0)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "absent.cfg")


def test_load_config_round_trip(tmp_path):
    cfg = small_config(FormulationVariant.FCM_H_PHI)
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(cfg))
    assert load_config(path) == cfg


def _valid_dataclasses():
    """One valid instance of each dataclass a config is built from, Kim's jc model included."""
    cfg = small_config(FormulationVariant.FCM_H_PHI)
    return [cfg.geometry, cfg.mesh, cfg.materials, cfg.materials.jc_model, JcKim(1e10, 0.1),
            cfg.excitation, cfg.solver]


FLOAT_FIELDS = [(type(obj).__name__, f.name) for obj in _valid_dataclasses()
                for f in fields(obj) if f.type in ("float", float)]


@pytest.mark.parametrize("cls, name", FLOAT_FIELDS, ids=[f"{c}.{n}" for c, n in FLOAT_FIELDS])
def test_dataclasses_refuse_non_finite_values(cls, name):
    # built through the Python API, which the config reader's finiteness check
    # does not guard; only constructed, never run (an infinite window never ends)
    valid = next(obj for obj in _valid_dataclasses() if type(obj).__name__ == cls)
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            replace(valid, **{name: value})
