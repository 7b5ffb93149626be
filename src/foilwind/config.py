"""Run configuration: strict flat key=value files, presets, round-tripping.

The file format is one ``key = value`` per line under ``[section]`` headers.
Unknown sections or keys are hard errors; silent typos in physics parameters
are the costliest failure mode this tool has, so nothing is ignored. ``#``
starts a comment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .materials import JcConstant, JcKim, MaterialParams
from .mesh import CoilGeometry
from .formulations import Excitation
from .solver import SolverConfig
from .variants import FormulationVariant, parse_variant

PRESET_VERSION = 2


class ConfigError(ValueError):
    """Invalid, unknown, or missing configuration content."""


@dataclass(frozen=True)
class MeshConfig:
    n_alpha: int
    n_beta: int
    grading: float = 1.3

    def __post_init__(self) -> None:
        if self.n_alpha < 1 or self.n_beta < 1:
            raise ValueError("mesh resolutions must be >= 1")
        if self.grading < 1.0:
            raise ValueError("grading ratio must be >= 1")


@dataclass
class RunConfig:
    geometry: CoilGeometry
    mesh: MeshConfig
    materials: MaterialParams
    variant: FormulationVariant
    voltage_order: int
    excitation: Excitation
    solver: SolverConfig
    output_dir: str = "out"


def _to_int(raw: str) -> int:
    return int(raw)


def _to_float(raw: str) -> float:
    return float(raw)


def _to_bool(raw: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ValueError(f"expected true or false, got {raw!r}")


def _to_str(raw: str) -> str:
    return raw


# (section, key) -> (converter, required, default)
_SCHEMA: dict[tuple[str, str], tuple] = {
    ("geometry", "inner_radius"): (_to_float, True, None),
    ("geometry", "n_turns"): (_to_int, True, None),
    ("geometry", "cc_thickness"): (_to_float, True, None),
    ("geometry", "cc_width"): (_to_float, True, None),
    ("geometry", "homogenized"): (_to_bool, False, False),
    ("geometry", "air_radius_factor"): (_to_float, False, 5.0),
    ("mesh", "n_alpha"): (_to_int, True, None),
    ("mesh", "n_beta"): (_to_int, True, None),
    ("mesh", "grading"): (_to_float, False, 1.3),
    ("materials", "e_c"): (_to_float, False, 1e-4),
    ("materials", "n_exponent"): (_to_float, False, 25.0),
    ("materials", "lambda_fill"): (_to_float, False, 0.01),
    ("materials", "jc_model"): (_to_str, False, "constant"),
    ("materials", "jc0"): (_to_float, False, 1e10),
    ("materials", "kim_b0"): (_to_float, False, None),
    ("materials", "rho_spurious_air"): (_to_float, False, 1e-3),
    ("formulation", "variant"): (_to_str, True, None),
    ("formulation", "voltage_order"): (_to_int, False, 3),
    ("excitation", "amplitude"): (_to_float, True, None),
    ("excitation", "frequency"): (_to_float, True, None),
    ("solver", "newton_tol_rel"): (_to_float, False, SolverConfig.newton_tol_rel),
    ("solver", "newton_tol_abs"): (_to_float, False, SolverConfig.newton_tol_abs),
    ("solver", "max_newton_iters"): (_to_int, False, SolverConfig.max_newton_iters),
    ("solver", "dt_init"): (_to_float, False, SolverConfig.dt_init),
    ("solver", "dt_min"): (_to_float, False, SolverConfig.dt_min),
    ("solver", "dt_max"): (_to_float, False, SolverConfig.dt_max),
    ("solver", "periods"): (_to_float, False, SolverConfig.periods),
    ("solver", "damping"): (_to_float, False, SolverConfig.damping),
    ("output", "directory"): (_to_str, False, "out"),
}
_SECTIONS = {section for section, _ in _SCHEMA}


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"{source}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        if section is None:
            raise ConfigError(f"{source}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        if (section, key) not in _SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {section}.{key}")
        if (section, key) in entries:
            raise ConfigError(f"{source}:{lineno}: duplicate key {section}.{key}")
        entries[(section, key)] = (value.strip(), lineno)

    values: dict[tuple[str, str], object] = {}
    for (section, key), (conv, required, default) in _SCHEMA.items():
        if (section, key) in entries:
            raw, lineno = entries[(section, key)]
            try:
                values[(section, key)] = conv(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"{source}:{lineno}: bad value for {section}.{key}: {exc}"
                ) from exc
        elif required:
            raise ConfigError(f"{source}: missing required key {section}.{key}")
        else:
            values[(section, key)] = default

    def v(section: str, key: str):
        return values[(section, key)]

    try:
        geometry = CoilGeometry(
            inner_radius=v("geometry", "inner_radius"),
            n_turns=v("geometry", "n_turns"),
            cc_thickness=v("geometry", "cc_thickness"),
            cc_width=v("geometry", "cc_width"),
            air_radius_factor=v("geometry", "air_radius_factor"),
            homogenized=v("geometry", "homogenized"),
        )
        mesh = MeshConfig(
            n_alpha=v("mesh", "n_alpha"),
            n_beta=v("mesh", "n_beta"),
            grading=v("mesh", "grading"),
        )
        jc_kind = v("materials", "jc_model")
        if jc_kind == "constant":
            jc_model = JcConstant(v("materials", "jc0"))
        elif jc_kind == "kim":
            if v("materials", "kim_b0") is None:
                raise ConfigError(f"{source}: missing required key materials.kim_b0")
            jc_model = JcKim(v("materials", "jc0"), v("materials", "kim_b0"))
        else:
            raise ConfigError(
                f"{source}: materials.jc_model must be constant or kim, got {jc_kind!r}"
            )
        materials = MaterialParams(
            e_c=v("materials", "e_c"),
            n_exponent=v("materials", "n_exponent"),
            lambda_fill=v("materials", "lambda_fill"),
            rho_spurious_air=v("materials", "rho_spurious_air"),
            jc_model=jc_model,
        )
        variant = parse_variant(v("formulation", "variant"))
        excitation = Excitation(
            amplitude=v("excitation", "amplitude"),
            frequency=v("excitation", "frequency"),
        )
        solver = SolverConfig(
            newton_tol_rel=v("solver", "newton_tol_rel"),
            newton_tol_abs=v("solver", "newton_tol_abs"),
            max_newton_iters=v("solver", "max_newton_iters"),
            dt_init=v("solver", "dt_init"),
            dt_min=v("solver", "dt_min"),
            dt_max=v("solver", "dt_max"),
            periods=v("solver", "periods"),
            damping=v("solver", "damping"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc

    cfg = RunConfig(
        geometry=geometry,
        mesh=mesh,
        materials=materials,
        variant=variant,
        voltage_order=v("formulation", "voltage_order"),
        excitation=excitation,
        solver=solver,
        output_dir=v("output", "directory"),
    )
    _validate_cross(cfg, source)
    return cfg


def _validate_cross(cfg: RunConfig, source: str) -> None:
    if cfg.variant is FormulationVariant.REF_H_PHI and cfg.geometry.homogenized:
        raise ConfigError(
            f"{source}: the detailed reference needs geometry.homogenized = false"
        )
    if cfg.voltage_order < 0:
        raise ConfigError(f"{source}: formulation.voltage_order must be >= 0")


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def serialize_config(cfg: RunConfig) -> str:
    """Full config text; parsing it back yields an equal RunConfig."""
    jc = cfg.materials.jc_model
    if isinstance(jc, JcKim):
        jc_lines = [f"jc_model = kim", f"jc0 = {jc.j_c0!r}", f"kim_b0 = {jc.b_0!r}"]
    else:
        jc_lines = [f"jc_model = constant", f"jc0 = {jc.j_c0!r}"]
    lines = [
        "[geometry]",
        f"inner_radius = {cfg.geometry.inner_radius!r}",
        f"n_turns = {cfg.geometry.n_turns}",
        f"cc_thickness = {cfg.geometry.cc_thickness!r}",
        f"cc_width = {cfg.geometry.cc_width!r}",
        f"homogenized = {'true' if cfg.geometry.homogenized else 'false'}",
        f"air_radius_factor = {cfg.geometry.air_radius_factor!r}",
        "",
        "[mesh]",
        f"n_alpha = {cfg.mesh.n_alpha}",
        f"n_beta = {cfg.mesh.n_beta}",
        f"grading = {cfg.mesh.grading!r}",
        "",
        "[materials]",
        f"e_c = {cfg.materials.e_c!r}",
        f"n_exponent = {cfg.materials.n_exponent!r}",
        f"lambda_fill = {cfg.materials.lambda_fill!r}",
        *jc_lines,
        f"rho_spurious_air = {cfg.materials.rho_spurious_air!r}",
        "",
        "[formulation]",
        f"variant = {cfg.variant.value}",
        f"voltage_order = {cfg.voltage_order}",
        "",
        "[excitation]",
        f"amplitude = {cfg.excitation.amplitude!r}",
        f"frequency = {cfg.excitation.frequency!r}",
        "",
        "[solver]",
        f"newton_tol_rel = {cfg.solver.newton_tol_rel!r}",
        f"newton_tol_abs = {cfg.solver.newton_tol_abs!r}",
        f"max_newton_iters = {cfg.solver.max_newton_iters}",
        f"dt_init = {cfg.solver.dt_init!r}",
        f"dt_min = {cfg.solver.dt_min!r}",
        f"dt_max = {cfg.solver.dt_max!r}",
        f"periods = {cfg.solver.periods!r}",
        f"damping = {cfg.solver.damping!r}",
        "",
        "[output]",
        f"directory = {cfg.output_dir}",
    ]
    return "\n".join(lines) + "\n"


def _pancake_geometry(homogenized: bool) -> CoilGeometry:
    return CoilGeometry(
        inner_radius=25e-3,
        n_turns=20,
        cc_thickness=1e-4,
        cc_width=12e-3,
        air_radius_factor=5.0,
        homogenized=homogenized,
    )


def _pancake_materials() -> MaterialParams:
    return MaterialParams(
        e_c=1e-4,
        n_exponent=25.0,
        lambda_fill=0.01,
        rho_spurious_air=1e-3,
        jc_model=JcConstant(1e10),
    )


def _pancake_base(variant: FormulationVariant, n_alpha: int, n_beta: int) -> RunConfig:
    return RunConfig(
        geometry=_pancake_geometry(homogenized=variant.is_fcm),
        mesh=MeshConfig(n_alpha=n_alpha, n_beta=n_beta, grading=1.3),
        materials=_pancake_materials(),
        variant=variant,
        voltage_order=3,
        excitation=Excitation(amplitude=96.0, frequency=50.0),
        solver=SolverConfig(),
        output_dir="out",
    )


def preset_pancake2d_ref() -> RunConfig:
    """Detailed 20-turn pancake, per-turn reference formulation."""
    return _pancake_base(FormulationVariant.REF_H_PHI, n_alpha=40, n_beta=48)


def preset_pancake2d_fcm_hphi() -> RunConfig:
    return _pancake_base(FormulationVariant.FCM_H_PHI, n_alpha=5, n_beta=31)


def preset_pancake2d_fcm_hfull() -> RunConfig:
    return _pancake_base(FormulationVariant.FCM_H_FULL, n_alpha=5, n_beta=31)


def preset_pancake2d_fcm_tw() -> RunConfig:
    return _pancake_base(FormulationVariant.FCM_T_OMEGA, n_alpha=5, n_beta=31)


PRESETS = {
    "pancake2d_ref": preset_pancake2d_ref,
    "pancake2d_fcm_hphi": preset_pancake2d_fcm_hphi,
    "pancake2d_fcm_hfull": preset_pancake2d_fcm_hfull,
    "pancake2d_fcm_tw": preset_pancake2d_fcm_tw,
}


def config_from_preset(name: str) -> RunConfig:
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    return factory()


def apply_sweep_value(cfg: RunConfig, parameter: str, value: float) -> RunConfig:
    """One sweep point: a copy of ``cfg`` with ``parameter`` set to ``value``."""
    if parameter == "n_turns":
        return replace(cfg, geometry=replace(cfg.geometry, n_turns=int(value)))
    if parameter == "n_alpha":
        return replace(cfg, mesh=replace(cfg.mesh, n_alpha=int(value)))
    if parameter == "voltage_order":
        return replace(cfg, voltage_order=int(value))
    if parameter == "rho0":
        if cfg.variant is not FormulationVariant.FCM_H_FULL:
            raise ConfigError(
                f"rho0 sets the spurious air resistivity, which only "
                f"{FormulationVariant.FCM_H_FULL.value} has; a {cfg.variant.value} "
                "sweep would run the same simulation at every value"
            )
        return replace(cfg, materials=replace(cfg.materials, rho_spurious_air=float(value)))
    raise ConfigError(
        f"unknown sweep parameter {parameter!r}; "
        "choose from n_turns, n_alpha, voltage_order, rho0"
    )
