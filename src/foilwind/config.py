"""Run configuration: strict flat key=value files, presets, round-tripping.

The file format is one ``key = value`` per line under ``[section]`` headers.
Unknown sections or keys are hard errors; silent typos in physics parameters
are the costliest failure mode this tool has, so nothing is ignored. ``#``
starts a comment.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import MISSING, dataclass, fields, replace
from enum import Enum
from pathlib import Path

from .materials import JcConstant, JcKim, MaterialParams
from .mesh import CoilGeometry
from .formulations import Excitation
from .solver import SolverConfig
from .variants import FormulationVariant, parse_variant

PRESET_VERSION = 3

SWEEP_PARAMETERS = ("n_turns", "n_alpha", "voltage_order", "rho0")


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
        if not 1.0 <= self.grading < math.inf:
            raise ValueError("grading ratio must be finite and >= 1")


@dataclass(kw_only=True)
class RunConfig:
    geometry: CoilGeometry
    mesh: MeshConfig
    materials: MaterialParams
    variant: FormulationVariant
    voltage_order: int = 3
    excitation: Excitation
    solver: SolverConfig
    output_dir: str = "out"

    def __post_init__(self) -> None:
        if self.voltage_order < 0:
            raise ValueError("formulation.voltage_order must be >= 0")
        # the variant alone decides whether the winding is one homogenized annulus
        self.geometry = replace(self.geometry, homogenized=self.variant.is_fcm)


_JC_MODELS = {"constant": JcConstant, "kim": JcKim}


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {raw!r}")
    return value


def _jc_model_class(raw: str) -> type:
    try:
        return _JC_MODELS[raw]
    except KeyError:
        raise ValueError(f"must be {' or '.join(_JC_MODELS)}, got {raw!r}") from None


# Every key of the file format, in file order: [section] -> (owner dataclass,
# {key: converter}). A key sets the owner's field of the same name, or the
# field _FIELDS names. The owner's default for that field is the key's
# default, and a field without a default makes the key required.
_SECTIONS = {
    "geometry": (CoilGeometry, {
        "inner_radius": _finite,
        "n_turns": int,
        "cc_thickness": _finite,
        "cc_width": _finite,
        "air_radius_factor": _finite,
    }),
    "mesh": (MeshConfig, {
        "n_alpha": int,
        "n_beta": int,
        "grading": _finite,
    }),
    "materials": (MaterialParams, {
        "e_c": _finite,
        "n_exponent": _finite,
        "lambda_fill": _finite,
        "jc_model": _jc_model_class,
        "jc0": _finite,
        "kim_b0": _finite,
        "rho_spurious_air": _finite,
    }),
    "formulation": (RunConfig, {
        "variant": parse_variant,
        "voltage_order": int,
    }),
    "excitation": (Excitation, {
        "amplitude": _finite,
        "frequency": _finite,
    }),
    "solver": (SolverConfig, {
        "newton_tol_rel": _finite,
        "newton_tol_abs": _finite,
        "max_newton_iters": int,
        "dt_init": _finite,
        "dt_min": _finite,
        "dt_max": _finite,
        "periods": _finite,
        "damping": _finite,
    }),
    "output": (RunConfig, {
        "directory": str,
    }),
}
# keys stored under another field name; owner "jc" is the critical current
# density model that materials.jc_model selects
_FIELDS = {"jc0": ("jc", "j_c0"), "kim_b0": ("jc", "b_0"), "directory": (RunConfig, "output_dir")}


def _keys():
    """(section, key, owner, field) of every key, in file order."""
    for section, (owner, keys) in _SECTIONS.items():
        for key in keys:
            yield (section, key, *_FIELDS.get(key, (owner, key)))


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    targets = {(section, key): (owner, name) for section, key, owner, name in _keys()}
    kwargs: dict[object, dict[str, object]] = defaultdict(dict)  # owner -> field -> value
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
        if (section, key) not in targets:
            raise ConfigError(f"{source}:{lineno}: unknown key {section}.{key}")
        owner, name = targets[section, key]
        if name in kwargs[owner]:
            raise ConfigError(f"{source}:{lineno}: duplicate key {section}.{key}")
        try:
            kwargs[owner][name] = _SECTIONS[section][1][key](value.strip())
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {section}.{key}: {exc}") from exc

    default_jc = MaterialParams().jc_model
    jc_class = kwargs[MaterialParams].pop("jc_model", type(default_jc))
    # jc0 defaults to the default model's, whichever model is selected
    kwargs["jc"] = {"j_c0": default_jc.j_c0, **kwargs["jc"]}
    for section, key, owner, name in _keys():
        field = {f.name: f for f in fields(jc_class if owner == "jc" else owner)}.get(name)
        if field is None and name in kwargs[owner]:
            raise ConfigError(f"{source}: {section}.{key} does not apply to this jc_model")
        if field is not None and name not in kwargs[owner]:
            if field.default is MISSING and field.default_factory is MISSING:
                raise ConfigError(f"{source}: missing required key {section}.{key}")

    try:
        run = kwargs[RunConfig]
        return RunConfig(
            geometry=CoilGeometry(**kwargs[CoilGeometry]),
            mesh=MeshConfig(**kwargs[MeshConfig]),
            materials=MaterialParams(jc_model=jc_class(**kwargs["jc"]), **kwargs[MaterialParams]),
            excitation=Excitation(**kwargs[Excitation]),
            solver=SolverConfig(**kwargs[SolverConfig]),
            **run,
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def _text(value) -> str:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (JcConstant, JcKim)):
        return next(name for name, cls in _JC_MODELS.items() if type(value) is cls)
    return value if isinstance(value, str) else repr(value)


def serialize_config(cfg: RunConfig) -> str:
    """Full config text; parsing it back yields an equal RunConfig."""
    parts = (cfg, cfg.geometry, cfg.mesh, cfg.materials, cfg.excitation, cfg.solver)
    objects = {type(part): part for part in parts} | {"jc": cfg.materials.jc_model}
    lines: list[str] = []
    for section, key, owner, name in _keys():
        if f"[{section}]" not in lines:
            lines += ["", f"[{section}]"]
        obj = objects[owner]
        if hasattr(obj, name):
            lines.append(f"{key} = {_text(getattr(obj, name))}")
    return "\n".join(lines[1:]) + "\n"


def _pancake(variant: FormulationVariant, n_alpha: int, n_beta: int) -> RunConfig:
    """20-turn pancake driven at 96 A (80 % of the 120 A tape) and 50 Hz."""
    return RunConfig(
        geometry=CoilGeometry(
            inner_radius=25e-3,
            n_turns=20,
            cc_thickness=1e-4,
            cc_width=12e-3,
        ),
        mesh=MeshConfig(n_alpha=n_alpha, n_beta=n_beta),
        materials=MaterialParams(),
        variant=variant,
        excitation=Excitation(amplitude=96.0, frequency=50.0),
        solver=SolverConfig(),
    )


# name -> (variant, n_alpha, n_beta) of the 20-turn pancake
PRESETS = {
    "pancake2d_ref": (FormulationVariant.REF_H_PHI, 40, 48),
    "pancake2d_fcm_hphi": (FormulationVariant.FCM_H_PHI, 5, 31),
    "pancake2d_fcm_hfull": (FormulationVariant.FCM_H_FULL, 5, 31),
    "pancake2d_fcm_tw": (FormulationVariant.FCM_T_OMEGA, 5, 31),
}


def config_from_preset(name: str) -> RunConfig:
    try:
        variant, n_alpha, n_beta = PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    return _pancake(variant, n_alpha=n_alpha, n_beta=n_beta)


def apply_sweep_value(cfg: RunConfig, parameter: str, value: float) -> RunConfig:
    """One sweep point: a copy of ``cfg`` with ``parameter`` set to ``value``.

    A parameter that the variant of ``cfg`` ignores is rejected, since the
    sweep would run the same simulation at every value, and so is a value
    that is not finite or, for a parameter that counts something, not a
    whole number.
    """
    if parameter in ("n_turns", "n_alpha", "voltage_order") and not float(value).is_integer():
        raise ConfigError(f"{parameter} takes whole numbers, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{parameter} takes finite values, got {value!r}")
    if parameter == "n_turns":
        return replace(cfg, geometry=replace(cfg.geometry, n_turns=int(value)))
    if parameter == "n_alpha":
        return replace(cfg, mesh=replace(cfg.mesh, n_alpha=int(value)))
    if parameter == "voltage_order":
        if not cfg.variant.is_fcm:
            raise ConfigError(
                f"voltage_order sets the voltage modes across a homogenized winding, "
                f"which {cfg.variant.value} does not have; a {cfg.variant.value} sweep "
                "would run the same simulation at every value"
            )
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
        f"unknown sweep parameter {parameter!r}; choose from {', '.join(SWEEP_PARAMETERS)}"
    )
