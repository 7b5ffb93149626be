"""Command-line interface: exit codes, stdout contracts, artifacts."""

import io
import json
import logging
from contextlib import redirect_stderr, redirect_stdout

import pytest

from foilwind import cli
from foilwind.config import serialize_config
from foilwind.variants import FormulationVariant

from helpers import small_config


def run_cli(*argv):
    """Invoke the CLI in-process, returning (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _write_config(path, cfg):
    path.write_text(serialize_config(cfg))
    return str(path)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = small_config(
        FormulationVariant.FCM_T_OMEGA, amplitude=96.0, periods=1.0, dt_max=2e-4
    )
    config_path = _write_config(root / "run.cfg", cfg)
    out_dir = root / "out"
    code, stdout, _ = run_cli("run", "--config", config_path, "--out", str(out_dir))
    assert code == 0
    return out_dir, stdout, config_path


def test_mesh_preset(tmp_path):
    code, stdout, _ = run_cli(
        "mesh", "--preset", "pancake2d_fcm_tw", "--out", str(tmp_path)
    )
    assert code == 0
    assert (tmp_path / "mesh.vtk").is_file()
    lines = stdout.splitlines()
    assert lines[0].startswith("mesh: ")
    assert "(5 x 31 winding)" in lines[0]
    assert lines[1].startswith("dofs[fcm-t-omega]: 1892 ")
    assert "voltage 4" in lines[1]
    assert lines[2] == f"wrote {tmp_path / 'mesh.vtk'}"


def test_unwritable_output_exits_2(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, _, stderr = run_cli("mesh", "--preset", "pancake2d_fcm_tw", "--out", str(blocker / "x"))
    assert code == 2
    assert stderr.startswith("error: ")


def test_run_reports_power_and_artifacts(finished_run):
    out_dir, stdout, _ = finished_run
    lines = stdout.splitlines()
    assert lines[0].startswith("run finished: ")
    assert "linear solves" in lines[0]
    assert "P = " in lines[0] and lines[0].endswith(" W")
    assert lines[1] == f"artifacts in {out_dir}"
    assert (out_dir / "summary.json").is_file()
    assert (out_dir / "trace.csv").is_file()


def test_run_too_short_for_mean(tmp_path):
    cfg = small_config(FormulationVariant.FCM_T_OMEGA, periods=0.25, dt_max=2e-4)
    config_path = _write_config(tmp_path / "short.cfg", cfg)
    code, stdout, _ = run_cli("run", "--config", config_path, "--out", str(tmp_path / "o"))
    assert code == 0
    assert "P = n/a (run shorter than half a period)" in stdout


def test_run_solver_failure_exits_1(tmp_path):
    # a one-iteration Newton budget with no room to shrink dt cannot track
    # the nonlinear peak
    cfg = small_config(
        FormulationVariant.FCM_T_OMEGA,
        amplitude=300.0,
        periods=0.5,
        dt_init=2e-4,
        dt_max=2e-4,
        dt_min=1.9e-4,
        max_newton_iters=1,
    )
    config_path = _write_config(tmp_path / "hard.cfg", cfg)
    code, _, stderr = run_cli("run", "--config", config_path, "--out", str(tmp_path / "o"))
    assert code == 1
    assert stderr.startswith("solver failure: ")


def test_bad_config_exits_2(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[mesh]\nn_gamma = 3\n")
    code, _, stderr = run_cli("run", "--config", str(path), "--out", str(tmp_path))
    assert code == 2
    assert stderr.startswith("error: ")
    assert "unknown key" in stderr


def test_missing_config_exits_2(tmp_path):
    code, _, stderr = run_cli("run", "--config", str(tmp_path / "nope.cfg"))
    assert code == 2
    assert stderr.startswith("error: ")


def test_compare_run_against_itself(finished_run, tmp_path):
    out_dir, _, _ = finished_run
    code, stdout, _ = run_cli(
        "compare", str(out_dir), str(out_dir), "--out", str(tmp_path)
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["r_squared"] == pytest.approx(1.0, abs=1e-14)
    assert report["one_minus_r2"] == pytest.approx(0.0, abs=1e-14)
    assert report["rel_err_P"] == pytest.approx(0.0, abs=1e-14)
    on_disk = json.loads((tmp_path / "comparison.json").read_text())
    assert on_disk == report


def test_compare_rejects_non_run_dir(tmp_path, finished_run):
    out_dir, _, _ = finished_run
    summary = json.loads((out_dir / "summary.json").read_text())
    no_trace, no_excitation = tmp_path / "no_trace", tmp_path / "no_excitation"
    no_trace.mkdir()
    (no_trace / "summary.json").write_text(json.dumps(summary))
    no_excitation.mkdir()
    (no_excitation / "trace.csv").write_text((out_dir / "trace.csv").read_text())
    del summary["excitation"]
    (no_excitation / "summary.json").write_text(json.dumps(summary))
    for broken in (tmp_path, no_trace, no_excitation):
        code, _, stderr = run_cli("compare", str(broken), str(out_dir))
        assert code == 2
        assert "not a run directory" in stderr


def test_compare_trace_without_data_rows_exits_2(finished_run, tmp_path):
    out_dir, _, _ = finished_run
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "summary.json").write_text((out_dir / "summary.json").read_text())
    header = (out_dir / "trace.csv").read_text().splitlines()[0]
    (empty / "trace.csv").write_text(header + "\n")
    for run_dir, ref_dir in ((empty, empty), (empty, out_dir), (out_dir, empty)):
        code, _, stderr = run_cli("compare", str(run_dir), str(ref_dir), "--out", str(tmp_path))
        assert code == 2
        assert stderr.startswith("error: ") and "too short" in stderr
    assert not (tmp_path / "comparison.json").exists()


def test_sweep_single_value(finished_run, tmp_path):
    _, _, config_path = finished_run
    code, stdout, _ = run_cli(
        "sweep",
        "--config",
        config_path,
        "--param",
        "voltage_order",
        "--values",
        "3",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "value,P,one_minus_r2,n_dofs,linsys_count"
    assert lines[1].startswith("3,")
    assert ",0.000000e+00," in lines[1]
    assert lines[2] == f"sweep table in {tmp_path / 'sweep.csv'}"
    assert (tmp_path / "voltage_order_3" / "summary.json").is_file()


def test_sweep_empty_values_exits_2(finished_run, tmp_path):
    _, _, config_path = finished_run
    code, _, stderr = run_cli(
        "sweep",
        "--config",
        config_path,
        "--param",
        "n_alpha",
        "--values",
        ",",
        "--out",
        str(tmp_path),
    )
    assert code == 2
    assert "non-empty" in stderr


@pytest.mark.parametrize(
    "param, jobs, values",
    [("n_alpha", "0", "4"), ("n_alpha", "-1", "4"), ("n_alpha", "1", "4,4.5"),
     ("rho0", "1", "1e-3,nan")],
    ids=["jobs0", "jobs-1", "frac", "rho0-nan"],
)
def test_sweep_rejects_bad_arguments_before_running(finished_run, tmp_path, param, jobs, values):
    _, _, config_path = finished_run
    if param == "rho0":  # only fcm-h-full has the spurious air resistivity
        cfg = small_config(FormulationVariant.FCM_H_FULL)
        config_path = _write_config(tmp_path / "hfull.cfg", cfg)
    out = tmp_path / "sweep"
    code, _, stderr = run_cli(
        "sweep", "--config", config_path, "--param", param,
        "--values", values, "--jobs", jobs, "--out", str(out),
    )
    assert code == 2
    assert stderr.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("values, periods", [("4,6", 0.75), ("4", 0.25)], ids=["two", "one"])
def test_sweep_too_short_to_compare_exits_2_before_running(tmp_path, values, periods):
    cfg = small_config(FormulationVariant.FCM_T_OMEGA, periods=periods, dt_max=2e-4)
    config_path = _write_config(tmp_path / "short.cfg", cfg)
    out = tmp_path / "sweep"
    code, _, stderr = run_cli(
        "sweep", "--config", config_path, "--param", "n_alpha", "--values", values,
        "--out", str(out),
    )
    assert code == 2
    assert stderr.startswith("error: ") and "solver.periods" in stderr
    assert not out.exists()


def test_preset_and_config_are_exclusive(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--preset", "pancake2d_fcm_tw", "--config", "x.cfg")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("mesh")
    assert exc.value.code == 2


def test_unknown_sweep_param_rejected(finished_run):
    _, _, config_path = finished_run
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--config", config_path, "--param", "dt", "--values", "1")
    assert exc.value.code == 2


def test_log_level_env(monkeypatch):
    root = logging.getLogger()
    saved_handlers = root.handlers[:]
    saved_level = root.level
    try:
        for case, expected in (("debug", logging.DEBUG), ("chatty", logging.WARNING)):
            for h in root.handlers[:]:
                root.removeHandler(h)
            monkeypatch.setenv("FOILWIND_LOG", case)
            cli._setup_logging()
            assert root.level == expected
    finally:
        for h in root.handlers[:]:
            root.removeHandler(h)
        for h in saved_handlers:
            root.addHandler(h)
        root.setLevel(saved_level)
