"""Command-line interface: exit codes, stdout contracts, artifacts."""

import io
import json
import logging
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import pytest

from foilwind import cli, solver
from foilwind.config import serialize_config
from foilwind.solver import newton_solve, splu
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
    assert json.loads((out_dir / "summary.json").read_text())["status"] == "ok"
    assert (out_dir / "trace.csv").is_file()


def test_run_too_short_for_mean(tmp_path):
    cfg = small_config(FormulationVariant.FCM_T_OMEGA, periods=0.25, dt_max=2e-4)
    config_path = _write_config(tmp_path / "short.cfg", cfg)
    code, stdout, _ = run_cli("run", "--config", config_path, "--out", str(tmp_path / "o"))
    assert code == 0
    assert "P = n/a (run shorter than half a period)" in stdout


def _failing_config(amplitude=300.0):
    # a one-iteration Newton budget with no room to shrink dt cannot track
    # the nonlinear peak
    return small_config(
        FormulationVariant.FCM_T_OMEGA,
        amplitude=amplitude,
        periods=0.5,
        dt_init=2e-4,
        dt_max=2e-4,
        dt_min=1.9e-4,
        max_newton_iters=1,
    )


def test_run_solver_failure_exits_1(finished_run, tmp_path):
    cfg = _failing_config()
    config_path = _write_config(tmp_path / "hard.cfg", cfg)
    out = tmp_path / "o"
    # into a directory that holds a finished run, which the failure replaces
    shutil.copytree(finished_run[0], out)
    assert {"trace.csv", "slices.csv", "fields_0.vtk", "fields_1.vtk"} < set(os.listdir(out))
    code, _, stderr = run_cli("run", "--config", config_path, "--out", str(out))
    assert code == 1
    assert stderr.startswith("solver failure: ")
    assert sorted(os.listdir(out)) == ["config.txt", "summary.json"]
    # the failed run still says what it ran and why it stopped
    assert (out / "config.txt").read_text() == serialize_config(cfg)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "failed"
    assert summary["reason"] in stderr
    # the last attempt's residuals: the start point and its one iteration
    history = summary["residual_history"]
    assert len(history) == 2 and all(r > 0 for r in history)
    assert f"{history[-1]:.3e}" in summary["reason"]
    assert summary["variant"] == "fcm-t-omega" and summary["n_dofs"] > 0
    # compare refuses it, and names it
    code, _, stderr = run_cli("compare", str(out), str(out))
    assert code == 2 and stderr.startswith(f"error: {out} is not a run directory")


# at 300 A the first step fails, at 30 A the ninth
@pytest.mark.parametrize("amplitude", [300.0, 30.0])
def test_failed_run_summary_says_how_far_it_got(tmp_path, monkeypatch, amplitude):
    counts = {"splu": 0, "accepted": 0}

    def counting_splu(*args, **kwargs):
        counts["splu"] += 1
        return splu(*args, **kwargs)

    def counting_newton_solve(*args, **kwargs):
        result = newton_solve(*args, **kwargs)
        counts["accepted"] += 1
        return result

    monkeypatch.setattr(solver, "splu", counting_splu)
    monkeypatch.setattr(solver, "newton_solve", counting_newton_solve)
    cfg = _failing_config(amplitude)
    code, _, _ = run_cli("run", "--config", _write_config(tmp_path / "hard.cfg", cfg),
                         "--out", str(tmp_path / "o"))
    assert code == 1
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["status"] == "failed"
    # every factorization, the failing step's rejected attempts included
    assert summary["linsys_count"] == counts["splu"] > 0
    assert summary["accepted_steps"] == counts["accepted"]
    assert summary["counters"]["newton_iterations"] == summary["linsys_count"]
    assert summary["counters"]["rejected_attempts"] >= 1
    # every accepted step is dt_max long
    assert summary["last_accepted_time_s"] == pytest.approx(counts["accepted"] * cfg.solver.dt_max)


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


def _drop(*path):
    def edit(summary):
        for key in path[:-1]:
            summary = summary[key]
        del summary[path[-1]]
    return edit


def _set(*path, value):
    def edit(summary):
        for key in path[:-1]:
            summary = summary[key]
        summary[path[-1]] = value
    return edit


@pytest.mark.parametrize(
    "broken",
    [
        lambda text, summary: "[]",
        lambda text, summary: text[: len(text) // 2],  # truncated
        *[
            lambda text, summary, edit=edit: edit(summary) or json.dumps(summary)
            for edit in (
                _set("excitation", "frequency", value="50"),
                _set("excitation", "frequency", value=float("nan")),
                _set("excitation", "frequency", value=float("inf")),
                _set("excitation", "frequency", value=-50.0),
                _set("excitation", "amplitude", value=None),
                _set("excitation", "amplitude", value=float("nan")),
                _set("excitation", "amplitude", value=float("-inf")),
                _drop("excitation", "amplitude"),
                _drop("variant"),
                _set("variant", value=3),
                _drop("n_dofs"),
                _set("n_dofs", value="1892"),
                _drop("linsys_count"),
                _set("linsys_count", value=1.5),
                _set("status", value="failed"),
            )
        ],
    ],
    ids=[
        "list", "truncated", "frequency-str", "frequency-NaN", "frequency-Infinity",
        "frequency-negative", "amplitude-null", "amplitude-NaN", "amplitude-minus-Infinity",
        "no-amplitude",
        "no-variant", "variant-int", "no-n_dofs", "n_dofs-str", "no-linsys_count",
        "linsys_count-float", "status-failed",
    ],
)
def test_compare_rejects_a_malformed_summary_naming_its_directory(finished_run, tmp_path, broken):
    # a missing excitation is test_compare_rejects_non_run_dir's case
    out_dir, _, _ = finished_run
    text = (out_dir / "summary.json").read_text()
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "trace.csv").write_text((out_dir / "trace.csv").read_text())
    (bad / "summary.json").write_text(broken(text, json.loads(text)))
    for run_dir, ref_dir in ((bad, out_dir), (out_dir, bad)):
        code, _, stderr = run_cli("compare", str(run_dir), str(ref_dir), "--out", str(tmp_path))
        assert code == 2
        assert stderr.startswith(f"error: {bad} is not a run directory")


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


def _edit_last_row(column, value):
    def edit(rows):
        rows[-1][column] = value(rows)
        return rows
    return edit


@pytest.mark.parametrize(
    "edit, detail",
    [
        (lambda rows: [row[:3] for row in rows], "line 2 has 3 fields, not 4"),
        (_edit_last_row(1, lambda rows: "nan"), "finite"),
        (_edit_last_row(0, lambda rows: "nan"), "finite"),
        (_edit_last_row(0, lambda rows: rows[-2][0]), "increasing"),
        (_edit_last_row(1, lambda rows: "-1e-3"), "non-negative"),
        (lambda rows: None, "empty file, no header"),
        (lambda rows: [], "too short"),
        (lambda rows: rows[:1], "too short"),
    ],
    ids=["rows-of-3-fields", "p-NaN", "t-NaN", "t-repeated", "p-negative", "empty-file",
         "header-only", "one-row"],
)
def test_compare_rejects_a_malformed_trace_naming_its_directory(finished_run, tmp_path, edit,
                                                               detail):
    out_dir, _, _ = finished_run
    header, *lines = (out_dir / "trace.csv").read_text().splitlines()
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "summary.json").write_text((out_dir / "summary.json").read_text())
    rows = edit([line.split(",") for line in lines])  # None: the file is empty
    text = "" if rows is None else "\n".join([header, *map(",".join, rows)]) + "\n"
    (bad / "trace.csv").write_text(text)
    for run_dir, ref_dir in ((bad, out_dir), (out_dir, bad)):
        code, _, stderr = run_cli("compare", str(run_dir), str(ref_dir), "--out", str(tmp_path))
        assert code == 2
        assert stderr.startswith(f"error: {bad} is not a run directory") and detail in stderr
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


def test_parallel_sweep_reports_a_solver_failure(tmp_path):
    # the worker's NonConvergenceError crosses the process boundary whole
    cfg = _failing_config()
    cfg = replace(cfg, solver=replace(cfg.solver, periods=1.0))
    out = tmp_path / "sweep"
    code, _, stderr = run_cli(
        "sweep", "--config", _write_config(tmp_path / "hard.cfg", cfg), "--param", "n_alpha",
        "--values", "4,6", "--jobs", "2", "--out", str(out),
    )
    assert code == 1
    assert stderr.startswith("solver failure: ")


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
    "param, jobs, values, says",
    [("n_alpha", "0", "4", "job"), ("n_alpha", "-1", "4", "job"), ("n_alpha", "1", "4,4.5", "whole"),
     ("rho0", "1", "1e-3,nan", "finite"), ("n_alpha", "1", "4,2", "n_alpha = 2 cannot be built"),
     ("n_turns", "1", "2,3", "n_turns = 3 cannot be built")],
    ids=["jobs0", "jobs-1", "frac", "rho0-nan", "too-few-columns", "turns-split-columns"],
)
def test_sweep_rejects_bad_arguments_before_running(finished_run, tmp_path, param, jobs, values, says):
    _, _, config_path = finished_run
    if param == "rho0":  # only fcm-h-full has the spurious air resistivity
        cfg = small_config(FormulationVariant.FCM_H_FULL, periods=1.0)  # long enough to compare
        config_path = _write_config(tmp_path / "hfull.cfg", cfg)
    if param == "n_turns":  # the reference meshes each turn on whole columns of n_alpha = 4
        cfg = small_config(FormulationVariant.REF_H_PHI, periods=1.0, dt_max=2e-4)
        config_path = _write_config(tmp_path / "ref.cfg", cfg)
    out = tmp_path / "sweep"
    code, _, stderr = run_cli(
        "sweep", "--config", config_path, "--param", param,
        "--values", values, "--jobs", jobs, "--out", str(out),
    )
    assert code == 2
    assert stderr.startswith("error: ") and says in stderr
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


def test_log_level_env(monkeypatch, capsys):
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
            err = capsys.readouterr().err
            if case == "debug":
                assert err == ""
            else:
                # one line that names the unknown level and the accepted ones
                assert err.count("\n") == 1 and "'CHATTY'" in err
                assert all(name in err for name in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"))
    finally:
        for h in root.handlers[:]:
            root.removeHandler(h)
        for h in saved_handlers:
            root.addHandler(h)
        root.setLevel(saved_level)
