import csv
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from poromor import adaptive, reports
from poromor.cli import main
from poromor.discretization import BoundaryTag, ProblemKind
from poromor.estimator import DegenerateNormalizationError
from poromor.assembly import MaterialParams
from poromor.linsolve import LinearSolverConfig, SolverMethod
from poromor.problems import (CONFIG_KEYS, ConfigError, footing_spec,
                              mandel_spec, parse_config, read_config_file)
from poromor.rom import DegenerateBasisError


def test_mandel_defaults_reproduce_reference_setup():
    spec = parse_config(None, {"problem": "mandel"})
    assert spec.kind is ProblemKind.MANDEL
    assert spec.cells_per_axis == (80, 16)
    assert spec.num_steps == 5000
    assert spec.t_end == pytest.approx(5.0e6)
    mat = spec.material
    assert mat.compressibility_modulus == pytest.approx(1.75e7)
    assert mat.storage_coefficient == pytest.approx(1.0 / 1.75e7)
    assert mat.biot_alpha == 1.0
    assert mat.viscosity == pytest.approx(1.0e-3)
    assert mat.permeability == pytest.approx(1.0e-13)
    assert mat.traction_magnitude == pytest.approx(1.0e7)
    assert mat.lame_mu == pytest.approx(1.0e8)
    assert mat.lame_lambda == pytest.approx(2.0e8 / 3.0)
    assert spec.solver.method is SolverMethod.DIRECT
    assert spec.moredwr.extra_dual_iterations == 5
    assert spec.goal_tag is BoundaryTag.BOTTOM


def test_footing_defaults():
    spec = parse_config(None, {"problem": "footing"})
    assert spec.cells_per_axis == (16, 16, 16)
    assert spec.solver.method is SolverMethod.GMRES
    assert spec.solver.gmres_tolerance == pytest.approx(5.0e-8)
    assert spec.moredwr.extra_dual_iterations == 8
    assert spec.goal_tag is BoundaryTag.COMPRESSION
    assert spec.traction_direction == (0.0, 0.0, 1.0)


def test_override_semantics():
    spec = parse_config(None, {"problem": "mandel", "cells": "4x2",
                               "steps": 20, "tol": 0.05})
    assert spec.cells_per_axis == (4, 2)
    assert spec.num_steps == 20
    assert spec.moredwr.tol_rel == pytest.approx(0.05)


def test_negative_steps_rejected():
    with pytest.raises(ConfigError):
        parse_config(None, {"problem": "mandel", "steps": -5})


def test_unknown_key_rejected_with_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    # the last two keys are retired: GMRES is always Jacobi-preconditioned
    # and no equation reads a density
    for line in ("bogus_key = 3", "solver.preconditioner = jacobi",
                 "material.density = 1.0"):
        cfg.write_text(f"problem = mandel\n{line}\n")
        with pytest.raises(ConfigError) as err:
            parse_config(cfg)
        assert err.value.line == 2
        assert main(["fom", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("line", ["cells = 8y4", "solver.method = lu"])
def test_bad_value_rejected_with_line(tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"problem = mandel\n{line}\n")
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert err.value.line == 2


def test_config_keys_name_dataclass_fields():
    sections = {"solver": LinearSolverConfig, "moredwr": adaptive.MoreDwrConfig,
                "material": MaterialParams}
    fields = {f"{section}.{f.name}" for section, cls in sections.items()
              for f in dataclasses.fields(cls)}
    dotted = {key for key in CONFIG_KEYS if "." in key}
    assert dotted <= fields
    assert fields - dotted == {"moredwr.tol_rel"}  # set by the key ``tol``
    assert "tol" in CONFIG_KEYS


def test_readme_config_block_lists_every_key(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration files", 1)[1]
    block = section.split("```", 2)[1]
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(block)
    assert set(read_config_file(cfg)) == set(CONFIG_KEYS)


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "problem = mandel\n"
        "cells = 8x4   # inline comment\n"
        "steps = 10\n"
        "solver.method = gmres\n"
        "material.lame_mu = 2e8\n"
        "moredwr.extra_dual_steps = 3\n")
    spec = parse_config(cfg)
    assert spec.cells_per_axis == (8, 4)
    assert spec.solver.method is SolverMethod.GMRES
    assert spec.material.lame_mu == pytest.approx(2.0e8)
    assert spec.moredwr.extra_dual_steps == 3


def test_malformed_line_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem mandel\n")
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert err.value.line == 1


def test_wrong_cell_dimension_rejected():
    with pytest.raises(ConfigError):
        parse_config(None, {"problem": "mandel", "cells": "4x4x4"})


def test_cli_fom_and_moredwr_roundtrip(tmp_path):
    fom_dir = tmp_path / "fom"
    args = ["fom", "--problem", "mandel", "--cells", "4x2", "--steps", "20",
            "--out", str(fom_dir)]
    assert main(args) == 0
    summary = reports.read_summary(fom_dir)
    assert summary["run_kind"] == "fom"
    assert float(summary["J_fom"]) > 0

    rom_dir = tmp_path / "rom"
    args = ["moredwr", "--problem", "mandel", "--cells", "4x2", "--steps",
            "20", "--tol", "0.02", "--reference", str(fom_dir),
            "--min-iterations", "0", "--out", str(rom_dir)]
    assert main(args) == 0
    summary = reports.read_summary(rom_dir)
    assert summary["status"] == "converged"
    assert float(summary["e_rel_pct"]) < 5.0
    assert float(summary["speedup"]) > 0
    assert summary["rom_size"].count("/") == 2

    with open(rom_dir / reports.ITERATIONS_CSV) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) >= 1
    assert float(rows[-1]["eta_rel"]) == pytest.approx(
        float(summary["eta_rel_pct"]) / 100.0)


def test_cli_goal_csv_one_row_per_element(tmp_path):
    out = tmp_path / "one"
    assert main(["fom", "--problem", "mandel", "--cells", "2x1",
                 "--steps", "1", "--out", str(out)]) == 0
    with open(out / reports.GOAL_CSV) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 1
    assert float(rows[0]["t"]) == pytest.approx(5.0e6)


def test_cli_fom_deterministic_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["fom", "--problem", "mandel", "--cells", "4x2",
                     "--steps", "5", "--out", str(out)]) == 0
    assert (a / reports.GOAL_CSV).read_bytes() == (b / reports.GOAL_CSV).read_bytes()


def test_cli_config_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    code = main(["fom", "--problem", "mandel", "--config", str(cfg),
                 "--out", str(tmp_path / "x")])
    assert code == 2


def test_cli_nonconvergence_exit_code_and_partial_outputs(tmp_path):
    cfg = tmp_path / "hard.cfg"
    cfg.write_text("moredwr.max_iterations = 2\n")
    out = tmp_path / "nc"
    code = main(["moredwr", "--problem", "mandel", "--cells", "4x2",
                 "--steps", "20", "--tol", "1e-12", "--config", str(cfg),
                 "--min-iterations", "0", "--out", str(out)])
    assert code == 4
    summary = reports.read_summary(out)
    assert summary["status"] == "not_converged"
    assert (out / reports.GOAL_CSV).exists()
    assert (out / reports.ITERATIONS_CSV).exists()


def test_cli_solver_failure_exit_code(tmp_path):
    cfg = tmp_path / "gmres.cfg"
    cfg.write_text("solver.max_iterations = 1\nsolver.gmres_restart = 1\n")
    code = main(["fom", "--problem", "mandel", "--cells", "4x2", "--steps",
                 "2", "--solver", "gmres", "--config", str(cfg),
                 "--out", str(tmp_path / "sf")])
    assert code == 3


def test_cli_reference_fingerprint_guard(tmp_path):
    fom_dir = tmp_path / "fom"
    assert main(["fom", "--problem", "mandel", "--cells", "4x2", "--steps",
                 "20", "--out", str(fom_dir)]) == 0
    code = main(["moredwr", "--problem", "mandel", "--cells", "8x4",
                 "--steps", "20", "--tol", "0.5", "--reference",
                 str(fom_dir), "--out", str(tmp_path / "x")])
    assert code == 2


def test_cli_moredwr_without_reference(tmp_path):
    out = tmp_path / "noref"
    assert main(["moredwr", "--problem", "mandel", "--cells", "4x2",
                 "--steps", "20", "--tol", "0.05", "--min-iterations", "0",
                 "--out", str(out)]) == 0
    summary = reports.read_summary(out)
    assert summary["e_rel_pct"] == ""
    assert summary["I_eff"] == ""
    assert summary["speedup"] == ""
    assert summary["eta_rel_pct"] != ""


def test_cli_moredwr_bunch_wider_than_basis_rows(tmp_path):
    # the 1x1 mesh has a 4-row pressure basis; the extra dual enrichment
    # feeds it a bunch of five snapshots at once
    assert main(["moredwr", "--problem", "mandel", "--cells", "1x1",
                 "--steps", "10", "--out", str(tmp_path / "x")]) == 0


def test_compare_table(tmp_path):
    dirs = []
    for i, tol in enumerate(("0.20", "0.02")):
        out = tmp_path / f"run{i}"
        assert main(["moredwr", "--problem", "mandel", "--cells", "4x2",
                     "--steps", "20", "--tol", tol, "--min-iterations", "0",
                     "--out", str(out)]) == 0
        dirs.append(str(out))
    assert main(["compare", *dirs, "--out", str(tmp_path / "cmp")]) == 0
    with open(tmp_path / "cmp" / "comparison.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2
    assert float(rows[0]["tol_rel_pct"]) < float(rows[1]["tol_rel_pct"])

    assert main(["compare", dirs[0]]) == 0  # single bundle is fine


def test_compare_rejects_mixed_problems(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out, cells in ((a, "4x2"), (b, "8x4")):
        assert main(["moredwr", "--problem", "mandel", "--cells", cells,
                     "--steps", "20", "--tol", "0.5", "--min-iterations",
                     "0", "--out", str(out)]) == 0
    summaries = [reports.read_summary(d) for d in (a, b)]
    with pytest.raises(ValueError):
        reports.comparison_table(summaries)


def test_summary_full_precision(tmp_path):
    out = tmp_path / "prec"
    assert main(["fom", "--problem", "mandel", "--cells", "4x2", "--steps",
                 "3", "--out", str(out)]) == 0
    summary = reports.read_summary(out)
    # 17 significant digits round-trip exactly
    value = float(summary["J_fom"])
    assert f"{value:.17g}" == summary["J_fom"]


@pytest.mark.parametrize("error", [
    DegenerateBasisError("reduced step matrix is numerically singular"),
    DegenerateNormalizationError("J_rom + sum(eta_m) vanishes"),
], ids=["degenerate-basis", "degenerate-normalization"])
def test_cli_numerical_failure_exit_code(tmp_path, monkeypatch, capsys, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(adaptive, "run_moredwr", fail)
    code = main(["moredwr", "--problem", "mandel", "--cells", "2x1",
                 "--steps", "2", "--out", str(tmp_path / "x")])
    assert code == 3
    assert f"numerical failure: {error}" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [("moredwr", "--reference"),
                                           ("fom", "--config")])
def test_cli_missing_input_exit_code(tmp_path, capsys, command, flag):
    missing = tmp_path / "no_such_input"
    code = main([command, "--problem", "mandel", "--cells", "2x1",
                 "--steps", "2", flag, str(missing),
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert str(missing) in capsys.readouterr().err
