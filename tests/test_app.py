import csv
import dataclasses
import math
import shutil
from pathlib import Path

import pytest

from poromor import adaptive, linsolve, reports
from poromor.cli import main
from poromor.discretization import BoundaryTag, ProblemKind
from poromor.estimator import DegenerateNormalizationError
from poromor.assembly import BOUNDARY_CONDITIONS, MaterialParams
from poromor.linsolve import SolverMethod
from poromor.problems import (BOX, CONFIG_KEYS, ConfigError, ProblemSpec,
                              parse_config, read_config_file)
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
    assert BOX[spec.kind] == ((0.0, 0.0), (100.0, 20.0))
    bc = BOUNDARY_CONDITIONS[spec.kind]
    assert bc.traction_tag is BoundaryTag.TOP
    assert bc.traction_direction == (0.0, 1.0)
    assert bc.goal_tag is BoundaryTag.BOTTOM
    assert bc.neumann_tags == (BoundaryTag.TOP, BoundaryTag.RIGHT)


def test_footing_defaults():
    spec = parse_config(None, {"problem": "footing"})
    assert spec.cells_per_axis == (16, 16, 16)
    assert spec.solver.method is SolverMethod.DIRECT
    assert linsolve.GMRES_TOLERANCE == pytest.approx(1.0e-8)
    assert spec.moredwr.extra_dual_iterations == 8
    assert BOX[spec.kind] == ((-32.0, -32.0, 0.0), (64.0, 64.0, 64.0))
    bc = BOUNDARY_CONDITIONS[spec.kind]
    assert bc.traction_tag is BoundaryTag.COMPRESSION
    assert bc.traction_direction == (0.0, 0.0, 1.0)
    assert bc.goal_tag is BoundaryTag.COMPRESSION
    assert bc.neumann_tags == (BoundaryTag.TOP, BoundaryTag.COMPRESSION,
                               BoundaryTag.WALL)


def test_fingerprint_names_every_field_that_shapes_the_problem():
    # a spec holds only what a run sets: every field but the solver and the
    # adaptive loop's settings, and every material constant, shapes the
    # operators or the time grid, so the fingerprint that guards
    # --reference and compare must change with each of them
    assert {f.name for f in dataclasses.fields(ProblemSpec)} == {
        "kind", "cells_per_axis", "t_end", "num_steps", "material", "solver",
        "moredwr"}
    spec = parse_config(None, {"problem": "mandel", "cells": "4x2", "steps": 20})
    variants = [dataclasses.replace(spec, kind=ProblemKind.FOOTING),
                dataclasses.replace(spec, cells_per_axis=(4, 3)),
                dataclasses.replace(spec, t_end=0.5 * spec.t_end),
                dataclasses.replace(spec, num_steps=21)]
    variants += [dataclasses.replace(spec, material=dataclasses.replace(
        spec.material, **{f.name: 0.5 * getattr(spec.material, f.name)}))
        for f in dataclasses.fields(MaterialParams)]
    for variant in variants:
        assert variant.fingerprint != spec.fingerprint, variant
    unshaped = dataclasses.replace(
        spec, solver=dataclasses.replace(spec.solver, method=SolverMethod.GMRES),
        moredwr=dataclasses.replace(spec.moredwr, tol_rel=0.5))
    assert unshaped.fingerprint == spec.fingerprint


def test_override_semantics():
    spec = parse_config(None, {"problem": "mandel", "cells": "4x2",
                               "steps": 20, "tol": 0.05})
    assert spec.cells_per_axis == (4, 2)
    assert spec.num_steps == 20
    assert spec.moredwr.tol_rel == pytest.approx(0.05)


def test_negative_steps_rejected(tmp_path):
    # every run has at least one temporal element
    for steps in (-5, 0):
        with pytest.raises(ConfigError):
            parse_config(None, {"problem": "mandel", "steps": steps})
    assert main(["fom", "--cells", "4x2", "--steps", "0",
                 "--out", str(tmp_path / "out")]) == 2


def test_unknown_key_rejected_with_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    # all keys but the first are retired: GMRES always runs on the
    # Jacobi-scaled system, its tolerance, restart length and iteration cap
    # are linsolve constants, no equation reads a density, the POD energy
    # thresholds and the extra dual step count are adaptive constants, the
    # adaptive loop's cap is always max(steps, extra_dual_iterations + 1),
    # and the loop never stops while it enriches the dual
    for line in ("bogus_key = 3", "solver.preconditioner = jacobi",
                 "solver.gmres_tolerance = 5e-8", "solver.gmres_restart = 100",
                 "solver.max_iterations = 5000", "material.density = 1.0",
                 "moredwr.energy_primal_u = 0.9999999",
                 "moredwr.energy_primal_p = 0.99999999999",
                 "moredwr.energy_dual_u = 0.999999999",
                 "moredwr.energy_dual_p = 0.999999999",
                 "moredwr.extra_dual_steps = 5",
                 "moredwr.max_iterations = 5000",
                 "moredwr.min_iterations = 5"):
        cfg.write_text(f"problem = mandel\n{line}\n")
        with pytest.raises(ConfigError) as err:
            parse_config(cfg)
        assert err.value.line == 2
        assert main(["fom", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("line", ["cells = 8y4", "problem = cube"])
def test_bad_value_rejected_with_line(tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"problem = mandel\n{line}\n")
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert err.value.line == 2


def test_config_keys_name_dataclass_fields():
    # material is the one section with keys; ``tol`` sets moredwr.tol_rel
    fields = {f"material.{f.name}" for f in dataclasses.fields(MaterialParams)}
    assert {key for key in CONFIG_KEYS if "." in key} == fields
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
        "material.lame_mu = 2e8\n")
    spec = parse_config(cfg)
    assert spec.cells_per_axis == (8, 4)
    assert spec.material.lame_mu == pytest.approx(2.0e8)


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
            "--out", str(rom_dir)]
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
    # direct-solver reruns of fom and moredwr --reference write the same
    # bundles byte for byte, apart from the measured columns
    timing = {"wall_time_s", "speedup"}

    def untimed(path):
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        keep = [i for i, name in enumerate(rows[0]) if name not in timing]
        return [[row[i] for i in keep] for row in rows]

    runs = []
    for run in ("a", "b"):
        fom, rom = tmp_path / run / "fom", tmp_path / run / "tol1"
        assert main(["fom", "--cells", "4x2", "--steps", "20",
                     "--out", str(fom)]) == 0
        assert main(["moredwr", "--cells", "4x2", "--steps", "20",
                     "--tol", "0.01", "--reference", str(fom),
                     "--out", str(rom)]) == 0
        runs.append((fom, rom))
    for first, second in zip(*runs):
        assert ((first / reports.GOAL_CSV).read_bytes()
                == (second / reports.GOAL_CSV).read_bytes())
        assert (untimed(first / reports.SUMMARY_CSV)
                == untimed(second / reports.SUMMARY_CSV))
    first, second = runs[0][1], runs[1][1]
    assert (untimed(first / reports.ITERATIONS_CSV)
            == untimed(second / reports.ITERATIONS_CSV))


def test_cli_config_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    code = main(["fom", "--problem", "mandel", "--config", str(cfg),
                 "--out", str(tmp_path / "x")])
    assert code == 2


@pytest.mark.parametrize("command", ["fom", "moredwr"])
@pytest.mark.parametrize("line", ["solver.method = gmres",
                                  "moredwr.extra_dual_iterations = 3"])
def test_retired_solver_and_extra_dual_options_rejected(tmp_path, capsys,
                                                        command, line):
    # retired: every problem runs the direct solver, and the extra dual
    # count is a constant of each problem (--no-extra-dual-enrichment
    # sets it to 0); the key, in a file, and the flag both exit 2
    key = line.split(" = ")[0]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"problem = mandel\n{line}\n")
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert err.value.line == 2
    assert main([command, "--config", str(cfg),
                 "--out", str(tmp_path / "x")]) == 2
    assert repr(key) in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main([command, "--cells", "4x2", "--solver", "gmres",
              "--out", str(tmp_path / "y")])
    assert exc.value.code == 2
    assert "--solver" in capsys.readouterr().err


def test_cli_retired_min_iterations_flag_exit_code(tmp_path):
    # retired: the loop takes no stop while it enriches the dual, so the
    # problem's extra-dual count is its one count
    with pytest.raises(SystemExit) as exc:
        main(["moredwr", "--problem", "mandel", "--cells", "4x2",
              "--min-iterations", "0", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


@pytest.mark.parametrize("key, value", [
    ("material.traction_magnitude", "nan"), ("material.viscosity", "inf"),
    ("material.permeability", "nan"), ("t_end", "inf"), ("tol", "nan")])
def test_cli_non_finite_value_exit_code(tmp_path, capsys, key, value):
    # unchecked, each reaches the solver as a nan goal, a zero Darcy block
    # or a singular factor
    args = ["moredwr", "--problem", "mandel", "--cells", "4x2", "--steps",
            "20", "--out", str(tmp_path / "x")]
    if key == "tol":
        args += ["--tol", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        args += ["--config", str(cfg)]
    assert main(args) == 2
    assert repr(key) in capsys.readouterr().err


def test_cli_nonconvergence_exit_code_and_partial_outputs(tmp_path):
    # M = 3 steps and Mandel's extra_dual_iterations = 5: the cap of
    # max(M, extra_dual_iterations + 1) = 6 iterations stops the run
    out = tmp_path / "nc"
    code = main(["moredwr", "--problem", "mandel", "--cells", "4x2",
                 "--steps", "3", "--tol", "1e-12", "--out", str(out)])
    assert code == 4
    summary = reports.read_summary(out)
    assert summary["status"] == "not_converged"
    assert (out / reports.GOAL_CSV).exists()
    assert (out / reports.ITERATIONS_CSV).exists()


def test_cli_short_run_can_converge(tmp_path):
    # M = 5 steps and Mandel's extra_dual_iterations = 5: the cap leaves
    # one iteration after those that enrich the dual
    out = tmp_path / "short"
    code = main(["moredwr", "--problem", "mandel", "--cells", "4x2",
                 "--steps", "5", "--tol", "0.5", "--out", str(out)])
    assert code == 0
    with open(out / reports.ITERATIONS_CSV, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 6


@pytest.mark.parametrize("error", [
    MemoryError(), SystemError("gstrf was called with invalid arguments")],
    ids=["MemoryError", "SystemError"])
def test_cli_out_of_memory_factorization_exit_code(tmp_path, monkeypatch,
                                                   capsys, error):
    # what SuperLU raises when the factor's allocation fails
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(linsolve.spla, "splu", fail)
    code = main(["fom", "--problem", "mandel", "--cells", "4x2", "--steps",
                 "2", "--out", str(tmp_path / "oom")])
    assert code == 3
    assert "linear solver failure" in capsys.readouterr().err


def test_cli_bad_log_level_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("POROMOR_LOG", "verbose")
    code = main(["fom", "--problem", "mandel", "--cells", "2x1", "--steps",
                 "2", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "POROMOR_LOG" in capsys.readouterr().err


def test_cli_reference_fingerprint_guard(tmp_path):
    # a default Mandel 4x2/20 run refuses a reference made on another mesh
    # or with another material
    cases = {"mesh": ("8x4", ""),
             "material": ("4x2", "material.traction_magnitude = 2e7\n")}
    for name, (cells, config_text) in cases.items():
        config = tmp_path / f"{name}.cfg"
        config.write_text(config_text)
        fom_dir = tmp_path / f"fom-{name}"
        assert main(["fom", "--config", str(config), "--problem", "mandel",
                     "--cells", cells, "--steps", "20",
                     "--out", str(fom_dir)]) == 0
        code = main(["moredwr", "--problem", "mandel", "--cells", "4x2",
                     "--steps", "20", "--reference", str(fom_dir),
                     "--out", str(tmp_path / f"x-{name}")])
        assert code == 2, name


def test_cli_moredwr_without_reference(tmp_path):
    out = tmp_path / "noref"
    assert main(["moredwr", "--problem", "mandel", "--cells", "4x2",
                 "--steps", "20", "--tol", "0.05", "--out", str(out)]) == 0
    summary = reports.read_summary(out)
    assert summary["e_rel_pct"] == ""
    assert summary["I_eff"] == ""
    assert summary["speedup"] == ""
    assert summary["eta_rel_pct"] != ""


def test_cli_no_extra_dual_enrichment(tmp_path):
    # without the extra dual enrichment each iteration but the last adds one
    # primal and one dual step to the two seed steps
    runs = []
    for flags in ([], ["--no-extra-dual-enrichment"]):
        out = tmp_path / f"run{len(flags)}"
        assert main(["moredwr", "--problem", "mandel", "--cells", "4x2",
                     "--steps", "20", "--tol", "0.02", *flags,
                     "--out", str(out)]) == 0
        with open(out / reports.ITERATIONS_CSV) as handle:
            rows = len(list(csv.DictReader(handle)))
        runs.append((int(reports.read_summary(out)["fom_solves"]), rows))
    (with_extra, _), (without_extra, rows) = runs
    assert rows >= 2
    assert without_extra == 2 * rows
    assert with_extra > without_extra


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
                     "--steps", "20", "--tol", tol, "--out", str(out)]) == 0
        dirs.append(str(out))
    assert main(["compare", *dirs, "--out", str(tmp_path / "cmp")]) == 0
    with open(tmp_path / "cmp" / "comparison.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2
    assert float(rows[0]["tol_rel_pct"]) < float(rows[1]["tol_rel_pct"])

    assert main(["compare", dirs[0]]) == 0  # single bundle is fine


def test_compare_prints_non_finite_indices(tmp_path, capsys):
    # eta or the sum of |eta_m| at zero makes I_eff or I_ind non-finite
    dirs = []
    for tol in (1.0, 5.0):
        out = tmp_path / f"tol{tol}"
        reports.write_summary(out, {
            "fingerprint": "mandel:4x2:20:5000000", "run_kind": "moredwr",
            "tol_rel_pct": tol, "e_rel_pct": 0.5, "speedup": 2.0,
            "fom_solves": 4, "rom_size": "1 / 1 + 1 / 1",
            "I_eff": math.inf, "I_ind": math.nan})
        dirs.append(str(out))
    assert main(["compare", *dirs]) == 0
    last_row = capsys.readouterr().out.splitlines()[-1].split()
    assert last_row[-2:] == ["inf", "nan"]


def test_compare_rejects_mixed_problems(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out, cells in ((a, "4x2"), (b, "8x4")):
        assert main(["moredwr", "--problem", "mandel", "--cells", cells,
                     "--steps", "20", "--tol", "0.5", "--out", str(out)]) == 0
    with pytest.raises(ValueError):
        reports.comparison_table([a, b])


def test_summary_headers(tmp_path, mandel_fom_bundle):
    def header(directory):
        with open(directory / reports.SUMMARY_CSV, newline="") as handle:
            return next(csv.reader(handle))

    out = tmp_path / "rom"
    assert main(["moredwr", "--cells", "4x2", "--steps", "20", "--reference",
                 str(mandel_fom_bundle), "--out", str(out)]) == 0
    assert header(mandel_fom_bundle) == [
        "fingerprint", "run_kind", "status", "J_fom", "wall_time_s", "sweep"]
    assert header(out) == [
        "fingerprint", "run_kind", "status", "tol_rel_pct", "e_rel_pct",
        "speedup", "fom_solves", "rom_size", "I_eff", "I_ind", "eta_rel_pct",
        "eta", "J_rom", "J_fom", "wall_time_s"]


@pytest.mark.parametrize("steps, sweep", [(10, "steps"), (20, "propagator")])
def test_fom_summary_names_its_sweep(tmp_path, steps, sweep):
    # Mandel 4x2 has n_p = 12: 10 steps are stepped, 20 take the propagator
    out = tmp_path / "fom"
    assert main(["fom", "--cells", "4x2", "--steps", str(steps), "--out",
                 str(out)]) == 0
    assert reports.read_summary(out)["sweep"] == sweep


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


@pytest.fixture(scope="module")
def mandel_fom_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("fom") / "bundle"
    assert main(["fom", "--cells", "4x2", "--steps", "20", "--out", str(out)]) == 0
    return out


def rewrite_csv(path, edit):
    """Replace the rows of a CSV file (header included) by ``edit(rows)``."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(edit(rows))


def drop_column(name):
    return lambda rows: [[v for v, h in zip(row, rows[0]) if h != name]
                         for row in rows]


@pytest.mark.parametrize("file, column", [
    (reports.SUMMARY_CSV, "J_fom"), (reports.SUMMARY_CSV, "fingerprint"),
    (reports.GOAL_CSV, "goal_fom")])
def test_cli_reference_lacking_a_column_exit_code(tmp_path, capsys, mandel_fom_bundle,
                                                  file, column):
    reference = tmp_path / "reference"
    shutil.copytree(mandel_fom_bundle, reference)
    rewrite_csv(reference / file, drop_column(column))
    code = main(["moredwr", "--cells", "4x2", "--steps", "20",
                 "--reference", str(reference), "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(reference / file) in err and repr(column) in err


@pytest.mark.parametrize("file, column", [(reports.SUMMARY_CSV, "J_fom"),
                                          (reports.GOAL_CSV, "goal_fom")])
def test_cli_reference_short_row_exit_code(tmp_path, mandel_fom_bundle, file, column):
    # a data row cut just before ``column`` lacks it and the columns after it
    reference = tmp_path / "reference"
    shutil.copytree(mandel_fom_bundle, reference)
    rewrite_csv(reference / file,
                lambda rows: [rows[0], rows[1][:rows[0].index(column)], *rows[2:]])
    assert main(["moredwr", "--cells", "4x2", "--steps", "20", "--reference",
                 str(reference), "--out", str(tmp_path / "x")]) == 2


def set_cell(column, line, value):
    """Put ``value`` in ``column`` on ``line`` (the header is line 1)."""
    def edit(rows):
        rows[line - 1][rows[0].index(column)] = value
        return rows
    return edit


@pytest.mark.parametrize("file, column, line", [
    (reports.GOAL_CSV, "goal_fom", 7), (reports.SUMMARY_CSV, "J_fom", 2),
    (reports.SUMMARY_CSV, "wall_time_s", 2)])
def test_cli_reference_non_numeric_value_exit_code(tmp_path, capsys, mandel_fom_bundle,
                                                   file, column, line):
    reference = tmp_path / "reference"
    shutil.copytree(mandel_fom_bundle, reference)
    rewrite_csv(reference / file, set_cell(column, line, "abc"))
    code = main(["moredwr", "--cells", "4x2", "--steps", "20",
                 "--reference", str(reference), "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{reference / file} line {line}, column {column!r}: 'abc'" in err


def test_cli_reference_cut_goal_series_exit_code(tmp_path, capsys, mandel_fom_bundle):
    # the header and four of the twenty rows, as `head -5` leaves them: the
    # run is refused before it starts, and writes nothing
    reference = tmp_path / "reference"
    shutil.copytree(mandel_fom_bundle, reference)
    rewrite_csv(reference / reports.GOAL_CSV, lambda rows: rows[:5])
    out = tmp_path / "x"
    code = main(["moredwr", "--cells", "4x2", "--steps", "20",
                 "--reference", str(reference), "--out", str(out)])
    assert code == 2
    assert "holds 4 goal values, expected 20" in capsys.readouterr().err
    assert not out.exists()


def test_compare_summary_lacking_tolerance_exit_code(tmp_path, capsys):
    out = tmp_path / "rom"
    assert main(["moredwr", "--cells", "4x2", "--steps", "20", "--tol", "0.5",
                 "--out", str(out)]) == 0
    rewrite_csv(out / reports.SUMMARY_CSV, drop_column("tol_rel_pct"))
    capsys.readouterr()
    assert main(["compare", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(out / reports.SUMMARY_CSV) in err and "'tol_rel_pct'" in err


def test_compare_non_numeric_tolerance_exit_code(tmp_path, capsys):
    out = tmp_path / "rom"
    assert main(["moredwr", "--cells", "4x2", "--steps", "20", "--tol", "0.5",
                 "--out", str(out)]) == 0
    rewrite_csv(out / reports.SUMMARY_CSV, set_cell("tol_rel_pct", 2, "abc"))
    capsys.readouterr()
    assert main(["compare", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{out / reports.SUMMARY_CSV} line 2, column 'tol_rel_pct': 'abc'" in err
