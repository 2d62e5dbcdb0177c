"""CSV/report emission for runs and cross-tolerance comparisons.

All floats are written with 17 significant digits and the C locale, so
repeated runs with the direct solver write byte-identical files apart from
the measured columns (``wall_time_s`` and ``speedup``).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .adaptive import RunRecord

__all__ = [
    "write_goal_csv",
    "write_iterations_csv",
    "write_summary",
    "read_summary",
    "load_reference",
    "comparison_table",
    "write_comparison",
]

GOAL_CSV = "goal_trajectory.csv"
ITERATIONS_CSV = "iterations.csv"
SUMMARY_CSV = "summary.csv"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.17g}"
    return str(value)


def _write_csv(directory, name, header, rows) -> Path:
    """Write one header row and the given rows to ``directory/name``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_goal_csv(directory, times, goal_rom=None, goal_fom=None) -> Path:
    """Per-element goal integrand columns; at least one series required."""
    columns: list[tuple[str, np.ndarray]] = [("t", np.asarray(times))]
    if goal_rom is not None:
        columns.append(("goal_rom", np.asarray(goal_rom)))
    if goal_fom is not None:
        columns.append(("goal_fom", np.asarray(goal_fom)))
    if len(columns) == 1:
        raise ValueError("need at least one goal series")
    rows = ([_fmt(float(series[i])) for _, series in columns]
            for i in range(len(columns[0][1])))
    return _write_csv(directory, GOAL_CSV, [name for name, _ in columns], rows)


def write_iterations_csv(directory, record: RunRecord) -> Path:
    header = ["iteration", "eta_rel", "e_rel", "n_primal_u", "n_primal_p",
              "n_dual_u", "n_dual_p", "fom_solves", "wall_time_s", "J_rom",
              "m_max"]
    rows = ([log.iteration, _fmt(log.eta_rel), _fmt(log.e_rel),
             *log.basis_sizes, log.fom_solves, _fmt(log.wall_time),
             _fmt(log.J_rom), _fmt(log.m_max)] for log in record.iterations)
    return _write_csv(directory, ITERATIONS_CSV, header, rows)


def write_summary(directory, summary: dict) -> Path:
    return _write_csv(directory, SUMMARY_CSV, list(summary),
                      [[_fmt(v) for v in summary.values()]])


def _require_columns(path, columns, names) -> None:
    for name in names:
        if name not in columns:
            raise ValueError(f"{path} lacks the column {name!r}")


def _number(path, line: int, column: str, text) -> float:
    """``text`` from ``column`` on ``line`` of ``path`` as a float."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{path} line {line}, column {column!r}: "
                         f"{text!r} is not a number") from None


def read_summary(directory, columns=()) -> dict:
    """The summary row of a bundle; ``ValueError`` if it lacks ``columns``."""
    path = Path(directory) / SUMMARY_CSV
    with open(path, "r", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if len(rows) < 2:
        raise ValueError(f"malformed summary file {path}")
    summary = dict(zip(rows[0], rows[1]))
    _require_columns(path, summary, columns)
    return summary


def summary_from_record(record: RunRecord, fingerprint: str) -> dict:
    """Summary row mirroring the tolerance-comparison table columns."""
    sizes = record.basis_sizes
    rom_size = f"{sizes[0]} / {sizes[1]} + {sizes[2]} / {sizes[3]}"
    return {
        "fingerprint": fingerprint,
        "run_kind": "moredwr",
        "status": "converged" if record.converged else "not_converged",
        "tol_rel_pct": 100.0 * record.tol_rel,
        "e_rel_pct": None if record.e_rel is None else 100.0 * record.e_rel,
        "speedup": record.speedup,
        "fom_solves": record.fom_solves,
        "rom_size": rom_size,
        "I_eff": record.I_eff,
        "I_ind": record.I_ind,
        "eta_rel_pct": 100.0 * record.eta_rel,
        "eta": record.eta,
        "J_rom": record.J_rom,
        "J_fom": record.J_fom,
        "wall_time_s": record.wall_time,
    }


def load_reference(directory) -> dict:
    """Load a full-order reference bundle: goal value, series and wall time."""
    summary = read_summary(directory, ("fingerprint", "J_fom", "wall_time_s"))
    if summary.get("run_kind") != "fom":
        raise ValueError(f"{directory} does not hold a full-order reference run")
    path = Path(directory) / GOAL_CSV
    with open(path, "r", newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle, restval="")
        _require_columns(path, reader.fieldnames or (), ("goal_fom",))
        series = [_number(path, line, "goal_fom", row["goal_fom"])
                  for line, row in enumerate(reader, start=2)]  # after the header
    path = Path(directory) / SUMMARY_CSV
    return {
        "fingerprint": summary["fingerprint"],
        "J_fom": _number(path, 2, "J_fom", summary["J_fom"]),
        "wall_time_s": _number(path, 2, "wall_time_s", summary["wall_time_s"]),
        "goal_series": np.asarray(series),
    }


COMPARE_COLUMNS = ["tol_rel_pct", "e_rel_pct", "speedup", "fom_solves",
                   "rom_size", "I_eff", "I_ind"]


def comparison_table(bundles) -> list[dict]:
    """Align the MORe-DWR summaries of run bundles over tolerances (largest
    tolerance last)."""
    if not bundles:
        raise ValueError("need at least one summary")
    summaries = [read_summary(d, ("tol_rel_pct",)) for d in bundles]
    fingerprints = {s.get("fingerprint") for s in summaries}
    if len(fingerprints) != 1:
        raise ValueError(
            f"summaries come from different problems: {sorted(fingerprints)}")
    for s in summaries:
        if s.get("run_kind") != "moredwr":
            raise ValueError("comparison expects adaptive-run summaries")
    tolerances = [_number(Path(d) / SUMMARY_CSV, 2, "tol_rel_pct", s["tol_rel_pct"])
                  for d, s in zip(bundles, summaries)]
    order = np.argsort(tolerances, kind="stable")
    return [{c: summaries[i].get(c, "") for c in COMPARE_COLUMNS} for i in order]


def format_comparison(rows: list[dict]) -> str:
    header = ["TOL_rel [%]", "e_rel [%]", "speedup", "FOM solves",
              "ROM size", "I_eff", "I_ind"]
    table = [header]
    for row in rows:
        table.append([_short(row[c]) for c in COMPARE_COLUMNS])
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _short(value) -> str:
    if value in (None, ""):
        return "-"
    try:
        number = float(value)
    except (TypeError, ValueError):
        return str(value)
    if math.isfinite(number) and number == int(number) and abs(number) < 1e6:
        return str(int(number))
    return f"{number:.4g}"


def write_comparison(directory, rows: list[dict]) -> Path:
    return _write_csv(directory, "comparison.csv", COMPARE_COLUMNS,
                      ([_fmt(row[c]) for c in COMPARE_COLUMNS] for row in rows))
