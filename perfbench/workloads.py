"""Workloads, the pipeline they run, the correctness gate and the probes.

One operation is what a user of the command line waits for: build the
problem, run the full-order reference sweep and its goal (``poromor fom``),
run the adaptive MORe-DWR loop against that reference (``poromor moredwr
--reference``) and write both report bundles.  The pipeline calls the same
public functions as ``poromor.cli`` and always through module attributes,
so that probes installed on those attributes see the calls.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from spans import Probe, Tracer, totals


@dataclass(frozen=True)
class Workload:
    """One benchmark configuration with its pinned reference answer.

    ``J_ref`` is the full-order goal at the default traction; ``J_rtol`` is
    the relative distance a run's full-order goal may have from it.
    ``op_seconds`` is the time of one operation on a 2-core Xeon with
    OpenBLAS; it fixes how many operations a run of given length makes.
    ``counters`` are the drift counters measured for it (see ``counters``).
    """

    name: str
    problem: str
    cells: str
    steps: int
    tol: float
    J_ref: float
    J_rtol: float
    op_seconds: float
    counters: dict = field(default_factory=dict)

    def operations(self, seconds: float) -> int:
        """Operations in a run of ``seconds``.  The count does not depend on
        timing, so every run has the same mix of first (cold) and later
        operations."""
        return max(1, round(seconds / self.op_seconds))


# Mandel 80x16 runs 2000 steps, not the paper's 5000: one 5000-step
# operation takes about 48 s, longer than a whole run (BENCHMARK.json
# run_seconds); perfbench/README.md has the numbers.
WORKLOADS = {w.name: w for w in (
    Workload("mandel", "mandel", "80x16", 2000, 0.01,
             J_ref=87312919170956.45, J_rtol=1e-9, op_seconds=18.5,
             counters={"iterations": 20, "fom_solves": 65,
                       "basis_sizes": [5, 18, 24, 17]}),
    Workload("mandel-coarse", "mandel", "40x8", 5000, 0.001,
             J_ref=87312922367004.12, J_rtol=1e-9, op_seconds=16.0,
             counters={"iterations": 36, "fom_solves": 97,
                       "basis_sizes": [5, 31, 34, 28]}),
    Workload("footing", "footing", "6x6x6", 50, 0.01,
             J_ref=164276705726864.28, J_rtol=1e-6, op_seconds=30.0,
             counters={"iterations": 9, "fom_solves": 58,
                       "basis_sizes": [4, 9, 8, 6]}),
)}

DEFAULT_TRACTION = 1.0e7  # MaterialParams.traction_magnitude


def traction_scale(seed: int) -> float:
    """Power of two in [1/16, 16] chosen by the seed.

    The problem is linear in the traction, and scaling every load by a power
    of two scales every primal quantity exactly, so J is the pinned J times
    the scale and the drift counters do not move with the seed.
    """
    return 2.0 ** (seed % 9 - 4)


def make_spec(problem: str, cells: str, steps: int, tol: float,
              scale: float = 1.0):
    from poromor import problems

    return problems.parse_config(None, {
        "problem": problem, "cells": cells, "steps": steps, "tol": tol,
        "material.traction_magnitude": scale * DEFAULT_TRACTION,
    })


# ----------------------------------------------------------------------------
# probes: one per public name a layer is entered through
# ----------------------------------------------------------------------------

def _lu_fill(counts, args, result):
    lu = getattr(args[0], "_lu", None)  # the SuperLU object of Factorization
    if lu is not None:
        counts["linsolve.lu_fill"] += lu.L.nnz + lu.U.nnz


def _gmres_iterations(counts, args, result):
    counts["linsolve.gmres_iters"] += int(result[1])


def _reorthogonalized(counts, args, result):
    basis = args[0]
    if (basis.rank > 0 and result.version != basis.version
            and result.updates_since_reorth == 0):
        counts["pod.reorths"] += 1


PROBES = (
    Probe("poromor.problems.build_structured_mesh", "discretization.mesh", "discretization"),
    Probe("poromor.problems.tag_boundaries", "discretization.tag", "discretization"),
    Probe("poromor.problems.build_taylor_hood_space", "discretization.space", "discretization"),
    Probe("poromor.problems.assemble_operators", "assembly.assemble", "assembly"),
    Probe("poromor.linsolve.Factorization.__init__", "linsolve.factor", "linsolve",
          _lu_fill, solver="direct"),
    Probe("poromor.linsolve.Factorization.solve", "linsolve.lu_solve", "linsolve",
          solver="direct"),
    Probe("poromor.fom.gmres_solve", "linsolve.gmres", "linsolve",
          _gmres_iterations, solver="gmres"),
    Probe("poromor.fom.StepSystem.__init__", "fom.system", "fom"),
    Probe("poromor.fom.StepSystem.solve_primal", "fom.step", "fom"),
    Probe("poromor.fom.StepSystem.solve_dual", "fom.step", "fom"),
    Probe("poromor.fom.run_primal_fom", "fom.sweep", "fom"),
    Probe("poromor.fom.evaluate_goal", "fom.sweep", "fom"),
    Probe("poromor.adaptive.run_moredwr", "adaptive.run", "adaptive"),
    Probe("poromor.adaptive.initialize_bases", "adaptive.init", "adaptive"),
    Probe("poromor.adaptive.enrich_at", "adaptive.enrich", "adaptive"),
    Probe("poromor.adaptive.extra_dual_enrichment", "adaptive.extra_dual", "adaptive"),
    Probe("poromor.adaptive.ipod_update", "pod.ipod", "pod", _reorthogonalized),
    Probe("poromor.adaptive.project_operators", "rom.project", "rom"),
    Probe("poromor.adaptive.solve_primal_rom", "rom.sweep_primal", "rom"),
    Probe("poromor.adaptive.solve_dual_rom", "rom.sweep_dual", "rom"),
    Probe("poromor.adaptive.lift", "rom.lift", "rom"),
    Probe("poromor.adaptive.reduced_goal", "rom.goal", "rom"),
    Probe("poromor.adaptive.reduced_goal_series", "rom.goal", "rom"),
    Probe("poromor.rom.reduced_goal_series", "rom.goal", "rom"),
    Probe("poromor.adaptive.estimate_elementwise", "estimator.estimate", "estimator"),
    Probe("poromor.adaptive.build_report", "estimator.estimate", "estimator"),
    Probe("poromor.reports.write_goal_csv", "reports.write", "reports"),
    Probe("poromor.reports.write_iterations_csv", "reports.write", "reports"),
    Probe("poromor.reports.write_summary", "reports.write", "reports"),
    Probe("poromor.reports.summary_from_record", "reports.write", "reports"),
)


# ----------------------------------------------------------------------------
# one operation
# ----------------------------------------------------------------------------

@dataclass
class Outcome:
    times: dict          # phase seconds and time_to_goal_s
    J_fom: float
    record: object       # poromor.adaptive.RunRecord
    fom_gmres_iterations: int
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


def _phase(tracer: Tracer | None, name: str):
    return nullcontext() if tracer is None else tracer.span(name, "bench")


def pipeline(spec, out_dir: Path, tracer: Tracer | None = None) -> Outcome:
    """Build, reference sweep, adaptive run and reports, timed by phase."""
    from poromor import adaptive, fom, problems, reports

    clock = time.perf_counter
    t0 = clock()
    with _phase(tracer, "setup"):
        ops, grid = problems.build_problem(spec)
    t1 = clock()
    with _phase(tracer, "fom"):
        trajectory = fom.run_primal_fom(ops, grid, solver=spec.solver,
                                        store_states=False)
        J_fom = fom.evaluate_goal(trajectory, grid)
    t2 = clock()
    with _phase(tracer, "moredwr"):
        result = adaptive.run_moredwr(ops, grid, spec.moredwr,
                                      solver=spec.solver, reference_goal=J_fom)
    t3 = clock()
    record = result.record
    with _phase(tracer, "reports"):
        record.speedup = trajectory.wall_time / record.wall_time
        times_out = grid.times()[1:]
        fom_dir, mor_dir = out_dir / "fom", out_dir / "moredwr"
        reports.write_goal_csv(fom_dir, times_out,
                               goal_fom=trajectory.goal_series[1:])
        reports.write_summary(fom_dir, {
            "fingerprint": spec.fingerprint, "run_kind": "fom",
            "status": "ok", "J_fom": J_fom,
            "wall_time_s": trajectory.wall_time,
            "gmres_mean_iterations": trajectory.solve_stats.get(
                "gmres_mean_iterations")})
        reports.write_goal_csv(mor_dir, times_out,
                               goal_rom=record.goal_series[1:],
                               goal_fom=trajectory.goal_series[1:])
        reports.write_iterations_csv(mor_dir, record)
        reports.write_summary(mor_dir, reports.summary_from_record(
            record, spec.fingerprint))
    t4 = clock()
    times = {"setup_s": t1 - t0, "fom_s": t2 - t1, "moredwr_s": t3 - t2,
             "reports_s": t4 - t3, "time_to_goal_s": t4 - t0}
    outcome = Outcome(times, J_fom, record,
                      sum(trajectory.solve_stats.get("gmres_iterations", [])))
    if tracer is not None:
        outcome.spans = list(tracer.spans)
        outcome.counts = dict(tracer.counts)
    return outcome


def solver_errors() -> tuple:
    """Numerical failures that count as a failed operation, not a crash."""
    from poromor.estimator import DegenerateNormalizationError
    from poromor.linsolve import ConvergenceError, FactorizationError
    from poromor.rom import DegenerateBasisError

    return (ConvergenceError, FactorizationError, DegenerateBasisError,
            DegenerateNormalizationError)


def check(workload: Workload, scale: float, outcome: Outcome) -> list[str]:
    """Reasons the operation's answer is wrong; empty when it passes."""
    record = outcome.record
    J_ref = scale * workload.J_ref
    problems = []
    if not abs(outcome.J_fom - J_ref) <= workload.J_rtol * abs(J_ref):
        problems.append(f"J_fom {outcome.J_fom!r} differs from the pinned "
                        f"{J_ref!r} by more than {workload.J_rtol:g} relative")
    if not record.converged:
        problems.append("adaptive run did not converge")
    if not abs(record.eta_rel) < workload.tol:
        problems.append(f"|eta_rel| {abs(record.eta_rel):.4e} >= tol {workload.tol:g}")
    e_rel = abs(J_ref - record.J_rom) / abs(J_ref)
    if not e_rel <= workload.tol:
        problems.append(f"e_rel {e_rel:.4e} against the pinned J > tol {workload.tol:g}")
    return problems


def run_operation(workload: Workload, spec, scale: float, out_dir: Path,
                  tracer: Tracer | None = None):
    """One gated operation: ``(outcome, [])`` or ``(outcome|None, reasons)``."""
    if tracer is not None:
        tracer.reset()
    try:
        outcome = pipeline(spec, out_dir, tracer)
    except solver_errors() as exc:
        return None, [f"{type(exc).__name__}: {exc}"]
    return outcome, check(workload, scale, outcome)


# ----------------------------------------------------------------------------
# what an operation yields
# ----------------------------------------------------------------------------

def counters(outcome: Outcome) -> dict:
    """Machine-independent drift counters of one operation."""
    record = outcome.record
    gmres_mean = record.gmres_mean_iterations
    return {
        "iterations": len(record.iterations),
        "fom_solves": record.fom_solves,
        "basis_sizes": list(record.basis_sizes),
        "m_max": [log.m_max for log in record.iterations],
        "moredwr_gmres_iterations": (0 if gmres_mean is None
                                     else round(gmres_mean * record.fom_solves)),
        "moredwr_gmres_mean": gmres_mean,
        "fom_gmres_iterations": outcome.fom_gmres_iterations,
    }


def end_to_end(outcome: Outcome) -> dict:
    """Per-operation values of the end-to-end metrics other than set-up
    and memory, which the run measures on its own."""
    record = outcome.record
    return {
        "time_to_goal_s": outcome.times["time_to_goal_s"],
        "fom_s": outcome.times["fom_s"],
        "moredwr_s": outcome.times["moredwr_s"],
        "fom_solves": record.fom_solves,
        "rom_dim": sum(record.basis_sizes),
    }


def _named(*names):
    return lambda s: s.name in names


def _layer(layer):
    return lambda s: s.layer == layer


def _self_time(spans, keep) -> float:
    return totals(spans, keep).get(True, 0.0)


def _calls(spans, keep) -> int:
    return sum(1 for s in spans if keep(s))


# name -> (unit, value of one traced operation)
PER_LAYER = {
    "discretization.mesh_s": ("s", lambda o: _self_time(o.spans, _layer("discretization"))),
    "assembly.assemble_s": ("s", lambda o: _self_time(o.spans, _layer("assembly"))),
    "linsolve.self_s": ("s", lambda o: _self_time(o.spans, _layer("linsolve"))),
    "linsolve.solve_s": ("s", lambda o: _self_time(
        o.spans, _named("linsolve.lu_solve", "linsolve.gmres"))),
    "linsolve.lu_fill": ("count", lambda o: o.counts.get("linsolve.lu_fill", 0)),
    "linsolve.lu_solves": ("count", lambda o: _calls(o.spans, _named("linsolve.lu_solve"))),
    "linsolve.gmres_solves": ("count", lambda o: _calls(o.spans, _named("linsolve.gmres"))),
    "linsolve.gmres_iters": ("count", lambda o: o.counts.get("linsolve.gmres_iters", 0)),
    "fom.step_s": ("s", lambda o: _self_time(o.spans, _named("fom.step"))),
    "fom.step_solves": ("count", lambda o: _calls(o.spans, _named("fom.step"))),
    "fom.system_s": ("s", lambda o: _self_time(o.spans, _named("fom.system"))),
    "fom.sweep_s": ("s", lambda o: _self_time(o.spans, _named("fom.sweep"))),
    "pod.ipod_s": ("s", lambda o: _self_time(o.spans, _layer("pod"))),
    "pod.ipod_updates": ("count", lambda o: _calls(o.spans, _layer("pod"))),
    "pod.reorths": ("count", lambda o: o.counts.get("pod.reorths", 0)),
    "rom.project_s": ("s", lambda o: _self_time(o.spans, _named("rom.project"))),
    "rom.sweep_primal_s": ("s", lambda o: _self_time(o.spans, _named("rom.sweep_primal"))),
    "rom.sweep_dual_s": ("s", lambda o: _self_time(o.spans, _named("rom.sweep_dual"))),
    "rom.sweeps": ("count", lambda o: _calls(
        o.spans, _named("rom.sweep_primal", "rom.sweep_dual"))),
    "rom.lift_s": ("s", lambda o: _self_time(o.spans, _named("rom.lift"))),
    "rom.self_s": ("s", lambda o: _self_time(o.spans, _layer("rom"))),
    "estimator.estimate_s": ("s", lambda o: _self_time(o.spans, _layer("estimator"))),
    "adaptive.self_s": ("s", lambda o: _self_time(o.spans, _layer("adaptive"))),
    "adaptive.iterations": ("count", lambda o: len(o.record.iterations)),
    "reports.write_s": ("s", lambda o: _self_time(o.spans, _layer("reports"))),
    "traced.time_to_goal_s": ("s", lambda o: o.times["time_to_goal_s"]),
}


def phase_table(outcome: Outcome) -> dict:
    """Self seconds of one traced operation by ``phase/layer``; the
    ``bench`` layer is phase time spent outside every probe."""
    return {f"{phase}/{layer}": t for (phase, layer), t in sorted(
        totals(outcome.spans, lambda s: (s.phase, s.layer)).items())}


def shares(outcome: Outcome) -> dict:
    """Shares of a phase's time that the workload's reason rests on."""
    t = totals(outcome.spans, lambda s: (s.phase, s.name))
    layer = totals(outcome.spans, lambda s: (s.phase, s.layer))
    fom_s, mor_s = outcome.times["fom_s"], outcome.times["moredwr_s"]
    return {
        "fom: (lu_solve + step) / fom_s":
            (t.get(("fom", "linsolve.lu_solve"), 0.0)
             + t.get(("fom", "fom.step"), 0.0)) / fom_s,
        "fom: step / fom_s": t.get(("fom", "fom.step"), 0.0) / fom_s,
        "moredwr: (rom + pod + estimator) / moredwr_s":
            sum(layer.get(("moredwr", k), 0.0)
                for k in ("rom", "pod", "estimator")) / mor_s,
        "moredwr: gmres / moredwr_s":
            t.get(("moredwr", "linsolve.gmres"), 0.0) / mor_s,
    }
