"""Print the numbers that a change claiming "bitwise unchanged" must keep.

    PYTHONPATH=src python3 tools/fingerprint.py > change.txt
    PYTHONPATH=PARENT/src python3 tools/fingerprint.py > parent.txt
    diff parent.txt change.txt

PARENT is a checkout of the commit before.  For each configuration, one
line: the sweep a reference run that keeps no states takes, the sha1 of
its goal series and J_fom, then, for the adaptive run against that
reference, J_rom, eta, I_eff, I_ind, the full-order solves, the basis
sizes and the m_max sequence.  Floats print as ``float.hex()``.
"""

from __future__ import annotations

import dataclasses
import hashlib

from poromor.adaptive import run_moredwr
from poromor.fom import evaluate_goal, run_primal_fom
from poromor.linsolve import LinearSolverConfig, SolverMethod
from poromor.problems import build_problem, footing_spec, mandel_spec


def _spec(name, spec, tol=None, solver=None):
    if tol is not None:
        spec.moredwr = dataclasses.replace(spec.moredwr, tol_rel=tol)
    if solver is not None:
        spec.solver = LinearSolverConfig(SolverMethod(solver))
    return name, spec


CONFIGS = (
    _spec("mandel 80x16/2000", mandel_spec(cells=(80, 16), steps=2000)),
    _spec("mandel 40x8/5000", mandel_spec(cells=(40, 8), steps=5000),
          tol=1e-3),
    _spec("footing 6^3/50", footing_spec(cells=(6, 6, 6), steps=50)),
    _spec("footing 4^3/50", footing_spec(cells=(4, 4, 4), steps=50)),
    _spec("mandel 4x2/20 gmres", mandel_spec(cells=(4, 2), steps=20),
          solver="gmres"),
)


def fingerprint(spec) -> str:
    ops, grid = build_problem(spec)
    reference = run_primal_fom(ops, grid, solver=spec.solver,
                               store_states=False)
    J_fom = evaluate_goal(reference, grid)
    record = run_moredwr(ops, grid, spec.moredwr, solver=spec.solver,
                         reference_goal=J_fom).record
    sha1 = hashlib.sha1(reference.goal_series.tobytes()).hexdigest()
    return " ".join([
        reference.solve_stats["sweep"], sha1, J_fom.hex(),
        record.J_rom.hex(), record.eta.hex(), record.I_eff.hex(),
        record.I_ind.hex(), str(record.fom_solves), str(record.basis_sizes),
        str([log.m_max for log in record.iterations])])


if __name__ == "__main__":
    for name, spec in CONFIGS:
        print(f"{name}: {fingerprint(spec)}", flush=True)
