"""Tests of the benchmark itself: span arithmetic, the gate and the probes.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Span, Tracer, self_times, totals  # noqa: E402


def test_self_times_of_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    spans = [Span("root", "bench", 0.0, 10.0, None, "root"),
             Span("a", "x", 1.0, 4.0, 0, "root"),
             Span("c", "y", 2.0, 3.0, 1, "root"),
             Span("b", "x", 5.0, 9.0, 0, "root")]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert totals(spans, lambda s: s.layer) == {"bench": 3.0, "x": 6.0, "y": 1.0}
    assert sum(self_times(spans)) == spans[0].duration


def test_tracer_nests_spans_and_tags_their_phase():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 9.0, 10.0, 10.0, 10.5])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("fom", "bench"):
        with tracer.span("fom.step", "fom"):
            with tracer.span("linsolve.lu_solve", "linsolve"):
                pass
        with tracer.span("fom.step", "fom"):
            pass
    with tracer.span("reports", "bench"):
        pass
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0, None]
    assert [s.phase for s in tracer.spans] == ["fom"] * 4 + ["reports"]
    assert self_times(tracer.spans) == [3.0, 3.0, 1.0, 3.0, 0.5]


def _outcome(J_fom, J_rom, eta_rel, converged=True):
    record = types.SimpleNamespace(converged=converged, eta_rel=eta_rel,
                                   J_rom=J_rom)
    return wl.Outcome({}, J_fom, record, 0)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_gate_accepts_the_pinned_answer_and_rejects_a_perturbed_one(name):
    w = wl.WORKLOADS[name]
    scale = wl.traction_scale(5)
    J = scale * w.J_ref
    eta_rel = 0.5 * w.tol
    assert wl.check(w, scale, _outcome(J, J * (1 - 0.5 * w.tol), eta_rel)) == []

    perturbed = wl.check(w, scale, _outcome(J * (1 + 10 * w.J_rtol), J, eta_rel))
    assert len(perturbed) == 1 and perturbed[0].startswith("J_fom")
    unscaled = wl.check(w, scale, _outcome(w.J_ref, w.J_ref, eta_rel))
    assert unscaled and all(r.startswith(("J_fom", "e_rel")) for r in unscaled)
    wrong = wl.check(w, scale, _outcome(J, J * (1 + 2 * w.tol),
                                        eta_rel=-2 * w.tol, converged=False))
    assert len(wrong) == 3


def test_a_convergence_error_counts_as_a_failed_operation(monkeypatch, tmp_path):
    from poromor import fom
    from poromor.linsolve import ConvergenceError

    def stalled(*args, **kwargs):
        raise ConvergenceError("GMRES stalled", residual=5e-7, iterations=5000)

    monkeypatch.setattr(fom, "run_primal_fom", stalled)
    spec = wl.make_spec("mandel", "4x2", 20, 0.01)
    outcome, reasons = wl.run_operation(wl.WORKLOADS["mandel"], spec, 1.0,
                                        tmp_path)
    assert outcome is None
    assert reasons == ["ConvergenceError: GMRES stalled"]


def test_traced_smoke_run_reaches_every_probe(tmp_path):
    """A renamed public name fails install(); an unused one stays at 0 calls."""
    from poromor import adaptive

    original = adaptive.solve_primal_rom
    tracer = Tracer()
    layers = set()
    try:
        for probe in wl.PROBES:
            tracer.install(probe)
        # footing 2^3 has no loaded facet and takes the trivial path; it is
        # here for the GMRES probes
        for problem, cells, steps in (("mandel", "4x2", 20),
                                      ("footing", "2x2x2", 4)):
            spec = wl.make_spec(problem, cells, steps, 0.01)
            tracer.reset()
            outcome = wl.pipeline(spec, tmp_path / problem, tracer)
            layers |= {s.layer for s in outcome.spans}
            for name, (unit, value) in wl.PER_LAYER.items():
                assert value(outcome) >= 0, name
    finally:
        tracer.uninstall()
    assert layers == {"bench", "discretization", "assembly", "linsolve", "fom",
                      "pod", "rom", "estimator", "adaptive", "reports"}
    assert adaptive.solve_primal_rom is original
    silent = [p.target for p in wl.PROBES if tracer.calls[p.target] == 0]
    assert silent == []


def test_power_of_two_traction_scales_J_and_keeps_the_counters(tmp_path):
    outcomes = [wl.pipeline(wl.make_spec("mandel", "4x2", 20, 0.01, scale),
                            tmp_path / str(scale))
                for scale in (1.0, wl.traction_scale(8))]
    assert wl.traction_scale(8) == 16.0
    assert outcomes[1].J_fom == 16.0 * outcomes[0].J_fom
    assert outcomes[1].record.J_rom == 16.0 * outcomes[0].record.J_rom
    assert wl.counters(outcomes[1]) == wl.counters(outcomes[0])


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [m["name"] for m in spec["per_layer"]] == list(wl.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == [u for u, _ in wl.PER_LAYER.values()]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mandel",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
