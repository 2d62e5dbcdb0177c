"""Benchmark catalog and configuration parsing.

Two built-in problems: the 2D Mandel consolidation benchmark (traction on
the top edge, goal = time-integrated bottom pressure) and a 3D footing
problem (traction on a centered compression patch, goal = time-integrated
patch pressure).  Defaults reproduce the reference setups: Mandel on an
80x16 grid and footing on a 16^3 grid, both with T = 5e6 s over 5000 steps.

Configuration files are flat ``key = value`` text with dotted section
prefixes; see CONFIG_KEYS for the schema.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .adaptive import MoreDwrConfig
from .assembly import BlockOperators, MaterialParams, assemble_operators
from .discretization import (BoundaryTag, ProblemKind, build_structured_mesh,
                             build_taylor_hood_space, tag_boundaries)
from .fom import TimeGrid
from .linsolve import LinearSolverConfig, SolverMethod, release_heap

__all__ = [
    "ProblemSpec",
    "ConfigError",
    "mandel_spec",
    "footing_spec",
    "parse_config",
    "build_problem",
]


class ConfigError(ValueError):
    """Configuration rejected; carries the offending line number if known."""

    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


@dataclass
class ProblemSpec:
    """Complete description of one benchmark run."""

    kind: ProblemKind
    origin: tuple[float, ...]
    extent: tuple[float, ...]
    cells_per_axis: tuple[int, ...]
    t_end: float
    num_steps: int
    material: MaterialParams
    traction_tag: BoundaryTag
    traction_direction: tuple[float, ...]
    goal_tag: BoundaryTag
    neumann_tags: tuple[BoundaryTag, ...]
    solver: LinearSolverConfig = field(default_factory=LinearSolverConfig)
    moredwr: MoreDwrConfig = field(default_factory=MoreDwrConfig)

    @property
    def fingerprint(self) -> str:
        cells = "x".join(str(n) for n in self.cells_per_axis)
        values = (self.t_end, *dataclasses.astuple(self.material))
        return ":".join([self.kind.value, cells, str(self.num_steps),
                         *(f"{v:.17g}" for v in values)])

    def validate(self) -> None:
        if self.num_steps < 1:
            raise ConfigError(f"number of steps must be >= 1, got {self.num_steps}")
        if self.t_end <= 0:
            raise ConfigError(f"t_end must be positive, got {self.t_end}")
        if len(self.cells_per_axis) != len(self.origin):
            raise ConfigError("cells and geometry dimensions do not match")
        if any(n < 1 for n in self.cells_per_axis):
            raise ConfigError(f"cell counts must be >= 1, got {self.cells_per_axis}")
        self.material.validate()
        self.moredwr.validate()


def mandel_spec(cells=(80, 16), steps=5000, t_end=5.0e6) -> ProblemSpec:
    """2D consolidation benchmark with defaults at reference resolution."""
    return ProblemSpec(
        kind=ProblemKind.MANDEL,
        origin=(0.0, 0.0),
        extent=(100.0, 20.0),
        cells_per_axis=tuple(cells),
        t_end=t_end,
        num_steps=steps,
        material=MaterialParams(),
        traction_tag=BoundaryTag.TOP,
        traction_direction=(0.0, 1.0),
        goal_tag=BoundaryTag.BOTTOM,
        neumann_tags=(BoundaryTag.TOP, BoundaryTag.RIGHT),
        solver=LinearSolverConfig(method=SolverMethod.DIRECT),
        # the stopping check stays suppressed through the extra-enrichment
        # phase: the estimate underestimates severely before the dual bases
        # have seen the late-dual transient
        moredwr=MoreDwrConfig(extra_dual_iterations=5, min_iterations=5),
    )


def footing_spec(cells=(16, 16, 16), steps=5000, t_end=5.0e6) -> ProblemSpec:
    """3D footing benchmark; the direct solver, in nested-dissection order,
    by default."""
    return ProblemSpec(
        kind=ProblemKind.FOOTING,
        origin=(-32.0, -32.0, 0.0),
        extent=(64.0, 64.0, 64.0),
        cells_per_axis=tuple(cells),
        t_end=t_end,
        num_steps=steps,
        material=MaterialParams(),
        traction_tag=BoundaryTag.COMPRESSION,
        traction_direction=(0.0, 0.0, 1.0),
        goal_tag=BoundaryTag.COMPRESSION,
        neumann_tags=(BoundaryTag.TOP, BoundaryTag.COMPRESSION, BoundaryTag.WALL),
        # perfbench/workloads.make_spec passes no solver.method, so the
        # benchmark's footing workload takes its solver from this default
        solver=LinearSolverConfig(method=SolverMethod.DIRECT),
        moredwr=MoreDwrConfig(extra_dual_iterations=8, min_iterations=8),
    )


def build_problem(spec: ProblemSpec) -> tuple[BlockOperators, TimeGrid]:
    """Mesh, tag, assemble and constrain one benchmark problem."""
    spec.validate()
    mesh = build_structured_mesh(spec.origin, spec.extent, spec.cells_per_axis)
    mesh = tag_boundaries(mesh, spec.kind)
    space = build_taylor_hood_space(mesh)
    ops = assemble_operators(
        space, spec.material, spec.kind,
        traction_tag=spec.traction_tag,
        traction_direction=np.asarray(spec.traction_direction),
        goal_tag=spec.goal_tag,
        neumann_tags=spec.neumann_tags,
    )
    grid = TimeGrid(t_end=spec.t_end, num_elements=spec.num_steps)
    # the assembly's temporaries are freed; give their heap back
    release_heap()
    return ops, grid


# ----------------------------------------------------------------------------
# key-value configuration
# ----------------------------------------------------------------------------

def _parse_cells(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.lower().split("x"))


def _parse_finite(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError("finite number expected")
    return value


def _parse_choice(enum):
    """Case-insensitive parser of one enum's values."""
    def parse(text: str):
        try:
            return enum(text.lower())
        except ValueError:
            raise ValueError(" or ".join(repr(m.value) for m in enum)
                             + " expected") from None
    return parse


# every key and the parser of its value.  ``problem`` selects the defaults;
# a dotted key ``<section>.<field>`` sets that field of the spec's
# ``solver``, ``moredwr`` or ``material``; each other key sets the field
# that _SPEC_FIELDS names.
CONFIG_KEYS: dict[str, Callable[[str], object]] = {
    "problem": _parse_choice(ProblemKind),
    "cells": _parse_cells,
    "steps": int,
    "t_end": _parse_finite,
    "tol": _parse_finite,
    "solver.method": _parse_choice(SolverMethod),
    "moredwr.extra_dual_iterations": int,
    "moredwr.min_iterations": int,
    "material.compressibility_modulus": _parse_finite,
    "material.biot_alpha": _parse_finite,
    "material.viscosity": _parse_finite,
    "material.permeability": _parse_finite,
    "material.traction_magnitude": _parse_finite,
    "material.lame_mu": _parse_finite,
    "material.lame_lambda": _parse_finite,
}

_SPEC_FIELDS = {"cells": "cells_per_axis", "steps": "num_steps",
                "t_end": "t_end", "tol": "moredwr.tol_rel"}

_DEFAULTS = {ProblemKind.MANDEL: mandel_spec, ProblemKind.FOOTING: footing_spec}


def _parse_value(key: str, value, line: int | None = None):
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown key {key!r}", line=line)
    try:
        return CONFIG_KEYS[key](value)
    except ValueError as exc:
        raise ConfigError(f"cannot parse value {value!r} for key {key!r}: {exc}",
                          line=line) from exc


def read_config_file(path) -> dict:
    """Parse a flat key-value file; bad keys and values are rejected with
    their line number."""
    settings: dict = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"expected 'key = value', got {raw.strip()!r}",
                                  line=lineno)
            key, _, value = (part.strip() for part in line.partition("="))
            settings[key] = _parse_value(key, value, lineno)
    return settings


def parse_config(path=None, overrides: dict | None = None) -> ProblemSpec:
    """Build a validated ProblemSpec from a config file and/or overrides.

    ``overrides`` uses the same keys as the file and wins over it.  The
    ``problem`` key selects the benchmark whose defaults fill everything
    not mentioned.
    """
    settings = read_config_file(path) if path is not None else {}
    for key, value in (overrides or {}).items():
        if value is not None:
            settings[key] = _parse_value(key, value)

    spec = _DEFAULTS[settings.pop("problem", ProblemKind.MANDEL)]()
    for key, value in settings.items():
        section, _, name = _SPEC_FIELDS.get(key, key).rpartition(".")
        if section:
            value = dataclasses.replace(getattr(spec, section), **{name: value})
            name = section
        setattr(spec, name, value)
    try:
        spec.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return spec
