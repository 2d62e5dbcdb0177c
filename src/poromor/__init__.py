"""Finite-element poroelasticity with adaptive goal-oriented model reduction."""

__version__ = "0.1.0"
