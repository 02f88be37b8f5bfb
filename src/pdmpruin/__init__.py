"""Ruin / first-passage solvers for piecewise deterministic processes with
phase-type jumps, downward or upward.

The package decides integrability of the first-passage linear ODE system
through a matrix Lie-algebra closure computation, evaluates the closed-form
killed ruin probabilities where they exist (constant drift, the zero-kill
quadrature family, and the exponentially relaxing drift family), and checks
every analytic result against independent ODE-integration and Monte Carlo
oracles.
"""

import importlib

# The public names of each module.  A name is imported on first use
# (PEP 562), so ``from pdmpruin import phase_type`` loads that module alone.
_EXPORTS = {
    "phase_type": ("PhaseType", "matrix_exp"),
    "passage_model": (
        "ConstantDrift",
        "SegerdahlDrift",
        "TabulatedDrift",
        "ModelSpec",
        "PassageProblem",
        "SolutionCurve",
    ),
    "lie_algebra": ("ClosureReport", "closure", "commutator", "is_solvable"),
    "riccati": ("asymptotic_rate", "phi_k_closed_form", "phi_k_drift"),
    "mc_sim": ("SimConfig", "PassageEstimate", "estimate"),
}
_SOURCES = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_SOURCES, "__version__"]


def __getattr__(name):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
