"""Bohr equivalence toolkit for general Dirichlet series.

Exact rational bases of exponent sequences, phase congruence systems deciding
equivalence of truncations, dual-route value-set sampling, and
argument-principle zero counting, behind a library API and the `bohreq` CLI.

Public names are loaded from their submodule on first use, so importing the
package, or only its exact layer, does not import NumPy.
"""

import importlib

__version__ = "0.1.0"

#: Each public name and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "basis": ("Basis", "BohrMatrix", "compute_basis", "denominator_lcms"),
        "core": (
            "ExponentVector",
            "SeriesSpec",
            "SymbolTable",
            "TailMajorant",
            "tail_bound",
            "validate_series",
        ),
        "equivalence": (
            "CongruenceSystem",
            "PhaseTargets",
            "closure_demo",
            "extract_phase_targets",
            "integer_kernel",
            "is_equivalent_truncated",
            "kronecker_find_t",
            "solve_phase_system",
            "twist",
        ),
        "evaluation": ("GridBox", "evaluate", "shift_series", "uniform_distance"),
        "scenarios": ("bohr_example", "negate", "ordinary_series", "tau"),
        "valuesets": ("ValueCloud", "hausdorff"),
        "zeros": ("Rectangle", "count_zeros", "sigma_star"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # A public name is read from its submodule; any other name is tried as a
    # submodule, so `bohreq.errors` resolves after a bare `import bohreq`.
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value
        return value
    try:
        return importlib.import_module(f".{name}", __name__)
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
