"""Two-party correlation tables, extremal counterfactual couplings, and
macroscopic signalling simulations, together with the variance-bound chain
that pins the maximal CHSH value compatible with causality in the classical
limit.

The package namespace is lazy: ``nsbox.<name>`` imports the module that
defines the name at its first use, so ``import nsbox`` loads no numpy and
``nsbox.chsh`` loads only ``nsbox.boxes``.
"""

import importlib

#: Each module and the names the package exports from it.
_MODULES = {
    "boxes": (
        "A", "A_PRIME", "AliceSetting", "CorrelationTable", "Locality", "chsh", "classify_locality",
    ),
    "causality": (
        "TSIRELSON_BOUND", "CausalityCheck", "FrontierReport", "causality_condition",
        "frontier_scan", "tsirelson_check", "variance_lower_bound_a", "variance_lower_bound_ap",
    ),
    "coupling": (
        "CouplingBounds", "CouplingObjective", "CouplingValidation", "TripleCoupling",
        "coupling_bounds", "coupling_to_json", "extremal_coupling", "couplings_for_table",
        "make_scalar_extremal_couplings", "validate_coupling",
    ),
    "macro": (
        "BatchArrays", "NoiseModel", "batch_lattice", "sample_batches", "write_batches_csv",
    ),
    "records": ("Detector", "SignallingReport", "SweepRow", "Verdict", "write_sweep_csv"),
    "signalling": (
        "ProtocolConfig", "advantage_ceiling", "batch_law", "exact_tv_distance",
        "make_likelihood_detector", "resource_sweep", "run_protocol", "wilson_interval",
    ),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    """The exported `name`, looked up in its module at each access, so a
    name rebound there (a test double, a tracing wrapper) is what it gives."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
