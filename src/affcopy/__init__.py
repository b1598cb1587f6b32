"""Exact rational interval geometry and the constructions built on it.

Everything in this package computes with ``fractions.Fraction``; there is no
floating point and every reported measure, endpoint and certificate is exact.

Importing the package loads no layer: each layer module is imported the first
time it, or one of the names below, is read from the package.
"""

from importlib import import_module

#: Every layer module, with the names the package exports from it.
_EXPORTS = {
    "avoider": ("AvoiderConstruction", "EmbeddingCertificate", "EmbeddingSearchError",
                "ThresholdSequence", "build_avoider", "delta0_of", "enumerate_base",
                "find_embedding", "measure_union_translates", "plan_budget",
                "summability_report", "thresholdize"),
    "cantor": ("CantorConstruction", "FinitePointsOracle", "GapOracle", "MiddleThirdOracle",
               "OracleViolationError", "TernaryCantorOracle", "build_cantor",
               "truncated_union_cover", "verify_cantor"),
    "cli": (),
    "expbounds": (),
    "intervals": ("EMPTY", "Interval", "IntervalSet", "as_fraction", "normalize", "union_all"),
    "mixedradix": ("MixedRadixSystem", "NestedChain", "branch_index", "check_h_condition",
                   "default_schedule", "f_membership", "make_system", "nested_intersect",
                   "premeasure_bound"),
    "presets": (),
    "propcheck": (),
    "slowseq": ("HorizonError", "SlowSequence", "TranslateDecomposition", "build_mu",
                "coverage01", "decompose_translates", "threshold_index", "verify_slow_decay"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_LAYER_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _LAYER_OF:
        return getattr(import_module(f"{__name__}.{_LAYER_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
