"""Named decay-class generators and sequence-file loading.

Preset grammar: ``harmonic`` (no argument), ``geometric:<r>`` (0 < r < 1),
``polynomial:<s>`` (integer s >= 1) and ``iterlog:<d>`` (d iterations of the
integer floor-log, a rational stand-in for iterated-logarithmic decay; real
logarithms have no place in an exact-arithmetic package). A sequence can also
come from a JSON file holding an array of "p/q" strings.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from affcopy.avoider import MAX_M, ThresholdSequence, thresholdize
from affcopy.intervals import ExponentCapError, as_fraction
from affcopy.slowseq import check_horizon

#: Horizon used when a non-convex preset has to be materialized.
MATERIALIZED_HORIZON = 60_000


def _iterated_floor_log(m: int, depth: int) -> int:
    x = m + 3
    for _ in range(depth):
        x = max(2, x.bit_length() - 1)
    return x


def _argument(spec: str, arg: str, parse: Callable[[str], object], kind: str):
    """A preset's argument parsed, or a ValueError naming the preset and it,
    and for a capped exponent the reason."""
    try:
        return parse(arg)
    except (ValueError, ZeroDivisionError) as err:
        why = f": {err}" if isinstance(err, ExponentCapError) else ""
        raise ValueError(f"preset {spec!r}: malformed {kind} {arg!r}{why}") from None


def _parse_preset(spec: str) -> Optional[Tuple[Callable[[int], Fraction], bool]]:
    """Return (value function, convex) for a preset spec string, or None when
    the spec names no preset but an existing sequence file."""
    name, colon, arg = spec.partition(":")
    if name == "harmonic":
        if colon:
            raise ValueError(f"harmonic takes no argument, got {spec!r}")
        return (lambda m: Fraction(1, m + 1)), True
    if name == "geometric":
        r = _argument(spec, arg or "1/2", as_fraction, "rational")
        if not 0 < r < 1:
            raise ValueError(f"geometric ratio must be in (0,1), got {r}")
        return (lambda m: r ** m), True
    if name == "polynomial":
        s = _argument(spec, arg or "2", int, "integer")
        if s < 1:
            raise ValueError(f"polynomial exponent must be a positive integer, got {s}")
        return (lambda m: Fraction(1, (m + 1) ** s)), True
    if name == "iterlog":
        d = _argument(spec, arg or "1", int, "integer")
        if d < 1:
            raise ValueError(f"iterlog depth must be a positive integer, got {d}")
        # strictly decreasing taper times the plateaued reciprocal log
        return (lambda m: Fraction(m + 2, 2 * (m + 1) * _iterated_floor_log(m, d))), False
    if os.path.exists(spec):
        return None
    raise ValueError(f"unknown sequence preset {spec!r}")


def load_sequence_file(path: str) -> List[Fraction]:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, list) or not data or not all(isinstance(v, str) for v in data):
        raise ValueError(f"{path}: expected a nonempty JSON array of 'p/q' strings")
    values = []
    for i, text in enumerate(data, 1):
        try:
            values.append(as_fraction(text))
        except (ValueError, ZeroDivisionError) as err:
            why = f": {err}" if isinstance(err, ExponentCapError) else ""
            raise ValueError(f"{path}, entry {i}: malformed rational {text!r}{why}") from None
    return values


def threshold_sequence_from(spec: str, horizon: Optional[int] = None) -> ThresholdSequence:
    """A threshold sequence from a preset name or a sequence file.

    Convex presets evaluate directly at any index and only range-check
    ``horizon``; a sequence file is truncated to ``horizon`` values and the
    other presets are materialized over that many (MATERIALIZED_HORIZON by
    default), then convexified.
    """
    if horizon is not None:
        check_horizon(horizon)
    preset = _parse_preset(spec)
    if preset is None:
        return thresholdize(load_sequence_file(spec)[:horizon])
    fn, convex = preset
    if convex:
        return ThresholdSequence.from_convex(fn)
    count = MATERIALIZED_HORIZON if horizon is None else horizon
    return thresholdize([fn(m) for m in range(1, count + 1)])


def alpha_vector(spec: str, count: int) -> List[Fraction]:
    """A finite target vector from a preset name or a sequence file."""
    if not 1 <= count <= MAX_M:
        raise ValueError(f"count must be in 1..{MAX_M}, got {count}")
    preset = _parse_preset(spec)
    if preset is None:
        values = load_sequence_file(spec)
        if len(values) < count:
            raise ValueError(f"{spec} holds {len(values)} values, need {count}")
        return values[:count]
    fn, _ = preset
    return [fn(m) for m in range(1, count + 1)]
