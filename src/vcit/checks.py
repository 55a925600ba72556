"""Measurement classification: window tests, differential multi-level tests,
correlation detection, and half-space region membership.

All functions here are pure: immutable inputs, no shared state.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from operator import mul
from typing import Mapping, Sequence

from .circuit import Bench, powered_consumption
from .errors import DegenerateLevels, DimensionMismatch, LengthMismatch, NotPoweredModel
from .prober import CaptureRecord, StimulusWaveform

# Scores this close to +/-1 are numerically indistinguishable from an exact
# affine relationship and are reported as exactly +/-1.
_UNITY_SNAP = 1e-12


@dataclass(frozen=True, slots=True)
class MeasurementVector:
    values: tuple

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("measurement values must be finite")


def _finite_number(value, what: str) -> float:
    """value as a float, if it is a finite real number and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{what} must be finite numbers, got {value!r}")
    return float(value)


class HalfSpaceRegion:
    """Convex pass region: all x with normals.T @ x <= distances.

    normals is an m x k matrix whose k columns are unit-length outward
    boundary normals; distances are the hyperplane offsets from the origin.
    The region keeps the columns as tuples in `columns`.
    """

    def __init__(self, normals, distances):
        try:
            rows = [tuple(row) for row in normals]
        except TypeError:
            rows = []
        if not rows or not rows[0] or any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("normals must be an m x k matrix with m, k >= 1")
        try:
            distances = tuple(distances)
        except TypeError:
            distances = ()
        if len(distances) != len(rows[0]):
            raise ValueError("need one distance per normal column")
        rows = [[_finite_number(v, "normals") for v in row] for row in rows]
        self.columns = tuple(zip(*rows))
        self.distances = tuple(_finite_number(d, "distances") for d in distances)
        if any(abs(math.hypot(*col) - 1.0) > 1e-9 for col in self.columns):
            raise ValueError("normal columns must be unit vectors (within 1e-9)")

    @property
    def dimension(self) -> int:
        return len(self.columns[0])

    def projections(self, values: Sequence[float]) -> tuple:
        """normals.T @ values, each entry a correctly rounded sum."""
        x = tuple(map(float, values))
        if len(x) != self.dimension:
            raise DimensionMismatch(
                f"vector has dimension {len(x)}, region expects {self.dimension}"
            )
        return tuple(math.fsum(map(mul, col, x)) for col in self.columns)

    def violated(self, values: Sequence[float]) -> list:
        c = self.projections(values)
        return [j for j, (cj, d) in enumerate(zip(c, self.distances)) if cj > d]


@dataclass(frozen=True, slots=True)
class CorrelationRef:
    reference_samples: tuple
    threshold: float

    def __post_init__(self):
        if len(self.reference_samples) < 2:
            raise ValueError("reference needs at least 2 samples")
        if not -1.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be in [-1, 1]")
        if not all(map(math.isfinite, self.reference_samples)):
            raise ValueError("reference samples must be finite")
        # Equal samples, not a zero variance: the variance of 0.2, 0.2, 0.2
        # rounds to 7.7e-34, not 0.
        if max(self.reference_samples) == min(self.reference_samples):
            raise ValueError("reference must be non-constant")


@dataclass(frozen=True, slots=True)
class VcitVerdict:
    passed: bool
    detail: Mapping[str, object]


def steady_state(samples: Sequence[float]) -> float:
    """Mean of the final quartile of samples: robust against the slow
    charge-absorption transient at the start of a capture."""
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    k = max(1, math.ceil(n / 4))
    return math.fsum(samples[n - k:]) / k


def closed_window(window, what: str = "window") -> tuple:
    """(lo, hi) of a closed window: two finite numbers with lo <= hi."""
    if len(window) == 2:
        lo, hi = window
        if math.isfinite(lo) and math.isfinite(hi) and lo <= hi:
            return lo, hi
    raise ValueError(f"{what} must be two finite numbers lo <= hi, got {tuple(window)!r}")


def single_level_test(capture: CaptureRecord, window) -> VcitVerdict:
    """Pass iff the steady-state measured voltage lies in [lo, hi] (closed)."""
    lo, hi = closed_window(window)
    reading = steady_state(capture.measured_voltage)
    ok = lo <= reading <= hi
    return VcitVerdict(
        passed=ok,
        detail={"pad_id": capture.pad_id, "reading": reading, "window": (lo, hi)},
    )


def differential_test(captures: Sequence[CaptureRecord], expected_deltas) -> VcitVerdict:
    """Pass iff each consecutive-level response difference lies in its window.

    Insensitive to any constant offset added to all captures, which is the
    point: absolute readings drift with stored charge, differences do not.
    """
    if len(captures) < 2:
        raise ValueError("differential test needs at least 2 captures")
    pads = {c.pad_id for c in captures}
    if len(pads) != 1:
        raise ValueError("all captures must come from the same pad")
    if len(expected_deltas) != len(captures) - 1:
        raise ValueError("need one delta window per consecutive capture pair")
    expected_deltas = [closed_window(w, "delta window") for w in expected_deltas]
    levels = [steady_state(c.applied) for c in captures]
    for a, b in zip(levels, levels[1:]):
        if a == b:
            raise DegenerateLevels(f"equal applied levels: {a!r}")
    responses = [steady_state(c.measured_voltage) for c in captures]
    deltas = [b - a for a, b in zip(responses, responses[1:])]
    violations = []
    for j, (delta, (lo, hi)) in enumerate(zip(deltas, expected_deltas)):
        if not lo <= delta <= hi:
            violations.append(j)
    return VcitVerdict(
        passed=not violations,
        detail={"pad_id": captures[0].pad_id, "deltas": tuple(deltas), "violations": tuple(violations)},
    )


def _unit_scaled(values: list) -> list:
    """values times the power of two that brings the largest magnitude into
    [0.5, 1).  The scaling is exact (down to 2**-1022 of that magnitude), so
    it moves no Pearson score, but no sum or square can overflow."""
    shift = -math.frexp(max(map(abs, values)))[1]
    return [math.ldexp(v, shift) for v in values]


def _centred(values: list) -> list:
    values = _unit_scaled(values)
    mean = math.fsum(values) / len(values)
    return _unit_scaled([v - mean for v in values])


def correlation_score(acquired: Sequence[float], reference: CorrelationRef) -> float:
    """Normalized (Pearson) correlation in [-1, 1].

    A constant acquired signal scores 0 by convention: zero variance means
    "no relationship", which is the open-probe signature.  Means, norms and
    the dot product are correctly rounded sums (math.fsum) of the centred
    samples, each vector scaled by its largest magnitude first.
    """
    a = [float(v) for v in acquired]
    b = [float(v) for v in reference.reference_samples]
    if len(a) != len(b):
        raise LengthMismatch(f"acquired has {len(a)} samples, reference {len(b)}")
    if len(a) < 2:
        raise LengthMismatch("need at least 2 samples")
    if not all(map(math.isfinite, a)):
        raise ValueError("acquired samples must be finite")
    if max(a) == min(a):
        return 0.0
    ac = _centred(a)
    bc = _centred(b)
    na = math.sqrt(math.fsum(v * v for v in ac))
    nb = math.sqrt(math.fsum(v * v for v in bc))
    r = math.fsum(map(mul, ac, bc)) / (na * nb)
    r = max(-1.0, min(1.0, r))
    if 1.0 - abs(r) < _UNITY_SNAP:
        r = math.copysign(1.0, r)
    return r


def correlation_test(
    bench: Bench, waveform: StimulusWaveform, ref: CorrelationRef
) -> VcitVerdict:
    """Powered-mode integrity test: drive the input pad with the tailored
    waveform, acquire the supply-current trace, pass iff its correlation
    against the reference meets the threshold.

    An open input contact leaves the pad at rest, so the consumption trace
    is constant and the score is 0.
    """
    if not bench.uut.powered:
        raise NotPoweredModel("correlation test needs a powered model")
    if len(waveform.target_pads) != 1:
        raise ValueError("correlation test drives exactly one input pad")
    if waveform.mode != "voltage":
        raise ValueError("correlation test uses a voltage-mode stimulus")
    pad_id = waveform.target_pads[0]
    bench.uut.pad(pad_id)
    contact_open = bench.contact(pad_id).is_open
    trace = [
        powered_consumption(bench.uut, 0.0 if contact_open else level)
        for level in waveform.samples
    ]
    score = correlation_score(trace, ref)
    return VcitVerdict(
        passed=score >= ref.threshold,
        detail={"pad_id": pad_id, "score": score, "threshold": ref.threshold},
    )


def shape_test(x: MeasurementVector, region: HalfSpaceRegion) -> VcitVerdict:
    """Pass iff x lies in the region: every projection onto a boundary
    normal stays within that hyperplane's distance from the origin."""
    violated = region.violated(x.values)
    return VcitVerdict(
        passed=not violated,
        detail={"violated": tuple(violated), "projections": region.projections(x.values)},
    )
