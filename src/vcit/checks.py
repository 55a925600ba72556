"""Measurement classification: window tests, differential multi-level tests,
correlation detection, half-space region membership, and defect signatures.

All functions here are pure: immutable inputs, no shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .circuit import Bench, powered_consumption
from .errors import DegenerateLevels, DimensionMismatch, LengthMismatch, NotPoweredModel
from .prober import CaptureRecord, StimulusWaveform

# Scores this close to +/-1 are numerically indistinguishable from an exact
# affine relationship and are reported as exactly +/-1.
_UNITY_SNAP = 1e-12


@dataclass(frozen=True, slots=True)
class MeasurementVector:
    values: tuple
    labels: tuple

    def __post_init__(self):
        if len(self.values) != len(self.labels):
            raise ValueError("values and labels must have the same length")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("measurement values must be finite")

    def __len__(self):
        return len(self.values)


class HalfSpaceRegion:
    """Convex pass region: all x with normals.T @ x <= distances.

    normals has unit-length columns (outward boundary normals); distances
    are the hyperplane offsets from the origin.
    """

    def __init__(self, normals, distances):
        normals = np.asarray(normals, dtype=float)
        distances = np.asarray(distances, dtype=float)
        if normals.ndim != 2 or normals.shape[0] < 1 or normals.shape[1] < 1:
            raise ValueError("normals must be an m x k matrix with m, k >= 1")
        if distances.shape != (normals.shape[1],):
            raise ValueError("need one distance per normal column")
        norms = np.linalg.norm(normals, axis=0)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("normal columns must be unit vectors (within 1e-9)")
        self.normals = normals
        self.distances = distances

    @property
    def dimension(self) -> int:
        return self.normals.shape[0]

    def projections(self, values: Sequence[float]) -> np.ndarray:
        x = np.asarray(values, dtype=float)
        if x.shape != (self.dimension,):
            raise DimensionMismatch(
                f"vector has dimension {x.shape}, region expects {self.dimension}"
            )
        return self.normals.T @ x

    def violated(self, values: Sequence[float]) -> list:
        c = self.projections(values)
        return [int(j) for j in np.nonzero(c > self.distances)[0]]

    @classmethod
    def from_band(cls, lo: float, hi: float) -> "HalfSpaceRegion":
        """1-D closed interval [lo, hi] as a two-half-space region."""
        if lo > hi:
            raise ValueError("band must have lo <= hi")
        return cls(normals=[[1.0, -1.0]], distances=[hi, -lo])


@dataclass(frozen=True, slots=True)
class CorrelationRef:
    reference_samples: tuple
    dt: float
    threshold: float

    def __post_init__(self):
        if len(self.reference_samples) < 2:
            raise ValueError("reference needs at least 2 samples")
        if not self.dt > 0.0:
            raise ValueError("dt must be > 0")
        if not -1.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be in [-1, 1]")
        if float(np.var(np.asarray(self.reference_samples))) == 0.0:
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


def correlation_score(acquired: Sequence[float], reference: CorrelationRef) -> float:
    """Normalized (Pearson) correlation in [-1, 1].

    A constant acquired signal scores 0 by convention: zero variance means
    "no relationship", which is the open-probe signature.
    """
    a = np.asarray(acquired, dtype=float)
    b = np.asarray(reference.reference_samples, dtype=float)
    if a.shape != b.shape:
        raise LengthMismatch(f"acquired has {a.shape[0]} samples, reference {b.shape[0]}")
    if a.shape[0] < 2:
        raise LengthMismatch("need at least 2 samples")
    ac = a - a.mean()
    bc = b - b.mean()
    na = float(np.linalg.norm(ac))
    nb = float(np.linalg.norm(bc))
    if na == 0.0:
        return 0.0
    r = float(np.dot(ac, bc) / (na * nb))
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
    if not bench.uut.powered or bench.uut.consumption_map is None:
        raise NotPoweredModel("correlation test needs a powered model with a consumption_map")
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
        detail={
            "violated": tuple(violated),
            "projections": tuple(float(c) for c in region.projections(x.values)),
        },
    )


def classify_signature(x: MeasurementVector, catalog: Sequence) -> str:
    """Tag of the first catalog region containing x, else "unclassified".

    Overlaps resolve by catalog order; that tie rule is part of the fixture
    file contract.
    """
    if not catalog:
        raise ValueError("catalog must be non-empty")
    for tag, region in catalog:
        if len(x) != region.dimension:
            raise DimensionMismatch(
                f"vector dimension {len(x)} vs region dimension {region.dimension}"
            )
    for tag, region in catalog:
        if not region.violated(x.values):
            return tag
    return "unclassified"
