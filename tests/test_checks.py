"""Classification tests: window and differential checks against closed-form
oracles, correlation conventions, and half-space region membership."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vcit.checks import (
    CorrelationRef,
    HalfSpaceRegion,
    MeasurementVector,
    correlation_score,
    correlation_test,
    differential_test,
    shape_test,
    single_level_test,
    steady_state,
)
from vcit.circuit import (
    Bench,
    ContactState,
    DiodeModel,
    OpenPad,
    PadCircuit,
    Resistive,
    SeriesDiode,
    UutModel,
)
from vcit.errors import (
    DegenerateLevels,
    DimensionMismatch,
    LengthMismatch,
    NotPoweredModel,
)
from vcit.prober import CaptureRecord, ProtectionLimits, StimulusWaveform, execute

LIMITS = ProtectionLimits(2.0, 0.05)


def flat_capture(volts, pad="p1", n=4, applied=1e-3):
    return CaptureRecord(
        pad_id=pad,
        dt=1e-3,
        applied=(applied,) * n,
        measured_voltage=(volts,) * n,
        measured_current=(applied,) * n,
    )


class TestSteadyState:
    def test_final_quartile_mean(self):
        assert steady_state((9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 2.0, 4.0)) == 3.0

    def test_single_sample(self):
        assert steady_state((5.0,)) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            steady_state(())


class TestSingleLevel:
    def test_inside_window(self):
        assert single_level_test(flat_capture(0.65), (0.3, 1.0)).passed

    def test_boundaries_are_closed(self):
        assert single_level_test(flat_capture(0.3), (0.3, 1.0)).passed
        assert single_level_test(flat_capture(1.0), (0.3, 1.0)).passed

    def test_outside(self):
        v = single_level_test(flat_capture(0.2999), (0.3, 1.0))
        assert not v.passed
        assert v.detail["reading"] == pytest.approx(0.2999)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            single_level_test(flat_capture(0.5), (1.0, 0.3))


class TestDifferential:
    def run_levels(self, bench, levels, mode="current"):
        out = []
        for level in levels:
            waveform = StimulusWaveform(mode, (level,) * 4, 1e-3, ("p1",))
            out.append(execute(waveform, LIMITS, bench)[0])
        return out

    def test_resistive_delta_is_ohms_law(self):
        uut = UutModel(pads=(("p1", PadCircuit(Resistive(1000.0))),))
        bench = Bench(uut, {"p1": ContactState(0.0)})
        captures = self.run_levels(bench, (1e-4, 1.1e-3))
        verdict = differential_test(captures, ((0.999, 1.001),))
        assert verdict.passed
        assert verdict.detail["deltas"][0] == pytest.approx(1.0, abs=1e-6)

    def diode_captures(self):
        uut = UutModel(pads=(("p1", PadCircuit(SeriesDiode(DiodeModel(1e-14)))),))
        bench = Bench(uut, {"p1": ContactState(0.0)})
        return self.run_levels(bench, (1e-3, 2e-3))

    def test_diode_delta_is_nvt_ln2(self):
        captures = self.diode_captures()
        expected = 0.02585 * math.log(2.0)
        verdict = differential_test(captures, ((expected - 1e-4, expected + 1e-4),))
        assert verdict.passed
        assert verdict.detail["deltas"][0] == pytest.approx(expected, abs=1e-6)

    def test_offset_invariance(self):
        captures = self.diode_captures()
        shifted = [
            CaptureRecord(
                pad_id=c.pad_id,
                dt=c.dt,
                applied=c.applied,
                measured_voltage=tuple(v + 0.05 for v in c.measured_voltage),
                measured_current=c.measured_current,
            )
            for c in captures
        ]
        window = ((0.0179, 0.018),)
        assert differential_test(captures, window).passed
        assert differential_test(shifted, window).passed
        a = differential_test(captures, window).detail["deltas"]
        b = differential_test(shifted, window).detail["deltas"]
        assert a[0] == pytest.approx(b[0], abs=1e-12)

    def test_equal_levels_degenerate(self):
        with pytest.raises(DegenerateLevels):
            differential_test([flat_capture(0.5), flat_capture(0.6)], ((0.0, 1.0),))

    def test_mixed_pads_rejected(self):
        with pytest.raises(ValueError):
            differential_test(
                [flat_capture(0.5, pad="a"), flat_capture(0.6, pad="b", applied=2e-3)],
                ((0.0, 1.0),),
            )

    def test_needs_two_captures(self):
        with pytest.raises(ValueError):
            differential_test([flat_capture(0.5)], ())

    def test_violating_delta_reported(self):
        caps = [flat_capture(0.5, applied=1e-3), flat_capture(0.9, applied=2e-3)]
        verdict = differential_test(caps, ((0.0, 0.1),))
        assert not verdict.passed
        assert verdict.detail["violations"] == (0,)


def numpy_correlation(acquired, reference):
    """correlation_score as numpy computes it: pairwise means, BLAS norms and dot."""
    a = np.asarray(acquired, dtype=float)
    b = np.asarray(reference, dtype=float)
    ac = a - a.mean()
    bc = b - b.mean()
    r = float(np.dot(ac, bc) / (np.linalg.norm(ac) * np.linalg.norm(bc)))
    r = max(-1.0, min(1.0, r))
    return math.copysign(1.0, r) if 1.0 - abs(r) < 1e-12 else r


class TestCorrelation:
    def ref(self, samples, threshold=0.9):
        return CorrelationRef(reference_samples=tuple(samples), threshold=threshold)

    def test_self_correlation_exactly_one(self):
        s = (0.1, 0.4, 0.2, 0.9, 0.3)
        assert correlation_score(s, self.ref(s)) == 1.0

    def test_positive_affine_exactly_one(self):
        s = (0.1, 0.4, 0.2, 0.9, 0.3)
        scaled = tuple(2.5 * v + 3.0 for v in s)
        assert correlation_score(scaled, self.ref(s)) == 1.0

    def test_negation_exactly_minus_one(self):
        s = (0.1, 0.4, 0.2, 0.9, 0.3)
        assert correlation_score(tuple(-v for v in s), self.ref(s)) == -1.0

    def test_orthogonal_near_zero(self):
        n = 1000
        sin = [math.sin(2 * math.pi * k / n) for k in range(n)]
        cos = [math.cos(2 * math.pi * k / n) for k in range(n)]
        assert abs(correlation_score(sin, self.ref(cos))) <= 1e-9

    def test_constant_acquired_scores_zero(self):
        assert correlation_score((5.0,) * 4, self.ref((0.0, 1.0, 2.0, 3.0))) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            correlation_score((1.0, 2.0, 3.0), self.ref((1.0, 2.0)))

    def test_constant_reference_rejected(self):
        # The variance of 0.2, 0.2, 0.2 is not 0: its mean does not round back.
        for samples in ((1.0, 1.0, 1.0), (0.2, 0.2, 0.2)):
            with pytest.raises(ValueError):
                self.ref(samples)

    def test_non_finite_reference_rejected(self):
        # A NaN reference used to score 1.0 against any signal.
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                self.ref((bad, 1.0, 2.0))

    @given(st.lists(st.floats(-10, 10), min_size=3, max_size=24))
    @settings(max_examples=200, deadline=None)
    def test_score_always_in_range(self, acquired):
        ref = self.ref(tuple(float(k) for k in range(len(acquired))))
        score = correlation_score(acquired, ref)
        assert -1.0 <= score <= 1.0

    @given(
        st.lists(st.floats(-5, 5), min_size=3, max_size=16),
        st.floats(0.1, 10.0),
        st.floats(-10.0, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_affine_copies_score_unity(self, base, slope, offset):
        ref_samples = tuple(float(k) for k in range(len(base)))
        acquired = tuple(slope * k + offset for k in range(len(base)))
        assert correlation_score(acquired, self.ref(ref_samples)) == 1.0

    @given(st.lists(st.floats(-10, 10), min_size=3, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_negation_antisymmetry(self, acquired):
        ref = self.ref(tuple(float(k) for k in range(len(acquired))))
        assert correlation_score([-a for a in acquired], ref) == -correlation_score(acquired, ref)

    def test_non_finite_acquired_rejected(self):
        # Unchecked, a NaN or inf among them scores 1.0 and passes any threshold.
        ref = self.ref((0.0, 1.0, 2.0))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                correlation_score((bad, 1.0, 2.0), ref)

    @pytest.mark.parametrize("amplitude", [1e200, 1e-170, 1e308, 5e-324])
    def test_affine_copies_at_extreme_amplitude_score_unity(self, amplitude):
        # Squares of these overflow or underflow unless each centred vector
        # is scaled first, and the score comes out 0.0 or NaN.
        s = (0.1, 0.4, 0.2, 0.9, 0.3)
        if amplitude == 5e-324:
            s = (1.0, 4.0, 2.0, 9.0, 3.0)  # multiples of the smallest subnormal
        copy = tuple(amplitude * v for v in s)
        assert correlation_score(copy, self.ref(s)) == 1.0
        assert correlation_score(s, self.ref(copy)) == 1.0

    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=24),
        st.lists(st.floats(-10, 10), min_size=24, max_size=24),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_formula(self, acquired, reference):
        reference = reference[:len(acquired)]
        assume(np.ptp(acquired) >= 0.1 and np.ptp(reference) >= 0.1)
        score = correlation_score(acquired, self.ref(reference))
        assert abs(score - numpy_correlation(acquired, reference)) <= 1e-12


class TestCorrelationTest:
    def powered_bench(self, contact_ohms=0.1):
        uut = UutModel(
            pads=(("in", PadCircuit(OpenPad())),),
            powered=True,
            consumption_map=((0.0, 0.0), (2.0, 2e-3)),
        )
        return Bench(uut, {"in": ContactState(contact_ohms)})

    def waveform(self):
        return StimulusWaveform(
            "voltage", (0.0, 0.5, 1.0, 1.5, 2.0, 1.5, 1.0, 0.5), 1e-3, ("in",)
        )

    def ref(self, threshold=0.9):
        levels = self.waveform().samples
        return CorrelationRef(
            reference_samples=tuple(5e-4 * 2 * v for v in levels), threshold=threshold
        )

    def test_good_contact_passes(self):
        verdict = correlation_test(self.powered_bench(), self.waveform(), self.ref())
        assert verdict.passed
        assert verdict.detail["score"] == 1.0

    def test_open_contact_scores_zero_and_fails(self):
        verdict = correlation_test(self.powered_bench(2e6), self.waveform(), self.ref())
        assert not verdict.passed
        assert verdict.detail["score"] == 0.0

    def test_unpowered_model_rejected(self):
        uut = UutModel(pads=(("in", PadCircuit(OpenPad())),))
        with pytest.raises(NotPoweredModel):
            correlation_test(Bench(uut, {}), self.waveform(), self.ref())

    def test_single_pad_voltage_mode_required(self):
        bench = self.powered_bench()
        with pytest.raises(ValueError):
            correlation_test(
                bench,
                StimulusWaveform("current", (1e-3, 2e-3), 1e-3, ("in",)),
                self.ref(),
            )


def brute_force_inside(normals, distances, x):
    m = np.asarray(normals)
    return all(
        float(np.dot(m[:, j], x)) <= distances[j] + 0.0 for j in range(m.shape[1])
    )


class TestHalfSpaceRegion:
    def random_region(self, rng, dim, k):
        normals = rng.normal(size=(dim, k))
        normals /= np.linalg.norm(normals, axis=0)
        distances = rng.uniform(-1.0, 2.0, size=k)
        return normals, distances

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            dim = int(rng.integers(1, 5))
            k = int(rng.integers(1, 7))
            normals, distances = self.random_region(rng, dim, k)
            region = HalfSpaceRegion(normals, distances)
            x = rng.uniform(-3, 3, size=dim)
            vec = MeasurementVector(tuple(float(v) for v in x))
            assert shape_test(vec, region).passed == brute_force_inside(normals, distances, x)

    def test_redundant_half_space_never_changes_verdict(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            normals, distances = self.random_region(rng, 3, 4)
            region = HalfSpaceRegion(normals, distances)
            # duplicate the first face pushed strictly outward: redundant
            aug_n = np.hstack([normals, normals[:, :1]])
            aug_d = np.append(distances, distances[0] + 1.0)
            augmented = HalfSpaceRegion(aug_n, aug_d)
            x = tuple(float(v) for v in rng.uniform(-3, 3, size=3))
            vec = MeasurementVector(x)
            assert shape_test(vec, region).passed == shape_test(vec, augmented).passed

    def test_from_band(self):
        band = HalfSpaceRegion([[1.0, -1.0]], [1.0, -0.3])  # the closed band [0.3, 1.0]
        assert not band.violated((0.3,))
        assert not band.violated((1.0,))
        assert band.violated((0.2999,))
        assert band.violated((1.0001,))

    def test_unit_column_enforced(self):
        with pytest.raises(ValueError):
            HalfSpaceRegion([[2.0]], [1.0])

    @pytest.mark.parametrize(
        "normals, distances",
        [
            pytest.param([[1.0, -1.0]], [math.nan, 1.0], id="nan-distance"),  # a face that never fires
            pytest.param([[math.nan]], [1.0], id="nan-normal"),
            pytest.param([[1.0]], [math.inf], id="inf-distance"),
            pytest.param([[-math.inf]], [1.0], id="inf-normal"),
            pytest.param([["1.0"]], [1.0], id="string-normal"),
            pytest.param([[True]], [1.0], id="bool-normal"),
            pytest.param([[1.0]], ["1"], id="string-distance"),
            pytest.param([[1.0]], [None], id="null-distance"),
            pytest.param([[1.0], [0.0, 1.0]], [1.0], id="ragged"),
            pytest.param([1.0], [1.0], id="vector-normals"),
            pytest.param([[1.0, 0.0]], [1.0], id="one-distance-two-columns"),
            pytest.param([[1.0]], 1.0, id="scalar-distances"),
        ],
    )
    def test_bad_region_input_rejected(self, normals, distances):
        with pytest.raises(ValueError):
            HalfSpaceRegion(normals, distances)

    def test_projections_are_correctly_rounded_sums(self):
        # Summed left to right, 1e16 + 1.0 rounds back to 1e16 and the
        # projection reads 0.0; the exact value is 1.0, whatever the order.
        region = HalfSpaceRegion([[0.5], [0.5], [0.5], [0.5]], [0.0])
        assert region.projections((2e16, 2.0, -2e16, 0.0)) == (1.0,)
        assert region.violated((2e16, 2.0, -2e16, 0.0)) == [0]

    def test_dimension_mismatch(self):
        region = HalfSpaceRegion([[1.0, -1.0]], [1.0, 0.0])
        with pytest.raises(DimensionMismatch):
            shape_test(MeasurementVector((0.5, 0.5)), region)

    def test_violated_indices(self):
        region = HalfSpaceRegion(
            normals=[[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]],
            distances=[1.0, 1.0, 1.0, 1.0],
        )
        assert region.violated((2.0, -2.0)) == [0, 3]


def test_measurement_vector_validation():
    with pytest.raises(ValueError):
        MeasurementVector((float("nan"),))
