"""Probing-integrity test engine: simulated UUT pad circuitry, prober
instruments, stimulus/response classification, and the NTF maintenance
state machine."""

from .circuit import (
    Bench,
    ContactState,
    DiodeModel,
    EsdPair,
    Led,
    OpenPad,
    PadCircuit,
    Resistive,
    SeriesDiode,
    Stimulus,
    UutModel,
    powered_consumption,
    solve_dc,
    solve_rail_sense,
    step_transient,
    wear_step,
)
from .checks import (
    CorrelationRef,
    HalfSpaceRegion,
    MeasurementVector,
    VcitVerdict,
    correlation_score,
    correlation_test,
    differential_test,
    shape_test,
    single_level_test,
)
from .executive import (
    DummyUutSpec,
    NeedleLog,
    ScriptedOperator,
    SessionPlan,
    Verdict,
    VcitPlan,
    diagnose_functional_failure,
    dummy_self_test,
    replay_verdict,
    run_session,
    run_setup_integrity,
)
from .prober import (
    CaptureRecord,
    ProtectionLimits,
    StimulusWaveform,
    execute,
)
from .fixture import Fixture, load_default_fixture, load_fixture

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
