"""Fixture description files.

A fixture is a JSON document describing the bench (pads, circuit kinds and
parameters, contact states, rail termination), the protection limits, the
VCIT setup battery (rail-sense and single-level checks, each with its band),
the named shape regions, the dummy UUT, and the needle maintenance log.
The full schema is documented in the README.

Each kind of JSON object is read by one table that maps each of its keys to
a field of the object built from it and to the JSON type or converter for
the value.  A key the document leaves out takes the field's own default,
and a field with no default is a required key.  An unknown key, a missing
one and every value that a converter or the object rejects raise
FixtureError with the path.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

from .checks import HalfSpaceRegion
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
    UutModel,
)
from .errors import FixtureError, UnknownPad
from .executive import (
    DummyUutSpec,
    NeedleLog,
    PadCheck,
    RailSenseCheck,
    VcitPlan,
)
from .prober import ProtectionLimits

DEFAULT_FIXTURE_RESOURCE = "default_fixture.json"


@dataclass(frozen=True, slots=True)
class Fixture:
    bench: Bench
    vcit_plan: VcitPlan
    regions: Mapping[str, HalfSpaceRegion] = field(default_factory=dict)
    dummy: Optional[DummyUutSpec] = None
    needle_log: NeedleLog = NeedleLog()

    @property
    def limits(self) -> ProtectionLimits:
        """The protection limits, which the VCIT plan holds."""
        return self.vcit_plan.limits


def _expect(value, kind: type, where: str):
    """value itself, if it is a JSON object (kind dict) or array (kind list)."""
    if type(value) is not kind:
        raise FixtureError(f"{where}: expected a JSON {'object' if kind is dict else 'array'}")
    return value


# What each JSON type a table names must hold: int() would take 4.9 as 4
# and true as 1, bool() the string "false" as True, float() true, "0.001"
# and NaN.
_JSON_TYPES = {float: "a finite number", int: "an integer", bool: "true or false", str: "a string"}


def _reader(spec):
    """The converter for spec: spec itself, or, for a JSON type, one that
    checks that a value has it.  float is a finite number, and takes an
    integer as a float (OverflowError past the float range)."""
    if spec not in _JSON_TYPES:
        return spec

    def typed(value, where: str):
        # value - value is NaN for NaN and the infinities, 0.0 for a finite float
        if type(value) is spec and (spec is not float or value - value == 0.0):
            return value
        if spec is float and type(value) is int:  # a bool is not an int here
            return float(value)
        raise FixtureError(f"{where}: expected {_JSON_TYPES[spec]}, got {value!r}")
    return typed


_number = _reader(float)


def _kind(cls, what: str, table: dict, **defaults):
    """The converter that builds cls from a JSON object.  table maps each key
    to a JSON type or a converter for its value, or to (field, that) where
    the field has another name; a field None takes the converted value's
    entries as fields.  defaults stand in for fields that cls has none for.
    The converter keeps the table as its .table."""
    entries = {}  # key -> (field, the JSON type it names or None, converter)
    for key, spec in table.items():
        name, spec = spec if type(spec) is tuple else (key, spec)
        entries[key] = name, spec if spec in _JSON_TYPES else None, _reader(spec)
    params = inspect.signature(cls).parameters
    required = [  # the key of each field with no default
        key for key, (name, _, _) in entries.items()
        if name in params and params[name].default is params[name].empty and name not in defaults
    ]

    def build(obj, where: str, skip=(), **fields):
        """cls from the JSON object obj, with fields given beside it; the
        keys in skip are left to another kind.  Any other key is a typo or a
        leftover that would otherwise be silently ignored."""
        if type(obj) is not dict:
            raise FixtureError(f"{where}: expected a JSON object")
        if defaults:
            fields.update(defaults)
        try:
            for key, value in obj.items():
                if key not in entries:
                    if key in skip:
                        continue
                    _unknown(obj, where, entries, skip)
                name, json_type, convert = entries[key]
                if type(value) is not json_type or json_type is float and value - value != 0.0:
                    # The document's own keys, other than the UUT's, have no path prefix.
                    value = convert(value, f"{where}.{key}" if where else key)
                if name is None:
                    fields.update(value)
                else:
                    fields[name] = value
            return cls(**fields)
        # The one place where a ValueError or a TypeError becomes a FixtureError.
        except (ValueError, TypeError, OverflowError) as exc:
            missing = ", ".join(repr(key) for key in required if key not in obj)
            if missing:  # cls raised TypeError for them
                raise FixtureError(f"{where}: missing key(s) {missing}") from None
            raise FixtureError(f"{where}: bad {what}: {exc}") from None

    build.table = entries
    return build


def _unknown(obj: dict, where: str, *tables):
    """Raise the FixtureError for obj's keys that no table holds."""
    unknown = sorted(k for k in obj if not any(k in t for t in tables))
    raise FixtureError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")


def _nested(**fields) -> dict:
    """The fields of a nested JSON object, for the object around it."""
    return fields


def _pair(value, where: str) -> tuple:
    """A window, band or consumption-map knot: exactly two finite numbers."""
    if type(value) is not list or len(value) != 2:
        raise FixtureError(f"{where}: expected two finite numbers, got {value!r}")
    return _number(value[0], where), _number(value[1], where)


def _as_is(value, where: str):
    """value itself, for an object that checks it (a region)."""
    return value


def _array(spec, nonempty: bool = False):
    """A converter for a JSON array: the tuple of its entries, each read by spec."""
    read = _reader(spec)

    def array(value, where: str) -> tuple:
        if type(value) is not list or (nonempty and not value):
            raise FixtureError(f"{where}: expected a {'non-empty ' * nonempty}JSON array")
        return tuple(read(v, f"{where}[{i}]") for i, v in enumerate(value))
    return array


def _named(spec):
    """A converter for a JSON object of named entries: name -> entry read by spec."""
    read = _reader(spec)

    def named(value, where: str) -> dict:
        return {name: read(v, f"{where}.{name}") for name, v in _expect(value, dict, where).items()}
    return named


def _tagged(obj, key: str, kinds: dict, where: str):
    """The kind that the JSON object obj's key names."""
    tag = _expect(obj, dict, where).get(key)
    if type(tag) is not str or tag not in kinds:
        raise FixtureError(f"{where}: unknown {key} {tag!r}")
    return kinds[tag]


def _known_pad(uut: UutModel, pid, where: str) -> PadCircuit:
    """The UUT's pad pid; FixtureError at where if it has none."""
    try:
        return uut.pad(pid)
    except UnknownPad as exc:
        raise FixtureError(f"{where}: {exc}") from None


_DIODE = _kind(DiodeModel, "diode model", {
    "saturation_current": float, "ideality": float, "thermal_voltage": float,
    "series_resistance": float,
})
_PAD_KINDS = {
    "esd-pair": _kind(EsdPair, "pad circuit", {"to_vcc": _DIODE, "to_gnd": _DIODE}),
    "series-diode": _kind(SeriesDiode, "pad circuit", {"diode": _DIODE, "polarity": int}),
    "led": _kind(Led, "pad circuit", {"diode": _DIODE, "color": ("color_tag", str)}),
    "resistive": _kind(Resistive, "pad circuit", {"ohms": float}),
    "open": _kind(OpenPad, "pad circuit", {}),
}
_PAD = _kind(PadCircuit, "pad circuit", {"capacitance": ("shunt_capacitance", float)})
_PAD_KEYS = {"id", "kind", *_PAD.table}  # the keys of every pad, whatever its kind


def _pad(obj, where: str) -> tuple:
    """(id, PadCircuit) of a pad object: its id and kind, the keys of that
    kind and its capacitance.  The id is one word of a bus line."""
    kind = _tagged(obj, "kind", _PAD_KINDS, where)
    pid = obj.get("id")
    if not (type(pid) is str and pid and pid.isascii() and pid.isprintable() and " " not in pid):
        raise FixtureError(f"{where}: pad id must be printable ASCII with no space, got {pid!r}")
    circuit = kind(obj, where, skip=_PAD_KEYS)  # rejects any other key
    return pid, _PAD(obj, where, skip=obj, kind=circuit)  # so the circuit need not


def _check(obj, where: str):
    return _tagged(obj, "type", _CHECKS, where)(obj, where, skip=("type",))


_UUT = _kind(UutModel, "UUT", {
    "pads": _array(_pad, nonempty=True),
    "rails": (None, _kind(_nested, "rails", {"vcc_path_ohms": float, "gnd_path_ohms": float})),
    "powered": bool,
    "consumption_map": _array(_pair),
})
_CHECKS = {
    "rail-sense": _kind(RailSenseCheck, "check", {
        "pads": _array(str), "amperes": float, "band": _pair, "rail": str,
    }),
    "single-level": _kind(PadCheck, "check", {
        "pad": ("pad_id", str), "mode": str, "level": float, "window": _pair,
        "samples": int, "dt": float, "source_ohms": float,
    }, mode="current"),
}
_DUMMY = _kind(DummyUutSpec, "dummy", {
    "bands": _named(_pair), "drive_volts": float, "drive_ohms": float, "fresh_contact_ohms": float,
})


def _dummy(obj, where: str) -> DummyUutSpec:
    """The dummy UUT: the keys of a UUT, its bands and its drive."""
    uut = _UUT(obj, where, skip=_DUMMY.table)
    dummy = _DUMMY(obj, where, skip=_UUT.table, uut=uut)
    for pid in dummy.bands:
        _known_pad(uut, pid, f"{where}.bands.{pid}")
    return dummy


_BENCH = _kind(Bench, "bench", {
    "contacts": _named(_kind(ContactState, "contact", {
        "resistance": float, "cycles": int, "wear_rate": float, "open_threshold": float,
    })),
})
_PLAN = _kind(VcitPlan, "plan", {
    "setup_plan": ("checks", _array(_check)),
    "protection": ("limits", _kind(ProtectionLimits, "protection limits", {
        "max_abs_voltage": float, "max_abs_current": float,
    })),
})
_FIXTURE = _kind(Fixture, "fixture", {
    "regions": _named(_kind(HalfSpaceRegion, "region", {"normals": _as_is, "distances": _as_is})),
    "dummy": _dummy,
    "needle_log": _kind(NeedleLog, "needle log", {
        "last_replacement_cycle": int, "current_cycle": int, "window_cycles": int,
    }),
})
# The top level holds the keys of four kinds; each leaves the others' keys.
_TOP_LEVEL = (_UUT, _BENCH, _PLAN, _FIXTURE)
_OTHERS = {kind: {key for other in _TOP_LEVEL if other is not kind for key in other.table}
           for kind in _TOP_LEVEL}


def load_fixture(source) -> Fixture:
    """Load and validate a fixture from a path or a JSON string."""
    if isinstance(source, Path):
        try:
            text = source.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise FixtureError(f"cannot read fixture {source}: {exc}") from exc
    else:
        text = source
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise FixtureError(f"fixture is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FixtureError("fixture root must be a JSON object")
    uut = _UUT(doc, "fixture", skip=_OTHERS[_UUT])
    bench = _BENCH(doc, "", skip=_OTHERS[_BENCH], uut=uut)
    for pid in bench.contacts:
        _known_pad(uut, pid, f"contacts.{pid}")
    plan = _PLAN(doc, "", skip=_OTHERS[_PLAN])
    for i, check in enumerate(plan.checks):
        where = f"setup_plan[{i}]"
        for pid in check.pads:
            pad = _known_pad(uut, pid, where)
            if isinstance(check, RailSenseCheck) and check.rail not in pad.rails():
                raise FixtureError(f"{where}: pad {pid!r} has no element to rail {check.rail}")
    return _FIXTURE(doc, "", skip=_OTHERS[_FIXTURE], bench=bench, vcit_plan=plan)


def default_fixture_path() -> Path:
    return Path(__file__).parent / "data" / DEFAULT_FIXTURE_RESOURCE


def load_default_fixture() -> Fixture:
    return load_fixture(default_fixture_path())
