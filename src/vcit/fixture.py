"""Fixture description files.

A fixture is a JSON document describing the bench (pads, circuit kinds and
parameters, contact states, rail termination), the protection limits, the
VCIT setup battery (rail-sense and single-level checks, each with its band),
the named shape regions, the dummy UUT, and the needle maintenance log.
The full schema is documented in the README; validation errors raise
FixtureError with the offending path, and so does a key, in any object,
that the loader does not read.
"""

from __future__ import annotations

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

# The keys the loader reads in each kind of object.
_TOP_LEVEL_KEYS = frozenset({
    "pads", "rails", "powered", "consumption_map", "contacts", "protection",
    "setup_plan", "regions", "dummy", "needle_log",
})
_DUMMY_KEYS = frozenset({
    "pads", "rails", "powered", "consumption_map", "bands", "drive_volts",
    "drive_ohms", "fresh_contact_ohms",
})
_PAD_KEYS = {  # by pad kind
    kind: frozenset({"id", "kind", "capacitance", *own})
    for kind, own in (
        ("esd-pair", ("to_vcc", "to_gnd")),
        ("series-diode", ("diode", "polarity")),
        ("led", ("diode", "color")),
        ("resistive", ("ohms",)),
        ("open", ()),
    )
}
_DIODE_KEYS = frozenset({"saturation_current", "ideality", "thermal_voltage", "series_resistance"})
_RAILS_KEYS = frozenset({"vcc_path_ohms", "gnd_path_ohms"})
_CONTACT_KEYS = frozenset({"resistance", "cycles", "wear_rate", "open_threshold"})
_PROTECTION_KEYS = frozenset({"max_abs_voltage", "max_abs_current"})
_CHECK_KEYS = {  # by check type
    "rail-sense": frozenset({"type", "pads", "amperes", "band", "rail"}),
    "single-level": frozenset({
        "type", "pad", "mode", "level", "window", "samples", "dt", "source_ohms",
    }),
}
_REGION_KEYS = frozenset({"normals", "distances"})
_NEEDLE_LOG_KEYS = frozenset({"last_replacement_cycle", "current_cycle", "window_cycles"})


@dataclass(frozen=True, slots=True)
class Fixture:
    bench: Bench
    limits: ProtectionLimits
    vcit_plan: VcitPlan
    regions: Mapping[str, HalfSpaceRegion] = field(default_factory=dict)
    dummy: Optional[DummyUutSpec] = None
    needle_log: NeedleLog = NeedleLog()


def _expect(value, kind: type, where: str):
    """value itself, if it is a JSON object (kind dict) or array (kind list)."""
    if not isinstance(value, kind):
        raise FixtureError(f"{where}: expected a JSON {'object' if kind is dict else 'array'}")
    return value


def _object(value, keys: frozenset, where: str) -> dict:
    """value, if it is a JSON object with no key outside keys: any other key
    is a typo or a leftover that would otherwise be silently ignored."""
    if not keys.issuperset(_expect(value, dict, where)):
        unknown = ", ".join(map(repr, sorted(value.keys() - keys)))
        raise FixtureError(f"{where}: unknown key(s) {unknown}")
    return value


def _known_pad(uut: UutModel, pid, where: str) -> PadCircuit:
    """The UUT's pad pid; FixtureError at where if it has none."""
    try:
        return uut.pad(pid)
    except UnknownPad as exc:
        raise FixtureError(f"{where}: {exc}") from None


def _integer(obj: dict, key: str, default: int, where: str) -> int:
    """obj[key], or default when absent: a JSON integer.  int() would take
    4.9 as 4 and true as 1, so a float or a bool is refused."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise FixtureError(f"{where}.{key}: expected an integer, got {value!r}")
    return value


def _flag(obj: dict, key: str, default: bool, where: str) -> bool:
    """obj[key], or default when absent: a JSON true or false.  bool() would
    take the string "false" as True."""
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise FixtureError(f"{where}.{key}: expected true or false, got {value!r}")
    return value


def _diode(obj, where: str) -> DiodeModel:
    _object(obj, _DIODE_KEYS, where)
    try:
        return DiodeModel(
            saturation_current=float(obj["saturation_current"]),
            ideality=float(obj.get("ideality", 1.0)),
            thermal_voltage=float(obj.get("thermal_voltage", 0.02585)),
            series_resistance=float(obj.get("series_resistance", 0.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FixtureError(f"{where}: bad diode model: {exc}") from exc


def _pad_circuit(obj, where: str) -> PadCircuit:
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _PAD_KEYS:
        raise FixtureError(f"{where}: unknown pad kind {kind!r}")
    _object(obj, _PAD_KEYS[kind], where)
    try:
        if kind == "esd-pair":
            k = EsdPair(
                to_vcc=_diode(obj["to_vcc"], f"{where}.to_vcc"),
                to_gnd=_diode(obj["to_gnd"], f"{where}.to_gnd"),
            )
        elif kind == "series-diode":
            k = SeriesDiode(
                diode=_diode(obj["diode"], f"{where}.diode"),
                polarity=_integer(obj, "polarity", 1, where),
            )
        elif kind == "led":
            k = Led(diode=_diode(obj["diode"], f"{where}.diode"), color_tag=str(obj.get("color", "")))
        elif kind == "resistive":
            k = Resistive(ohms=float(obj["ohms"]))
        else:
            k = OpenPad()
        return PadCircuit(kind=k, shunt_capacitance=float(obj.get("capacitance", 0.0)))
    except FixtureError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FixtureError(f"{where}: bad pad circuit: {exc}") from exc


def _uut(obj, where: str) -> UutModel:
    pads = obj.get("pads")
    if not isinstance(pads, list) or not pads:
        raise FixtureError(f"{where}: 'pads' must be a non-empty list")
    pad_tuples = []
    for i, p in enumerate(pads):
        p = _expect(p, dict, f"{where}.pads[{i}]")
        pid = p.get("id")
        if not isinstance(pid, str) or not pid:
            raise FixtureError(f"{where}.pads[{i}]: missing pad id")
        pad_tuples.append((pid, _pad_circuit(p, f"{where}.pads[{i}]")))
    rails = _object(obj.get("rails", {}), _RAILS_KEYS, f"{where}.rails")
    cmap = obj.get("consumption_map")
    try:
        return UutModel(
            pads=tuple(pad_tuples),
            vcc_path_ohms=float(rails.get("vcc_path_ohms", 25.0)),
            gnd_path_ohms=float(rails.get("gnd_path_ohms", 0.0)),
            powered=_flag(obj, "powered", False, where),
            consumption_map=tuple((float(v), float(c)) for v, c in cmap) if cmap else None,
        )
    except (TypeError, ValueError) as exc:
        raise FixtureError(f"{where}: {exc}") from exc


def _contacts(obj, where: str) -> dict:
    out = {}
    for pid, c in _expect(obj, dict, where).items():
        _object(c, _CONTACT_KEYS, f"{where}.{pid}")
        try:
            out[pid] = ContactState(
                resistance=float(c["resistance"]),
                cycles=_integer(c, "cycles", 0, f"{where}.{pid}"),
                wear_rate=float(c.get("wear_rate", 0.0)),
                open_threshold=float(c.get("open_threshold", 1e6)),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FixtureError(f"{where}.{pid}: bad contact: {exc}") from exc
    return out


def _region(obj, where: str) -> HalfSpaceRegion:
    _object(obj, _REGION_KEYS, where)
    try:
        return HalfSpaceRegion(normals=obj["normals"], distances=obj["distances"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FixtureError(f"{where}: bad region: {exc}") from exc


def _check(obj, where: str, uut: UutModel):
    kind = _expect(obj, dict, where).get("type")
    if not isinstance(kind, str) or kind not in _CHECK_KEYS:
        raise FixtureError(f"{where}: unknown check type {kind!r}")
    _object(obj, _CHECK_KEYS[kind], where)
    try:
        if kind == "rail-sense":
            check = RailSenseCheck(
                pads=tuple(obj["pads"]),
                amperes=float(obj["amperes"]),
                band=(float(obj["band"][0]), float(obj["band"][1])),
                rail=str(obj.get("rail", "VCC")),
            )
            for pid in check.pads:
                if check.rail not in _known_pad(uut, pid, where).rails():
                    raise FixtureError(f"{where}: pad {pid!r} has no element to rail {check.rail}")
            return check
        check = PadCheck(
            pad_id=str(obj["pad"]),
            mode=str(obj.get("mode", "current")),
            level=float(obj["level"]),
            window=(float(obj["window"][0]), float(obj["window"][1])),
            samples=_integer(obj, "samples", 4, where),
            dt=float(obj.get("dt", 1e-3)),
            source_ohms=float(obj.get("source_ohms", 0.0)),
        )
        check.waveform()  # a check that makes no valid waveform fails here
        _known_pad(uut, check.pad_id, where)
        return check
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FixtureError(f"{where}: bad check: {exc}") from exc


def load_fixture(source) -> Fixture:
    """Load and validate a fixture from a path or a JSON string."""
    if isinstance(source, Path):
        try:
            text = source.read_text(encoding="utf-8")
        except OSError as exc:
            raise FixtureError(f"cannot read fixture {source}: {exc}") from exc
    else:
        text = source
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FixtureError(f"fixture is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FixtureError("fixture root must be a JSON object")
    _object(doc, _TOP_LEVEL_KEYS, "fixture")

    uut = _uut(doc, "fixture")
    contacts = _contacts(doc.get("contacts", {}), "contacts")
    for pid in contacts:
        _known_pad(uut, pid, f"contacts.{pid}")

    prot = _object(doc.get("protection", {}), _PROTECTION_KEYS, "protection")
    try:
        limits = ProtectionLimits(
            max_abs_voltage=float(prot.get("max_abs_voltage", 2.0)),
            max_abs_current=float(prot.get("max_abs_current", 0.05)),
        )
    except (TypeError, ValueError) as exc:
        raise FixtureError(f"protection: {exc}") from exc

    checks = tuple(
        _check(c, f"setup_plan[{i}]", uut)
        for i, c in enumerate(_expect(doc.get("setup_plan", []), list, "setup_plan"))
    )
    plan = VcitPlan(checks=checks, limits=limits)

    regions = {
        name: _region(obj, f"regions.{name}")
        for name, obj in _expect(doc.get("regions", {}), dict, "regions").items()
    }

    dummy = None
    d = doc.get("dummy")
    if d is not None:
        dummy_uut = _uut(_object(d, _DUMMY_KEYS, "dummy"), "dummy")
        bands = _expect(d.get("bands", {}), dict, "dummy.bands")
        try:
            dummy = DummyUutSpec(
                uut=dummy_uut,
                bands={pid: (float(b[0]), float(b[1])) for pid, b in bands.items()},
                drive_volts=float(d.get("drive_volts", 3.3)),
                drive_ohms=float(d.get("drive_ohms", 500.0)),
                fresh_contact_ohms=float(d.get("fresh_contact_ohms", 0.1)),
            )
        except FixtureError:
            raise
        except (TypeError, ValueError) as exc:
            raise FixtureError(f"dummy: {exc}") from exc

    nl = _object(doc.get("needle_log", {}), _NEEDLE_LOG_KEYS, "needle_log")
    try:
        needle_log = NeedleLog(
            last_replacement_cycle=_integer(nl, "last_replacement_cycle", 0, "needle_log"),
            current_cycle=_integer(nl, "current_cycle", 0, "needle_log"),
            window_cycles=_integer(nl, "window_cycles", 500, "needle_log"),
        )
    except (TypeError, ValueError) as exc:
        raise FixtureError(f"needle_log: {exc}") from exc

    return Fixture(
        bench=Bench(uut=uut, contacts=contacts),
        limits=limits,
        vcit_plan=plan,
        regions=regions,
        dummy=dummy,
        needle_log=needle_log,
    )


def default_fixture_path() -> Path:
    return Path(__file__).parent / "data" / DEFAULT_FIXTURE_RESOURCE


def load_default_fixture() -> Fixture:
    return load_fixture(default_fixture_path())
