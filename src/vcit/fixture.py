"""Fixture description files.

A fixture is a JSON document describing the bench (pads, circuit kinds and
parameters, contact states, rail termination), the protection limits, the
VCIT setup battery (rail-sense and single-level checks, each with its band),
the defect-signature catalog, the dummy UUT, and the needle maintenance log.
The full schema is documented in the README; validation errors raise
FixtureError with the offending path.
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
from .errors import FixtureError
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
    limits: ProtectionLimits
    vcit_plan: VcitPlan
    catalog: tuple = ()  # of (tag, HalfSpaceRegion)
    regions: Mapping[str, HalfSpaceRegion] = field(default_factory=dict)
    dummy: Optional[DummyUutSpec] = None
    needle_log: NeedleLog = NeedleLog()


def _expect(value, kind: type, where: str):
    """value itself, if it is a JSON object (kind dict) or array (kind list)."""
    if not isinstance(value, kind):
        raise FixtureError(f"{where}: expected a JSON {'object' if kind is dict else 'array'}")
    return value


def _diode(obj, where: str) -> DiodeModel:
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
    try:
        if kind == "esd-pair":
            k = EsdPair(
                to_vcc=_diode(obj["to_vcc"], where),
                to_gnd=_diode(obj["to_gnd"], where),
            )
        elif kind == "series-diode":
            k = SeriesDiode(diode=_diode(obj["diode"], where), polarity=int(obj.get("polarity", 1)))
        elif kind == "led":
            k = Led(diode=_diode(obj["diode"], where), color_tag=str(obj.get("color", "")))
        elif kind == "resistive":
            k = Resistive(ohms=float(obj["ohms"]))
        elif kind == "open":
            k = OpenPad()
        else:
            raise FixtureError(f"{where}: unknown pad kind {kind!r}")
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
    rails = _expect(obj.get("rails", {}), dict, f"{where}.rails")
    cmap = obj.get("consumption_map")
    try:
        return UutModel(
            pads=tuple(pad_tuples),
            vcc_path_ohms=float(rails.get("vcc_path_ohms", 25.0)),
            gnd_path_ohms=float(rails.get("gnd_path_ohms", 0.0)),
            powered=bool(obj.get("powered", False)),
            consumption_map=tuple((float(v), float(c)) for v, c in cmap) if cmap else None,
        )
    except (TypeError, ValueError) as exc:
        raise FixtureError(f"{where}: {exc}") from exc


def _contacts(obj, where: str) -> dict:
    out = {}
    for pid, c in _expect(obj, dict, where).items():
        try:
            out[pid] = ContactState(
                resistance=float(c["resistance"]),
                cycles=int(c.get("cycles", 0)),
                wear_rate=float(c.get("wear_rate", 0.0)),
                open_threshold=float(c.get("open_threshold", 1e6)),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FixtureError(f"{where}.{pid}: bad contact: {exc}") from exc
    return out


def _region(obj, where: str) -> HalfSpaceRegion:
    try:
        return HalfSpaceRegion(normals=obj["normals"], distances=obj["distances"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FixtureError(f"{where}: bad region: {exc}") from exc


def _check(obj, where: str):
    kind = _expect(obj, dict, where).get("type")
    try:
        if kind == "rail-sense":
            return RailSenseCheck(
                pads=tuple(obj["pads"]),
                amperes=float(obj["amperes"]),
                band=(float(obj["band"][0]), float(obj["band"][1])),
                rail=str(obj.get("rail", "VCC")),
            )
        if kind == "single-level":
            check = PadCheck(
                pad_id=str(obj["pad"]),
                mode=str(obj.get("mode", "current")),
                level=float(obj["level"]),
                window=(float(obj["window"][0]), float(obj["window"][1])),
                samples=int(obj.get("samples", 4)),
                dt=float(obj.get("dt", 1e-3)),
                source_ohms=float(obj.get("source_ohms", 0.0)),
            )
            check.waveform()  # a check that makes no valid waveform fails here
            return check
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FixtureError(f"{where}: bad check: {exc}") from exc
    raise FixtureError(f"{where}: unknown check type {kind!r}")


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

    uut = _uut(doc, "fixture")
    contacts = _contacts(doc.get("contacts", {}), "contacts")
    for pid in contacts:
        uut.pad(pid)

    prot = _expect(doc.get("protection", {}), dict, "protection")
    try:
        limits = ProtectionLimits(
            max_abs_voltage=float(prot.get("max_abs_voltage", 2.0)),
            max_abs_current=float(prot.get("max_abs_current", 0.05)),
        )
    except (TypeError, ValueError) as exc:
        raise FixtureError(f"protection: {exc}") from exc

    checks = tuple(
        _check(c, f"setup_plan[{i}]")
        for i, c in enumerate(_expect(doc.get("setup_plan", []), list, "setup_plan"))
    )
    plan = VcitPlan(checks=checks, limits=limits)

    catalog = []
    for i, entry in enumerate(_expect(doc.get("catalog", []), list, "catalog")):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise FixtureError(f"catalog[{i}]: expected [tag, region]")
        tag, region = entry
        catalog.append((str(tag), _region(region, f"catalog[{i}]")))

    regions = {
        name: _region(obj, f"regions.{name}")
        for name, obj in _expect(doc.get("regions", {}), dict, "regions").items()
    }

    dummy = None
    d = doc.get("dummy")
    if d is not None:
        dummy_uut = _uut(_expect(d, dict, "dummy"), "dummy")
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

    nl = _expect(doc.get("needle_log", {}), dict, "needle_log")
    try:
        needle_log = NeedleLog(
            last_replacement_cycle=int(nl.get("last_replacement_cycle", 0)),
            current_cycle=int(nl.get("current_cycle", 0)),
            window_cycles=int(nl.get("window_cycles", 500)),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise FixtureError(f"needle_log: {exc}") from exc

    return Fixture(
        bench=Bench(uut=uut, contacts=contacts),
        limits=limits,
        vcit_plan=plan,
        catalog=tuple(catalog),
        regions=regions,
        dummy=dummy,
        needle_log=needle_log,
    )


def default_fixture_path() -> Path:
    return Path(__file__).parent / "data" / DEFAULT_FIXTURE_RESOURCE


def load_default_fixture() -> Fixture:
    return load_fixture(default_fixture_path())
