"""Fixture file loading and validation."""

import json
import math

import pytest

from vcit.circuit import EsdPair, Led, OpenPad, Resistive, SeriesDiode
from vcit.errors import FixtureError
from vcit.executive import PadCheck, RailSenseCheck
from vcit.fixture import default_fixture_path, load_default_fixture, load_fixture


def default_doc():
    return json.loads(default_fixture_path().read_text(encoding="utf-8"))


class TestDefaultFixture:
    def test_loads(self):
        fixture = load_default_fixture()
        assert [pid for pid, _ in fixture.bench.uut.pads] == ["p1", "p2", "p3"]
        assert fixture.limits.max_abs_voltage == 2.0
        assert fixture.vcit_plan.checks[0].band == (0.1, 0.5)
        assert fixture.dummy is not None
        assert fixture.needle_log.window_cycles == 500

    def test_plan_checks(self):
        fixture = load_default_fixture()
        kinds = [type(c) for c in fixture.vcit_plan.checks]
        assert kinds[0] is RailSenseCheck
        assert all(k is PadCheck for k in kinds[1:])

    def test_catalog_and_regions(self):
        fixture = load_default_fixture()
        assert [tag for tag, _ in fixture.catalog] == ["led-red", "led-green"]
        assert "unit-box" in fixture.regions
        assert fixture.regions["unit-box"].dimension == 2


class TestPadKinds:
    def load_single_pad(self, pad_obj):
        doc = {"pads": [dict(pad_obj, id="x")]}
        return load_fixture(json.dumps(doc)).bench.uut.pads[0][1].kind

    def test_all_kinds(self):
        diode = {"saturation_current": 1e-14}
        assert isinstance(
            self.load_single_pad({"kind": "esd-pair", "to_vcc": diode, "to_gnd": diode}),
            EsdPair,
        )
        assert isinstance(
            self.load_single_pad({"kind": "series-diode", "diode": diode, "polarity": -1}),
            SeriesDiode,
        )
        assert isinstance(
            self.load_single_pad({"kind": "led", "diode": diode, "color": "red"}), Led
        )
        assert isinstance(self.load_single_pad({"kind": "resistive", "ohms": 100.0}), Resistive)
        assert isinstance(self.load_single_pad({"kind": "open"}), OpenPad)

    def test_unknown_kind(self):
        with pytest.raises(FixtureError):
            self.load_single_pad({"kind": "transmogrifier"})

    def test_bad_diode_params(self):
        for diode in (
            {"saturation_current": -1.0},
            {"saturation_current": math.inf},
            {"saturation_current": 1e-14, "series_resistance": math.nan},
            {"saturation_current": 1e-14, "thermal_voltage": math.inf},
            {"saturation_current": 1e-14, "ideality": math.inf},
        ):
            with pytest.raises(FixtureError):
                self.load_single_pad({"kind": "series-diode", "diode": diode})


class TestValidation:
    def test_not_json(self):
        with pytest.raises(FixtureError):
            load_fixture("{nope")

    def test_non_object_root(self):
        with pytest.raises(FixtureError):
            load_fixture("[1, 2]")

    def test_pads_required(self):
        with pytest.raises(FixtureError):
            load_fixture("{}")

    def test_pad_without_id(self):
        with pytest.raises(FixtureError):
            load_fixture(json.dumps({"pads": [{"kind": "open"}]}))

    def test_contact_for_unknown_pad(self):
        doc = default_doc()
        doc["contacts"]["ghost"] = {"resistance": 0.1}
        with pytest.raises(Exception):
            load_fixture(json.dumps(doc))

    def test_non_finite_protection_limit(self):
        doc = default_doc()
        doc["protection"]["max_abs_voltage"] = math.inf  # dumped as Infinity
        with pytest.raises(FixtureError):
            load_fixture(json.dumps(doc))

    def test_bad_contact(self):
        for contact in (
            {"resistance": "sticky"},
            {"resistance": math.nan},  # dumped as NaN
            {"resistance": 0.1, "open_threshold": math.inf},
        ):
            doc = default_doc()
            doc["contacts"]["p1"] = contact
            with pytest.raises(FixtureError):
                load_fixture(json.dumps(doc))

    def test_bad_region(self):
        doc = default_doc()
        doc["regions"]["broken"] = {"normals": [[2.0]], "distances": [1.0]}
        with pytest.raises(FixtureError):
            load_fixture(json.dumps(doc))

    def test_unknown_check_type(self):
        doc = default_doc()
        doc["setup_plan"].append({"type": "astrology"})
        with pytest.raises(FixtureError):
            load_fixture(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mode", "sideways"),
            ("samples", 0),
            ("source_ohms", math.nan),
            ("source_ohms", -1.0),
            ("samples", math.inf),
            pytest.param("window", [math.nan, 1.0], id="window-nan"),
            pytest.param("window", [1.0, 0.3], id="window-reversed"),
        ],
    )
    def test_single_level_check_without_waveform(self, field, value):
        doc = default_doc()
        doc["setup_plan"][1][field] = value  # NaN is dumped as NaN
        with pytest.raises(FixtureError):
            load_fixture(json.dumps(doc))

    @pytest.mark.parametrize(
        "log",
        [
            {"window_cycles": -1},
            {"last_replacement_cycle": 10, "current_cycle": 9},
        ],
    )
    def test_bad_needle_log(self, log):
        doc = default_doc()
        doc["needle_log"].update(log)
        with pytest.raises(FixtureError):
            load_fixture(json.dumps(doc))

    @pytest.mark.parametrize(
        "path, value",
        [
            pytest.param(("pads", 0, "capacitance"), "abc", id="capacitance-text"),
            pytest.param(("pads", 0), 3, id="pad-not-object"),
            pytest.param(("rails",), [25.0], id="rails-not-object"),
            pytest.param(("contacts",), ["p1"], id="contacts-not-object"),
            pytest.param(("setup_plan",), 3, id="plan-not-array"),
            pytest.param(("setup_plan", 1), "single-level", id="check-not-object"),
            pytest.param(("pads", 0, "capacitance"), math.nan, id="capacitance-nan"),
            pytest.param(("pads", 0, "capacitance"), math.inf, id="capacitance-inf"),
            pytest.param(("rails", "vcc_path_ohms"), math.nan, id="vcc-path-nan"),
            pytest.param(("setup_plan", 0, "band"), [0.1, math.inf], id="band-inf"),
            pytest.param(("setup_plan", 0, "amperes"), math.nan, id="amperes-nan"),
            pytest.param(
                ("pads", 0), {"id": "p1", "kind": "resistive", "ohms": math.inf}, id="ohms-inf"
            ),
        ],
    )
    def test_wrong_typed_or_non_finite_field(self, path, value):
        doc = default_doc()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value  # NaN and Infinity are dumped as such
        with pytest.raises(FixtureError):
            load_fixture(json.dumps(doc))

    def test_bad_catalog_entry(self):
        doc = default_doc()
        doc["catalog"].append(["orphan-tag"])
        with pytest.raises(FixtureError):
            load_fixture(json.dumps(doc))

    def test_dummy_band_inconsistency(self):
        doc = default_doc()
        doc["dummy"]["bands"]["p1"] = [0.9, 1.0]  # fresh reading is ~0.124 V
        with pytest.raises(FixtureError):
            load_fixture(json.dumps(doc))

    def test_dummy_missing_band(self):
        doc = default_doc()
        del doc["dummy"]["bands"]["p2"]
        with pytest.raises(FixtureError):
            load_fixture(json.dumps(doc))

    def test_missing_file(self, tmp_path):
        from pathlib import Path

        with pytest.raises(FixtureError):
            load_fixture(Path(tmp_path) / "does-not-exist.json")
