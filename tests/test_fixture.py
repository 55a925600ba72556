"""Fixture file loading and validation."""

import copy
import json
import math
import re
from dataclasses import fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vcit.circuit import Bench, EsdPair, Led, OpenPad, PadCircuit, Resistive, SeriesDiode, UutModel
from vcit.errors import FixtureError
from vcit.executive import PadCheck, RailSenseCheck, VcitPlan
from vcit.fixture import Fixture, default_fixture_path, load_default_fixture, load_fixture
from vcit.prober import MAX_WAVEFORM_SAMPLES, ProtectionLimits


def default_doc():
    return json.loads(default_fixture_path().read_text(encoding="utf-8"))


def every_kind_doc():
    """The default fixture with a pad of every kind and every optional key."""
    doc = default_doc()
    diode = {"saturation_current": 1e-14, "ideality": 1.0, "thermal_voltage": 0.02585,
             "series_resistance": 0.0}
    doc["pads"] += [
        {"id": "d", "kind": "series-diode", "diode": diode, "polarity": -1, "capacitance": 0.0},
        {"id": "l", "kind": "led", "diode": diode, "color": "red"},
        {"id": "r", "kind": "resistive", "ohms": 100.0},
        {"id": "o", "kind": "open"},
    ]
    doc["contacts"]["p1"].update(cycles=3)
    doc["setup_plan"][0]["rail"] = "VCC"
    doc["setup_plan"][1].update(samples=2, dt=1e-3, source_ohms=0.0)
    doc["dummy"].update(powered=False, consumption_map=[[0.0, 0.0]])
    doc["consumption_map"] = [[0.0, 0.0], [2.0, 2e-3]]
    return doc


def set_path(doc, path, value):
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value


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

    @pytest.mark.parametrize("pad, where", [
        pytest.param({"id": "r", "kind": "resistive", "ohms": 5e-324}, r"pads\[1\]:",
                     id="resistor"),
        pytest.param({"id": "d", "kind": "series-diode",
                      "diode": {"saturation_current": 1.0, "thermal_voltage": 1e-310}},
                     r"pads\[1\]\.diode:", id="diode"),
        # Finite, but Is / nVt = 1e300 S: a reverse current into it stalled the solve.
        pytest.param({"id": "d", "kind": "series-diode",
                      "diode": {"saturation_current": 1e-5, "thermal_voltage": 1e-305}},
                     r"pads\[1\]\.diode:", id="diode-above-1-siemens"),
    ])
    def test_law_with_infinite_rest_conductance(self, pad, where):
        doc = {"pads": [{"id": "o", "kind": "open"}, pad]}
        with pytest.raises(FixtureError, match=where + " bad .*must be finite"):
            load_fixture(json.dumps(doc))


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
        with pytest.raises(FixtureError, match="contacts.ghost"):
            load_fixture(json.dumps(doc))

    @pytest.mark.parametrize("index, field, value", [(0, "pads", ["p1", "ghost"]),
                                                     (1, "pad", "ghost")],
                             ids=["rail-sense", "single-level"])
    def test_check_on_unknown_pad(self, index, field, value):
        doc = default_doc()
        doc["setup_plan"][index][field] = value
        with pytest.raises(FixtureError, match=rf"setup_plan\[{index}\].*ghost"):
            load_fixture(json.dumps(doc))

    @pytest.mark.parametrize("key", ["setup_plna", "catalog"])
    def test_unknown_top_level_key(self, key):
        doc = default_doc()
        doc[key] = doc.pop("setup_plan") if key == "setup_plna" else []
        with pytest.raises(FixtureError, match=f"'{key}'"):
            load_fixture(json.dumps(doc))

    @pytest.mark.parametrize(
        "path, key, where",
        [
            pytest.param(("pads", 0), "capacitnce", r"fixture\.pads\[0\]", id="pad"),
            pytest.param(("pads", 0, "to_vcc"), "idealty", r"fixture\.pads\[0\]\.to_vcc", id="diode"),
            pytest.param(("pads", 0), "polarity", r"fixture\.pads\[0\]", id="other-kinds-key"),
            pytest.param(("rails",), "vcc_ohms", r"fixture\.rails", id="rails"),
            pytest.param(("contacts", "p1"), "wear_rte", r"contacts\.p1", id="contact"),
            pytest.param(("protection",), "max_volts", "protection", id="protection"),
            pytest.param(("setup_plan", 0), "rial", r"setup_plan\[0\]", id="rail-sense"),
            pytest.param(("setup_plan", 1), "sampels", r"setup_plan\[1\]", id="single-level"),
            pytest.param(("regions", "unit-box"), "normal", r"regions\.unit-box", id="region"),
            pytest.param(("dummy",), "drive_volt", "dummy", id="dummy"),
            pytest.param(("dummy", "pads", 1), "capacitnce", r"dummy\.pads\[1\]", id="dummy-pad"),
            pytest.param(("needle_log",), "window", "needle_log", id="needle-log"),
        ],
    )
    def test_unknown_key_inside_object(self, path, key, where):
        # Unchecked, a misspelt optional key loads with its default in its place.
        doc = default_doc()
        target = doc
        for step in path:
            target = target[step]
        target[key] = 1e-6
        with pytest.raises(FixtureError, match=rf"^{where}: unknown key\(s\) '{key}'$"):
            load_fixture(json.dumps(doc))

    def test_every_known_key_loads(self):
        fixture = load_fixture(json.dumps(every_kind_doc()))
        assert fixture.bench.contact("p1").cycles == 3
        assert fixture.vcit_plan.checks[1].samples == 2

    def test_minimal_fixture_takes_the_dataclass_defaults(self):
        fixture = load_fixture(json.dumps({"pads": [{"id": "x", "kind": "open"}]}))
        assert fixture == Fixture(
            bench=Bench(uut=UutModel(pads=(("x", PadCircuit(OpenPad())),))),
            vcit_plan=VcitPlan(),
        )
        assert fixture.limits == fixture.vcit_plan.limits == ProtectionLimits(2.0, 0.05)

    def test_limits_are_the_plans(self):
        # One copy: a Fixture cannot hold limits that its plan does not.
        assert "limits" not in {f.name for f in fields(Fixture)}
        limits = ProtectionLimits(1.0, 0.01)
        fixture = replace(load_default_fixture(), vcit_plan=VcitPlan(limits=limits))
        assert fixture.limits is limits

    @pytest.mark.parametrize("samples", [MAX_WAVEFORM_SAMPLES + 1, 1_165_191_242])
    def test_single_level_check_with_too_many_samples(self, samples):
        # Loading used to build (level,) * samples: 9 GB at this second count.
        doc = default_doc()
        doc["setup_plan"][1]["samples"] = samples
        message = rf"^setup_plan\[1\]: bad check: samples must be 1 to {MAX_WAVEFORM_SAMPLES}, got"
        with pytest.raises(FixtureError, match=rf"{message} {samples}$"):
            load_fixture(json.dumps(doc))

    @pytest.mark.parametrize(
        "pid",
        [pytest.param("", id="empty"), pytest.param("pé", id="non-ascii"),
         pytest.param("p 1", id="space"), pytest.param("p\t1", id="tab"), pytest.param(1, id="number")],
    )
    def test_pad_id_that_is_not_one_bus_word(self, pid):
        # A READ block names the pad as one ASCII word: "capture  1 0.001 1 0 -"
        # with an empty id cannot be parsed back.
        doc = default_doc()
        doc["pads"][0]["id"] = pid
        with pytest.raises(FixtureError, match=r"^fixture\.pads\[0\]: pad id must be"):
            load_fixture(json.dumps(doc))

    def test_dummy_band_for_a_pad_it_lacks(self):
        doc = default_doc()
        doc["dummy"]["bands"]["ghost"] = [0.1, 0.5]
        with pytest.raises(FixtureError, match=r"^dummy\.bands\.ghost: no such pad: 'ghost'$"):
            load_fixture(json.dumps(doc))

    @pytest.mark.parametrize(
        "path, where",
        [
            pytest.param(("setup_plan", 1, "window"), "setup_plan[1].window", id="window"),
            pytest.param(("setup_plan", 0, "band"), "setup_plan[0].band", id="rail-sense-band"),
            pytest.param(("dummy", "bands", "p1"), "dummy.bands.p1", id="dummy-band"),
        ],
    )
    @pytest.mark.parametrize("value", [[0.3], [0.1, 0.5, 0.9]], ids=["one-entry", "three-entries"])
    def test_window_of_other_than_two_numbers(self, path, where, value):
        # Unchecked, one entry raises IndexError and a third is silently dropped.
        doc = default_doc()
        set_path(doc, path, value)
        with pytest.raises(FixtureError, match=rf"^{re.escape(where)}: expected two finite numbers"):
            load_fixture(json.dumps(doc))

    @pytest.mark.parametrize("pads, why", [([], "at least one pad"),
                                           (["p1", "p2", "p3", "p1"], "each pad once")],
                             ids=["empty", "repeated"])
    def test_rail_sense_needs_a_pad(self, pads, why):
        # An empty group injects nothing and reads 0 V, so every session
        # would end in a fixture fault; a repeated pad would inject once.
        doc = default_doc()
        doc["setup_plan"][0]["pads"] = pads
        with pytest.raises(FixtureError, match=rf"setup_plan\[0\]: bad check: .*{why}"):
            load_fixture(json.dumps(doc))

    def test_rail_sense_pad_needs_element_to_rail(self):
        doc = default_doc()
        doc["pads"][0] = {"id": "p1", "kind": "resistive", "ohms": 100.0}
        with pytest.raises(FixtureError, match=r"setup_plan\[0\]: pad 'p1' has no element to rail VCC"):
            load_fixture(json.dumps(doc))
        doc["setup_plan"][0]["rail"] = "GND"  # a resistor and an ESD pair both reach GND
        assert load_fixture(json.dumps(doc)).vcit_plan.checks[0].rail == "GND"

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

    @pytest.mark.parametrize(
        "region",
        [
            pytest.param({"normals": [[1.0, -1.0]], "distances": [math.nan, 1.0]}, id="nan-distance"),
            pytest.param({"normals": [[math.nan]], "distances": [1.0]}, id="nan-normal"),
            pytest.param({"normals": [[1.0]], "distances": [math.inf]}, id="inf-distance"),
            pytest.param({"normals": [["1.0"]], "distances": [1.0]}, id="string-normal"),
            pytest.param({"normals": [[True]], "distances": [1.0]}, id="bool-normal"),
            pytest.param({"normals": [[1.0]], "distances": ["1"]}, id="string-distance"),
        ],
    )
    def test_bad_region_input(self, region):
        # Each would otherwise load; a NaN distance makes a face that never fires.
        doc = default_doc()
        doc["regions"]["broken"] = region
        with pytest.raises(FixtureError, match=r"^regions\.broken: bad region: "):
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
        "path, value, where",
        [
            pytest.param(("pads", 0, "capacitance"), "abc", "fixture.pads[0].capacitance",
                         id="capacitance-text"),
            pytest.param(("pads", 0), 3, "fixture.pads[0]", id="pad-not-object"),
            pytest.param(("rails",), [25.0], "fixture.rails", id="rails-not-object"),
            pytest.param(("contacts",), ["p1"], "contacts", id="contacts-not-object"),
            pytest.param(("setup_plan",), 3, "setup_plan", id="plan-not-array"),
            pytest.param(("setup_plan", 1), "single-level", "setup_plan[1]", id="check-not-object"),
            pytest.param(("pads", 0, "capacitance"), math.nan, "fixture.pads[0].capacitance",
                         id="capacitance-nan"),
            pytest.param(("pads", 0, "capacitance"), math.inf, "fixture.pads[0].capacitance",
                         id="capacitance-inf"),
            pytest.param(("rails", "vcc_path_ohms"), math.nan, "fixture.rails.vcc_path_ohms",
                         id="vcc-path-nan"),
            pytest.param(("setup_plan", 0, "band"), [0.1, math.inf], "setup_plan[0].band", id="band-inf"),
            pytest.param(("setup_plan", 0, "amperes"), math.nan, "setup_plan[0].amperes", id="amperes-nan"),
            pytest.param(("setup_plan", 0, "rail"), "vcc", "setup_plan[0]", id="rail-lowercase"),
            pytest.param(
                ("pads", 0), {"id": "p1", "kind": "resistive", "ohms": math.inf}, "fixture.pads[0].ohms",
                id="ohms-inf"
            ),
            # float() takes a bool or a numeric string as a number.
            pytest.param(("setup_plan", 1, "level"), True, "setup_plan[1].level", id="level-bool"),
            pytest.param(("setup_plan", 1, "level"), "0.001", "setup_plan[1].level", id="level-text"),
            pytest.param(("contacts", "p1", "resistance"), True, "contacts.p1.resistance",
                         id="resistance-bool"),
            pytest.param(("consumption_map",), [[0.0, True]], "fixture.consumption_map[0]", id="knot-bool"),
            # A cycle count is never negative.
            pytest.param(("contacts", "p1", "cycles"), -7, "contacts.p1", id="cycles-negative"),
            pytest.param(("needle_log", "last_replacement_cycle"), -900, "needle_log",
                         id="last-replacement-negative"),
        ],
    )
    def test_wrong_typed_or_non_finite_field(self, path, value, where):
        doc = default_doc()
        set_path(doc, path, value)  # NaN and Infinity are dumped as such
        with pytest.raises(FixtureError, match=rf"^{re.escape(where)}: "):
            load_fixture(json.dumps(doc))

    @pytest.mark.parametrize(
        "path, value, field",
        [
            pytest.param(("powered",), "false", "fixture.powered", id="powered-text"),
            pytest.param(("pads", 0), {"id": "p1", "kind": "series-diode", "polarity": True,
                                       "diode": {"saturation_current": 1e-14}},
                         "fixture.pads[0].polarity", id="polarity-bool"),
            pytest.param(("contacts", "p1", "cycles"), True, "contacts.p1.cycles",
                         id="cycles-bool"),
            pytest.param(("setup_plan", 1, "samples"), 4.9, "setup_plan[1].samples",
                         id="samples-float"),
            pytest.param(("needle_log", "last_replacement_cycle"), 0.5,
                         "needle_log.last_replacement_cycle", id="last-replacement-float"),
            pytest.param(("needle_log", "current_cycle"), 10.5, "needle_log.current_cycle",
                         id="current-cycle-float"),
            pytest.param(("needle_log", "window_cycles"), 500.9, "needle_log.window_cycles",
                         id="window-cycles-float"),
        ],
    )
    def test_flag_or_count_of_another_json_type(self, path, value, field):
        # int() and bool() would load each of these silently as another value.
        doc = default_doc()
        doc["consumption_map"] = [[0.0, 0.0], [1.0, 1e-3]]  # so a powered model is valid
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(FixtureError, match=rf"^{re.escape(field)}: expected"):
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


def _paths(node, path=()):
    """The path of every value inside a JSON document, but the root's."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


DOCS = (default_doc(), every_kind_doc())
PLACES = [(i, path) for i, doc in enumerate(DOCS) for path in _paths(doc)]
NUMBERS = st.one_of(st.integers(), st.floats())
KEYS = sorted({path[-1] for _, path in PLACES if isinstance(path[-1], str)})
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=8),
    st.lists(NUMBERS, max_size=3),
    st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4),
                    st.none() | NUMBERS | st.text(max_size=4) | st.lists(NUMBERS, max_size=3),
                    max_size=3),
)


@given(st.sampled_from(PLACES), JSON_VALUES)
@example((0, ("setup_plan", 1, "window")), [0.3])  # must not raise IndexError
@example((0, ("dummy", "pads", 0, "to_vcc", "ideality")), 4)  # a dummy solve that stalls
@example((1, ("setup_plan", 1, "samples")), 1_165_191_242)  # a 9 GB waveform
@settings(max_examples=100, deadline=None)
def test_any_one_value_replaced_loads_or_raises_fixture_error(place, value):
    i, path = place
    doc = copy.deepcopy(DOCS[i])
    set_path(doc, path, value)
    try:
        load_fixture(json.dumps(doc))
    except FixtureError:
        pass
