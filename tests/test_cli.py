import copy
import csv
import dataclasses
import enum
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mar
from mar import errors
from mar.cli import CSV_COLUMNS, main, run
from mar.optimum import MAX_RESTARTS
from mar.scenario import (
    _DEMOS, MAX_SWEEP_STEPS, Experiment, Scenario, SweepSpec, TightnessSpec, _value,
    apply_sweep_parameter, parse_scenario)

from factories import grid_net, symmetric_pair


MINIMAL = {
    "schema_version": "1",
    "experiment": "bounds",
    "network": {
        "nodes": ["s", "t"],
        "roads": [
            {"id": 1, "tail": "s", "head": "t", "headway": 1.0,
             "platoon_headway": 1.0, "rho": 1.0, "sigma": 1.0},
            {"id": 2, "tail": "s", "head": "t", "headway": 1.0,
             "platoon_headway": 1.0, "rho": 1.0, "sigma": 1.0},
        ],
        "od_pairs": [{"origin": "s", "destination": "t",
                      "demand_human": 1.0, "demand_auto": 1.0}],
    },
}


TWO_OD = {
    "nodes": ["s", "a", "t"],
    "roads": [{"id": 1, "tail": "s", "head": "a", "headway": 2.0, "platoon_headway": 1.0},
              {"id": 2, "tail": "s", "head": "a", "headway": 1.5, "platoon_headway": 1.5,
               "sigma": 2.0, "capacity_model": "model2"},
              {"id": 3, "tail": "a", "head": "t", "headway": 1.0, "platoon_headway": 1.8},
              {"id": 4, "tail": "a", "head": "t", "headway": 2.5, "platoon_headway": 1.25,
               "sigma": 2.0, "capacity_model": "model2"}],
    "od_pairs": [{"origin": "s", "destination": "t", "demand_human": 1.0, "demand_auto": 0.8},
                 {"origin": "a", "destination": "t", "demand_human": 0.6, "demand_auto": 0.9}],
}


# Two roads in series from s to t: not the monotonicity demo's parallel pair.
SERIES = {
    "nodes": ["s", "a", "t"],
    "roads": [{"id": 1, "tail": "s", "head": "a"}, {"id": 2, "tail": "a", "head": "t"}],
    "od_pairs": [{"origin": "s", "destination": "t", "demand_human": 2.0, "demand_auto": 3.0}],
}


def scenario_text(**overrides):
    data = json.loads(json.dumps(MINIMAL))
    data.update(overrides)
    return json.dumps(data)


class TestParseScenario:
    def test_minimal_valid(self):
        sc = parse_scenario(scenario_text())
        assert sc.experiment is mar.Experiment.BOUNDS
        assert sc.network.n_roads == 2

    def test_missing_demand_field_named(self):
        data = json.loads(scenario_text())
        del data["network"]["od_pairs"][0]["demand_human"]
        with pytest.raises(errors.SchemaError, match="demand_human"):
            parse_scenario(json.dumps(data))

    def test_wrong_type_sigma(self):
        data = json.loads(scenario_text())
        data["network"]["roads"][0]["sigma"] = "four"
        with pytest.raises(errors.SchemaError, match="sigma"):
            parse_scenario(json.dumps(data))

    def test_unknown_field(self):
        data = json.loads(scenario_text())
        data["network"]["roads"][0]["speed_limit"] = 50
        with pytest.raises(errors.SchemaError, match="speed_limit"):
            parse_scenario(json.dumps(data))

    def test_invalid_json(self):
        with pytest.raises(errors.SchemaError, match="invalid JSON"):
            parse_scenario("{not json")

    def test_semantic_error_delegated(self):
        data = json.loads(scenario_text())
        data["network"]["roads"][0]["sigma"] = 0.5
        with pytest.raises(errors.InvalidParameterError):
            parse_scenario(json.dumps(data))

    def test_unknown_sweep_parameter(self):
        with pytest.raises(errors.InvalidSweepParameterError):
            parse_scenario(scenario_text(
                experiment="sweep",
                sweep={"parameter": "speed", "start": 0, "stop": 1, "steps": 3}))

    def test_solver_overrides(self):
        sc = parse_scenario(scenario_text(
            equilibrium={"max_iterations": 50, "gap_tolerance": 1e-4},
            optimum={"restarts": 3}))
        assert sc.eq_config.max_iterations == 50
        assert sc.eq_config.gap_tolerance == 1e-4
        assert sc.opt_config.restarts == 3

    @pytest.mark.parametrize("key, values", [
        ("ks", ["a"]), ("ks", [True]), ("ks", [1.0, [2.0]]), ("rhos", [None])])
    def test_tightness_list_entries_must_be_numbers(self, key, values):
        text = scenario_text(experiment="tightness_probe", tightness={key: values})
        with pytest.raises(errors.SchemaError, match=f"tightness.{key}"):
            parse_scenario(text)

    @pytest.mark.parametrize("text", [
        "[" * 100_000,  # nested deeper than the decoder recurses
        '{"schema_version": "1", "seed": 1' + "0" * 5000 + "}",  # too many digits
        scenario_text(tightness={"demand": 10 ** 400}),  # beyond float range
    ])
    def test_oversized_input_is_a_schema_error(self, text):
        with pytest.raises(errors.SchemaError):
            parse_scenario(text)

    @pytest.mark.parametrize("text, field", [
        (scenario_text(experiment="tightness_probe", tightness={"ks": [1e999]}),
         "tightness.ks"),
        (scenario_text().replace('"demand_human": 1.0', '"demand_human": NaN'),
         "demand_human"),
        (scenario_text().replace('"rho": 1.0', '"rho": Infinity', 1), "rho"),
        (scenario_text().replace('"headway": 1.0', '"headway": -Infinity', 1), "headway"),
    ])
    def test_non_finite_number_is_a_schema_error(self, text, field):
        with pytest.raises(errors.SchemaError, match=field):
            parse_scenario(text)

    @pytest.mark.parametrize("value", [
        {"coef_human": 3.0, "coef_auto": 1.0, "constant": 1.0}, None])
    def test_affine_road_is_a_schema_error(self, value):
        data = json.loads(scenario_text())
        data["network"]["roads"][0]["affine"] = value
        with pytest.raises(errors.SchemaError,
                           match=r"network\.roads\[0\]: unknown field 'affine'"):
            parse_scenario(json.dumps(data))

    @pytest.mark.parametrize("key, value", [("step_rule", "msa"), ("seed", 1)])
    def test_removed_equilibrium_keys_are_schema_errors(self, tmp_path, capsys, key, value):
        text = scenario_text(equilibrium={"max_iterations": 50, key: value})
        with pytest.raises(errors.SchemaError, match=f"equilibrium: unknown field '{key}'"):
            parse_scenario(text)
        path = tmp_path / "s.json"
        path.write_text(text)
        assert main(["validate", "--scenario", str(path)]) == 1
        assert f"error: equilibrium: unknown field '{key}'" in capsys.readouterr().err

    def test_negative_seed_is_a_schema_error(self):
        with pytest.raises(errors.SchemaError, match="scenario.seed"):
            parse_scenario(scenario_text(seed=-1))

    @pytest.mark.parametrize("key", ["ks", "rhos"])
    def test_empty_tightness_list_fails_typed(self, key):
        text = scenario_text(experiment="tightness_probe", tightness={key: []})
        with pytest.raises(errors.SchemaError, match=f"tightness.{key}: expected at least one"):
            parse_scenario(text)


# A scenario using every section, for the mutation property below.
FULL = {
    **MINIMAL,
    "experiment": "sweep",
    "seed": 3,
    "network": {
        **MINIMAL["network"],
        "roads": [
            {"id": 1, "tail": "s", "head": "t", "length": 1.0, "headway": 2.0,
             "platoon_headway": 1.0, "freeflow": 1.0, "rho": 1.0, "sigma": 1.0,
             "capacity_model": "model2"},
            {"id": 2, "tail": "s", "head": "t", "headway": 3.0, "platoon_headway": 1.0,
             "rho": 1.0, "sigma": 1.0},
        ],
    },
    "equilibrium": {"max_iterations": 50, "gap_tolerance": 1e-4},
    "optimum": {"restarts": 2, "max_iterations": 10, "step_tolerance": 1e-9,
                "grid_resolution": 0.1, "seed": 2},
    "sweep": {"parameter": "autonomy_share", "start": 0.0, "stop": 1.0, "steps": 3},
    "tightness": {"ks": [1.0, 2.0], "sigma": 1.0, "rhos": [10.0], "demand": 1.0},
}


def _containers(doc):
    """Every object and nonempty list in a JSON document, the document first."""
    found = [doc] if isinstance(doc, dict) or (isinstance(doc, list) and doc) else []
    children = doc.values() if isinstance(doc, dict) else doc if isinstance(doc, list) else ()
    for child in children:
        found.extend(_containers(child))
    return found


def _keys(doc):
    if isinstance(doc, dict):
        return set(doc).union(*(_keys(v) for v in doc.values()))
    if isinstance(doc, list):
        return set().union(*(_keys(v) for v in doc))
    return set()


FIELD_NAMES = sorted(_keys(FULL))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(FIELD_NAMES) | st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_parse_scenario_returns_scenario_or_raises_mar_error(data):
    # put random JSON values at random keys (known field names included, so
    # fields land in the wrong sections too) and at random list positions
    doc = copy.deepcopy(FULL)
    for _ in range(data.draw(st.integers(1, 3))):
        target = data.draw(st.sampled_from(_containers(doc)))
        if isinstance(target, dict):
            key = data.draw(st.sampled_from(FIELD_NAMES) | st.text(max_size=6))
        else:
            key = data.draw(st.integers(0, len(target) - 1))
        target[key] = data.draw(JSON_VALUES)
    try:
        result = parse_scenario(json.dumps(doc))
    except errors.MarError:
        return
    assert isinstance(result, Scenario)


_ABSENT = object()
ROAD = mar.Road(rid=7, tail="a", head="b", length=2.0, headway=1.5, platoon_headway=0.5,
                freeflow=0.5, rho=1.0, sigma=2.0, capacity_model=mar.CapacityModel.MODEL2)


def _edited(path, value):
    """``FULL`` with the value at ``path`` (keys and list indices) replaced,
    or deleted where ``value`` is ``_ABSENT``."""
    doc = copy.deepcopy(FULL)
    *parents, last = path
    target = doc
    for step in parents:
        target = target[step]
    if value is _ABSENT:
        del target[last]
    else:
        target[last] = value
    return json.dumps(doc)


def _plain(value):
    """A value of a scenario type written as the JSON the reader reads."""
    if dataclasses.is_dataclass(value):
        return {f.metadata.get("key", f.name): _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


class TestReader:
    # every kind of the reader given a wrong value; the error names its full path
    @pytest.mark.parametrize("path, value, message", [
        (("network", "roads", 1, "headway"), "fast",
         "network.roads[1].headway: expected a number, got 'fast'"),
        (("network", "roads", 1, "headway"), True,
         "network.roads[1].headway: expected a number, got True"),
        (("sweep", "stop"), 1e400, "sweep.stop: expected a finite number, got inf"),
        (("network", "roads", 1, "id"), 2.0, "network.roads[1].id: expected an integer, got 2.0"),
        (("optimum", "restarts"), "3", "optimum.restarts: expected an integer, got '3'"),
        (("seed",), False, "scenario.seed: expected an integer, got False"),
        (("network", "od_pairs", 0, "origin"), 1,
         "network.od_pairs[0].origin: expected a string, got 1"),
        (("network", "nodes", 1), None, "network.nodes[1]: expected a string, got None"),
        (("network", "roads", 1, "capacity_model"), "model3",
         "network.roads[1].capacity_model: expected 'model1' or 'model2', got 'model3'"),
        (("network", "roads", 1, "capacity_model"), 2,
         "network.roads[1].capacity_model: expected a string, got 2"),
        (("network", "roads"), {"id": 1}, "network.roads: expected a list, got {'id': 1}"),
        (("tightness", "ks"), 2.0, "tightness.ks: expected a list, got 2.0"),
        (("tightness", "rhos", 0), "a", "tightness.rhos[0]: expected a number, got 'a'"),
        (("network", "roads", 1), [1], "network.roads[1]: expected an object, got list"),
        (("network", "od_pairs", 0), "s", "network.od_pairs[0]: expected an object, got str"),
        (("optimum",), 3, "optimum: expected an object, got int"),
        (("sweep",), [], "sweep: expected an object, got list"),
        (("network",), "net", "network: expected an object, got str"),
        (("network", "roads", 1, "id"), _ABSENT, "network.roads[1]: missing required field 'id'"),
        (("network", "od_pairs", 0, "demand_auto"), _ABSENT,
         "network.od_pairs[0]: missing required field 'demand_auto'"),
        (("network", "od_pairs"), _ABSENT, "network: missing required field 'od_pairs'"),
        (("sweep", "steps"), _ABSENT, "sweep: missing required field 'steps'"),
        (("schema_version",), _ABSENT, "scenario: missing required field 'schema_version'"),
        (("network", "roads", 1, "rid"), 2, "network.roads[1]: unknown field 'rid'"),
        (("network", "links"), [], "network: unknown field 'links'"),
        (("equilibrium", "restarts"), 2, "equilibrium: unknown field 'restarts'"),
        (("tightness", "k"), [1.0], "tightness: unknown field 'k'"),
        (("solver",), {}, "scenario: unknown field 'solver'"),
        (("experiment",), "race", "scenario.experiment: unknown experiment 'race'"),
        (("schema_version",), "2", "scenario.schema_version: unrecognized version '2'"),
    ])
    def test_wrong_value_names_its_path(self, path, value, message):
        with pytest.raises(errors.SchemaError) as excinfo:
            parse_scenario(_edited(path, value))
        assert str(excinfo.value) == message

    def test_unsupported_kind_is_a_bug_not_a_schema_error(self):
        with pytest.raises(AssertionError):
            _value({}, dict, "x")

    def test_unknown_demo_is_a_schema_error(self):
        with pytest.raises(errors.SchemaError, match="unknown demo 'race'; available: "):
            mar.demo_scenario("race")

    @pytest.mark.parametrize("section", ["equilibrium", "optimum", "tightness", "sweep"])
    def test_null_section_reads_as_absent(self, section):
        doc = {**FULL, "experiment": "bounds", section: None}
        absent = {key: value for key, value in doc.items() if key != section}
        assert parse_scenario(json.dumps(doc)) == parse_scenario(json.dumps(absent))

    def test_optimum_seed_defaults_to_the_scenario_seed(self):
        doc = {**FULL, "optimum": {"restarts": 2}}
        assert parse_scenario(json.dumps(doc)).opt_config.seed == FULL["seed"]
        assert parse_scenario(json.dumps(FULL)).opt_config.seed == FULL["optimum"]["seed"]

    @pytest.mark.parametrize("value", [
        mar.Network(nodes=("a", "b"), roads=(ROAD, mar.Road(rid=2, tail="a", head="b")),
                    od_pairs=(mar.ODPair("a", "b", 1.5, 0.0),)),
        ROAD,
        mar.ODPair("a", "b", 1.5, 0.0),
        SweepSpec(parameter="k_scale", start=1.0, stop=3.0, steps=4),
        mar.EquilibriumConfig(max_iterations=7, gap_tolerance=1e-3),
        mar.OptimumConfig(restarts=3, max_iterations=9, step_tolerance=1e-6,
                          grid_resolution=0.5, seed=4),
        TightnessSpec(ks=(1.0, 4.0), sigma=2.0, rhos=(5.0,), demand=2.0),
    ], ids=lambda value: type(value).__name__)
    def test_reads_every_field_of_the_scenario_types(self, value):
        # a field of a type the reader cannot read fails here, not in a user's parse
        text = json.dumps(_plain(value))
        assert _value(json.loads(text), type(value), "x") == value


class TestScenarioRules:
    # a Scenario built in library code or by dataclasses.replace passes the
    # same checks as a parsed file
    @pytest.mark.parametrize("experiment, message", [
        (Experiment.SWEEP, "the sweep experiment requires a 'sweep' section"),
        (Experiment.MONOTONICITY_DEMO, "the monotonicity demo needs exactly two")])
    def test_built_directly(self, experiment, message):
        with pytest.raises(errors.MarError, match=message):
            Scenario(experiment=experiment, network=grid_net(2),
                     eq_config=mar.EquilibriumConfig(), opt_config=mar.OptimumConfig())

    def test_network_required_unless_tightness_probe(self):
        configs = dict(eq_config=mar.EquilibriumConfig(), opt_config=mar.OptimumConfig())
        Scenario(experiment=Experiment.TIGHTNESS_PROBE, network=None, **configs)
        with pytest.raises(errors.SchemaError,
                           match="the bounds experiment requires a 'network' section"):
            Scenario(experiment=Experiment.BOUNDS, network=None, **configs)

    def test_replace_rechecks(self):
        sc = parse_scenario(scenario_text())
        with pytest.raises(errors.SchemaError, match="requires a 'sweep' section"):
            dataclasses.replace(sc, experiment=Experiment.SWEEP)

    @pytest.mark.parametrize("seed", [-1, True, 1.5])
    def test_seed_is_checked_by_the_scenario(self, seed):
        sc = parse_scenario(scenario_text())
        with pytest.raises(errors.SchemaError,
                           match=rf"^scenario\.seed: expected an integer >= 0, got {seed!r}$"):
            dataclasses.replace(sc, seed=seed)

    @pytest.mark.parametrize("fields, message", [
        ({"steps": 2.0}, "sweep.steps: expected an integer"),
        ({"steps": True}, "sweep.steps: expected an integer"),
        ({"stop": float("nan")}, "sweep.stop: autonomy_share values must be within"),
        ({"parameter": "k_scale", "start": 1.0, "stop": float("inf")}, "sweep.stop: k_scale")])
    def test_sweep_spec_built_directly(self, fields, message):
        spec = {"parameter": "autonomy_share", "start": 0.0, "stop": 1.0, "steps": 3, **fields}
        with pytest.raises(errors.InvalidSweepParameterError, match=message):
            SweepSpec(**spec)


class TestApplySweep:
    def test_autonomy_share_preserves_total(self):
        net = symmetric_pair(demand_human=2.0, demand_auto=0.0)
        swept = apply_sweep_parameter(net, "autonomy_share", 0.25)
        od = swept.od_pairs[0]
        assert od.demand_auto == pytest.approx(0.5)
        assert od.total_demand == pytest.approx(2.0)

    def test_k_scale_sets_every_road_ratio(self):
        net = symmetric_pair()
        swept = apply_sweep_parameter(net, "k_scale", 3.0)
        assert mar.degree_of_asymmetry(swept) == pytest.approx(3.0)

    def test_demand_scale(self):
        net = symmetric_pair()
        swept = apply_sweep_parameter(net, "demand_scale", 2.5)
        assert swept.od_pairs[0].total_demand == pytest.approx(5.0)

    def test_sigma(self):
        net = symmetric_pair()
        swept = apply_sweep_parameter(net, "sigma", 4.0)
        assert all(r.sigma == 4.0 for r in swept.roads)

    def test_unknown_parameter(self):
        with pytest.raises(errors.InvalidSweepParameterError, match="unknown sweep parameter"):
            apply_sweep_parameter(symmetric_pair(), "speed", 1.0)

    def test_is_the_package_export(self):
        assert mar.apply_sweep_parameter is apply_sweep_parameter


class TestRunExperiments:
    def test_bounds_k2_report(self, tmp_path):
        data = json.loads(scenario_text())
        data["network"]["roads"][0]["headway"] = 10.0
        data["network"]["roads"][0]["platoon_headway"] = 5.0
        data["network"]["roads"][1]["headway"] = 4.0
        data["network"]["roads"][1]["platoon_headway"] = 8.0
        sc = parse_scenario(json.dumps(data))
        out = tmp_path / "bounds.json"
        assert run(sc, out=str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["bound_thm1"] == pytest.approx(8.0 / 3.0, abs=1e-12)
        assert payload["bound_thm2"] == pytest.approx(2.0, abs=1e-12)
        assert payload["bound_combined"] == pytest.approx(2.0, abs=1e-12)

    def test_monotonicity_demo_report(self, tmp_path):
        sc = mar.demo_scenario("monotonicity")
        out = tmp_path / "mono.json"
        assert run(sc, out=str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["probe_value"] == -3.0
        assert payload["quadratic_form"]["value"] == -1.0
        assert payload["jacobian"] == [[3, 1, 0, 0], [3, 1, 0, 0],
                                       [0, 0, 3, 2], [0, 0, 3, 2]]
        assert payload["monotone"] is False

    def test_poa_symmetric_ratio_one(self, tmp_path):
        sc = parse_scenario(scenario_text(experiment="poa"))
        out = tmp_path / "poa.csv"
        assert run(sc, out=str(out)) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 1
        assert float(rows[0]["poa_emp"]) == pytest.approx(1.0, abs=1e-6)
        assert rows[0]["opt_oracle"] == "brute-force"

    def test_bicriteria_demo_holds(self, tmp_path):
        sc = mar.demo_scenario("bicriteria-2.61")
        out = tmp_path / "bi.json"
        assert run(sc, out=str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["factor"] == pytest.approx(2.60498, abs=5e-3)
        assert payload["holds"] is True

    def test_sweep_autonomy_rows(self, tmp_path):
        sc = parse_scenario(scenario_text(
            experiment="sweep",
            sweep={"parameter": "autonomy_share", "start": 0.0, "stop": 1.0, "steps": 11}))
        out = tmp_path / "sweep.csv"
        assert run(sc, out=str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        rows = list(csv.DictReader(lines))
        assert len(rows) == 11
        values = [float(r["value"]) for r in rows]
        assert values == sorted(values)
        for row in rows:
            certified = row["opt_oracle"] == "brute-force"
            within = float(row["poa_emp"]) <= float(row["bound_combined"]) + 2e-3
            assert within or not certified

    def test_k_scale_sweep_thm2_empty_iff_k_xi_reaches_one(self, tmp_path):
        sc = parse_scenario(scenario_text(
            experiment="sweep",
            sweep={"parameter": "k_scale", "start": 1.0, "stop": 5.0, "steps": 5}))
        out = tmp_path / "kscale.csv"
        run(sc, out=str(out))
        rows = list(csv.DictReader(out.read_text().splitlines()))
        for row in rows:
            # with sigma = 1 the sharper bound exists exactly for k < 4
            if float(row["k"]) >= 4.0:
                assert row["bound_t2"] == ""
            else:
                assert row["bound_t2"] != ""

    def test_equilibrium_json_report(self, tmp_path):
        sc = parse_scenario(scenario_text(experiment="equilibrium"))
        out = tmp_path / "eq.json"
        assert run(sc, out=str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["converged"] is True
        assert len(payload["link_flows"]) == 2

    def test_demand_scale_sweep_brackets_bicriteria(self, tmp_path):
        # sweep demands from the base game up to the bicriteria factor: the
        # base equilibrium cost must not exceed the inflated optimum cost
        data = json.loads(scenario_text(experiment="sweep"))
        data["network"]["roads"][0]["headway"] = 2.0  # k = 2, sigma = 1
        factor = 1.0 + 2.0 * mar.xi(1.0)
        data["sweep"] = {"parameter": "demand_scale", "start": 1.0,
                         "stop": factor, "steps": 4}
        sc = parse_scenario(json.dumps(data))
        out = tmp_path / "bic.csv"
        assert run(sc, out=str(out)) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 4
        assert float(rows[0]["value"]) == pytest.approx(1.0)
        assert float(rows[-1]["value"]) == pytest.approx(factor)
        assert float(rows[0]["C_eq"]) <= float(rows[-1]["C_opt"]) * (1 + 1e-9)


class TestMainCli:
    def test_validate_verb(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(scenario_text())
        assert main(["validate", "--scenario", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_bad_scenario_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert main(["validate", "--scenario", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["bounds", "--scenario", "/nonexistent.json"]) == 1

    def test_demo_runs(self, tmp_path):
        out = tmp_path / "demo.json"
        assert main(["demo", "classic-4-3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["bound_thm1"] == pytest.approx(4.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["classic-4-3", "tightness-k-sweep"])
    def test_negative_seed_fails_without_traceback(self, capsys, name):
        assert main(["demo", name, "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed" in err
        assert "Traceback" not in err

    def test_tightness_demo_counts_distinct_equilibria(self, capsys):
        # each k's two instances reach three distinct equilibria apiece
        assert main(["demo", "tightness-k-sweep"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 4
        assert all(row.split(",")[5] == "probe:6-equilibria" for row in rows)

    def test_verb_overrides_experiment(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(scenario_text())  # scenario says bounds
        out = tmp_path / "eq.json"
        assert main(["eq", "--scenario", str(path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["experiment"] == "equilibrium"

    @pytest.mark.parametrize("experiment, section, marker", [
        ("tightness_probe", {"tightness": {"ks": [1.0, 2.0], "sigma": 1.0,
                                           "rhos": [10.0], "demand": 1.0}}, ",probe:"),
        ("monotonicity_demo", {"network": _DEMOS["monotonicity"]["network"]},
         '"experiment": "monotonicity_demo"'),
    ])
    def test_run_verb_runs_the_file_experiment(self, tmp_path, capsys, experiment,
                                               section, marker):
        # no other file verb reaches these two experiments
        text = json.dumps({"schema_version": "1", "experiment": experiment, **section})
        path = tmp_path / "s.json"
        path.write_text(text)
        assert main(["run", "--scenario", str(path)]) == 0
        via_cli = capsys.readouterr().out
        assert run(parse_scenario(text)) == 0
        assert via_cli == capsys.readouterr().out
        assert marker in via_cli

    @pytest.mark.parametrize("parameter, start, stop", [
        ("autonomy_share", 0.2, 0.8), ("demand_scale", 0.5, 1.5), ("k_scale", 1.0, 2.0),
        ("sigma", 1.0, 2.0)])
    def test_sweep_enumerates_the_topology_once(self, tmp_path, parameter, start, stop):
        text = json.dumps({"schema_version": "1", "experiment": "sweep", "network": TWO_OD,
                           "optimum": {"restarts": 2},
                           "sweep": {"parameter": parameter, "start": start, "stop": stop,
                                     "steps": 3}})
        mar.network._topology.cache_clear()
        assert run(parse_scenario(text), out=str(tmp_path / "sweep.csv")) == 0
        info = mar.network._topology.cache_info()
        assert info.misses == 1
        assert info.hits > 0

    @pytest.mark.parametrize("verb", ["eq", "poa"])
    def test_too_many_paths_fail_fast(self, tmp_path, capsys, verb):
        net = grid_net(6)
        network = {
            "nodes": list(net.nodes),
            "roads": [{"id": r.rid, "tail": r.tail, "head": r.head} for r in net.roads],
            "od_pairs": [{"origin": od.origin, "destination": od.destination,
                          "demand_human": od.demand_human, "demand_auto": od.demand_auto}
                         for od in net.od_pairs]}
        path = tmp_path / "grid.json"
        path.write_text(scenario_text(network=network))
        assert main([verb, "--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "cap" in err

    def test_subnormal_grid_resolution_falls_back_to_local_search(self, tmp_path):
        path = tmp_path / "poa.json"
        path.write_text(scenario_text(experiment="poa", optimum={"grid_resolution": 5e-324}))
        out = tmp_path / "poa.csv"
        assert main(["poa", "--scenario", str(path), "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert rows[0]["opt_oracle"] == "local-search"

    def test_byte_identical_reports(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(scenario_text(
            experiment="sweep", seed=11,
            sweep={"parameter": "autonomy_share", "start": 0.0, "stop": 1.0, "steps": 5}))
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["sweep", "--scenario", str(path), "--out", str(out1)]) == 0
        assert main(["sweep", "--scenario", str(path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_format_override_json(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(scenario_text(experiment="poa"))
        out = tmp_path / "poa.json"
        assert main(["poa", "--scenario", str(path), "--format", "json",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["experiment"] == "poa"

    def test_opt_verb_restarts_override_matches_run(self, tmp_path, monkeypatch):
        text = scenario_text(seed=5, network=TWO_OD)  # a bounds scenario
        path = tmp_path / "s.json"
        path.write_text(text)
        out = tmp_path / "opt.json"
        configs = []
        solve = mar.cli.solve_optimum
        monkeypatch.setattr(mar.cli, "solve_optimum",
                            lambda net, cfg: configs.append(cfg) or solve(net, cfg))
        assert main(["opt", "--scenario", str(path), "--restarts", "3",
                     "--out", str(out)]) == 0
        assert [cfg.restarts for cfg in configs] == [3]
        payload = json.loads(out.read_text())
        assert payload["experiment"] == "optimum" and payload["converged"] is True
        sc = parse_scenario(text)
        sc = dataclasses.replace(sc, experiment=Experiment.OPTIMUM,
                                 opt_config=dataclasses.replace(sc.opt_config, restarts=3))
        assert run(sc, out=str(tmp_path / "lib.json")) == 0
        assert (tmp_path / "lib.json").read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("verb, line", [
        ("bounds", "bound_combined,1.33333333333"), ("eq", "link_flows.1.road,2")])
    def test_csv_of_a_report_that_is_not_rows(self, tmp_path, verb, line):
        path = tmp_path / "s.json"
        path.write_text(scenario_text())
        out = tmp_path / "report.csv"
        assert main([verb, "--scenario", str(path), "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "key,value"
        assert line in lines

    def test_unknown_format_is_a_schema_error(self):
        with pytest.raises(errors.SchemaError, match="unknown format 'xml'"):
            run(parse_scenario(scenario_text()), fmt="xml")

    def test_unconverged_poa_row_carries_its_tokens_and_exits_2(self, tmp_path):
        # one iteration each, and a grid too fine for the brute-force oracle
        doc = {**FULL, "experiment": "poa", "equilibrium": {"max_iterations": 1},
               "optimum": {"max_iterations": 1, "grid_resolution": 5e-324}}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "poa.csv"
        assert main(["poa", "--scenario", str(path), "--out", str(out)]) == 2
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert rows[0]["opt_oracle"] == "local-search+eq-unconverged+opt-unconverged"

    def test_seed_override(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(scenario_text(experiment="equilibrium"))
        out = tmp_path / "eq.json"
        assert main(["eq", "--scenario", str(path), "--seed", "42",
                     "--out", str(out)]) == 0

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_bad_gap_tolerance_fails_fast(self, tmp_path, capsys, tol):
        path = tmp_path / "s.json"
        path.write_text(scenario_text())
        assert main(["eq", "--scenario", str(path), "--gap-tol", tol]) == 1
        assert "gap_tolerance" in capsys.readouterr().err

    def test_sweep_verb_without_sweep_section(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(scenario_text())  # bounds scenario, no sweep block
        assert main(["sweep", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: the sweep experiment requires a 'sweep' section\n")

    @pytest.mark.parametrize("k", ["0.5", "0.0", "-2.0"])  # the schema rejects non-finite
    def test_tightness_k_below_one_fails_without_traceback(self, tmp_path, capsys, k):
        path = tmp_path / "s.json"
        path.write_text(scenario_text(experiment="tightness_probe").replace(
            '"experiment"', f'"tightness": {{"ks": [2.0, {k}]}}, "experiment"'))
        assert main(["run", "--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "k must be finite and >= 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("tightness, field", [
        ({"ks": [0.5]}, "tightness.ks: every k must be finite and >= 1"),
        ({"rhos": []}, "tightness.rhos: expected at least one value"),
        ({"sigma": 0.5}, "tightness.sigma: expected a finite value >= 1, got 0.5"),
        ({"demand": 0.0}, "tightness.demand: expected a finite value > 0, got 0.0"),
        ({"demand": -1.0}, "tightness.demand: expected a finite value > 0, got -1.0"),
        ({"rhos": [-1.0]}, "tightness.rhos: every rho must be finite and >= 0")])
    def test_validate_rejects_what_run_rejects(self, tmp_path, capsys, tightness, field):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"schema_version": "1", "experiment": "tightness_probe",
                                    "tightness": tightness}))
        for verb in ("validate", "run"):
            assert main([verb, "--scenario", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {field}") and "Traceback" not in err
        with pytest.raises(errors.SchemaError):
            parse_scenario(path.read_text())

    @pytest.mark.parametrize("doc, verbs, first_line", [
        ({"experiment": "sweep", "network": MINIMAL["network"]}, ("validate", "run", "sweep"),
         "the sweep experiment requires a 'sweep' section"),
        ({"experiment": "eq"}, ("validate", "run", "eq"),
         "the equilibrium experiment requires a 'network' section"),
        ({"experiment": "monotonicity_demo", "network": TWO_OD}, ("validate", "run"),
         "the monotonicity demo needs exactly two parallel roads and one OD pair"),
        ({"experiment": "monotonicity_demo", "network": SERIES}, ("validate", "run"),
         "the monotonicity demo needs exactly two parallel roads and one OD pair"),
        *(({"experiment": "sweep", "network": MINIMAL["network"],
            "sweep": {"parameter": "k_scale", "start": 1.0, "stop": 2.0, "steps": steps}},
           ("validate", "run", "sweep"),
           f"sweep.steps: expected an integer in [1, {MAX_SWEEP_STEPS}], got {steps}")
          for steps in (0, MAX_SWEEP_STEPS + 1, 10 ** 20)),
        *(({"experiment": "sweep", "network": MINIMAL["network"],
            "sweep": {"parameter": parameter, "start": start, "stop": stop, "steps": 3}},
           ("validate", "run", "sweep"), f"sweep.{end}: {parameter} values must be {rule}")
          for parameter, start, stop, end, rule in (
              ("autonomy_share", -0.1, 1.0, "start", "within [0, 1], got -0.1"),
              ("autonomy_share", 0.0, 1.5, "stop", "within [0, 1], got 1.5"),
              ("k_scale", 0.5, 2.0, "start", "finite and >= 1, got 0.5"),
              ("sigma", 1.0, 0.9, "stop", "finite and >= 1, got 0.9"),
              ("demand_scale", 0.0, 1.0, "start", "finite and > 0, got 0.0"),
              ("demand_scale", 1.0, -1.0, "stop", "finite and > 0, got -1.0"))),
    ])
    def test_validate_and_run_agree_on_scenario_rules(self, tmp_path, capsys, doc, verbs,
                                                      first_line):
        # the rules of Scenario and SweepSpec; the tightness ones are above
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"schema_version": "1", **doc}))
        for verb in verbs:
            assert main([verb, "--scenario", str(path)]) == 1
            err = capsys.readouterr().err
            assert err.splitlines()[0] == f"error: {first_line}", verb

    @pytest.mark.parametrize("flags, first_line", [
        (("--restarts", "0"), "restarts must be an integer >= 1, got 0"),
        (("--restarts", str(MAX_RESTARTS + 1)),
         f"restarts must be at most {MAX_RESTARTS}, got {MAX_RESTARTS + 1}"),
        (("--seed", "-1"), "seed must be an integer >= 0, got -1"),
        (("--gap-tol", "0"), "gap_tolerance must be finite and > 0")])
    def test_validate_applies_the_flags_as_run_does(self, tmp_path, capsys, flags, first_line):
        path = tmp_path / "s.json"
        path.write_text(scenario_text())
        for verb in ("validate", "run"):
            assert main([verb, "--scenario", str(path), *flags]) == 1
            assert capsys.readouterr().err.splitlines()[0] == f"error: {first_line}", verb

    def test_network_required_for_non_probe_verbs(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"schema_version": "1",
                                    "experiment": "tightness_probe"}))
        assert main(["eq", "--scenario", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: the equilibrium experiment requires a 'network' section\n")

    def test_runs_with_scipy_blocked(self, tmp_path):
        # scipy is a test dependency only: with it unimportable, import mar,
        # check_feasible's two verdicts and every verb and demo work, and each
        # run exits as it does here and writes the same report
        scenario = tmp_path / "s.json"
        scenario.write_text(scenario_text(
            optimum={"restarts": 2},
            sweep={"parameter": "autonomy_share", "start": 0.0, "stop": 1.0, "steps": 3}))
        runs = {name: ["demo", name] for name in mar.DEMO_NAMES}
        runs.update({verb: [verb, "--scenario", str(scenario)]
                     for verb in ("eq", "opt", "bounds", "poa", "bicriteria", "sweep")})
        script = (
            "import json, sys\n"
            "sys.modules['scipy'] = None  # every import of scipy now raises\n"
            "import mar\n"
            "roads = [mar.Road(1, 's', 'a'), mar.Road(2, 'a', 't'), mar.Road(3, 's', 't')]\n"
            "net = mar.Network(('s', 'a', 't'), roads,\n"
            "                  (mar.ODPair('s', 'a', 1, 0), mar.ODPair('a', 't', 1, 0)))\n"
            "verdicts = [bool(mar.check_feasible(net, z))\n"
            "            for z in ([1, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0])]\n"
            "runs, out = json.loads(sys.argv[1]), sys.argv[2]\n"
            "codes = {k: mar.main(a + ['--out', f'{out}/blocked-{k}']) for k, a in runs.items()}\n"
            "print(json.dumps([verdicts, codes]))\n")
        env = {**os.environ, "PYTHONPATH": str(Path(mar.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", script, json.dumps(runs), str(tmp_path)],
                              env=env, capture_output=True, text=True, check=True)
        verdicts, codes = json.loads(done.stdout)
        assert verdicts == [True, False]
        for key, args in runs.items():
            out = tmp_path / f"here-{key}"
            assert codes[key] == main(args + ["--out", str(out)]) == 0
            assert (tmp_path / f"blocked-{key}").read_bytes() == out.read_bytes()

    def test_module_entry_point_runs_without_warnings(self):
        # ``import mar`` must not load mar.cli, or runpy warns on ``-m mar.cli``
        env = {**os.environ, "PYTHONPATH": str(Path(mar.__file__).resolve().parents[1])}
        subprocess.run([sys.executable, "-W", "error", "-m", "mar.cli", "--help"],
                       env=env, capture_output=True, check=True)
        out = subprocess.run(
            [sys.executable, "-c", "import sys, mar; print('mar.cli' in sys.modules, mar.run)"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.startswith("False <function run")
