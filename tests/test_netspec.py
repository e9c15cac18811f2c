import dataclasses
import json
from importlib import resources

import numpy as np
import pytest

from mpxpi import fixtures, netspec
from mpxpi.errors import SpecFormatError


def _data_path(name: str):
    return resources.files("mpxpi.data").joinpath(name)


@pytest.fixture
def hetero8_path(tmp_path):
    target = tmp_path / "hetero8.json"
    target.write_text(_data_path("hetero8.json").read_text())
    return target


def test_bundled_network_matches_fixture(hetero8_path):
    system, defaults = netspec.parse_spec(hetero8_path)
    reference = fixtures.heterogeneous_ring_system()
    assert system.n_nodes == 8
    assert system.state_dim == 2
    stacked = system.stacked_bias()
    np.testing.assert_array_equal(
        stacked, [0, 10, 0, 30, 0, 1, 20, 0, 30, 30, 60, 10, -10, 40, 0, 0]
    )
    for got, want in zip(system.nodes, reference.nodes):
        np.testing.assert_array_equal(got.A, want.A)
    assert system.layer_p.edges == reference.layer_p.edges
    assert system.sigma_p == reference.sigma_p
    assert defaults == {"t_end": 50.0, "dt": 0.001, "seed": 42}


def test_bundled_grid_matches_fixture():
    grid = netspec.parse_power_spec(_data_path("grid16.json"))
    reference = fixtures.sixteen_bus_grid()
    np.testing.assert_array_equal(grid.local_gain, reference.local_gain)
    np.testing.assert_array_equal(grid.injection, reference.injection)
    assert grid.electrical.edges == reference.electrical.edges
    assert grid.sigma_p == reference.sigma_p


def test_round_trip_identity():
    system = fixtures.heterogeneous_ring_system()
    doc = netspec.serialize_spec(system, sim_defaults={"seed": 7})
    again, defaults = netspec.parse_spec_dict(json.loads(json.dumps(doc)))
    assert defaults == {"seed": 7}
    assert again.sigma == system.sigma
    assert again.sigma_p == system.sigma_p
    assert again.sigma_i == system.sigma_i
    assert again.layer_c.edges == system.layer_c.edges
    assert again.layer_p.edges == system.layer_p.edges
    assert again.layer_i.edges == system.layer_i.edges
    for got, want in zip(again.nodes, system.nodes):
        np.testing.assert_array_equal(got.A, want.A)
        np.testing.assert_array_equal(got.b, want.b)


def test_round_trip_preserves_local_feedback():
    system = fixtures.heterogeneous_ring_system()
    fb = tuple(np.full((2, 2), float(k)) for k in range(8))
    system = dataclasses.replace(system, local_feedback=fb)
    again, _ = netspec.parse_spec_dict(netspec.serialize_spec(system))
    for got, want in zip(again.local_feedback, fb):
        np.testing.assert_array_equal(got, want)


def _doc():
    return netspec.serialize_spec(fixtures.heterogeneous_ring_system())


def _expect_code(doc, code):
    with pytest.raises(SpecFormatError) as err:
        netspec.parse_spec_dict(doc)
    assert err.value.code == code
    return err.value


def test_self_loop_rejected():
    doc = _doc()
    doc["layers"]["P"]["edges"][0] = [1, 1, 1.0]
    err = _expect_code(doc, "self-loop")
    assert "$.layers.P.edges[0]" in err.path


def test_wrong_row_length_names_the_node():
    doc = _doc()
    doc["nodes"][3]["A"][0] = [1.0, 2.0, 3.0]
    err = _expect_code(doc, "dimension")
    assert "$.nodes[3].A[0]" == err.path


def test_unknown_key_rejected():
    doc = _doc()
    doc["extra"] = 1
    _expect_code(doc, "unknown-key")
    doc = _doc()
    doc["nodes"][0]["Q"] = []
    _expect_code(doc, "unknown-key")


def test_missing_layer_rejected():
    doc = _doc()
    del doc["layers"]["I"]
    _expect_code(doc, "missing-key")


def test_missing_layer_gain_rejected():
    doc = _doc()
    del doc["layers"]["P"]["sigma"]
    _expect_code(doc, "missing-key")


def test_bad_weight_rejected():
    doc = _doc()
    doc["layers"]["I"]["edges"][0][2] = -1.0
    _expect_code(doc, "bad-weight")


@pytest.mark.parametrize("value", [float("nan"), float("-inf"), 10**400])
def test_non_finite_number_rejected(value):
    doc = _doc()
    doc["nodes"][2]["b"][1] = value
    err = _expect_code(doc, "bad-type")
    assert err.path == "$.nodes[2].b[1]"


def test_bad_node_index_rejected():
    doc = _doc()
    doc["layers"]["I"]["edges"][0][0] = 12
    _expect_code(doc, "bad-node-index")


def test_duplicate_edge_rejected():
    doc = _doc()
    doc["layers"]["I"]["edges"].append(doc["layers"]["I"]["edges"][0])
    _expect_code(doc, "duplicate-edge")


def test_malformed_json_reported(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(SpecFormatError) as err:
        netspec.parse_spec(bad)
    assert err.value.code == "malformed-json"


def test_missing_file_reported(tmp_path):
    with pytest.raises(SpecFormatError) as err:
        netspec.parse_spec(tmp_path / "absent.json")
    assert err.value.code == "io"


def test_power_round_trip(tmp_path):
    grid = fixtures.sixteen_bus_grid()
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(netspec.serialize_power_spec(grid)))
    parsed = netspec.parse_power_spec(path)
    np.testing.assert_array_equal(parsed.inertia, grid.inertia)
    np.testing.assert_array_equal(parsed.damping, grid.damping)
    assert parsed.p_layer.edges == grid.p_layer.edges
