"""ScenarioBuilder <-> plain-dict spec round-trips.

Campaign files store scenarios as JSON, so every builder option must
serialize (``to_spec``), deserialize (``from_spec``), and rebuild the
*same* network deterministically.
"""

import json

import pytest

from repro.phy.neighbor_index import SpatialHashGrid
from repro.routing import EndpointOnlyRouter, PlainDSRRouter, SecureDSRRouter
from repro.scenarios import ScenarioBuilder
from repro.scenarios.builder import router_class, router_name


def _assert_round_trip(builder: ScenarioBuilder) -> dict:
    spec = builder.to_spec()
    # JSON-clean
    assert json.loads(json.dumps(spec)) == spec
    rebuilt = ScenarioBuilder.from_spec(spec)
    assert rebuilt.to_spec() == spec
    return spec


def _positions_of(builder: ScenarioBuilder):
    scenario = builder.build()
    return [tuple(node.position) for node in scenario.all_nodes]


@pytest.mark.parametrize(
    "shape",
    [
        lambda b: b.chain(4, spacing=210.0),
        lambda b: b.grid(9, spacing=170.0),
        lambda b: b.uniform(6, (600.0, 600.0)),
        lambda b: b.uniform(6, (600.0, 600.0), require_connected=False),
        lambda b: b.uniform_density(12, density=6.0),
        lambda b: b.clustered(8, 2, (500.0, 500.0), cluster_std=40.0),
        lambda b: b.positions([(0.0, 0.0), (100.0, 0.0), (200.0, 50.0)]),
    ],
    ids=["chain", "grid", "uniform", "uniform-loose", "uniform-density",
         "clustered", "positions"],
)
def test_every_topology_round_trips(shape):
    builder = shape(ScenarioBuilder(seed=13))
    spec = _assert_round_trip(builder)
    assert _positions_of(ScenarioBuilder.from_spec(spec)) == _positions_of(builder)


@pytest.mark.parametrize(
    "cls,name",
    [
        (SecureDSRRouter, "secure"),
        (PlainDSRRouter, "plain"),
        (EndpointOnlyRouter, "endpoint"),
    ],
)
def test_every_router_round_trips(cls, name):
    assert router_name(cls) == name
    assert router_class(name) is cls
    builder = ScenarioBuilder(seed=1).chain(3).router(cls)
    spec = _assert_round_trip(builder)
    assert spec["router"] == name
    rebuilt = ScenarioBuilder.from_spec(spec).build()
    assert all(type(h.router) is cls for h in rebuilt.hosts)


def test_medium_index_round_trips():
    """The medium has one neighbor index (the spatial hash grid), so a
    spec round-trips without a ``medium_index`` key and a spec that still
    carries one fails loudly instead of silently running something other
    than what it names."""
    builder = ScenarioBuilder(seed=5).chain(3)
    spec = _assert_round_trip(builder)
    assert "medium_index" not in spec
    medium = ScenarioBuilder.from_spec(spec).build().medium
    assert type(medium._index) is SpatialHashGrid
    for value in ("naive", "grid"):
        with pytest.raises(ValueError, match="medium_index"):
            ScenarioBuilder.from_spec({**spec, "medium_index": value})


def test_medium_knobs_compose_in_either_order():
    """Both medium knobs are retired: the builder has no ``medium()``
    setter, and a spec carrying both old keys is rejected naming both,
    whichever order they arrive in."""
    assert not hasattr(ScenarioBuilder, "medium")
    spec = ScenarioBuilder(seed=5).chain(3).to_spec()
    for extra in (
        {"medium_vectorized": False, "medium_index": "naive"},
        {"medium_index": "naive", "medium_vectorized": False},
    ):
        with pytest.raises(ValueError) as excinfo:
            ScenarioBuilder.from_spec({**spec, **extra})
        assert "medium_index" in str(excinfo.value)
        assert "medium_vectorized" in str(excinfo.value)


def test_uniform_density_scales_area_with_n():
    """Same density, more nodes => bigger area, roughly constant degree."""
    small = ScenarioBuilder(seed=9).uniform_density(20, density=8.0).build()
    large = ScenarioBuilder(seed=9).uniform_density(80, density=8.0).build()

    def mean_degree(sc):
        degrees = [len(sc.medium.neighbors(h.link_id)) for h in sc.hosts]
        return sum(degrees) / len(degrees)

    def extent(sc):
        xs = [h.position[0] for h in sc.hosts]
        return max(xs) - min(xs)

    assert extent(large) > 1.5 * extent(small)
    # degree concentrates around the requested density (loose bounds;
    # it's a random placement)
    assert 3.0 < mean_degree(small) < 16.0
    assert 3.0 < mean_degree(large) < 16.0


def test_unregistered_router_serializes_by_dotted_path():
    class WeirdRouter(SecureDSRRouter):
        pass

    # a module-level class round-trips via module:Qualname; this local
    # class at least produces a stable name
    name = router_name(PlainDSRRouter)
    assert name == "plain"
    dotted = "repro.routing.secure_dsr:SecureDSRRouter"
    assert router_class(dotted) is SecureDSRRouter
    with pytest.raises(ValueError):
        router_class("no-such-router")


def test_mobility_dns_config_round_trip():
    builder = (
        ScenarioBuilder(seed=3)
        .grid(9)
        .radio(radio_range=220.0, loss_rate=0.1)
        .config(hostile_mode=True, dad_timeout=1.5)
        .router(PlainDSRRouter, node_name="n2")
        .with_dns((100.0, 100.0))
        .random_waypoint(speed=(0.5, 2.0), pause=7.5)
    )
    spec = _assert_round_trip(builder)
    assert spec["config"] == {"hostile_mode": True, "dad_timeout": 1.5}
    assert spec["mobility"] == {"kind": "rwp", "speed": [0.5, 2.0], "pause": 7.5}
    assert spec["dns"] == {"position": [100.0, 100.0]}
    rebuilt = ScenarioBuilder.from_spec(spec).build()
    assert rebuilt.dns_node is not None
    assert rebuilt.hosts[0].config.hostile_mode is True
    assert type(rebuilt.host("n2").router) is PlainDSRRouter


def test_dns_without_position_round_trips():
    spec = _assert_round_trip(ScenarioBuilder(seed=2).chain(3).with_dns())
    assert spec["dns"] == {"position": None}
    assert ScenarioBuilder.from_spec(spec).build().dns_node is not None


def test_from_spec_rejects_typoed_nested_keys():
    # a misspelled campaign axis path must fail loudly, not silently
    # sweep nothing
    with pytest.raises(ValueError, match="radio"):
        ScenarioBuilder.from_spec(
            {"topology": {"kind": "chain", "n": 3}, "radio": {"loss": 0.1}}
        )
    with pytest.raises(ValueError, match="topology"):
        ScenarioBuilder.from_spec(
            {"topology": {"kind": "chain", "n": 3, "spacin": 100.0}}
        )
    with pytest.raises(ValueError, match="dns"):
        ScenarioBuilder.from_spec(
            {"topology": {"kind": "chain", "n": 3}, "dns": {"pos": [0, 0]}}
        )
    with pytest.raises(ValueError, match="mobility"):
        ScenarioBuilder.from_spec(
            {"topology": {"kind": "chain", "n": 3},
             "mobility": {"kind": "rwp", "sped": [1, 2]}}
        )


def test_to_spec_is_detached_from_builder_state():
    builder = ScenarioBuilder(seed=1).positions([(0.0, 0.0), (100.0, 0.0)])
    spec = builder.to_spec()
    spec["topology"]["points"].append([900.0, 0.0])
    assert len(builder.to_spec()["topology"]["points"]) == 2
    assert len(builder.build().hosts) == 2


def test_from_spec_rejects_garbage():
    with pytest.raises(ValueError):
        ScenarioBuilder.from_spec({"topology": {"kind": "chain", "n": 3}, "bogus": 1})
    with pytest.raises(ValueError):
        ScenarioBuilder.from_spec({"seed": 1})  # no topology
    with pytest.raises(ValueError):
        ScenarioBuilder.from_spec({"topology": {"kind": "moebius", "n": 3}})
    with pytest.raises(ValueError):
        ScenarioBuilder.from_spec(
            {"topology": {"kind": "chain", "n": 3}, "mobility": {"kind": "teleport"}}
        )


def test_same_spec_same_seed_builds_identical_scenario():
    spec = {
        "seed": 21,
        "topology": {"kind": "uniform", "n": 8, "area": [700.0, 700.0],
                     "require_connected": True},
        "radio": {"range": 260.0, "loss_rate": 0.0},
        "router": "secure",
        "dns": {"position": None},
    }
    a = ScenarioBuilder.from_spec(spec)
    b = ScenarioBuilder.from_spec(spec)
    assert _positions_of(a) == _positions_of(b)


@pytest.mark.parametrize("kw", [
    {"duration": float("nan")},
    {"duration": -1.0},
    {"until": float("nan")},
])
def test_run_rejects_nan_and_negative_times(kw):
    """These used to return silently without simulating anything."""
    sc = ScenarioBuilder(seed=1).chain(2).build()
    with pytest.raises(ValueError, match="^run (duration|until) must be"):
        sc.run(**kw)
    sc.run(duration=0.0)  # zero is a valid (empty) run
    assert sc.sim.now == 0.0


@pytest.mark.parametrize("hop_limit", [0, -1, 256, 300])
def test_out_of_range_hop_limit_rejected_up_front(hop_limit):
    """Every message carries hop_limit in one byte: 1..255 or bust."""
    from repro.core.config import NodeConfig

    with pytest.raises(ValueError, match="hop_limit"):
        NodeConfig(hop_limit=hop_limit)
    with pytest.raises(ValueError, match="hop_limit"):
        ScenarioBuilder.from_spec(
            {"topology": {"kind": "chain", "n": 3}, "config": {"hop_limit": hop_limit}}
        )


@pytest.mark.parametrize("hop_limit", [1, 255])
def test_hop_limit_bounds_accepted(hop_limit):
    builder = ScenarioBuilder.from_spec(
        {"topology": {"kind": "chain", "n": 2}, "config": {"hop_limit": hop_limit}}
    )
    assert builder.build().hosts[0].config.hop_limit == hop_limit
