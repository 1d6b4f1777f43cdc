"""Unit tests for the spatial-hash grid and the naive-scan oracle.

The contract under test (see ``repro/phy/neighbor_index.py``): an index
returns a *superset* of the enabled radios within ``cell_size`` of the
query position, in strictly ascending link-id order, with exact stored
positions.  The naive oracle (``phy_oracles.NaiveScanIndex``) must obey
it too, since the equivalence suites compare the grid against it.
"""

import math

import pytest

from phy_oracles import NaiveScanIndex
from repro.phy.neighbor_index import SpatialHashGrid
from repro.sim.rng import SimRNG

RANGE = 100.0

#: Index implementations under test: production and its oracle.
INDEX_KINDS = ("grid", "naive")


def make_index(kind: str):
    return SpatialHashGrid(RANGE) if kind == "grid" else NaiveScanIndex()


def near(index, position) -> list[int]:
    """Candidate ids the index serves for ``position``."""
    return list(index.candidates_with_positions(position).ids)


def block_points(block) -> list[tuple[float, float]]:
    return [tuple(p) for p in block.pos_arr.tolist()]


def brute_force(positions: dict, query, radius) -> set:
    return {
        lid
        for lid, pos in positions.items()
        if math.hypot(pos[0] - query[0], pos[1] - query[1]) <= radius
    }


def brute_force_candidates(kind: str, live: dict, query) -> list[int]:
    """What ``kind`` should serve for ``query``, derived from scratch: the
    grid holds the enabled radios of the 3x3 cell block around the
    query's cell; the naive scan holds every enabled radio."""
    if kind == "naive":
        return sorted(live)
    qx, qy = int(query[0] // RANGE), int(query[1] // RANGE)
    return sorted(
        lid for lid, (x, y) in live.items()
        if abs(int(x // RANGE) - qx) <= 1 and abs(int(y // RANGE) - qy) <= 1
    )


def test_grid_rejects_bad_cell_size():
    with pytest.raises(ValueError):
        SpatialHashGrid(0.0)


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_candidates_are_sorted_and_cover_in_range(kind):
    index = make_index(kind)
    rng = SimRNG(17, "test/index")
    positions = {}
    for lid in range(60):
        pos = (rng.uniform(-300, 300), rng.uniform(-300, 300))
        positions[lid] = pos
        index.insert(lid, pos)
    for lid, pos in positions.items():
        cands = near(index, pos)
        assert cands == sorted(cands)
        assert brute_force(positions, pos, RANGE) <= set(cands)


def test_grid_query_is_local():
    """The 3x3 block never drags in radios more than 2 cells away."""
    grid = SpatialHashGrid(RANGE)
    grid.insert(0, (0.0, 0.0))
    grid.insert(1, (250.0, 0.0))  # 2 cells away: must not be a candidate
    grid.insert(2, (150.0, 0.0))  # adjacent cell: allowed false positive
    cands = near(grid, (0.0, 0.0))
    assert 0 in cands and 1 not in cands and 2 in cands


def test_grid_tracks_moves_incrementally():
    grid = SpatialHashGrid(RANGE)
    grid.insert(0, (0.0, 0.0))
    grid.insert(1, (500.0, 500.0))
    assert 1 not in near(grid, (0.0, 0.0))
    grid.move(1, (50.0, 50.0))
    assert 1 in near(grid, (0.0, 0.0))
    assert 1 not in near(grid, (500.0, 500.0))
    # moving within the same cell keeps membership intact
    grid.move(1, (60.0, 40.0))
    assert 1 in near(grid, (0.0, 0.0))


def test_grid_disabled_radios_leave_their_cell():
    grid = SpatialHashGrid(RANGE)
    grid.insert(0, (10.0, 10.0))
    grid.insert(1, (20.0, 20.0))
    grid.set_enabled(1, False)
    assert near(grid, (0.0, 0.0)) == [0]
    # position updates while disabled are remembered...
    grid.move(1, (400.0, 400.0))
    grid.set_enabled(1, True)
    # ...and re-enable places the radio at its *current* position
    assert 1 not in near(grid, (0.0, 0.0))
    assert 1 in near(grid, (400.0, 400.0))


def test_grid_remove_and_unknown_ids_are_graceful():
    grid = SpatialHashGrid(RANGE)
    grid.insert(3, (0.0, 0.0))
    grid.remove(3)
    assert near(grid, (0.0, 0.0)) == []
    assert len(grid) == 0
    # unknown ids: all maintenance ops are no-ops
    grid.remove(99)
    grid.move(99, (1.0, 1.0))
    grid.set_enabled(99, False)
    assert 99 not in grid


def test_grid_negative_coordinates():
    grid = SpatialHashGrid(RANGE)
    grid.insert(0, (-10.0, -10.0))
    grid.insert(1, (-90.0, -40.0))
    assert near(grid, (-10.0, -10.0)) == [0, 1]


def test_grid_empty_cells_are_reclaimed():
    grid = SpatialHashGrid(RANGE)
    for lid in range(10):
        grid.insert(lid, (lid * 1000.0, 0.0))
    assert grid.occupied_cells == 10
    for lid in range(10):
        grid.move(lid, (0.0, 0.0))
    assert grid.occupied_cells == 1


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_randomized_churn_matches_brute_force(kind):
    """Superset + ordering hold through interleaved insert/move/remove/toggle."""
    index = make_index(kind)
    rng = SimRNG(99, "test/index-churn")
    positions: dict[int, tuple[float, float]] = {}
    enabled: dict[int, bool] = {}
    next_id = 0
    for _ in range(400):
        op = rng.random()
        if op < 0.4 or not positions:
            pos = (rng.uniform(0, 600), rng.uniform(0, 600))
            positions[next_id] = pos
            enabled[next_id] = True
            index.insert(next_id, pos)
            next_id += 1
        elif op < 0.6:
            lid = rng.choice(sorted(positions))
            pos = (rng.uniform(0, 600), rng.uniform(0, 600))
            positions[lid] = pos
            index.move(lid, pos)
        elif op < 0.8:
            lid = rng.choice(sorted(positions))
            enabled[lid] = not enabled[lid]
            index.set_enabled(lid, enabled[lid])
        else:
            lid = rng.choice(sorted(positions))
            del positions[lid], enabled[lid]
            index.remove(lid)
        query = (rng.uniform(0, 600), rng.uniform(0, 600))
        cands = near(index, query)
        assert cands == sorted(cands)
        live = {lid: p for lid, p in positions.items() if enabled[lid]}
        assert brute_force(live, query, RANGE) <= set(cands)


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_candidates_with_positions_matches_candidates_near(kind):
    """The block holds exactly the enabled radios near the query (the
    brute-force candidate set), ascending, at their stored positions."""
    index = make_index(kind)
    rng = SimRNG(21, "test/blocks")
    positions = {}
    for lid in range(40):
        pos = (rng.uniform(-300, 300), rng.uniform(-300, 300))
        positions[lid] = pos
        index.insert(lid, pos)
    index.set_enabled(7, False)
    index.set_enabled(13, False)
    live = {lid: p for lid, p in positions.items() if lid not in (7, 13)}
    for lid, pos in positions.items():
        block = index.candidates_with_positions(pos)
        assert list(block.ids) == brute_force_candidates(kind, live, pos)
        assert 7 not in block.ids and 13 not in block.ids
        assert block_points(block) == [positions[c] for c in block.ids]
        # the numpy id view agrees with the python view
        assert block.id_arr.tolist() == list(block.ids)


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_candidate_blocks_are_cached_until_invalidated(kind):
    """Repeat queries return the *same* immutable block object (that is
    the whole point of the cache); any mutation near it rebuilds."""
    index = make_index(kind)
    index.insert(0, (10.0, 10.0))
    index.insert(1, (50.0, 50.0))
    q = (10.0, 10.0)
    block = index.candidates_with_positions(q)
    assert index.candidates_with_positions(q) is block  # cache hit
    # every mutation kind invalidates: insert, move, set_enabled, remove
    index.insert(2, (20.0, 20.0))
    b2 = index.candidates_with_positions(q)
    assert b2 is not block and 2 in b2.ids
    index.move(2, (25.0, 25.0))  # same cell, new coordinates
    b3 = index.candidates_with_positions(q)
    assert b3 is not b2
    assert block_points(b3)[list(b3.ids).index(2)] == (25.0, 25.0)
    index.set_enabled(1, False)
    b4 = index.candidates_with_positions(q)
    assert b4 is not b3 and 1 not in b4.ids
    index.remove(2)
    b5 = index.candidates_with_positions(q)
    assert b5 is not b4 and 2 not in b5.ids


def test_grid_mutation_far_away_keeps_cached_block():
    """Precise invalidation: a change many cells away must not evict an
    unrelated cached block (that is what makes the cache worth having)."""
    grid = SpatialHashGrid(RANGE)
    grid.insert(0, (10.0, 10.0))
    grid.insert(1, (2000.0, 2000.0))
    near = grid.candidates_with_positions((10.0, 10.0))
    # mutations in a far-away block footprint: cached block survives
    grid.insert(2, (2050.0, 2050.0))
    grid.move(1, (2100.0, 2100.0))
    grid.set_enabled(2, False)
    grid.remove(1)
    assert grid.candidates_with_positions((10.0, 10.0)) is near
    # a mutation adjacent to the near block evicts it
    grid.insert(3, (110.0, 10.0))
    fresh = grid.candidates_with_positions((10.0, 10.0))
    assert fresh is not near and 3 in fresh.ids


@pytest.mark.parametrize("kind", INDEX_KINDS)
def test_randomized_churn_blocks_match_brute_force(kind):
    """The cached-block view obeys the same superset/ordering/position
    contract through interleaved insert/move/remove/toggle."""
    index = make_index(kind)
    rng = SimRNG(123, "test/block-churn")
    positions: dict[int, tuple[float, float]] = {}
    enabled: dict[int, bool] = {}
    next_id = 0
    for _ in range(300):
        op = rng.random()
        if op < 0.4 or not positions:
            pos = (rng.uniform(0, 600), rng.uniform(0, 600))
            positions[next_id] = pos
            enabled[next_id] = True
            index.insert(next_id, pos)
            next_id += 1
        elif op < 0.6:
            lid = rng.choice(sorted(positions))
            pos = (rng.uniform(0, 600), rng.uniform(0, 600))
            positions[lid] = pos
            index.move(lid, pos)
        elif op < 0.8:
            lid = rng.choice(sorted(positions))
            enabled[lid] = not enabled[lid]
            index.set_enabled(lid, enabled[lid])
        else:
            lid = rng.choice(sorted(positions))
            del positions[lid], enabled[lid]
            index.remove(lid)
        query = (rng.uniform(0, 600), rng.uniform(0, 600))
        block = index.candidates_with_positions(query)
        assert list(block.ids) == sorted(block.ids)
        live = {lid: p for lid, p in positions.items() if enabled[lid]}
        assert brute_force(live, query, RANGE) <= set(block.ids)
        for cand, pt in zip(block.ids, block_points(block)):
            assert enabled[cand] and pt == positions[cand]
