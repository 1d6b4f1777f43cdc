"""Unit tests for the crypto path.

Piece by piece: the scenario-wide :class:`SharedVerifyCache`, the
process-wide :class:`KeypairPool`, backend ``verify_batch`` /
``adopt_keypair`` / ``reset``, :meth:`Node.verify_batch` against the
sequential oracle in ``tests/crypto_oracles.py``,
:func:`verify_identity_batch` first-failure semantics, the retired
crypto switches, and the backend-isolation regression: per-scenario
backend instances keep a reused worker's state bounded and isolated (the
:func:`get_backend` registry singleton used to accumulate simsig oracle
entries and counters across every run in a process).
"""

import dataclasses

import pytest

from crypto_oracles import installed

from repro.core.config import NodeConfig
from repro.crypto.backend import create_backend, get_backend
from repro.crypto.keys import DEFAULT_KEYPAIR_POOL, KeypairPool
from repro.crypto.simsig import SimSigBackend
from repro.crypto.verify_cache import SharedVerifyCache
from repro.bootstrap.verifier import verify_identity, verify_identity_batch
from repro.ipv6.cga import generate_cga
from repro.scenarios import ScenarioBuilder
from repro.sim.rng import SimRNG


def two_node_scenario(seed=3, **config):
    return (
        ScenarioBuilder(seed=seed)
        .positions([(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)])
        .radio(250.0)
        .config(**config)
        .build()
    )


# -- SharedVerifyCache ----------------------------------------------------

def test_shared_cache_lookup_store_peek_and_counters():
    cache = SharedVerifyCache(capacity=2)
    key = ("simsig", "pk", b"msg", b"sig")
    assert cache.lookup(key, "n0") is None
    assert cache.misses == 1
    cache.store(key, True)
    assert cache.peek(key) is True  # peek never counts
    assert cache.hits == 0
    assert cache.lookup(key, "n1") is True
    assert cache.hits == 1 and cache.hits_by_node == {"n1": 1}
    # negative verdicts are cached too (same-triple determinism)
    bad = ("simsig", "pk", b"msg", b"forged")
    cache.store(bad, False)
    assert cache.lookup(bad) is False
    assert len(cache) == 2


def test_shared_cache_bounded_lru_eviction():
    cache = SharedVerifyCache(capacity=2)
    cache.store(("b", 1), True)
    cache.store(("b", 2), True)
    cache.lookup(("b", 1))  # refresh 1 -> 2 is now LRU
    cache.store(("b", 3), True)
    assert cache.evictions == 1
    assert cache.peek(("b", 2)) is None
    assert cache.peek(("b", 1)) is True
    stats = cache.stats()
    assert stats["size"] == 2 and stats["capacity"] == 2
    with pytest.raises(ValueError):
        SharedVerifyCache(capacity=0)


# -- KeypairPool ----------------------------------------------------------

def test_keypair_pool_returns_exactly_the_derived_pair():
    pool = KeypairPool(capacity=4)
    backend = SimSigBackend()
    pair = pool.get(backend, b"seed-a")
    assert pool.misses == 1
    assert pair == backend.generate_keypair(b"seed-a")
    assert pool.get(backend, b"seed-a") is pair
    assert pool.hits == 1


def test_keypair_pool_hit_adopts_into_fresh_backend():
    pool = KeypairPool()
    first = SimSigBackend()
    pair = pool.get(first, b"seed-x")
    sig = first.sign(pair.private, b"hello")
    # A brand-new backend instance has no oracle entry for this key until
    # the pool hit adopts the pair into it.
    second = SimSigBackend()
    assert second.verify(pair.public, b"hello", sig) is False
    assert pool.get(second, b"seed-x") is pair
    assert second.verify(pair.public, b"hello", sig) is True


def test_keypair_pool_bounded_lru():
    pool = KeypairPool(capacity=2)
    backend = SimSigBackend()
    pool.get(backend, b"1")
    pool.get(backend, b"2")
    pool.get(backend, b"1")  # refresh
    pool.get(backend, b"3")  # evicts "2"
    assert pool.evictions == 1
    assert len(pool) == 2
    pool.get(backend, b"2")
    assert pool.misses == 4  # "2" had to be re-derived


# -- backend lifecycle ----------------------------------------------------

def test_create_backend_returns_fresh_instances():
    a, b = create_backend("simsig"), create_backend("simsig")
    assert a is not b
    a.generate_keypair(b"s")
    assert len(a._oracle) == 1 and len(b._oracle) == 0
    assert a is not get_backend("simsig")
    with pytest.raises(KeyError):
        create_backend("nope")


def test_adopt_keypair_rejects_wrong_backend():
    pair = create_backend("simsig").generate_keypair(b"s")
    with pytest.raises(ValueError):
        create_backend("rsa").adopt_keypair(pair)


def test_backend_reset_clears_state():
    sim = SimSigBackend()
    pair = sim.generate_keypair(b"s")
    sim.verify(pair.public, b"m", sim.sign(pair.private, b"m"))
    sim.reset()
    assert sim.signs == 0 and sim.verifies == 0 and not sim._oracle
    rsa = create_backend("rsa")
    rsa.signs = 3
    rsa.reset()
    assert rsa.signs == 0 and rsa.verifies == 0


def test_simsig_verify_batch_matches_per_item_verify():
    backend = SimSigBackend()
    kp1 = backend.generate_keypair(b"one")
    kp2 = backend.generate_keypair(b"two")
    foreign = SimSigBackend().generate_keypair(b"elsewhere")
    items = [
        (kp1.public, b"m1", backend.sign(kp1.private, b"m1")),      # valid
        (kp2.public, b"m2", backend.sign(kp1.private, b"m2")),      # wrong key
        (kp1.public, b"m3", b"short"),                              # bad length
        (foreign.public, b"m4", b"x" * 16),                         # unknown oracle key
        (kp2.public, b"m5", backend.sign(kp2.private, b"m5")),      # valid
    ]
    expected = [backend.verify(*item) for item in items]
    before = backend.verifies
    assert backend.verify_batch(items) == expected == [True, False, False, False, True]
    assert backend.verifies == before + len(items)


# -- Node.verify through the shared cache ---------------------------------

def test_shared_hit_replays_observables_and_skips_backend():
    sc = two_node_scenario()
    a, b = sc.hosts[0], sc.hosts[1]
    payload = b"the payload"
    sig = a.sign(payload)
    backend = a.backend
    assert backend is b.backend  # one scenario instance per backend name

    computed_before = backend.verifies
    assert a.verify(a.public_key, payload, sig) is True
    assert backend.verifies == computed_before + 1
    debt_before = b._crypto_debt
    verify_ops_before = sc.metrics.crypto_ops["simsig.verify"]
    # b never saw this triple: its LRU misses, but the shared cache hits
    # -- same metric op and same debt as a real verify, no backend call.
    assert b.verify(a.public_key, payload, sig) is True
    assert backend.verifies == computed_before + 1
    assert sc.metrics.crypto_ops["simsig.verify"] == verify_ops_before + 1
    assert b._crypto_debt == debt_before + backend.op_cost("verify")
    assert sc.ctx.verify_cache.hits_by_node == {b.name: 1}
    # b's own LRU now holds it: the next check is a plain cached hit.
    cached_before = sc.metrics.crypto_ops["simsig.verify_cached"]
    assert b.verify(a.public_key, payload, sig) is True
    assert sc.metrics.crypto_ops["simsig.verify_cached"] == cached_before + 1


#: NodeConfig fields retired when the crypto path became the only path.
RETIRED_CRYPTO_KEYS = ("crypto_shared_cache", "shared_verify_cache_size",
                       "crypto_batch_verify", "crypto_keypair_pool")


def test_shared_cache_disabled_by_flag_and_by_zero_size():
    """The shared cache has no off switch any more: no flag, no size
    knob, and every scenario owns one.  Only the oracle bypasses it."""
    names = {f.name for f in dataclasses.fields(NodeConfig)}
    assert not names & set(RETIRED_CRYPTO_KEYS)
    for key in ("crypto_shared_cache", "shared_verify_cache_size"):
        with pytest.raises(TypeError):
            NodeConfig().with_overrides(**{key: 0})
    sc = two_node_scenario()
    assert isinstance(sc.ctx.verify_cache, SharedVerifyCache)
    with installed(shared_cache=False):
        a, b = sc.hosts[0], sc.hosts[1]
        sig = a.sign(b"p")
        assert a.verify(a.public_key, b"p", sig) is True
        before = a.backend.verifies
        assert b.verify(a.public_key, b"p", sig) is True
        assert a.backend.verifies == before + 1  # really recomputed
    assert len(sc.ctx.verify_cache) == 0


def test_cached_negative_verdict_cannot_mask_a_different_signature():
    """A forged triple caches False; the *valid* triple is a different
    key entirely and must still verify True."""
    sc = two_node_scenario()
    a, b = sc.hosts[0], sc.hosts[1]
    payload = b"claim"
    good = a.sign(payload)
    forged = bytes(16)
    assert a.verify(a.public_key, payload, forged) is False
    assert b.verify(a.public_key, payload, forged) is False  # shared hit
    assert b.verify(a.public_key, payload, good) is True
    assert a.verify(a.public_key, payload, good) is True


# -- Node.verify_batch ----------------------------------------------------

def _metrics_state(sc, node):
    return (
        dict(sc.metrics.crypto_ops),
        node._crypto_debt,
        list(node._verify_cache.items()),
    )


@pytest.mark.parametrize("flags", [
    {},
    {"shared_cache": False},
    {"verify_cache_size": 0},
    {"verify_cache_size": 0, "shared_cache": False},
])
def test_node_verify_batch_equals_sequential_replay(flags):
    """Production batch path vs the sequential oracle on twin scenarios:
    identical verdicts, metric ops, crypto debt, and LRU contents --
    including the stop-at-first-failure truncation and duplicate items.
    ``shared_cache=False`` runs both sides on the unshared oracle."""
    config = dict(flags)
    shared = config.pop("shared_cache", True)

    def build_items(sc):
        a, b, c = sc.hosts
        items = [
            (a.public_key, b"m1", a.sign(b"m1")),
            (b.public_key, b"m2", b.sign(b"m2")),
            (a.public_key, b"m1", a.sign(b"m1")),          # duplicate
            (c.public_key, b"bad", a.sign(b"bad")),        # fails here
            (c.public_key, b"never", c.sign(b"never")),    # unreachable
        ]
        return sc.hosts[2], items

    with installed(shared_cache=shared, batch_verify=False):
        sc_seq = two_node_scenario(**config)
        verifier_seq, items_seq = build_items(sc_seq)
        out_seq = verifier_seq.verify_batch(items_seq)
    with installed(shared_cache=shared):
        sc_bat = two_node_scenario(**config)
        verifier_bat, items_bat = build_items(sc_bat)
        out_bat = verifier_bat.verify_batch(items_bat)
    assert out_seq == out_bat == [True, True, True, False]
    assert _metrics_state(sc_seq, verifier_seq) == _metrics_state(sc_bat, verifier_bat)


def test_node_verify_batch_uses_one_backend_bulk_call():
    sc = two_node_scenario()
    a, b, c = sc.hosts
    items = [
        (a.public_key, b"m1", a.sign(b"m1")),
        (b.public_key, b"m2", b.sign(b"m2")),
    ]
    calls = []
    original = c.backend.verify_batch

    def spy(batch):
        calls.append(list(batch))
        return original(batch)

    c.backend.verify_batch = spy
    c.backend.verify = None  # any per-item backend call would explode
    assert c.verify_batch(items) == [True, True]
    assert len(calls) == 1 and len(calls[0]) == 2
    # second presentation: everything answered from caches, no bulk call
    assert c.verify_batch(items) == [True, True]
    assert len(calls) == 1


# -- verify_identity_batch ------------------------------------------------

def _identity_items(sc, nodes, seq=9):
    from repro.messages import signing

    items = []
    for node in nodes:
        ip, params = generate_cga(node.public_key, node.rng("test-cga"))
        payload = signing.srr_entry_payload(ip, seq)
        items.append((ip, node.public_key, params.rn, node.sign(payload), payload))
    return items


def test_verify_identity_batch_all_ok_and_failure_positions():
    sc = two_node_scenario()
    verifier = sc.hosts[0]
    items = _identity_items(sc, sc.hosts)
    assert verify_identity_batch(items, verifier.verify_batch) == (3, "")

    # bad signature at index 1: one leading pass, signature reason
    broken = list(items)
    ip, pk, rn, _sig, payload = broken[1]
    broken[1] = (ip, pk, rn, bytes(16), payload)
    assert verify_identity_batch(broken, verifier.verify_batch) == (1, "bad_signature")

    # bad CGA at index 1: rn mismatch fails the address binding
    bad_cga = list(items)
    ip, pk, rn, sig, payload = bad_cga[1]
    bad_cga[1] = (ip, pk, (rn + 1) % (1 << 64), sig, payload)
    assert verify_identity_batch(bad_cga, verifier.verify_batch) == (1, "bad_cga")

    # a signature failure BEFORE a CGA failure wins (sequential order)
    both = list(bad_cga)
    ip, pk, rn, _sig, payload = both[0]
    both[0] = (ip, pk, rn, bytes(16), payload)
    assert verify_identity_batch(both, verifier.verify_batch) == (0, "bad_signature")


def test_verify_identity_batch_matches_sequential_verify_identity():
    sc = two_node_scenario()
    verifier = sc.hosts[0]
    items = _identity_items(sc, sc.hosts, seq=17)
    ip, pk, rn, _sig, payload = items[2]
    items[2] = (ip, pk, rn, bytes(16), payload)

    n_ok = 0
    reason = ""
    for ip, pk, rn, sig, payload in items:
        check = verify_identity(verifier.backend, ip, pk, rn, sig, payload,
                                verify_fn=verifier.verify)
        if not check:
            reason = check.reason
            break
        n_ok += 1
    # fresh twin so caches warmed above don't change the comparison
    sc2 = two_node_scenario()
    verifier2 = sc2.hosts[0]
    items2 = _identity_items(sc2, sc2.hosts, seq=17)
    ip, pk, rn, _sig, payload = items2[2]
    items2[2] = (ip, pk, rn, bytes(16), payload)
    assert verify_identity_batch(items2, verifier2.verify_batch) == (n_ok, reason)


# -- satellite 1: reused-worker state isolation ---------------------------

def run_small_scenario(seed):
    sc = (
        ScenarioBuilder(seed=seed)
        .chain(3, spacing=200.0)
        .with_dns((200.0, 60.0))
        .build()
    )
    sc.bootstrap_all(stagger=0.1)
    # route discovery generates signed RREQ/RREP traffic
    sc.send_data(sc.hosts[0], sc.hosts[-1].ip, b"ping")
    sc.run(duration=30.0)
    return sc


def test_backend_state_isolated_across_in_process_runs():
    registry = get_backend("simsig")
    registry_oracle_before = dict(registry._oracle)
    registry_counts_before = (registry.signs, registry.verifies)

    first = run_small_scenario(seed=21)
    second = run_small_scenario(seed=22)
    b1, b2 = first.hosts[0].backend, second.hosts[0].backend
    assert b1 is not b2
    # oracle bounded by THIS scenario's population (3 hosts + dns), not
    # by everything the process ever ran
    assert len(b1._oracle) == 4
    assert len(b2._oracle) == 4
    # counters are per scenario: running the second scenario left the
    # first backend's tallies untouched
    signs_after_own_run = b1.signs
    assert signs_after_own_run > 0
    assert b2.signs > 0
    assert b1.signs == signs_after_own_run
    # and the registry singleton never participated at all
    assert dict(registry._oracle) == registry_oracle_before
    assert (registry.signs, registry.verifies) == registry_counts_before


def test_keypair_pool_spans_in_process_runs():
    DEFAULT_KEYPAIR_POOL.clear()
    first = run_small_scenario(seed=33)
    assert DEFAULT_KEYPAIR_POOL.hits == 0
    misses = DEFAULT_KEYPAIR_POOL.misses
    second = run_small_scenario(seed=33)
    # same seed -> every node keypair re-served from the pool
    assert DEFAULT_KEYPAIR_POOL.misses == misses
    assert DEFAULT_KEYPAIR_POOL.hits == misses
    for n1, n2 in zip(first.all_nodes, second.all_nodes):
        assert n1.keypair is n2.keypair
        assert n1.ip == n2.ip
    # the fresh-keygen oracle: pairs are equal in value but re-derived
    with installed(keypair_pool=False):
        sc = (
            ScenarioBuilder(seed=33)
            .chain(3, spacing=200.0)
            .with_dns((200.0, 60.0))
            .build()
        )
    assert DEFAULT_KEYPAIR_POOL.hits == misses  # the pool was bypassed
    assert sc.hosts[0].keypair is not second.hosts[0].keypair
    assert sc.hosts[0].keypair == second.hosts[0].keypair


# -- builder / observability plumbing -------------------------------------

def test_builder_crypto_knob_composes_and_round_trips():
    """The crypto knob is retired: no builder method, nothing in the
    default spec, and a spec carrying any retired key fails up front
    with a one-line error naming it."""
    assert not hasattr(ScenarioBuilder, "crypto")
    spec = ScenarioBuilder(seed=1).chain(3).to_spec()
    assert "config" not in spec or not set(spec["config"]) & set(RETIRED_CRYPTO_KEYS)
    assert ScenarioBuilder.from_spec(spec).to_spec() == spec
    for key in RETIRED_CRYPTO_KEYS + ("hop_limt",):  # retired or mistyped
        bad = dict(spec, config={"verify_cache_size": 64, key: False})
        with pytest.raises(ValueError, match=key) as excinfo:
            ScenarioBuilder.from_spec(bad)
        assert "\n" not in str(excinfo.value)


def test_crypto_stats_block_is_opt_in():
    sc = two_node_scenario()
    sc.hosts[0].sign(b"x")
    assert "crypto_stats" not in sc.metrics.summary()
    sc.enable_crypto_stats()
    stats = sc.metrics.summary()["crypto_stats"]
    assert stats["backends"]["simsig"]["signs"] >= 1
    assert stats["shared_verify_cache"]["capacity"] == 4096
    assert set(stats["keypair_pool"]) == {
        "size", "capacity", "hits", "misses", "evictions"
    }


def test_explicit_keypair_is_adopted_into_scenario_backend():
    from repro.core.node import Node

    donor = SimSigBackend()
    pair = donor.generate_keypair(b"external")
    sc = two_node_scenario()
    node = Node(sc.ctx, "guest", (50.0, 50.0), config=NodeConfig(), keypair=pair)
    sig = node.sign(b"msg")
    assert sc.hosts[0].verify(pair.public, b"msg", sig) is True
