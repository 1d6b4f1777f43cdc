"""Regression pins for the medium's delivery contract (PR 8 satellite).

The contract (documented on ``WirelessMedium.broadcast``/``_deliver``):
a receiver gets a frame iff it was attached and enabled **at send time**
(candidacy + loss-draw consumption) AND is still attached and enabled
**at delivery time**.  In particular, disabling or detaching a node
while a batched broadcast is in flight must not deliver to it, and a
node disabled at send time cannot resurrect the copy by re-enabling
before the would-be delivery instant.

Each case runs on the production pipeline (``batched=True``) and on the
scalar-loop oracle (``batched=False``) the equivalence suites compare
it against: an oracle that broke the contract would make those suites
vouch for the wrong behaviour.
"""

import pytest

import phy_oracles
from repro.ipv6.address import IPv6Address
from repro.phy.medium import BROADCAST_LINK, Frame
from repro.sim.kernel import Simulator

SRC_IP = IPv6Address("fec0::aa")


def make_medium(seed=1, batched=True):
    sim = Simulator(seed=seed)
    return sim, phy_oracles.make_medium(
        sim, scalar_broadcast=not batched, radio_range=100.0
    )


def bcast(medium, handle, payload="hi", size=100):
    return medium.broadcast(
        Frame(handle.link_id, BROADCAST_LINK, SRC_IP, payload, size)
    )


@pytest.mark.parametrize("batched", [True, False])
def test_disabled_at_send_is_not_a_candidate_and_draws_no_loss(batched):
    """A radio disabled at send time consumes no phy/loss draw, on both
    loops -- so toggling one bystander never shifts the loss stream
    seen by everyone else."""
    sim, medium = make_medium(batched=batched)
    got = []
    tx = medium.attach((0, 0), lambda f: None)
    medium.attach((50, 0), got.append)
    sleeper = medium.attach((60, 0), lambda f: pytest.fail("asleep at send"))

    medium.set_enabled(sleeper.link_id, False)
    assert bcast(medium, tx) == 1  # only the awake receiver is a candidate
    sim.run()
    assert len(got) == 1
    # exactly one loss draw was consumed (the awake receiver's): the next
    # value from the medium's stream matches a reference stream advanced
    # by exactly one draw (random_batch(1) is stream-identical to one
    # random(), so this holds on both loops)
    ref = Simulator(seed=1).rng("phy/loss")
    ref.random()
    assert medium._rng.random() == ref.random()


@pytest.mark.parametrize("batched", [True, False])
def test_disable_while_in_flight_eats_the_copy(batched):
    """Enabled at send, disabled before the delivery instant: no delivery."""
    sim, medium = make_medium(batched=batched)
    got = []
    tx = medium.attach((0, 0), lambda f: None)
    rx = medium.attach((50, 0), got.append)
    assert bcast(medium, tx) == 1
    # the frame is now a scheduled event; the radio sleeps before it lands
    sim.schedule(0.0, medium.set_enabled, rx.link_id, False)
    sim.run()
    assert got == []


@pytest.mark.parametrize("batched", [True, False])
def test_detach_while_in_flight_eats_the_copy(batched):
    sim, medium = make_medium(batched=batched)
    got = []
    tx = medium.attach((0, 0), lambda f: None)
    rx = medium.attach((50, 0), got.append)
    assert bcast(medium, tx) == 1
    sim.schedule(0.0, medium.detach, rx.link_id)
    sim.run()
    assert got == []


@pytest.mark.parametrize("batched", [True, False])
def test_reenabling_before_delivery_time_cannot_resurrect_the_frame(
    batched,
):
    """Disabled at send time means excluded at send time: re-enabling a
    split second later (still before the would-be delivery) must not
    conjure a copy that was never scheduled."""
    sim, medium = make_medium(batched=batched)
    got = []
    tx = medium.attach((0, 0), lambda f: None)
    rx = medium.attach((50, 0), got.append)
    medium.set_enabled(rx.link_id, False)
    assert bcast(medium, tx) == 0
    sim.schedule(0.0, medium.set_enabled, rx.link_id, True)  # too late
    sim.run(until=1.0)
    assert got == []
    # ... whereas a fresh broadcast after the wake-up does arrive
    assert bcast(medium, tx) == 1
    sim.run()
    assert len(got) == 1


@pytest.mark.parametrize("batched", [True, False])
def test_sleep_then_wake_while_in_flight_still_delivers(batched):
    """Enabled at send AND enabled at delivery is the whole contract:
    a nap strictly between those instants is invisible."""
    sim, medium = make_medium(batched=batched)
    got = []
    tx = medium.attach((0, 0), lambda f: None)
    rx = medium.attach((50, 0), got.append)
    assert bcast(medium, tx) == 1
    sim.schedule(0.0, medium.set_enabled, rx.link_id, False)
    sim.schedule(1e-7, medium.set_enabled, rx.link_id, True)
    sim.run()
    assert len(got) == 1


@pytest.mark.parametrize("batched", [True, False])
def test_receiver_disabling_a_later_receiver_of_the_same_broadcast(
    batched,
):
    """A delivery handler that powers down a *later* receiver of the same
    batched broadcast (e.g. a crash fault firing from a delivery) must
    prevent that later delivery: both copies were scheduled at send
    time, but the second receiver is disabled at its delivery instant."""
    sim, medium = make_medium(batched=batched)
    got_far = []
    tx = medium.attach((0, 0), lambda f: None)

    # near receiver's handler kills the far receiver; distance ordering
    # guarantees near's delivery event fires first
    def near_handler(frame):
        medium.set_enabled(far.link_id, False)

    medium.attach((10, 0), near_handler)
    far = medium.attach((90, 0), got_far.append)
    assert bcast(medium, tx) == 2
    sim.run()
    assert got_far == []
