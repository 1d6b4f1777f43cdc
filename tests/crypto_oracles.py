"""Reference implementations the crypto path is checked against.

The simulator never uses these.  The equivalence suites and
``benchmarks/test_perf_crypto.py`` put them in place and demand runs that
are byte-identical to production.  Each replaces one production piece
with the plain computation it short-cuts:

* :func:`unshared_compute_verify` -- ``Node._compute_verify`` without the
  scenario-wide :class:`~repro.crypto.verify_cache.SharedVerifyCache`:
  every per-node LRU miss is a real backend computation.
* :func:`sequential_verify_batch` -- ``Node.verify_batch`` as a plain
  loop of ``Node.verify`` calls that stops after the first failure, with
  no backend bulk pass.
* :func:`per_entry_srr_check` -- the per-entry ``verify_identity`` loop
  SecureDSR ran over a RREQ's source route before it handed the whole
  SRR to ``verify_identity_batch``.
* :class:`FreshKeypairs` -- stands in for the process-wide keypair pool
  and derives every pair afresh with ``generate_keypair``.

:func:`installed` patches any combination of them in;
``installed(shared_cache=False, batch_verify=False, keypair_pool=False)``
is the all-oracle corner.  Benchmarks import this module by path
(``tests/`` is not a package).
"""

from __future__ import annotations

import contextlib
import itertools
from unittest import mock

import repro.core.node as node_mod
import repro.routing.secure_dsr as secure_dsr_mod
from repro.bootstrap.verifier import verify_identity
from repro.core.node import Node

#: Every ``(shared_cache, batch_verify, keypair_pool)`` corner; ``False``
#: means "that oracle is installed".  The all-True corner is production.
CORNERS = list(itertools.product((False, True), repeat=3))


def unshared_compute_verify(self, public, payload, signature, precomputed=None):
    """``Node._compute_verify`` with no shared cache behind the LRU."""
    if precomputed is not None:
        return precomputed
    return self.backend.verify(public, payload, signature)


def sequential_verify_batch(self, items):
    """``Node.verify_batch`` as one ``verify`` call per item, in order."""
    out = []
    for public, payload, signature in items:
        verdict = self.verify(public, payload, signature)
        out.append(verdict)
        if not verdict:
            break
    return out


def per_entry_srr_check(items, verify_batch_fn):
    """``verify_identity_batch`` as the per-entry ``verify_identity`` loop.

    SecureDSR passes its node's bound ``verify_batch``; the loop checks
    each entry through that node's ``verify`` and stops at the first
    failure, returning the same ``(n_ok, reason)`` pair.
    """
    node = verify_batch_fn.__self__
    for i, (ip, public_key, rn, signature, payload) in enumerate(items):
        check = verify_identity(node.backend, ip, public_key, rn, signature,
                                payload, verify_fn=node.verify)
        if not check:
            return i, check.reason
    return len(items), ""


class FreshKeypairs:
    """A keypair "pool" that never pools: every ``get`` re-derives."""

    def get(self, backend, seed: bytes):
        return backend.generate_keypair(seed)


@contextlib.contextmanager
def installed(shared_cache: bool = True, batch_verify: bool = True,
              keypair_pool: bool = True):
    """Scenarios built and run inside this block use the chosen oracles.

    Each flag names a production piece; ``False`` swaps in its oracle.
    ``batch_verify=False`` replaces both ``Node.verify_batch`` and the
    SRR check, as the sequential path always did both.
    """
    with contextlib.ExitStack() as stack:
        if not shared_cache:
            stack.enter_context(
                mock.patch.object(Node, "_compute_verify", unshared_compute_verify)
            )
        if not batch_verify:
            stack.enter_context(
                mock.patch.object(Node, "verify_batch", sequential_verify_batch)
            )
            stack.enter_context(
                mock.patch.object(secure_dsr_mod, "verify_identity_batch",
                                  per_entry_srr_check)
            )
        if not keypair_pool:
            stack.enter_context(
                mock.patch.object(node_mod, "DEFAULT_KEYPAIR_POOL", FreshKeypairs())
            )
        yield
