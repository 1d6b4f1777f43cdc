"""The :class:`CryptoBackend` interface and backend registry.

The protocol layer is backend-agnostic: it calls ``sign``/``verify`` and
``encode_public_key`` and never looks inside key material.  Experiments
pick the backend per scenario -- real RSA for security-focused runs,
simulated signatures for thousand-node sweeps -- without touching
protocol code (``NodeConfig.crypto_backend``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.crypto.keys import KeyPair, PrivateKey, PublicKey


class SignatureInvalid(Exception):
    """Raised by :meth:`CryptoBackend.verify_strict` on a bad signature."""


class CryptoBackend(ABC):
    """Abstract signature backend.

    Implementations must be deterministic given their seed material so
    that simulation runs reproduce exactly.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    # -- key management -------------------------------------------------
    @abstractmethod
    def generate_keypair(self, seed: bytes) -> KeyPair:
        """Deterministically derive a key pair from ``seed``.

        Determinism matters: node k in a seeded simulation always gets
        the same keys, making failures reproducible.
        """

    @abstractmethod
    def encode_public_key(self, key: PublicKey) -> bytes:
        """Canonical byte encoding of a public key (feeds CGA hash + codec)."""

    @abstractmethod
    def decode_public_key(self, data: bytes) -> PublicKey:
        """Inverse of :meth:`encode_public_key`."""

    # -- signatures ------------------------------------------------------
    @abstractmethod
    def sign(self, private: PrivateKey, message: bytes) -> bytes:
        """Produce ``[message]_SK`` -- the paper's private-key encryption."""

    @abstractmethod
    def verify(self, public: PublicKey, message: bytes, signature: bytes) -> bool:
        """Check a signature; returns True/False, never raises."""

    def verify_batch(
        self, items: list[tuple[PublicKey, bytes, bytes]]
    ) -> list[bool]:
        """Verify ``(public, message, signature)`` triples in one pass.

        Verdicts are element-wise identical to calling :meth:`verify` on
        each triple; :meth:`repro.core.node.Node.verify_batch` sends every
        cache-missed SRR signature through here.  Backends may amortise
        per-call overhead (simsig hoists the tag recomputation into one
        bulk loop); the default, which RSA uses, calls :meth:`verify` one
        by one.
        """
        return [self.verify(public, message, signature) for public, message, signature in items]

    # -- lifecycle --------------------------------------------------------
    def adopt_keypair(self, keypair: KeyPair) -> None:
        """Install a key pair generated by *another* instance of this backend.

        Per-scenario backend instances (see
        :meth:`repro.core.context.NetContext.crypto_backend`) and the
        process-wide :class:`~repro.crypto.keys.KeypairPool` hand finished
        pairs to fresh backends; stateful backends must register whatever
        per-key state :meth:`generate_keypair` would have created (simsig's
        public->secret oracle entry).  Stateless backends inherit this no-op.
        """
        if keypair.backend != self.name:
            raise ValueError(
                f"keypair backend {keypair.backend!r} != {self.name!r}"
            )

    def reset(self) -> None:
        """Clear accumulated per-run state (counters, key oracles).

        Scenario isolation normally comes from fresh per-scenario
        instances instead; this remains for callers holding a registry
        singleton (:func:`get_backend`) across in-process runs.
        """

    # -- bookkeeping -----------------------------------------------------
    @abstractmethod
    def signature_size(self) -> int:
        """Size in bytes of an encoded signature (for overhead accounting)."""

    @abstractmethod
    def public_key_size(self) -> int:
        """Size in bytes of an encoded public key."""

    def op_cost(self, op: str) -> float:
        """Simulated-time cost of a crypto op ('sign' / 'verify').

        Zero by default: backends whose real CPU cost is paid in host
        time (RSA) do not additionally charge simulated time unless a
        scenario overrides this.  :class:`~repro.crypto.simsig.SimSigBackend`
        overrides it to model the asymmetric-crypto delay it avoids paying.
        """
        if op not in ("sign", "verify"):
            raise ValueError(f"unknown crypto op {op!r}")
        return 0.0

    # -- conveniences ------------------------------------------------------
    def verify_strict(self, public: PublicKey, message: bytes, signature: bytes) -> None:
        """Like :meth:`verify` but raises :class:`SignatureInvalid` on failure."""
        if not self.verify(public, message, signature):
            raise SignatureInvalid(
                f"signature check failed under backend {self.name!r}"
            )


_REGISTRY: dict[str, CryptoBackend] = {}


def register_backend(backend: CryptoBackend) -> None:
    """Register (or replace) a backend instance under ``backend.name``."""
    _REGISTRY[backend.name] = backend


def get_backend(name: str) -> CryptoBackend:
    """Look up a registered backend; lazily creates the built-in ones."""
    if name not in _REGISTRY:
        # Lazy import avoids a circular dependency at package import time.
        if name == "rsa":
            from repro.crypto.rsa import RSABackend

            register_backend(RSABackend())
        elif name == "simsig":
            from repro.crypto.simsig import SimSigBackend

            register_backend(SimSigBackend())
        else:
            raise KeyError(f"unknown crypto backend {name!r}")
    return _REGISTRY[name]


def create_backend(name: str) -> CryptoBackend:
    """A **fresh** instance of a built-in backend.

    :func:`get_backend` returns process-wide singletons, which is fine
    for stateless uses (``PublicKey.encode``) but leaks state across
    in-process runs for stateful backends: a reused campaign worker kept
    growing the simsig singleton's ``_oracle`` and sign/verify counters
    run after run.  Scenario construction goes through this factory (via
    ``NetContext.crypto_backend``) so each scenario owns its backend
    state.  Custom backends installed with :func:`register_backend` have
    no known constructor, so they fall back to the registry instance and
    manage their own state.
    """
    if name == "rsa":
        from repro.crypto.rsa import RSABackend

        return RSABackend()
    if name == "simsig":
        from repro.crypto.simsig import SimSigBackend

        return SimSigBackend()
    if name in _REGISTRY:
        return _REGISTRY[name]
    raise KeyError(f"unknown crypto backend {name!r}")


def available_backends() -> list[str]:
    """Names of the built-in backends (registered or not)."""
    return sorted(set(_REGISTRY) | {"rsa", "simsig"})
