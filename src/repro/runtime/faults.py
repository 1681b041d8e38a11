"""Declarative fault injection: the §IV-C threat model as middleware.

"Any messages can be arbitrarily delayed, replayed at a later time,
tampered with during transit, or sent to the wrong destination."  Each
of those attacks is one :class:`~repro.runtime.middleware.DeliveryMiddleware`
here — chaos tests and the adversary package *declare* faults and
install them on the network's delivery pipeline instead of wrapping
simulator internals.

All four draw from a caller-supplied RNG; sharing one seeded RNG across
several fault middlewares reproduces an exact interleaved attack
schedule (this is how :class:`~repro.adversary.PathAttacker` preserves
its historical behavior).  Each middleware counts its hits on an
injectable counter so attack volume is observable through the metrics
plane.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from repro.encoding import decode, encode
from repro.routing.pdu import Pdu
from repro.runtime.metrics import Counter
from repro.runtime.middleware import DROP, DeliveryMiddleware

__all__ = ["DropFaults", "TamperFaults", "ReplayFaults", "DelayFaults"]


class _Fault(DeliveryMiddleware):
    """Shared plumbing: rate gate, match predicate, hit counter."""

    __slots__ = ("network", "rate", "rng", "match", "counter")

    counter_name = "faults.hits"

    def __init__(
        self,
        network,
        *,
        rate: float = 0.0,
        rng: random.Random | None = None,
        seed: int = 1337,
        match: Callable[[Any], bool] | None = None,
        counter: Counter | None = None,
    ):
        self.network = network
        self.rate = rate
        self.rng = rng if rng is not None else random.Random(seed)
        self.match = match
        self.counter = counter if counter is not None else Counter(
            self.counter_name
        )

    def _hit(self, message: Any) -> bool:
        """Whether this fault fires for *message* (draws the RNG only
        when the rate is armed and the message matches)."""
        if not self.rate:
            return False
        if not isinstance(message, Pdu):
            return False
        if self.match is not None and not self.match(message):
            return False
        return self.rng.random() < self.rate

    @property
    def count(self) -> int:
        """How many messages this fault has hit."""
        return self.counter.value

    def install(self) -> "_Fault":
        """Append this fault to the network's delivery pipeline."""
        self.network.delivery.use(self)
        return self

    def uninstall(self) -> None:
        """Remove this fault from the delivery pipeline."""
        self.network.delivery.remove(self)

    def arm(self, rate: float) -> None:
        """Open a fault window: start firing at *rate*.

        Installed-but-disarmed faults draw nothing from the RNG, so a
        schedule of arm/disarm windows perturbs the random stream only
        while a window is open — which keeps seeded episodes replayable
        when the windows move (see :mod:`repro.simtest`).
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        self.rate = rate

    def disarm(self) -> None:
        """Close the fault window (the middleware stays installed)."""
        self.rate = 0.0

    def __repr__(self) -> str:
        return f"{type(self).__name__}(rate={self.rate})"


class DropFaults(_Fault):
    """Black-hole a fraction of matching PDUs (§II: "effectively
    creating a black-hole")."""

    __slots__ = ()
    counter_name = "faults.dropped"

    def on_deliver(self, link, sender, receiver, message, size):
        if self._hit(message):
            self.counter.inc()
            return DROP
        return None


class TamperFaults(_Fault):
    """Corrupt bytes somewhere inside a fraction of matching PDUs."""

    __slots__ = ()
    counter_name = "faults.tampered"

    def on_deliver(self, link, sender, receiver, message, size):
        if self._hit(message):
            self._tamper(message)
            self.counter.inc()
        return None

    def _tamper(self, pdu: Pdu) -> None:
        """Flip one byte of the in-flight bytes: decode them, flip a byte
        of the first non-empty bytes field a walk in sorted-key order
        finds, and re-encode them."""

        def corrupt(value: Any) -> Any:
            if isinstance(value, bytes) and value:
                index = self.rng.randrange(len(value))
                return value[:index] + bytes([value[index] ^ 0xFF]) + value[index + 1:]
            if isinstance(value, dict):
                for key in sorted(value):
                    new = corrupt(value[key])
                    if new is not value[key]:
                        value[key] = new
                        return value
            if isinstance(value, list):
                for i, item in enumerate(value):
                    new = corrupt(item)
                    if new is not item:
                        value[i] = new
                        return value
            return value

        pdu.payload_bytes = encode(corrupt(decode(pdu.payload_bytes)))


class ReplayFaults(_Fault):
    """Deliver a fresh copy of a fraction of matching PDUs' bytes later."""

    __slots__ = ("seconds",)
    counter_name = "faults.replayed"

    def __init__(self, network, *, seconds: float = 0.5, **kwargs):
        super().__init__(network, **kwargs)
        self.seconds = seconds

    def on_deliver(self, link, sender, receiver, message, size):
        if self._hit(message):
            copy = message.shipped()
            self.network.ctx.schedule(
                self.seconds,
                lambda: receiver.receive(copy, sender, link),
            )
            self.counter.inc()
        return None


class DelayFaults(_Fault):
    """Suppress the on-time delivery of a fraction of matching PDUs and
    re-deliver them *seconds* later (arbitrary delay attack)."""

    __slots__ = ("seconds",)
    counter_name = "faults.delayed"

    def __init__(self, network, *, seconds: float = 0.5, **kwargs):
        super().__init__(network, **kwargs)
        self.seconds = seconds

    def on_deliver(self, link, sender, receiver, message, size):
        if self._hit(message):
            self.counter.inc()
            self.network.ctx.schedule(
                self.seconds,
                lambda: receiver.receive(message, sender, link),
            )
            return DROP  # suppress the on-time delivery
        return None
