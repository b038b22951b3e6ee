"""Per-link packet-reception models.

The medium asks the link-quality model one question per (link, frame):
did this frame survive the channel?  Every model answers it through
:meth:`LinkQualityModel.frame_survives`, which names the sending and
receiving node.  Implementations:

- :class:`PerfectLinks` -- every in-range frame survives (unit tests,
  protocol-logic experiments);
- :class:`FixedPrr` -- uniform i.i.d. loss at a fixed ratio;
- :class:`DegradedLinks` -- a fault-injection wrapper over another model.
"""

from __future__ import annotations

import random


class LinkQualityModel:
    """Interface: decide per-frame survival for a directed link.

    The call names the link's endpoints.  Models that treat every link
    alike ignore them; wrappers such as :class:`DegradedLinks` use them to
    target specific links.
    """

    def frame_survives(self, sender: str, receiver: str, distance_m: float,
                       size_bytes: int, rng: random.Random) -> bool:
        raise NotImplementedError


class PerfectLinks(LinkQualityModel):
    """All in-range frames survive; range is enforced by the topology."""

    def frame_survives(self, sender: str, receiver: str, distance_m: float,
                       size_bytes: int, rng: random.Random) -> bool:
        return True


class FixedPrr(LinkQualityModel):
    """Uniform i.i.d. loss at a fixed reception ratio (fault injection)."""

    def __init__(self, prr: float) -> None:
        if not 0.0 <= prr <= 1.0:
            raise ValueError(f"PRR must be in [0,1], got {prr}")
        self.prr = prr

    def frame_survives(self, sender: str, receiver: str, distance_m: float,
                       size_bytes: int, rng: random.Random) -> bool:
        return rng.random() < self.prr


class DegradedLinks(LinkQualityModel):
    """Fault-injection wrapper: multiply a base model's survival by ``prr``.

    A frame survives only if the base model delivers it AND an extra
    Bernoulli draw at ``prr`` passes.  With ``links`` given, only those
    (unordered) node pairs are degraded; otherwise every link is.  The
    wrapper stays installed when the fault window closes -- reverting just
    flips :attr:`active` -- so overlapping fault windows restore cleanly in
    any order.
    """

    def __init__(self, base: LinkQualityModel, prr: float,
                 links: tuple[tuple[str, str], ...] | None = None) -> None:
        if not 0.0 <= prr <= 1.0:
            raise ValueError(f"PRR must be in [0,1], got {prr}")
        self.base = base
        self.prr = prr
        self.links = (frozenset(frozenset(pair) for pair in links)
                      if links else None)
        self.active = True

    def _degrades(self, sender: str, receiver: str) -> bool:
        if not self.active:
            return False
        if self.links is None:
            return True
        return frozenset((sender, receiver)) in self.links

    def frame_survives(self, sender: str, receiver: str, distance_m: float,
                       size_bytes: int, rng: random.Random) -> bool:
        survives = self.base.frame_survives(
            sender, receiver, distance_m, size_bytes, rng)
        if self._degrades(sender, receiver):
            return survives and rng.random() < self.prr
        return survives
