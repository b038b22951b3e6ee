"""Per-link packet-reception models.

The medium asks the link-quality model one question per (link, frame):
did this frame survive the channel?  Every model answers through the same
pair of link-aware calls, :meth:`LinkQualityModel.frame_survives` and
:meth:`LinkQualityModel.expected_prr`, which name the sending and
receiving node.  Implementations:

- :class:`PerfectLinks` -- every in-range frame survives (unit tests,
  protocol-logic experiments);
- :class:`FixedPrr` -- uniform i.i.d. loss at a fixed ratio;
- :class:`DegradedLinks` -- a fault-injection wrapper over another model;
- :class:`PathLossModel` -- log-distance path loss mapped to a packet
  reception ratio via a logistic curve, the standard low-power-wireless
  abstraction; good links saturate near ``prr_ceiling``.
"""

from __future__ import annotations

import math
import random


class LinkQualityModel:
    """Interface: decide per-frame survival for a directed link.

    Both calls name the link's endpoints.  Models that treat every link
    alike ignore them; wrappers such as :class:`DegradedLinks` use them to
    target specific links.
    """

    def frame_survives(self, sender: str, receiver: str, distance_m: float,
                       size_bytes: int, rng: random.Random) -> bool:
        raise NotImplementedError

    def expected_prr(self, sender: str, receiver: str, distance_m: float,
                     size_bytes: int = 32) -> float:
        """Expected packet reception ratio (diagnostics/benchmarks)."""
        raise NotImplementedError


class PerfectLinks(LinkQualityModel):
    """All in-range frames survive; range is enforced by the topology."""

    def frame_survives(self, sender: str, receiver: str, distance_m: float,
                       size_bytes: int, rng: random.Random) -> bool:
        return True

    def expected_prr(self, sender: str, receiver: str, distance_m: float,
                     size_bytes: int = 32) -> float:
        return 1.0


class FixedPrr(LinkQualityModel):
    """Uniform i.i.d. loss at a fixed reception ratio (fault injection)."""

    def __init__(self, prr: float) -> None:
        if not 0.0 <= prr <= 1.0:
            raise ValueError(f"PRR must be in [0,1], got {prr}")
        self.prr = prr

    def frame_survives(self, sender: str, receiver: str, distance_m: float,
                       size_bytes: int, rng: random.Random) -> bool:
        return rng.random() < self.prr

    def expected_prr(self, sender: str, receiver: str, distance_m: float,
                     size_bytes: int = 32) -> float:
        return self.prr


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

    def expected_prr(self, sender: str, receiver: str, distance_m: float,
                     size_bytes: int = 32) -> float:
        base = self.base.expected_prr(sender, receiver, distance_m,
                                      size_bytes)
        if self._degrades(sender, receiver):
            return base * self.prr
        return base


class PathLossModel(LinkQualityModel):
    """Log-distance path loss -> SNR -> logistic PRR.

    ``reference_distance_m`` receives ``snr_at_reference`` dB of margin;
    each doubling of distance costs ``3.01 * path_loss_exponent`` dB.  The
    margin maps to a per-byte survival probability through a logistic curve,
    so longer frames fare worse, as on real 802.15.4 links.
    """

    def __init__(
        self,
        reference_distance_m: float = 10.0,
        snr_at_reference: float = 12.0,
        path_loss_exponent: float = 3.0,
        shadowing_std_db: float = 2.0,
        prr_ceiling: float = 0.999,
    ) -> None:
        if reference_distance_m <= 0:
            raise ValueError("reference distance must be positive")
        self.reference_distance_m = reference_distance_m
        self.snr_at_reference = snr_at_reference
        self.path_loss_exponent = path_loss_exponent
        self.shadowing_std_db = shadowing_std_db
        self.prr_ceiling = prr_ceiling

    def _margin_db(self, distance_m: float) -> float:
        d = max(distance_m, 0.1)
        loss = 10.0 * self.path_loss_exponent * math.log10(
            d / self.reference_distance_m)
        return self.snr_at_reference - loss

    def _byte_success(self, margin_db: float) -> float:
        # Logistic in SNR margin: ~0.5 at 0 dB, saturating by ~6 dB.
        p = 1.0 / (1.0 + math.exp(-1.2 * margin_db))
        return min(self.prr_ceiling ** (1.0 / 64.0), p)

    def expected_prr(self, sender: str, receiver: str, distance_m: float,
                     size_bytes: int = 32) -> float:
        margin = self._margin_db(distance_m)
        return self._byte_success(margin) ** max(1, size_bytes)

    def frame_survives(self, sender: str, receiver: str, distance_m: float,
                       size_bytes: int, rng: random.Random) -> bool:
        margin = self._margin_db(distance_m)
        if self.shadowing_std_db > 0:
            margin += rng.gauss(0.0, self.shadowing_std_db)
        prr = self._byte_success(margin) ** max(1, size_bytes)
        return rng.random() < prr
