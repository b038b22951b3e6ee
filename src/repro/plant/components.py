"""Chemical species, compositions and process streams.

The feed basis matches the paper: "a raw natural gas stream containing N2,
CO2, and C1 through n-C4".  Compositions are mole fractions over the fixed
species list; streams carry molar flow, composition, temperature and
pressure.  All flows are mol/s, temperatures degC, pressures kPa(a).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Species:
    """One component with the properties the thermo model uses."""

    name: str
    formula: str
    boiling_point_c: float   # normal boiling point
    molar_mass: float        # g/mol


SPECIES: tuple[Species, ...] = (
    Species("nitrogen", "N2", -195.8, 28.01),
    Species("carbon-dioxide", "CO2", -78.5, 44.01),
    Species("methane", "C1", -161.5, 16.04),
    Species("ethane", "C2", -88.6, 30.07),
    Species("propane", "C3", -42.1, 44.10),
    Species("isobutane", "iC4", -11.7, 58.12),
    Species("n-butane", "nC4", -0.5, 58.12),
)

SPECIES_INDEX: dict[str, int] = {s.formula: i for i, s in enumerate(SPECIES)}

N_SPECIES = len(SPECIES)

# Pure-methane fraction vector for Stream.empty() -- already normalized,
# so the constructor's list path skips the dict decoding it used to do.
_PURE_C1: list[float] = [1.0 if s.formula == "C1" else 0.0 for s in SPECIES]


class Composition:
    """Mole fractions over :data:`SPECIES`, kept normalized."""

    __slots__ = ("fractions",)

    def __init__(self, fractions: dict[str, float] | list[float]) -> None:
        if isinstance(fractions, dict):
            values = [0.0] * N_SPECIES
            for formula, fraction in fractions.items():
                if formula not in SPECIES_INDEX:
                    raise KeyError(f"unknown species {formula!r}")
                values[SPECIES_INDEX[formula]] = fraction
        else:
            if len(fractions) != N_SPECIES:
                raise ValueError(
                    f"expected {N_SPECIES} fractions, got {len(fractions)}")
            values = list(fractions)
        # Validation and normalization fused into one pass; this runs
        # for every stream a plant step creates.  Accumulation order
        # matches sum(), and division by an exactly-1.0 total is the
        # identity in IEEE-754, so skipping it changes no bits.
        total = 0.0
        for v in values:
            if v < 0:
                raise ValueError(f"negative mole fraction in {values}")
            total += v
        if total <= 0:
            raise ValueError("composition must have positive total")
        if total == 1.0:
            self.fractions = values
        else:
            self.fractions = [v / total for v in values]

    @classmethod
    def _normalized(cls, values: list[float], copy: bool = False,
                    ) -> "Composition":
        """Internal fast path for flow vectors the flowsheet itself
        built (flash splits, mixed/drained flows, fraction lists being
        copied): they are known non-negative and full-length, so the
        isinstance/shape/sign checks drop out.  Accumulation order and
        the divide-skip match ``__init__`` exactly, so the resulting
        fractions are bit-identical.  With ``copy=False`` the list is
        owned, not copied -- callers must hand over a fresh list.
        """
        self = object.__new__(cls)
        total = 0.0
        for v in values:
            total += v
        if total <= 0:
            raise ValueError("composition must have positive total")
        if total == 1.0:
            self.fractions = list(values) if copy else values
        else:
            self.fractions = [v / total for v in values]
        return self

    @classmethod
    def _from_fractions(cls, values: list[float]) -> "Composition":
        """Adopt an already-normalized fraction list verbatim.

        :class:`~repro.plant.ports.StreamPort` materialization: the list
        was produced by ``_normalized``-equivalent kernel arithmetic, so
        re-running the divide-skip pass would change no bits and only
        cost a sweep.  The caller hands over a fresh list.
        """
        self = object.__new__(cls)
        self.fractions = values
        return self

    def __getitem__(self, formula: str) -> float:
        return self.fractions[SPECIES_INDEX[formula]]

    def molar_mass(self) -> float:
        return sum(s.molar_mass * f
                   for s, f in zip(SPECIES, self.fractions))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = ", ".join(f"{s.formula}={f:.3f}"
                          for s, f in zip(SPECIES, self.fractions) if f > 0)
        return f"Composition({parts})"


@dataclass
class Stream:
    """One process stream."""

    molar_flow: float               # mol/s
    composition: Composition
    temperature_c: float
    pressure_kpa: float

    def __post_init__(self) -> None:
        if self.molar_flow < 0:
            raise ValueError(f"negative flow {self.molar_flow}")

    def component_flow(self, formula: str) -> float:
        return self.molar_flow * self.composition[formula]

    def component_flows(self) -> list[float]:
        return [self.molar_flow * f for f in self.composition.fractions]

    def copy(self) -> "Stream":
        # Bypasses the dataclass __init__ (the flow was validated when
        # this stream was built); the composition still re-normalizes
        # exactly as a fresh construction would.
        clone = Stream.__new__(Stream)
        clone.molar_flow = self.molar_flow
        clone.composition = Composition._normalized(self.composition.fractions,
                                                    copy=True)
        clone.temperature_c = self.temperature_c
        clone.pressure_kpa = self.pressure_kpa
        return clone

    @staticmethod
    def empty(temperature_c: float = 25.0,
              pressure_kpa: float = 101.3) -> "Stream":
        return Stream(0.0, Composition._normalized(_PURE_C1, copy=True),
                      temperature_c,
                      pressure_kpa)

    @staticmethod
    def mix(streams: list["Stream"]) -> "Stream":
        """Adiabatic-ish mix: molar-weighted temperature, min pressure."""
        live = [s for s in streams if s.molar_flow > 0]
        if not live:
            return Stream.empty()
        total = 0.0
        for s in live:
            total += s.molar_flow
        flows = [0.0] * N_SPECIES
        temp = 0.0
        for s in live:
            mf = s.molar_flow
            temp += s.temperature_c * mf / total
            fractions = s.composition.fractions
            for i in range(N_SPECIES):
                flows[i] += mf * fractions[i]
        pressure = min(s.pressure_kpa for s in live)
        return Stream(total, Composition._normalized(flows), temp, pressure)
