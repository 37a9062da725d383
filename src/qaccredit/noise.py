"""Noise models: classically correlated Pauli collections and bounded
single-qubit-gate deviations.

A PauliErrorCollection assigns one Pauli per noise location per circuit:
location 0 sits right after state preparation, location j in [1, m-1] right
before the band-j cZ round, and location m right before measurement. The
end locations are restricted to {I, Z}-only strings (X-type noise there is
absorbed by preparation/measurement in the X basis).

Gate noise is one rate r for every (circuit, band): with probability 1-r
nothing happens, otherwise a single-qubit Pauli deviation fires right after
the band's single-qubit round, which is noise location j+1. A deviation that
is not a Pauli needs no model of its own: the one-time pad twirls it into a
Pauli mixture, which the twirl oracle checks. Models never see which circuit
is the target or any pad/trap bits.

A model has one sampler, ``sample_error_bits``, which draws a (v+1, m+1, n)
collection as (x, z) uint8 bits (bit q is qubit q). A gate deviation is
drawn as the location error it meets: band j's deviation is XORed into the
location-(j+1) error, the same operator up to phase.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import pauli
from .pauli import PauliString

PROB_ATOL = 1e-12


@dataclass(frozen=True)
class PauliErrorCollection:
    """Per circuit k: a tuple of m+1 PauliStrings, one per location."""

    circuits: tuple  # tuple over k of tuple of PauliString

    def __post_init__(self):
        object.__setattr__(
            self, "circuits", tuple(tuple(locs) for locs in self.circuits))
        if not self.circuits:
            raise ValueError("collection needs at least one circuit")
        if len({len(locs) for locs in self.circuits}) > 1:
            raise ValueError("circuits have different location counts")
        if len({p.n for locs in self.circuits for p in locs}) > 1:
            raise ValueError("PauliStrings have different qubit counts")
        for k, locs in enumerate(self.circuits):
            if len(locs) < 2:
                raise ValueError(f"circuit {k}: needs locations 0..m with m>=1")
            for loc in (0, len(locs) - 1):
                if locs[loc].x_bits:
                    raise ValueError(
                        f"circuit {k} location {loc}: must be Z-only")

    def to_bits(self) -> tuple:
        """(x, z) uint8 arrays of shape (circuits, m+1, n); bit q is qubit q.

        Every mask is unpacked in one NumPy step from its little-endian
        bytes, which is exact at any n.
        """
        n = self.circuits[0][0].n
        width = (n + 7) // 8 or 1
        masks = [p.x_bits for locs in self.circuits for p in locs] \
            + [p.z_bits for locs in self.circuits for p in locs]
        raw = np.frombuffer(b"".join(mask.to_bytes(width, "little")
                                     for mask in masks), dtype=np.uint8)
        bits = np.unpackbits(raw.reshape(len(masks), width), axis=-1,
                             count=n, bitorder="little")
        x, z = bits.reshape(2, len(self.circuits), -1, n)
        return x, z


def identity_collection(num_circuits: int, n: int, m: int) -> PauliErrorCollection:
    ident = PauliString(n)
    return PauliErrorCollection(
        tuple(tuple(ident for _ in range(m + 1)) for _ in range(num_circuits)))


# ---------------------------------------------------------------------------
# Model variants
# ---------------------------------------------------------------------------


def _real(value, what: str) -> float:
    """``value`` as a float; TypeError unless a real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{what} must be a real number, not {value!r}")
    return float(value)


class NoiseModel:
    """Base: no noise. A model overrides the sampler; the base version
    draws nothing.
    """

    def sample_error_bits(self, v: int, n: int, m: int,
                          rng: np.random.Generator) -> tuple:
        """One collection as (x, z) uint8 arrays of shape (v+1, m+1, n)."""
        shape = (v + 1, m + 1, n)
        return np.zeros(shape, dtype=np.uint8), np.zeros(shape, dtype=np.uint8)

    def g_factor(self, v: int, m: int) -> float:
        """Product over all (v+1)*m single-qubit rounds of (1 - r_max)."""
        return 1.0


def noiseless() -> NoiseModel:
    return NoiseModel()


class ExplicitCollectionDistribution(NoiseModel):
    """Arbitrary classical correlation: a finite list of (collection, prob).

    Each collection is converted once, here, to read-only (x, z) bits:
    ``bits[e]`` is entry e's pair of (v+1, m+1, n) arrays, all of one
    shape, and ``probs[e]`` its probability.
    """

    def __init__(self, entries: Sequence):
        self.entries = [(c, _real(p, "probability")) for c, p in entries]
        if not self.entries:
            raise ValueError("distribution needs at least one entry")
        probs = np.array([p for _, p in self.entries])
        if not (probs >= 0).all():
            raise ValueError("probabilities must be nonnegative")
        if not abs(probs.sum() - 1.0) <= PROB_ATOL:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        self.probs = probs
        self.bits = [c.to_bits() for c, _ in self.entries]
        shapes = {x.shape for x, _ in self.bits}
        if len(shapes) > 1:
            raise ValueError(f"entries have different shapes {sorted(shapes)}")
        for x, z in self.bits:
            x.setflags(write=False)
            z.setflags(write=False)

    def sample_error_bits(self, v, n, m, rng):
        shape = self.bits[0][0].shape
        if shape != (v + 1, m + 1, n):
            raise ValueError(f"collection shape {shape} does not match "
                             f"(v+1, m+1, n) = {(v + 1, m + 1, n)}")
        return self.bits[rng.choice(len(self.entries), p=self.probs)]


class IndependentLocationChannels(NoiseModel):
    """Per-location single-qubit Pauli rates, i.i.d. across circuits/qubits.

    ``rates[(k, loc)]`` (or the default rate) maps each of the letters X/Y/Z
    to a firing probability per qubit, a real number; X/Y rates are forced
    to 0 at the end locations so the Z-only constraint holds by
    construction. Any other key is rejected, so a misspelt letter cannot
    silently mean rate 0. For the same reason sampling raises when a
    location (k, loc) lies outside the v+1 circuits and m+1 locations being
    sampled.
    """

    def __init__(self, default_rates=None, rates=None):
        if not isinstance(default_rates, (dict, type(None))):
            raise TypeError("default rates must map X, Y, Z to rates, "
                            f"not {default_rates!r}")
        self.default_rates = dict(default_rates or {})
        self.rates = {k: dict(v) for k, v in (rates or {}).items()}
        for key in self.rates:
            if not all(isinstance(i, (int, np.integer))
                       and not isinstance(i, bool) and i >= 0 for i in key):
                raise ValueError(f"rate location {key} needs integers "
                                 "k, loc >= 0")
        for r in (self.default_rates, *self.rates.values()):
            unknown = set(r) - set("XYZ")
            if unknown:
                raise ValueError(f"unknown Pauli rate keys {sorted(unknown)}; "
                                 "expected X, Y, Z")
            xyz = [_real(r.get(p, 0.0), f"rate {p}") for p in "XYZ"]
            if not all(x >= 0.0 for x in xyz) or sum(xyz) > 1.0 + PROB_ATOL:
                raise ValueError("Pauli rates must be nonnegative with "
                                 "X + Y + Z <= 1")
        self._cumulative = {}

    def _thresholds(self, v, m) -> np.ndarray:
        """Cumulative X, X+Y, X+Y+Z rates of shape (v+1, m+1, 1, 3)."""
        if (v, m) not in self._cumulative:
            rates = np.empty((v + 1, m + 1, 3))
            rates[...] = [float(self.default_rates.get(p, 0.0)) for p in "XYZ"]
            for (k, loc), r in self.rates.items():
                if k > v or loc > m:
                    raise ValueError(
                        f"rate location (k={k}, loc={loc}) lies outside "
                        f"circuits 0..{v} and locations 0..{m}")
                rates[k, loc] = [float(r.get(p, 0.0)) for p in "XYZ"]
            rates[:, [0, m], :2] = 0.0
            self._cumulative[v, m] = np.cumsum(rates, axis=-1)[:, :, None, :]
        return self._cumulative[v, m]

    def sample_error_bits(self, v, n, m, rng):
        """One uniform draw per (circuit, location, qubit) against the rates."""
        cum = self._thresholds(v, m)
        u = rng.random((v + 1, m + 1, n))
        x = u < cum[..., 1]
        z = (u >= cum[..., 0]) & (u < cum[..., 2])
        return x.astype(np.uint8), z.astype(np.uint8)


def random_adversary(n: int, m: int, v: int, rng: np.random.Generator,
                     min_slots: int = 1) -> ExplicitCollectionDistribution:
    """A random mixture of one to three collections for soundness checks.

    Each collection puts one random non-identity Pauli (Z-only at the end
    locations) at a random location of each of v_hat random slots, with
    v_hat uniform in [min_slots, v+1]; the mixture weights are
    Dirichlet(1, ..., 1). With v_hat = 1 a corrupting error meets the
    theorem-1 bound with equality, so a 3-sigma check of the empirical
    frequency fails by chance about once in 700; ``min_slots=2`` keeps the
    true frequency below the bound.
    """
    if not 1 <= min_slots <= v + 1:
        raise ValueError(f"min_slots must lie in [1, v+1] = [1, {v + 1}]")
    n_entries = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(n_entries))
    v_hat = int(rng.integers(min_slots, v + 2))
    slots = rng.choice(v + 1, size=v_hat, replace=False)
    entries = []
    for w in weights:
        circuits = []
        for k in range(v + 1):
            locs = [PauliString(n)] * (m + 1)
            if k in slots:
                loc = int(rng.integers(0, m + 1))
                z_only = loc in (0, m)
                x = 0 if z_only else int(rng.integers(0, 2 ** n))
                z = int(rng.integers(0, 2 ** n))
                if x == 0 and z == 0:
                    z = int(rng.integers(1, 2 ** n))
                locs[loc] = PauliString(n, x, z)
            circuits.append(tuple(locs))
        entries.append((PauliErrorCollection(tuple(circuits)), float(w)))
    total = sum(p for _, p in entries)
    return ExplicitCollectionDistribution([(c, p / total) for c, p in entries])


class BoundedGateNoise(NoiseModel):
    """Diamond-norm-bounded single-qubit-gate deviations.

    Each single-qubit round fires a deviation with probability ``rate``: a
    uniform non-identity Pauli on a uniform random qubit. The pads twirl any
    other deviation into a Pauli mixture, so Pauli deviations are the ones to
    simulate. Sampling raises when the circuit has another qubit count
    than the model.
    """

    def __init__(self, rate: float, n: int):
        if isinstance(rate, bool) or not isinstance(rate, numbers.Real) \
                or not 0.0 <= rate < 1.0:
            raise ValueError(f"gate rate must be a number in [0, 1), "
                             f"not {rate!r}")
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) \
                or n < 1:
            raise ValueError(f"gate noise needs an integer n >= 1, "
                             f"not {n!r}")
        self.rate = float(rate)
        self.n = int(n)

    def g_factor(self, v, m):
        return math.prod([1.0 - self.rate] * ((v + 1) * m))

    def sample_error_bits(self, v, n, m, rng):
        """Circuit by circuit and band by band: the firing uniform, then the
        qubit, then the letter; band j's deviation sits at location j+1."""
        if n != self.n:
            raise ValueError(f"gate noise built for n={self.n} qubits "
                             f"cannot act on a circuit of n={n} qubits")
        bits = np.zeros((2, v + 1, m + 1, n), dtype=np.uint8)
        for k in range(v + 1):
            for j in range(m):
                if rng.random() < self.rate:
                    q = int(rng.integers(0, n))
                    bits[:, k, j + 1, q] = [(1, 0), (1, 1), (0, 1)][
                        int(rng.integers(0, 3))]
        return bits[0], bits[1]


class CompositeModel(NoiseModel):
    """Any two models at once: their error bits XORed (Pauli part drawn
    first) and their g factors multiplied; a missing part is noiseless."""

    def __init__(self, pauli_part: Optional[NoiseModel] = None,
                 gate_part: Optional[NoiseModel] = None):
        self.pauli_part = pauli_part if pauli_part is not None else NoiseModel()
        self.gate_part = gate_part if gate_part is not None else NoiseModel()

    def sample_error_bits(self, v, n, m, rng):
        px, pz = self.pauli_part.sample_error_bits(v, n, m, rng)
        gx, gz = self.gate_part.sample_error_bits(v, n, m, rng)
        return px ^ gx, pz ^ gz

    def g_factor(self, v, m):
        return self.pauli_part.g_factor(v, m) * self.gate_part.g_factor(v, m)


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------


def model_from_json(text: str) -> NoiseModel:
    """Parse the noise-model document.

    Schema: {"variant": "noiseless"} |
    {"variant": "explicit", "entries": [{"prob": p, "collection": [[pauli...]...]}]} |
    {"variant": "independent", "default_rates": {"X":..,"Y":..,"Z":..},
     "rates": [{"k":..,"loc":..,"X":..}]} |
    {"variant": "bounded_gate", "rate": r, "n": n} |
    {"variant": "composite", "pauli": {...}, "gate": {...}}

    A value of the wrong type or a missing key anywhere in the document
    raises ValueError.
    """
    doc = json.loads(text)
    try:
        return _model_from_obj(doc)
    except KeyError as exc:
        raise ValueError(
            f"malformed noise model document: missing key {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed noise model document: {exc}") from exc


def _model_from_obj(doc) -> NoiseModel:
    if not isinstance(doc, dict) or "variant" not in doc:
        raise ValueError("noise model document needs a 'variant' key")
    variant = doc["variant"]
    if variant == "noiseless":
        return noiseless()
    if variant == "explicit":
        entries = []
        for e in doc["entries"]:
            coll = PauliErrorCollection(
                tuple(tuple(pauli.from_text(s) for s in locs)
                      for locs in e["collection"]))
            entries.append((coll, e["prob"]))
        return ExplicitCollectionDistribution(entries)
    if variant == "independent":
        rates = {}
        for r in doc.get("rates", []):
            unknown = set(r) - {"k", "loc", "X", "Y", "Z"}
            if unknown:
                raise ValueError(f"unknown keys {sorted(unknown)} in a "
                                 "per-location rate entry")
            rates[(r["k"], r["loc"])] = {p: r[p] for p in "XYZ" if p in r}
        return IndependentLocationChannels(
            default_rates=doc.get("default_rates"), rates=rates)
    if variant == "bounded_gate":
        return BoundedGateNoise(rate=doc["rate"], n=doc["n"])
    if variant == "composite":
        return CompositeModel(
            pauli_part=_model_from_obj(doc["pauli"]) if doc.get("pauli") else None,
            gate_part=_model_from_obj(doc["gate"]) if doc.get("gate") else None)
    raise ValueError(f"unknown noise-model variant {variant!r}")
