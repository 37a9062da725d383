"""Noise models: classically correlated Pauli collections and bounded
single-qubit-gate deviations.

A PauliErrorCollection assigns one Pauli per noise location per circuit:
location 0 sits right after state preparation, location j+1 for j in
[0, m-2] right after band j's single-qubit round and before its cZ round,
and location m right before measurement. The end locations are restricted
to {I, Z}-only strings (X-type noise there is absorbed by
preparation/measurement in the X basis).

Gate noise is one rate r for every (circuit, band): with probability 1-r
nothing happens, otherwise a single-qubit Pauli deviation fires right after
the band's single-qubit round, which is noise location j+1. A deviation that
is not a Pauli needs no model of its own: the one-time pad twirls it into a
Pauli mixture, which the twirl oracle checks. Models never see which circuit
is the target or any pad/trap bits.

A model has one sampler, ``sample_hits``, which draws the errors of R runs
at once as hits: ascending int64 flat positions over (run, circuit,
location, qubit), the shape (R, v+1, m+1, n), each with a uint8 code
x | z << 1 of 1 (X), 2 (Z) or 3 (Y). A single run is the sampler called
with R = 1, and ``sample_error_bits`` scatters the hits into (x, z) uint8
bits of that shape (bit q is qubit q). Per-location channels draw in
proportion to the errors, not the locations: the positions that may fire
come from geometric gaps, and each gets one uniform that picks its letter.
A gate deviation is drawn as the location error it meets: band j's
deviation is XORed into the location-(j+1) error, the same operator up to
phase.
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
    """Base: no noise. A model overrides the sampler, :meth:`sample_hits`;
    the base version draws nothing.
    """

    def sample_hits(self, runs: int, v: int, n: int, m: int,
                    rng: np.random.Generator) -> tuple:
        """The errors of ``runs`` runs as hits (positions, codes): ascending
        int64 flat positions over (run, circuit, location, qubit) of shape
        (runs, v+1, m+1, n), and each one's uint8 code x | z << 1, never 0.
        The caller owns both arrays."""
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8)

    def sample_error_bits(self, runs: int, v: int, n: int, m: int,
                          rng: np.random.Generator) -> tuple:
        """The hits of :meth:`sample_hits` as (x, z) uint8 arrays of shape
        (runs, v+1, m+1, n), which the caller owns."""
        return scatter_hits(self.sample_hits(runs, v, n, m, rng),
                            (runs, v + 1, m + 1, n))

    def g_factor(self, v: int, m: int) -> float:
        """Product over all (v+1)*m single-qubit rounds of (1 - r_max)."""
        return 1.0


def scatter_hits(hits: tuple, shape: tuple) -> tuple:
    """Hits (positions, codes) over the flat ``shape`` as dense (x, z)
    uint8 arrays of that shape."""
    positions, codes = hits
    bits = np.zeros((2, math.prod(shape)), dtype=np.uint8)
    bits[0, positions] = codes & 1
    bits[1, positions] = codes >> 1
    return bits[0].reshape(shape), bits[1].reshape(shape)


def noiseless() -> NoiseModel:
    return NoiseModel()


class ExplicitCollectionDistribution(NoiseModel):
    """Arbitrary classical correlation: a finite list of (collection, prob).

    The model holds only bits, each collection converted once, here:
    ``bits[e]`` is entry e's read-only (x, z) pair of (v+1, m+1, n) uint8
    arrays, all of one shape (bit q is qubit q), and ``probs[e]`` its
    probability. Each entry's hits are found once too, so a draw picks one
    entry per run and gathers that entry's hits.
    """

    def __init__(self, entries: Sequence):
        entries = [(c, _real(p, "probability")) for c, p in entries]
        if not entries:
            raise ValueError("distribution needs at least one entry")
        probs = np.array([p for _, p in entries])
        if not (probs >= 0).all():
            raise ValueError("probabilities must be nonnegative")
        if not abs(probs.sum() - 1.0) <= PROB_ATOL:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        self.probs = probs
        self.bits = [c.to_bits() for c, _ in entries]
        shapes = {x.shape for x, _ in self.bits}
        if len(shapes) > 1:
            raise ValueError(f"entries have different shapes {sorted(shapes)}")
        for x, z in self.bits:
            x.setflags(write=False)
            z.setflags(write=False)
        # every entry's hits in one run, entry by entry: entry e's are
        # positions[bounds[e]:bounds[e + 1]], flat over (v+1, m+1, n)
        codes = np.stack([x | z << 1 for x, z in self.bits]).reshape(
            len(self.bits), -1)
        entry, positions = np.nonzero(codes)
        self._hits = (positions, codes[entry, positions],
                      np.searchsorted(entry, np.arange(len(self.bits) + 1)))

    def sample_hits(self, runs, v, n, m, rng):
        """One entry per run, picked by one ``rng.choice`` of ``runs``."""
        shape = self.bits[0][0].shape
        if shape != (v + 1, m + 1, n):
            raise ValueError(f"collection shape {shape} does not match "
                             f"(v+1, m+1, n) = {(v + 1, m + 1, n)}")
        picked = rng.choice(len(self.probs), size=runs, p=self.probs)
        positions, codes, bounds = self._hits
        count = np.diff(bounds)[picked]
        # hit i of run r is hit i of its entry, offset by r runs
        run = np.repeat(np.arange(runs), count)
        at = np.arange(count.sum()) + np.repeat(
            bounds[picked] - (np.cumsum(count) - count), count)
        return run * math.prod(shape) + positions[at], codes[at]


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
        """Cumulative X, X+Y, X+Y+Z rates of shape ((v+1)(m+1), 3), one row
        per (circuit, location) in that order."""
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
            self._cumulative[v, m] = np.cumsum(rates, axis=-1).reshape(-1, 3)
        return self._cumulative[v, m]

    def sample_hits(self, runs, v, n, m, rng):
        """Candidates by geometric gaps, then one letter uniform each.

        Over the flat (run, circuit, location, qubit) order, each position
        is a candidate with probability p, the largest X+Y+Z rate: the
        candidates are the partial sums of ``rng.geometric(p)`` gaps
        (:func:`_gap_positions`). Then one ``rng.random`` call draws a
        uniform u in [0, p) per candidate, compared with the candidate's
        own location's rates: u < X+Y+Z fires, and a firing u sets x when
        u < X+Y and z when u >= X. So each position fires X, Y or Z at its
        location's rates, and the draws follow the errors, not the
        positions. At p = 0 nothing is drawn."""
        cum = self._thresholds(v, m)
        p = min(float(cum[:, 2].max()), 1.0)
        if p == 0.0:
            return super().sample_hits(runs, v, n, m, rng)
        hit = _gap_positions(p, runs * len(cum) * n, rng)
        u = rng.random(len(hit)) * p
        # a flat index over (run, circuit, location, qubit) reads the
        # thresholds of its (circuit, location)
        cum = cum[hit // n % len(cum)]
        fires = u < cum[:, 2]
        hit, u, cum = hit[fires], u[fires], cum[fires]
        x_bit = (u < cum[:, 1]).view(np.uint8)
        z_bit = (u >= cum[:, 0]).view(np.uint8)
        return hit, x_bit | z_bit << 1


def _gap_positions(p: float, size: int, rng: np.random.Generator
                   ) -> np.ndarray:
    """Ascending positions in [0, size), each one in independently with
    probability p in (0, 1]: the partial sums of geometric gaps, less one
    (Gidney 2021, arXiv:2103.02202, samples sparse Pauli noise this way).

    The gaps come in chunks of ``rng.geometric(p, size=k)``, each k the
    mean count of the r positions left plus about four standard deviations
    plus 16, k = int(r p + 4 sqrt(r p)) + 16, until a partial sum reaches
    size; one chunk nearly always does.
    """
    chunks, last = [np.empty(0, dtype=np.int64)], -1
    while last < size - 1:
        left = (size - 1 - last) * p
        chunk = last + np.cumsum(rng.geometric(
            p, size=int(left + 4 * math.sqrt(left)) + 16))
        chunks.append(chunk)
        last = int(chunk[-1])
    positions = np.concatenate(chunks)
    return positions[:np.searchsorted(positions, size)]


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


_LETTER_CODES = np.array([1, 3, 2], dtype=np.uint8)  # X, Y, Z as x | z << 1


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

    def sample_hits(self, runs, v, n, m, rng):
        """Three array draws: one firing uniform per (run, circuit, band),
        then, over the rounds that fire in that order, their qubits and then
        their letters (X, Y, Z); band j's deviation sits at location j+1."""
        if n != self.n:
            raise ValueError(f"gate noise built for n={self.n} qubits "
                             f"cannot act on a circuit of n={n} qubits")
        fired = np.flatnonzero(rng.random((runs, v + 1, m)) < self.rate)
        q = rng.integers(0, n, size=len(fired))
        letter = rng.integers(0, 3, size=len(fired))
        # flat (run, circuit, band j) to flat (run, circuit, location j+1)
        return (fired + fired // m + 1) * n + q, _LETTER_CODES[letter]


class CompositeModel(NoiseModel):
    """Any two models at once: their hits XOR-merged (Pauli part drawn
    first) and their g factors multiplied; a missing part is noiseless."""

    def __init__(self, pauli_part: Optional[NoiseModel] = None,
                 gate_part: Optional[NoiseModel] = None):
        self.pauli_part = pauli_part if pauli_part is not None else NoiseModel()
        self.gate_part = gate_part if gate_part is not None else NoiseModel()

    def sample_hits(self, runs, v, n, m, rng):
        """Both parts' hits in position order, the codes of a position both
        parts hit XORed into one, which is dropped when it cancels to 0."""
        positions, codes = (np.concatenate(part) for part in zip(
            self.pauli_part.sample_hits(runs, v, n, m, rng),
            self.gate_part.sample_hits(runs, v, n, m, rng)))
        order = np.argsort(positions, kind="stable")
        positions = positions[order]
        first = np.flatnonzero(np.diff(positions, prepend=-1))
        codes = np.bitwise_xor.reduceat(codes[order], first)
        kept = codes != 0
        return positions[first][kept], codes[kept]

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
