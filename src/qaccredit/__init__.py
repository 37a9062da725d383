"""qaccredit: simulation and verification of trap-based accreditation
of noisy quantum circuit outputs.

Submodules:

* :mod:`qaccredit.circuit` — band-structured circuit IR, valid by
  construction (one (m, n) array of Clifford indices, ``GENERIC`` for a 2x2
  unitary, one cZ layer per band) and JSON round-trip
* :mod:`qaccredit.pauli` / :mod:`qaccredit.cliffords` — exact Pauli algebra
* :mod:`qaccredit.qotp` — quantum one-time-pad compilation
* :mod:`qaccredit.traps` — trap-circuit generation from flat 0/1 choice rows
* :mod:`qaccredit.noise` — Pauli-collection and bounded-gate noise models,
  each with one sampler of (x, z) error bits per noise location
* :mod:`qaccredit.simulator` — Pauli-frame and dense backends; error
  slices reach the statevector backend through ``slice_distributions``
* :mod:`qaccredit.protocol` — the accreditation runner and bounds
* :mod:`qaccredit.oracles` — brute-force lemma verifiers
* :mod:`qaccredit.mesothetic` — interactive verifier/prover sessions
* :mod:`qaccredit.families` — example circuit families
"""

from .circuit import GENERIC, Circuit, parse, serialize
from .noise import NoiseModel, PauliErrorCollection, noiseless
from .pauli import PauliString
from .protocol import (AccreditationReport, ProtocolConfig, RunOutcome,
                       accredit, delta_bound, epsilon_theorem1,
                       epsilon_theorem2, figure8_curve, single_run)
from .qotp import dress, postprocess
from .simulator import propagate_frame, run_density, trap_output
from .traps import choice_width, enumerate_choices, generate_trap

__version__ = "0.1.0"

__all__ = [
    "GENERIC", "Circuit", "parse", "serialize",
    "NoiseModel", "PauliErrorCollection", "noiseless",
    "PauliString",
    "AccreditationReport", "ProtocolConfig", "RunOutcome", "accredit",
    "delta_bound", "epsilon_theorem1", "epsilon_theorem2", "figure8_curve",
    "single_run",
    "dress", "postprocess",
    "propagate_frame", "run_density", "trap_output",
    "choice_width", "enumerate_choices", "generate_trap",
    "__version__",
]
