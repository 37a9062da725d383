"""Mutation check: tier-1 must catch each listed break of ``src/``.

Run from the repository root:

    python3 tools/mutants.py               # every mutant
    python3 tools/mutants.py gap-offset    # some mutants, by name

A mutant names a file under ``src/qaccredit/``, an exact snippet that must
occur there exactly once, its replacement, and the tests that must fail
once the snippet is replaced. The script first runs every named test
against an unmutated copy of ``src/``, where they must pass; then, for each
mutant, it copies ``src/`` to a temporary directory, applies the mutant and
runs its tests against the copy. It exits 1 when the unmutated copy fails,
a snippet is missing or ambiguous, or a mutant survives, so a refactor that
moves a snippet must update its mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/qaccredit/
    snippet: str
    replacement: str
    tests: tuple  # pytest node ids, from the repository root


NOISE, PROTOCOL, ORACLES = (f"tests/test_{module}.py::"
                            for module in ("noise", "protocol", "oracles"))
NOISE_PIN = NOISE + "test_independent_error_bits_follow_the_three_comparisons"
NOISE_LAW = NOISE + "test_independent_error_bits_follow_their_binomial_law"
PACKING = PROTOCOL + "test_draw_runs_unpack_packed_choice_bytes"
PREFIX = PROTOCOL + "test_reports_are_prefixes_whatever_the_walks"
BUDGET = PROTOCOL + "test_merged_walk_memory_is_bounded_by_the_budget"
HEAVY_BUDGET = PROTOCOL + ("test_heavy_noise_walk_counts_each_hit_at_its_"
                           "live_row")
PADDED = PROTOCOL + "test_padded_runs_match_frame_run_by_run"
SESSION = ("tests/test_mesothetic.py::"
           "test_session_decision_matches_frame_run_by_run")
HITS = NOISE + "test_hits_scatter_to_the_dense_bits"
TRAPS, QOTP = (f"tests/test_{module}.py::" for module in ("traps", "qotp"))
TRAP_ROWS = TRAPS + "test_batched_trap_gates_equal_one_row_builds"
PAD_TABLE = QOTP + "test_pad_unitaries_is_the_plain_product"
SAME_DRAWS = (ORACLES
              + "test_theorem1_sampler_keeps_the_draws_of_the_full_gather")
VERDICTS = ORACLES + "test_sweep_verdicts_equal_a_per_collection_decision"
EXACT = ORACLES + "test_exact_acceptance_is_the_sum_over_every_slice"
HOEFFDING = ORACLES + "test_accredit_acceptance_lies_in_its_hoeffding_interval"
PASS_COUNTS = ORACLES + ("test_pass_counts_equal_the_exact_probability_"
                         "of_each_collection")
CHOICE_DRAW = ORACLES + "test_choice_draw_is_rng_choice"
TWIRL_WEIGHTS = ORACLES + ("test_twirl_weights_do_not_follow_the_"
                           "rounding_of_a_walk")
SLICES = PROTOCOL + "test_sample_targets_pick_from_each_slice_distribution"
ROUNDS = (PROTOCOL
          + "test_report_walks_full_size_rounds_only_for_whole_state_cones")
EDGES = PROTOCOL + ("test_sampler_picks_outcomes_of_positive_probability_"
                    "at_cell_edges")
FEW_STATES = PROTOCOL + "test_sample_targets_hold_a_few_states_at_any_m"
BATCH = PROTOCOL + "test_batched_cone_walks_match_the_one_cone_reference"
CZ_SIGNS = ("tests/test_simulator.py::"
            "test_density_matches_kronecker_reference")
FUSED = "tests/test_simulator.py::test_apply_round_matches_kronecker_reference"
FRAMES = "tests/test_simulator.py::test_frame_flips_match_per_trap_frames"
TRAP_WALK = ("tests/test_simulator.py::"
             "test_trap_flips_match_signed_frames_row_by_row")

MUTANTS = (
    # the sampler: candidates by geometric gaps, one letter uniform each
    Mutant("gap-offset", "noise.py",
           "chunk = last + np.cumsum(rng.geometric(",
           "chunk = last + 1 + np.cumsum(rng.geometric(",
           (NOISE_PIN,)),
    Mutant("fire-at-p", "noise.py",
           "fires = u < cum[:, 2]",
           "fires = u < p",
           (NOISE_LAW,)),
    Mutant("uniform-not-below-p", "noise.py",
           "u = rng.random(len(hit)) * p",
           "u = rng.random(len(hit))",
           (NOISE_LAW,)),
    Mutant("x-letter", "noise.py",
           "x_bit = (u < cum[:, 1])",
           "x_bit = (u < cum[:, 0])",
           (NOISE_LAW,)),
    Mutant("z-letter", "noise.py",
           "z_bit = (u >= cum[:, 0])",
           "z_bit = (u >= cum[:, 1])",
           (NOISE_LAW,)),
    # hits: a composite XORs the codes of a position both parts hit
    Mutant("composite-or", "noise.py",
           "codes = np.bitwise_xor.reduceat(",
           "codes = np.bitwise_or.reduceat(",
           (HITS,)),
    # packed choice rows
    Mutant("pack-bit-order", "protocol.py",
           "choice_width(target),\n"
           '                         bitorder="little")',
           "choice_width(target),\n"
           '                         bitorder="big")',
           (PACKING,)),
    Mutant("pack-count", "protocol.py",
           "np.unpackbits(packed, axis=-1, count=traps.choice_width(target),",
           "np.unpackbits(packed, axis=-1, count=None,",
           (PACKING,)),
    # one trap walk for many stream blocks, on their hits
    Mutant("block-offset", "protocol.py",
           "for block, offset in zip(blocks, offsets)",
           "for block, offset in zip(blocks, offsets[1:])",
           (PREFIX,)),
    Mutant("split-slot", "protocol.py",
           "in_target = slot == v0[run]",
           "in_target = slot != v0[run]",
           (PADDED, SESSION)),
    Mutant("uncut-hits", "protocol.py",
           "positions[:cut], codes[:cut]",
           "positions, codes",
           (PREFIX,)),
    Mutant("flush-drops-block", "protocol.py",
           "slices, last = _accepted_slices(target, pending)",
           "slices, last = _accepted_slices(target, pending[:-1] "
           "or pending)",
           (PREFIX,)),
    Mutant("no-final-flush", "protocol.py",
           "if held <= WALK_BYTES and start + STREAM_BLOCK < config.d:",
           "if held <= WALK_BYTES and start < config.d:",
           (PREFIX,)),
    Mutant("walk-counts-draws-only", "protocol.py",
           "+ len(block.codes) * hit_bytes)",
           ")",
           (HEAVY_BUDGET,)),
    Mutant("no-budget", "protocol.py",
           "if held <= WALK_BYTES and start + STREAM_BLOCK < config.d:",
           "if start + STREAM_BLOCK < config.d:",
           (BUDGET,)),
    # errors folded into the pads, and frames that take hits
    Mutant("pad-error-letters", "qotp.py",
           "post_x ^ err_x[:, 1:], post_z ^ err_z[:, 1:]",
           "post_x ^ err_z[:, 1:], post_z ^ err_x[:, 1:]",
           (PROTOCOL + "test_noisy_plan_runs_each_dressed_slot_under_its_"
            "drawn_errors",)),
    Mutant("frame-hits-location", "simulator.py",
           "at = slice(bounds[j + 1], bounds[j + 2])",
           "at = slice(bounds[j], bounds[j + 1])",
           (FRAMES,)),
    # the bit-sliced trap walk: hits imaged through their layer, cX from
    # each pair's S qubit onto its H qubit, the sandwich at both ends
    Mutant("trap-walk-h-s-swapped", "simulator.py",
           "[[cliffords.C_I] * 2, [cliffords.C_H, cliffords.C_S],\n"
           "     [cliffords.C_S, cliffords.C_H]]",
           "[[cliffords.C_I] * 2, [cliffords.C_S, cliffords.C_H],\n"
           "     [cliffords.C_H, cliffords.C_S]]",
           (TRAP_WALK,)),
    Mutant("trap-walk-hits-unimaged", "simulator.py",
           "codes = _HIT_IMAGE[kind[at], bit & 1, codes]",
           "codes = _HIT_IMAGE[kind[at] * 0, bit & 1, codes]",
           (TRAP_WALK,)),
    Mutant("trap-walk-sandwich-one-end", "simulator.py",
           "if j in (0, m - 1):",
           "if j == 0:",
           (TRAP_WALK,)),
    Mutant("trap-walk-lower-orientation", "simulator.py",
           "np.stack((masks[:-1], ~masks[:-1]), axis=1)",
           "np.stack((~masks[:-1], masks[:-1]), axis=1)",
           (TRAP_WALK,)),
    Mutant("trap-walk-cz-z-into-x", "simulator.py",
           "z[p] ^= z[q] & target",
           "x[p] ^= z[q] & target",
           (TRAP_WALK,)),
    Mutant("trap-walk-padding-unmasked", "simulator.py",
           'count=rows, bitorder="little").T',
           'bitorder="little").T',
           (TRAP_WALK,)),
    Mutant("trap-walk-row-word", "simulator.py",
           "(at * words + (row >> 6)) << 8 | (row & 63) << 2",
           "(at * words + (row >> 5)) << 8 | (row & 31) << 2",
           (TRAP_WALK,)),
    # every trap choice's gates at once
    Mutant("trap-pair-orientation", "traps.py",
           "layers[:, j + 1, lo] = np.where(bit, h, s)\n"
           "            layers[:, j + 1, hi] = np.where(bit, s, h)",
           "layers[:, j + 1, lo] = np.where(bit, s, h)\n"
           "            layers[:, j + 1, hi] = np.where(bit, h, s)",
           (TRAP_ROWS, TRAPS + "test_pair_orientation")),
    Mutant("trap-sandwich-bit", "traps.py",
           "np.where(choices[:, -1:], h, cliffords.C_I)",
           "np.where(choices[:, -1:], cliffords.C_I, h)",
           (TRAPS + "test_sandwich_bit",)),
    # the credibility sampler, slot by slot on the same draws
    Mutant("sampler-no-v0-mask", "oracles.py",
           "rejected[rows] |= reject[k].take(at[k]) & (v0[rows] != k)",
           "rejected[rows] |= reject[k].take(at[k])",
           (SAME_DRAWS, ORACLES + "test_corrupted_target_is_seen")),
    Mutant("sampler-slot-table", "oracles.py",
           "reject[k].take(at[k])",
           "reject[0].take(at[k])",
           (SAME_DRAWS,)),
    Mutant("sampler-entry-by-probs", "oracles.py",
           "for c in cdf[:-1]:",
           "for c in probs[:-1]:",
           (SAME_DRAWS,)),
    # the Lemma-2 verdict table
    Mutant("verdict-single-bound", "oracles.py",
           "bound = Fraction(3, 4) if key & 1 else Fraction(1, 2)",
           "bound = Fraction(1, 2)",
           (VERDICTS, ORACLES + "test_sweep_two_class")),
    # padded 2x2s by table gather
    Mutant("pad-gather-pre-post", "qotp.py",
           "at + 4 * _PAULI_CODE[post] + _PAULI_CODE[pre]",
           "at + 4 * _PAULI_CODE[pre] + _PAULI_CODE[post]",
           (PAD_TABLE,)),
    Mutant("pad-table-side", "qotp.py",
           "unitaries[..., None, :, :] @ _PAULI_MATRICES",
           "_PAULI_MATRICES @ unitaries[..., None, :, :]",
           (PAD_TABLE,)),
    # fused rounds: Kronecker blocks, highest qubits first
    Mutant("fuse-block-order", "simulator.py",
           "for hi in range(n, 0, -BLOCK)]",
           "for hi in range(n, 0, -BLOCK)][::-1]",
           (FUSED,)),
    Mutant("round-block-untransposed", "simulator.py",
           "@ u.mT).reshape(shape)",
           "@ u).reshape(shape)",
           (FUSED,)),
    # generic targets: the noiseless law, then each light cone's bits again
    Mutant("cone-without-partners", "simulator.py",
           "cones |= cones[:, partner[j]] & paired[j]",
           "cones |= cones",
           (SLICES, ROUNDS)),
    Mutant("operator-without-inverse", "simulator.py",
           "map(fuse_round, back), signs[::-1] + [None], width)",
           "[], [], width)",
           (SLICES,)),
    Mutant("cone-spread-reversed", "simulator.py",
           "np.pad(live << qubits,",
           "np.pad((live << qubits)[:, ::-1],",
           (SLICES,)),
    Mutant("location-m-not-relabelled", "simulator.py",
           "return out ^ slices[:, 1, m] @ (1 << np.arange(n))",
           "return out",
           (SLICES,)),
    Mutant("compare-unchunked", "simulator.py",
           "part = runs[c:min(c + (1 << n - s), end)]",
           "part = runs[c:end]",
           (FEW_STATES,)),
    Mutant("cone-law-to-other-runs", "simulator.py",
           "rep = first[cols >> n]",
           "rep = np.roll(first, 1)[cols >> n]",
           (SLICES,)),
    # batched cone walks: a width class at a time, in chunks of about one
    # state, each cone with its own gates and sign rows
    Mutant("cone-signs-to-other-cones", "simulator.py",
           "signs.append(1 - 2 * odd.T.astype(np.int8) if pairs else None)",
           "signs.append(np.roll(1 - 2 * odd.T.astype(np.int8), 1, axis=0)\n"
           "                     if pairs else None)",
           (BATCH,)),
    Mutant("dummy-qubit-gate", "simulator.py",
           "forth = np.where(on, plain @ errors",
           "forth = np.where(on | ~live[..., None, None], plain @ errors",
           (BATCH,)),
    Mutant("backward-cz-layer-j", "simulator.py",
           "signs[::-1] + [None]",
           "[None] + signs[::-1]",
           (BATCH,)),
    Mutant("chunk-bound-ignored", "simulator.py",
           "step = max(1, (1 << n) // size)",
           "step = hi - lo",
           (FEW_STATES,)),
    Mutant("conditional-unnormalised", "simulator.py",
           "    cdf /= cdf[:, -1:]\n",
           "",
           (SLICES,)),
    Mutant("cone-bits-not-cleared", "simulator.py",
           "clear = out & ~(cones @ (1 << np.arange(n)))",
           "clear = out",
           (SLICES,)),
    Mutant("residual-not-rescaled", "simulator.py",
           "residual = np.clip((draws - low) / (cdf[out + 1] - low), eps,",
           "residual = np.clip(draws, eps,",
           (SLICES,)),
    Mutant("noiseless-draw-left", "simulator.py",
           'out = cdf.searchsorted(draws, side="right") - 1',
           'out = cdf.searchsorted(draws, side="left") - 1',
           (EDGES,)),
    Mutant("draw-at-0", "simulator.py",
           "draws = np.maximum(draws, eps)",
           "draws = np.maximum(draws, 0)",
           (EDGES,)),
    Mutant("residual-at-0", "simulator.py",
           "(cdf[out + 1] - low), eps,",
           "(cdf[out + 1] - low), 0,",
           (EDGES,)),
    # cZ signs: -1 where an odd number of pairs has both qubits set
    Mutant("cz-signs-either-qubit", "simulator.py",
           "odd ^= idx >> i & idx >> j",
           "odd ^= idx >> i | idx >> j",
           (CZ_SIGNS,)),
    # a Clifford report samples by frames, from no statevector
    Mutant("clifford-walks-statevector", "protocol.py",
           "            slices[:, 0, 0] ^= last\n",
           "            simulator.sample_slices(target, slices,\n"
           "                                    np.zeros(len(slices)))\n"
           "            slices[:, 0, 0] ^= last\n",
           (PROTOCOL + "test_clifford_accredit_builds_no_statevector",)),
    # pass counts over the rows that touch a location
    Mutant("sparse-xor-leading-rows", "oracles.py",
           "flips[rows] ^= t[",
           "flips[:rows.stop - rows.start] ^= t[",
           (PASS_COUNTS,)),
    Mutant("sparse-span-end", "oracles.py",
           "rows = slice(touched[0], touched[-1] + 1)",
           "rows = slice(touched[0], touched[-1])",
           (PASS_COUNTS,)),
    # the entry draw: a uniform on a cdf value picks the next entry
    Mutant("choice-draw-tie", "oracles.py",
           "picked += u >= c",
           "picked += u > c",
           (CHOICE_DRAW,)),
    # the twirl fit: one weight per output distribution
    Mutant("twirl-outputs-unrounded", "oracles.py",
           "a.T.round(TWIRL_OUTPUT_DECIMALS) + 0.0",
           "a.T",
           (TWIRL_WEIGHTS,)),
    # the exact acceptance probability
    Mutant("v0-product", "oracles.py",
           "np.prod(np.delete(trap, v0))",
           "np.prod(trap)",
           (EXACT, HOEFFDING)),
)


def _copy(into: Path) -> Path:
    """A copy of src/ under ``into``, without bytecode caches."""
    shutil.copytree(SRC, into / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return into / "src"


def _run(src: Path, tests) -> bool:
    """Do ``tests`` pass against the package in ``src``?"""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run(
        [sys.executable, "-c", "import qaccredit; print(qaccredit.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    if not Path(where.stdout.strip()).is_relative_to(src):
        raise RuntimeError(f"qaccredit imported from {where.stdout.strip()}, "
                           f"not from the copy in {src}")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], env=env, cwd=ROOT, capture_output=True, text=True)
    return done.returncode == 0


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants {sorted(unknown)}")
        return 2
    mutants = [m for m in MUTANTS if not names or m.name in names]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        tests = sorted({t for m in mutants for t in m.tests})
        if not _run(_copy(Path(tmp)), tests):
            print("unmutated copy: the named tests fail")
            return 1
        print(f"unmutated copy: {len(tests)} tests pass")
    for m in mutants:
        with tempfile.TemporaryDirectory() as tmp:
            path = _copy(Path(tmp)) / "qaccredit" / m.file
            text = path.read_text()
            count = text.count(m.snippet)
            if count != 1:
                verdict = f"snippet found {count} times"
            else:
                path.write_text(text.replace(m.snippet, m.replacement))
                verdict = ("SURVIVED" if _run(path.parent.parent, m.tests)
                           else "killed")
        print(f"{m.name}: {verdict}")
        if verdict != "killed":
            failures.append(m.name)
    if failures:
        print(f"failed: {', '.join(failures)}")
        return 1
    print(f"all {len(mutants)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
