"""Mutation checks of the test suite, stdlib only.

Each entry of MUTANTS names one exact snippet of one file, its
replacement, and the tests that must fail once it is applied. The script
copies the package, its tests and scripts to a temporary directory, checks
that every named test passes there unmutated, then applies each mutant in
turn and runs only its tests:

    python scripts/mutants.py

A mutant is killed when every test it names fails. A run that outlasts
its time limit is reported as timed out and counts as wrong, not as
killed, so every kill comes from failing tests. The exit status is 1
when a mutant survives any of its tests or times out, when a snippet does
not occur exactly once, or when the unmutated tests fail or time out. An equivalent mutant, one
no test can tell from the original, does not belong in the list: say why
next to the mutant that replaced it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "README.md", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


POLY, LINALG, MGS, OUTCOME = "src/rsdec/poly.py", "src/rsdec/linalg.py", "src/rsdec/mgs.py", "src/rsdec/outcome.py"
BIVARIATE, CODE = "src/rsdec/bivariate.py", "src/rsdec/code.py"
SLOTS = "tests/test_mgs.py::test_slot_reduction_is_exact_on_every_slot_value"
RREF = "tests/test_linalg.py::test_packed_rref_matches_the_list_reduction"
SLOT_SIZE = "tests/test_linalg.py::test_the_update_bound_picks_the_slot_size"
CUT = "tests/test_linalg.py::test_cutting_the_passed_slots_keeps_the_basis"
DENSE_LINALG = "tests/test_linalg.py::test_dense_systems_match_the_list_reduction"
WEAK_POPOV = "tests/test_mgs.py::test_packed_weak_popov_matches_the_list_reduction"
HORNER = "tests/test_code.py::test_encode_matches_horner"
DENSE = "tests/test_keyeq.py::test_decoders_match_the_dense_pipeline"
CSV = "tests/test_montecarlo.py::test_reference_sweep_csv_is_pinned[1]"
DIGEST = "tests/test_scripts.py::test_outcome_digest_is_pinned"
KAPPA = "kappa = top + (q - 1).bit_length()"
SHORT_ROWS = "tests/test_mgs.py::test_short_rows_select_what_the_full_span_selects"
CONCLUDE = "tests/test_mgs.py::test_conclude_accepts_up_to_the_radius_and_no_further"
REENCODE = "tests/test_mgs.py::test_conclude_reencodes_through_the_evaluation_table"

# Each mutant's tests are a few fast ones that kill it, not every test
# that would; a mutant that makes a reduction loop forever must name
# tests that fail without reaching that loop.
MUTANTS = (
    # the slot reduction, `poly.slot_reduction`
    Mutant(
        "slot-width-minus-1", POLY, "(((1 << top) - 1) * m).bit_length(), kappa,",
        "(((1 << top) - 1) * m).bit_length() - 1, kappa,",
        tuple(f"{SLOTS}[{q}]" for q in (2, 3, 5, 17, 257)),
    ),
    Mutant("kappa-minus-1", POLY, KAPPA, KAPPA + " - 1", (f"{SLOTS}[11]", f"{SLOTS}[23]")),
    Mutant(
        "kappa-minus-2", POLY, KAPPA, KAPPA + " - 2",
        (f"{SLOTS}[7]", f"{SLOTS}[11]", f"{SLOTS}[23]", "tests/test_mgs.py::test_slot_reduction_is_exact_at_the_largest_field"),
    ),
    # the dense elimination. The update bound only picks an item size, so
    # one update fewer in it is nearly equivalent: it changes the item only
    # where the bound lies just above 2^16 or 2^32. A fixed 16-bit slot
    # replaces that mutant
    Mutant(
        "dense-slot-fixed-16-bits", LINALG,
        "code = next(c for c in _SLOT_CODES if largest >> 8 * array(c).itemsize == 0)", 'code = "H"',
        (f"{RREF}[257]", f"{SLOT_SIZE}[257-64-8-2-20-32]", f"{SLOT_SIZE}[65521-40-4-3-20-64]"),
    ),
    Mutant(
        "free-column-read-from-the-next-slot", LINALG, "-tail[ncols - 1 - j] % q", "-tail[ncols - 2 - j] % q",
        ("tests/test_linalg.py::test_nullspace_vectors_annihilate",
         "tests/test_linalg.py::test_nullspace_spans_exactly_the_kernel"),
    ),
    Mutant(
        "pivot-row-left-unnormalised", LINALG,
        "work[r] = prow = _pack([v * inv % q for v in _slots(work[r], live, code)], code)", "prow = work[r]",
        (f"{RREF}[5]", "tests/test_linalg.py::test_nullspace_spans_exactly_the_kernel", f"{DENSE_LINALG}[17-16-4-2-6]"),
    ),
    Mutant(
        "cut-the-next-column-too", LINALG, "row & (1 << at) - 1 for", "row & (1 << at - width) - 1 for",
        (f"{CUT}[1]", f"{DENSE_LINALG}[17-16-4-2-6]"),
    ),
    # the module, its reduction and its span
    Mutant(
        "last-generator-block-0-plus-1", MGS, "    G = spec.vanishing.coeffs\n",
        "    last[0] = [(last[0][0] + 1) % q if last[0] else 1] + last[0][1:]\n    G = spec.vanishing.coeffs\n",
        ("tests/test_keyeq.py::test_module_span_is_the_dense_kernel", "tests/test_wb.py::test_decode_error_free_word"),
    ),
    Mutant(
        "interleave-columns-reversed", MGS, "(sh - low) * m + t for", "(sh - low) * m + m - 1 - t for",
        (f"{WEAK_POPOV}[17-16-4-2-weights0]", f"{WEAK_POPOV}[257-128-8-3-weights6]"),
    ),
    Mutant(
        "weak-popov-width-minus-1", MGS, "reduce = slot_reduction(q, (q - 1) ** 2 + q)\n",
        "reduce = slot_reduction(q, (q - 1) ** 2 + q)\n    width -= 1\n",
        (f"{WEAK_POPOV}[17-16-4-2-weights0]", CSV),
    ),
    # the decode's read of the reduced module: the short rows' top two
    # columns. `capped_span` no longer slices the top blocks out of a full
    # row (it is handed the blocks it lays out), so the two span-* mutants
    # of that slice are gone with it; these read the wrong columns instead
    Mutant("read-columns-one-below-the-top", MGS, "(s - 1, s)", "(s - 2, s - 1)", (DENSE, CSV, DIGEST)),
    Mutant("read-bottom-two-columns", MGS, "(s - 1, s)", "(0, 1)", (DENSE, CSV)),
    Mutant("kernel-dim-counts-i-up-to-the-bound", MGS, "sum(bound - d for", "sum(bound - d + 1 for", (DENSE, SHORT_ROWS)),
    Mutant("short-rows-up-to-the-bound", MGS, "if d < bound]", "if d <= bound]", (SHORT_ROWS, DIGEST)),
    Mutant("shortcut-skips-the-monic-scaling", OUTCOME, "[c * inv for c in p]", "list(p)", (SHORT_ROWS,)),
    Mutant("shortcut-with-several-locators", OUTCOME, "if len(tops) == 1:", "if tops:", (SHORT_ROWS, DIGEST)),
    # the evaluation table, k columns, which `encode` reads, and
    # `conclude`'s one comparison of the codeword with r
    Mutant(
        "evaluation-exponents-one-short", POLY,
        "for _ in range(count):\n            self.columns", "for _ in range(count - 1):\n            self.columns",
        (f"{HORNER}[2-1-locators0]", f"{HORNER}[17-8-locators2]", f"{REENCODE}[65521-40-4]"),
    ),
    Mutant(
        "evaluation-slot-width-from-k-minus-1", POLY,
        "(count * (q - 1) ** 2).bit_length()", "((count - 1) * (q - 1) ** 2).bit_length()",
        ("tests/test_code.py::test_an_evaluation_slot_reaches_its_bound", f"{HORNER}[2-1-locators0]"),
    ),
    Mutant(
        "encode-without-degree-check", CODE, "    if f.degree >= spec.k:\n", "    if False:\n",
        ("tests/test_code.py::test_encode_rejects_large_degree",),
    ),
    Mutant(
        "error-positions-where-equal", OUTCOME, "if a != b)", "if a == b)",
        (CONCLUDE, f"{REENCODE}[257-128-8]", "tests/test_mgs.py::test_decode_worked_example"),
    ),
    # the north-star invariants
    Mutant(
        "conclude-accepts-radius-plus-1", OUTCOME, "if len(errors) > tau:", "if len(errors) > tau + 1:",
        (CONCLUDE,),
    ),
    # an error-free word has one short row with a locator, so its decode
    # never reaches `lowest_locator`; the weight-3 words of RS(7,2) s=3
    # with two such rows do
    Mutant(
        "select-highest-degree", OUTCOME, "by_degree[min(by_degree)]", "by_degree[max(by_degree)]",
        ("tests/test_mgs.py::test_select_stack_does_not_depend_on_the_basis",
         "tests/test_virs.py::test_ambiguous_weight3_words_fail_alike", DIGEST),
    ),
    Mutant(
        "scaling-map-sign-flipped", BIVARIATE, "(-1) ** (s - t) * binom_mod", "(-1) ** (s - t + 1) * binom_mod",
        ("tests/test_equiv.py::test_scaling_map_order_two", "tests/test_mgs.py::test_decode_worked_example",
         "tests/test_wb.py::test_decode_error_free_word"),
    ),
    Mutant(
        "factor-without-degree-check", BIVARIATE, "    if f.degree >= k:\n", "    if False:\n",
        ("tests/test_bivariate.py::test_extract_power_factor_degree_violation", DIGEST),
    ),
    Mutant(
        "kernels-equivalent-always", "src/rsdec/equiv.py", "    return canonical == basis_a\n", "    return True\n",
        ("tests/test_equiv.py::test_nullspace_equivalence_detects_corruption",
         "tests/test_acceptance.py::test_criterion_7_nullspace_equivalence"),
    ),
)


def failed_tests(workdir: Path, tests, timeout: float = 60) -> set[str] | None:
    """The named tests that fail in `workdir`, or None if the run outlasts
    `timeout` seconds (a mutant can make a reduction loop forever); raises
    if pytest itself does not run them."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None
    if done.returncode not in (0, 1):
        raise RuntimeError(f"pytest exited {done.returncode}:\n{done.stdout}{done.stderr}")
    return {line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")}


def occurrences(mutant: Mutant) -> int:
    return (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.snippet)


def main() -> int:
    bad = [m.name for m in MUTANTS if occurrences(m) != 1]
    if bad:
        print(f"snippet not found exactly once: {bad}", file=sys.stderr)
        return 1
    start, wrong = time.perf_counter(), 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, work / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, work / name)
        failed = failed_tests(work, sorted({t for m in MUTANTS for t in m.tests}))
        if failed is None:
            print("unmutated tests time out", file=sys.stderr)
            return 1
        if failed:
            print(f"unmutated tests fail: {sorted(failed)}", file=sys.stderr)
            return 1
        for m in MUTANTS:
            target = work / m.path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(m.snippet, m.replacement), encoding="utf-8")
            try:
                failed = failed_tests(work, m.tests)
            finally:
                target.write_text(original, encoding="utf-8")
            if failed is None:
                verdict = "timed out"
            else:
                passed = [t for t in m.tests if t not in failed]
                verdict = f"survived {len(passed)} of {len(m.tests)} tests: {passed}" if passed else "killed"
            wrong += verdict != "killed"
            print(f"{m.name:34} {verdict}")
    print(f"{len(MUTANTS)} mutants, {wrong} wrong, {time.perf_counter() - start:.0f} s")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
