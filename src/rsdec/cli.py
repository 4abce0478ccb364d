"""Command-line front end.

Words and polynomials travel in a two-line plain-text format: line one
is the field size q, line two the space-separated residues (ascending
position for words, ascending degree for polynomials). Lines starting
with # are comments.

Exit codes: 0 success, 1 usage or parameter error, 2 decoding failure,
3 equivalence check failed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .code import CodeSpec, Word, corrupt, random_error
from .code import encode as rs_encode
from .equiv import build_B, kernels_equivalent, scaling_map
from .field import Field
from .linalg import nullspace
from .mgs import build_Bbar, mgs_decode
from .montecarlo import ExperimentConfig, run_montecarlo
from .outcome import DecodeOutcome
from .poly import UniPoly
from .virs import block_widths, build_A, virs_decode, virs_radius
from .wb import wb_build, wb_decode


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags, which collides with the
    # decoding-failure code; route usage problems to exit 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"{self.prog}: error: {message}")


def _read_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.readlines()
    return [line.strip() for line in raw if line.strip() and not line.lstrip().startswith("#")]


def decimal_ints(source: str, tokens: Sequence[str]) -> list[int]:
    """The tokens as ints; a token that is not a decimal integer is named by its source."""
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise ValueError(f"{source}: residues must be decimal integers") from None


def check_residues(source: str, residues: Sequence[int], q: int):
    """Reject the first residue outside [0, q), naming it and its position."""
    for i, v in enumerate(residues):
        if not 0 <= v < q:
            raise ValueError(f"{source}: residue {v} at position {i} is outside [0, {q})")


def read_word_file(path: str, k: int = 1) -> tuple[int, list[int]]:
    """(q, residues) of a word file holding at least k residues in [0, q)."""
    lines = _read_lines(path)
    if len(lines) != 2:
        raise ValueError(f"{path}: expected two data lines (q, then residues)")
    q, *residues = decimal_ints(path, [lines[0], *lines[1].split()])
    check_residues(path, residues, q)
    if len(residues) < k:
        raise ValueError(f"{path}: word of length {len(residues)} is too short for k = {k}")
    return q, residues


def write_word(out: str | None, q: int, residues: Sequence[int]):
    text = f"{q}\n{' '.join(str(v) for v in residues)}\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _poly_line(p: UniPoly) -> str:
    if p.is_zero():
        return "0"
    return " ".join(str(c) for c in p.coeffs)


def _report(outcome: DecodeOutcome) -> int:
    if not outcome.success:
        print(f"failure: {outcome.reason}")
        return 2
    print(f"f: {_poly_line(outcome.f)}")
    print(f"lambda: {_poly_line(outcome.locator)}")
    print(f"error_positions: {' '.join(str(i) for i in outcome.error_positions)}".rstrip())
    print(f"corrected: {' '.join(str(v) for v in outcome.corrected.to_ints())}")
    return 0


def _spec_from_word(q: int, residues: Sequence[int], k: int, alpha: int | None) -> tuple[CodeSpec, Word]:
    field = Field(q, alpha)
    spec = CodeSpec(field, len(residues), k)
    return spec, Word.from_ints(field, residues)


def _cmd_encode(args) -> int:
    field = Field(args.q, args.alpha)
    spec = CodeSpec(field, args.n, args.k)
    coeffs = decimal_ints("--f", args.f.replace(",", " ").split())
    check_residues("--f", coeffs, args.q)
    f = UniPoly.from_ints(field, coeffs)
    word = rs_encode(spec, f)
    write_word(args.out, args.q, word.to_ints())
    return 0


def _cmd_corrupt(args) -> int:
    q, residues = read_word_file(args.infile)
    field = Field(q)
    word = Word.from_ints(field, residues)
    if args.e is not None:
        eq, evals = read_word_file(args.e)
        if eq != q:
            raise ValueError("error word lives in a different field")
        error = Word.from_ints(field, evals)
    else:
        # only n and q matter here; dimension 1 is a placeholder
        spec = CodeSpec(field, len(residues), 1)
        error = random_error(spec, args.weight, args.seed)
    write_word(args.out, q, corrupt(word, error).to_ints())
    return 0


def _cmd_decode(args) -> int:
    q, residues = read_word_file(args.infile, args.k)
    spec, word = _spec_from_word(q, residues, args.k, args.alpha)
    s = 1 if args.s is None else args.s
    if args.method == "wb":
        if args.s is not None:
            raise ValueError("--s does not apply to --method wb")
        outcome = wb_decode(spec, word)
    elif args.method == "virs":
        outcome = virs_decode(spec, word, s)
    else:
        outcome = mgs_decode(spec, word, s)
    return _report(outcome)


def _cmd_dump(args) -> int:
    q, residues = read_word_file(args.infile, args.k)
    spec, word = _spec_from_word(q, residues, args.k, args.alpha)
    if args.matrix == "wb":
        if args.tau is not None:
            raise ValueError("--tau does not apply to --matrix wb, whose radius is (n - k) // 2")
        if args.s is not None:
            raise ValueError("--s does not apply to --matrix wb, whose system is B-bar at s = 1")
        matrix = wb_build(spec, word)
    else:
        s = 2 if args.s is None else args.s
        tau = args.tau if args.tau is not None else virs_radius(spec.n, spec.k, s)
        if args.matrix == "A":
            matrix = build_A(spec, word, s, tau)
        elif args.matrix == "Bbar":
            matrix = build_Bbar(spec, word, s, tau).matrix
        else:
            matrix = build_B(spec, word, s, tau)
    for row in matrix.rows:
        print(" ".join(str(v) for v in row))
    return 0


def _cmd_mc(args) -> int:
    if args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = ExperimentConfig.from_json(fh.read())
    csv = run_montecarlo(cfg, threads=args.threads)
    if args.out is None:
        sys.stdout.write(csv)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv)
    return 0


def _cmd_equiv(args) -> int:
    q, residues = read_word_file(args.infile, args.k)
    spec, word = _spec_from_word(q, residues, args.k, args.alpha)
    tau = args.tau if args.tau is not None else virs_radius(spec.n, spec.k, args.s)
    A = build_A(spec, word, args.s, tau)
    system = build_Bbar(spec, word, args.s, tau)
    D = scaling_map(args.s, spec.field)
    widths = block_widths(spec.k, args.s, tau)
    basis_a = nullspace(A)
    ok = kernels_equivalent(A, system.matrix, D, widths, basis_a, nullspace(system.matrix))
    print(f"equivalent: {'true' if ok else 'false'}")
    print(f"nullspace_dim: {len(basis_a)}")
    return 0 if ok else 3


def _add_code_flags(p: argparse.ArgumentParser):
    p.add_argument("--k", type=int, required=True, help="code dimension")
    p.add_argument("--alpha", type=int, default=None, help="primitive element (default: smallest)")


def build_parser() -> _Parser:
    parser = _Parser(prog="rsdec", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="evaluate a message polynomial into a codeword")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=int, default=None)
    p.add_argument("--f", type=str, required=True, help="message coefficients c0,c1,...")
    p.add_argument("-o", "--out", type=str, default=None)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("corrupt", help="add an error word or a random error of given weight")
    p.add_argument("--in", dest="infile", type=str, required=True)
    p.add_argument("--e", type=str, default=None, help="error word file")
    p.add_argument("--weight", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--out", type=str, default=None)
    p.set_defaults(func=_cmd_corrupt)

    p = sub.add_parser("decode", help="decode a received word")
    p.add_argument("--method", choices=("wb", "virs", "mgs"), required=True)
    p.add_argument("--in", dest="infile", type=str, required=True)
    _add_code_flags(p)
    p.add_argument("--s", type=int, default=None, help="interleaving/multiplicity order (default 1; not for wb)")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("dump", help="print a constraint matrix")
    p.add_argument("--matrix", choices=("A", "Bbar", "B", "wb"), required=True)
    p.add_argument("--in", dest="infile", type=str, required=True)
    _add_code_flags(p)
    p.add_argument("--s", type=int, default=None, help="interleaving/multiplicity order (default 2; not for wb)")
    p.add_argument("--tau", type=int, default=None)
    p.set_defaults(func=_cmd_dump)

    p = sub.add_parser("mc", help="run a seeded Monte-Carlo experiment from a JSON config")
    p.add_argument("--config", type=str, required=True)
    p.add_argument("-o", "--out", type=str, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("equiv", help="check the two systems share one solution space")
    p.add_argument("--in", dest="infile", type=str, required=True)
    _add_code_flags(p)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--tau", type=int, default=None)
    p.set_defaults(func=_cmd_equiv)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        if isinstance(err.code, str):
            print(err.code, file=sys.stderr)
            return 1
        return 0 if err.code in (0, None) else 1
    if args.command == "corrupt":
        if args.e is None and (args.weight is None or args.seed is None):
            print("rsdec corrupt: error: need --e or both --weight and --seed", file=sys.stderr)
            return 1
        if args.e is not None and (args.weight is not None or args.seed is not None):
            print("rsdec corrupt: error: --e excludes --weight and --seed", file=sys.stderr)
            return 1
    try:
        return args.func(args)
    except (ValueError, OSError, ZeroDivisionError) as err:
        print(f"rsdec: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
