"""Command-line entry point.

Subcommands:
  gen     write a random validated instance file
  verify  run all checks on an instance file, write a JSON report
  golden  reproduce the embedded 4-vertex example bit-exact

Exit codes: 0 success, 1 mathematical check failure, 2 usage error (bad
arguments, a malformed instance, a negative or non-finite beta, a
--corrupt-d entry outside D, or an exact --mode on a float instance), 3 I/O
error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

from .errors import BadIndexError, ConfigError, MwspecError
from .golden import run_golden
from .linalg import Tolerance
from .model import (
    WeightProfile,
    instance_hash,
    parse_instance,
    random_instance,
    serialize_instance,
)
from .verifier import verify_instance

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _tolerance_from(args) -> Tolerance:
    return Tolerance(
        rel_residual=args.rel_residual,
        eig_zero=args.eig_zero,
        nonzero_floor=args.nonzero_floor,
    )


def cmd_gen(args) -> int:
    if args.n < 2:
        print("error: n must be >= 2", file=sys.stderr)
        return EXIT_USAGE
    if args.s < 1:
        print("error: s must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.seed < 0:
        print("error: seed must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    try:
        profile = WeightProfile(args.weight_lo, args.weight_hi)
        inst = random_instance(
            args.n, args.s, args.seed, args.extra_edges, profile,
            rational=(args.scalar_kind == "rational"),
        )
        text = serialize_instance(inst)
        parse_instance(text)    # write nothing that verify would reject
    except MwspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        _atomic_write(args.out, text)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(instance_hash(inst))
    return EXIT_OK


def _parse_corrupt(spec: str):
    try:
        i, j, factor = spec.split(",")
        return int(i), int(j), float(factor)
    except ValueError:
        return None


def cmd_verify(args) -> int:
    try:
        with open(args.input) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        inst = parse_instance(text)
        tol = _tolerance_from(args)
    except (MwspecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    corrupt = None
    if args.corrupt_d is not None:
        corrupt = _parse_corrupt(args.corrupt_d)
        if corrupt is None:
            print("error: --corrupt-d expects 'i,j,factor'", file=sys.stderr)
            return EXIT_USAGE
    mode = args.mode
    if mode is None:
        mode = "both" if inst.tree.is_exact and inst.graph.is_exact else "float"
    betas = args.beta if args.beta else [0.0, 0.5, 1.0, 10.0]
    bad = [b for b in betas if not (math.isfinite(b) and b >= 0)]
    if bad:
        print(f"error: --beta must be finite and >= 0, got {bad[0]}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        report = verify_instance(inst, betas, tol, kernel_mode=mode, corrupt=corrupt)
    except (BadIndexError, ConfigError) as exc:
        # a --corrupt-d entry outside D, or an exact mode on a float instance
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        try:
            _atomic_write(args.out, json.dumps(report.to_json(), indent=2))
        except OSError as exc:
            print(f"I/O error: {exc}", file=sys.stderr)
            return EXIT_IO
    summary = report.summary
    if report.ok:
        print(f"passed: all ({summary['passed']} checks, "
              f"{summary['skipped']} skipped, {summary['warnings']} warnings)")
        return EXIT_OK
    failing = sorted({c.check_id for c in report.checks
                      if not c.passed and not c.skipped and not c.warning})
    print(f"FAILED: {summary['failed']} checks: {', '.join(failing)}")
    return EXIT_CHECK_FAILED


def cmd_golden(args) -> int:
    result = run_golden(args.mode)
    if result.ok:
        print(f"golden: ok (mode={args.mode})")
        return EXIT_OK
    for line in result.mismatches:
        print(f"golden mismatch: {line}")
    return EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwspec",
        description="Matrix-weighted tree distance matrices and their "
                    "Laplacian-perturbed inverses",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_gen = sub.add_parser("gen", help="generate a random instance file")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--s", type=int, default=2)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--extra-edges", type=int, default=0)
    p_gen.add_argument("--weight-lo", type=float, default=0.1)
    p_gen.add_argument("--weight-hi", type=float, default=10.0)
    p_gen.add_argument("--scalar-kind", choices=["float", "rational"],
                       default="float")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_verify = sub.add_parser("verify", help="verify an instance file")
    p_verify.add_argument("--in", dest="input", required=True)
    p_verify.add_argument("--out")
    p_verify.add_argument("--beta", type=float, action="append", default=None)
    p_verify.add_argument("--mode", choices=["float", "exact", "both"],
                          default=None)
    p_verify.add_argument("--rel-residual", type=float, default=1e-8)
    p_verify.add_argument("--eig-zero", type=float, default=1e-9)
    p_verify.add_argument("--nonzero-floor", type=float, default=1e-10)
    p_verify.add_argument("--corrupt-d", default=None, metavar="i,j,factor",
                          help="negative-control knob: scale one entry of D")
    p_verify.set_defaults(func=cmd_verify)

    p_golden = sub.add_parser("golden", help="reproduce the embedded example")
    p_golden.add_argument("--mode", choices=["float", "exact", "both"],
                          default="both")
    p_golden.set_defaults(func=cmd_golden)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
