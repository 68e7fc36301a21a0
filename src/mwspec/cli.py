"""Command-line entry point.

Subcommands:
  gen     write a random validated instance file
  verify  run all checks on an instance file, write a JSON report
  golden  reproduce the embedded 4-vertex example bit-exact

Exit codes: 0 success, 1 mathematical check failure, 2 usage error (bad
arguments, a malformed instance, a negative or non-finite beta, a
--corrupt-d entry outside D, or --mode both on a float instance), 3 I/O
error. `main` is the one place that maps an error to its exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .errors import ConfigError, MwspecError
from .golden import run_golden
from .linalg import Tolerance
from .model import (
    WeightProfile,
    instance_hash,
    parse_instance,
    random_instance,
    serialize_instance,
)
from .verifier import DEFAULT_BETAS, verify_instance

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


def cmd_gen(args) -> int:
    for name, low in (("n", 2), ("s", 1), ("seed", 0)):
        if getattr(args, name) < low:
            raise ConfigError(f"{name} must be >= {low}")
    inst = random_instance(args.n, args.s, args.seed, args.extra_edges,
                           WeightProfile(args.weight_lo, args.weight_hi),
                           rational=(args.scalar_kind == "rational"))
    text = serialize_instance(inst)
    parse_instance(text)    # write nothing that verify would reject
    _atomic_write(args.out, text)
    print(instance_hash(inst))
    return EXIT_OK


def _parse_corrupt(spec: str):
    try:
        i, j, factor = spec.split(",")
        return int(i), int(j), float(factor)
    except ValueError:
        raise ConfigError("--corrupt-d expects 'i,j,factor'") from None


def cmd_verify(args) -> int:
    with open(args.input) as fh:
        text = fh.read()
    inst = parse_instance(text)
    tol = Tolerance(rel_residual=args.rel_residual, eig_zero=args.eig_zero,
                    nonzero_floor=args.nonzero_floor)
    corrupt = None if args.corrupt_d is None else _parse_corrupt(args.corrupt_d)
    mode = args.mode
    if mode is None:
        mode = "both" if inst.tree.is_exact and inst.graph.is_exact else "float"
    betas = args.beta if args.beta else list(DEFAULT_BETAS)
    report = verify_instance(inst, betas, tol, kernel_mode=mode, corrupt=corrupt)
    if args.out:
        _atomic_write(args.out, json.dumps(report.to_json(), indent=2))
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
    p_verify.add_argument("--mode", choices=["float", "both"], default=None)
    p_verify.add_argument("--rel-residual", type=float, default=1e-8)
    p_verify.add_argument("--eig-zero", type=float, default=1e-9)
    p_verify.add_argument("--nonzero-floor", type=float, default=1e-10,
                          help="floor for the P4, COL-SPACE and THM.vi.gx checks")
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
    try:
        return args.func(args)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MwspecError as exc:    # a bad argument or a malformed instance
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
