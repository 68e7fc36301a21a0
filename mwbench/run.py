"""mwspec benchmark: one workload per process, results as one JSON line.

    python3 mwbench/run.py --workload verify-large --seed 1 --seconds 20 --trace 0

With --trace 0 the last stdout line holds the end-to-end metrics
(setup_s, instances_per_ref, peak_rss_mb); with --trace 1 it holds the
per-layer metrics of a traced run.  The line before it records the raw
instances_per_s, per-round times, the environment and the run's verdict
digest.  The exit code is 0 only when every instance passed the workload's
gate, 1 when one did not, 2 when the benchmark cannot run.  See
mwbench/README.md.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before numpy or mwspec load

import os  # noqa: E402
import sys  # noqa: E402

# One BLAS thread, fixed before numpy loads: on a machine with few cores,
# BLAS threads competing for them would dominate the spread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import fnmatch  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SEEDS_FILE = BENCH_DIR / "seeds.json"
SETUP_CHILDREN = 6          # extra fresh processes timed for setup_s
MIN_ROUNDS = 3

# (metric, what to aggregate, fnmatch pattern over traced names)
PER_LAYER = (
    ("verifier.build_matrices.s", "self", "verifier.build_matrices"),
    ("verifier.verify_preliminaries.s", "self", "verifier.verify_preliminaries"),
    ("verifier.verify_theorem.s", "self", "verifier.verify_theorem"),
    ("verifier.verify_fiedler_markham.s", "self", "verifier.verify_fiedler_markham"),
    ("verifier.verify_exact_consistency.s", "self", "verifier.verify_exact_consistency"),
    ("verifier.verify_instance.s", "self", "verifier.verify_instance"),
    ("perturbation.perturbed_pencil.calls", "calls", "perturbation.perturbed_pencil"),
    ("perturbation.perturbed_pencil.s", "self", "perturbation.perturbed_pencil"),
    ("perturbation.principal_block_submatrix.calls", "calls",
     "perturbation.principal_block_submatrix"),
    ("perturbation.principal_block_submatrix.s", "self",
     "perturbation.principal_block_submatrix"),
    ("perturbation.haynsworth_check.s", "self", "perturbation.haynsworth_check"),
    ("perturbation.gx_matrix.calls", "calls", "perturbation.gx_matrix"),
    ("linalg.inertia_of.calls", "calls", "linalg.inertia_of"),
    ("linalg.inertia_of.s", "self", "linalg.inertia_of"),
    ("linalg.rank_of.calls", "calls", "linalg.rank_of"),
    ("linalg.rank_of.s", "self", "linalg.rank_of"),
    ("linalg.is_pd_quadratic_form.calls", "calls", "linalg.is_pd_quadratic_form"),
    ("linalg.is_pd_quadratic_form.s", "self", "linalg.is_pd_quadratic_form"),
    ("linalg.pinv_psd.s", "self", "linalg.pinv_psd"),
    ("lapack.calls", "calls", "lapack.*"),
    ("lapack.s", "self", "lapack.*"),
    ("kernels.distance_fill.s", "self", "kernels.distance_fill"),
    ("operators.build_distance_matrix.s", "self", "operators.build_distance_matrix"),
    ("operators.distance_inverse_closed_form.s", "self",
     "operators.distance_inverse_closed_form"),
    ("operators.build_laplacian.s", "self", "operators.build_laplacian"),
    ("operators.distance_from_laplacian_pinv.s", "self",
     "operators.distance_from_laplacian_pinv"),
    ("operators.exact.s", "self", "operators.*_exact"),
    ("exact.rational_invert.calls", "calls", "exact.rational_invert"),
    ("exact.rational_invert.s", "self", "exact.rational_invert"),
    ("exact.rat_to_float.s", "self", "exact.rat_to_float"),
    ("model.random_instance.s", "self", "model.random_instance"),
    ("model.instance_hash.calls", "calls", "model.instance_hash"),
    ("model.instance_hash.s", "self", "model.instance_hash"),
    ("model.parse_instance.s", "self", "model.parse_instance"),
    ("cli.main.s", "self", "cli.*"),
)
UNITS = {"self": "s/inst", "calls": "calls/inst"}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, failed child)."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="tiny inputs, for the smoke test; no share or seed gates")
    p.add_argument("--corrupt", action="store_true",
                   help="negative control: corrupt one instance per round")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_program():
    """Import mwspec from this checkout's src/, never from site-packages."""
    if not (SRC / "mwspec" / "__init__.py").is_file():
        raise BenchError(f"mwspec sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import mwspec

    if Path(mwspec.__file__).resolve().parent != SRC / "mwspec":
        raise BenchError(f"imported mwspec from {mwspec.__file__}, not {SRC}")


def set_up(args, workdir):
    """Import, input generation and a warm-up instance; returns the workload."""
    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed, args.toy, args.corrupt, workdir)
    wl.warm_up()
    return wl


def child_setup_times(args) -> list[float]:
    """Set-up time of SETUP_CHILDREN fresh processes, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.toy:
        cmd.append("--toy")
    times = []
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise BenchError(f"set-up child failed: {done.stderr.strip()[-500:]}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def scaled_setup(seconds: float) -> float:
    """Set-up seconds at the probe's nominal speed, so that the VM's drift
    between runs minutes apart does not read as a set-up regression."""
    from probe import REF_NOMINAL_S, reference

    return seconds * REF_NOMINAL_S / reference()


def measure(wl, seconds: float, tracer=None) -> list[dict]:
    """Timed rounds until `seconds` are used, each with its own probe sampler.

    With a tracer, rounds alternate untraced and traced, so both see the
    same machine drift.
    """
    from probe import Sampler

    rounds = []
    deadline = time.perf_counter() + seconds
    min_rounds = MIN_ROUNDS + (tracer is not None)
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        sampler = Sampler()
        if traced:
            tracer.install(sampler.work_clock)
        try:
            with sampler:
                start = sampler.work_clock()
                raw = wl.run_round()
                elapsed = sampler.work_clock() - start
        finally:
            if traced:
                tracer.uninstall()
        rounds.append({"s": elapsed, "ref": sampler.ref_s(), "traced": traced,
                       "outcomes": wl.check_round(raw)})
        del raw  # free this round's outputs before the next round allocates its own
        typical = statistics.median(r["s"] for r in rounds)
        if len(rounds) >= min_rounds and time.perf_counter() + typical > deadline:
            return rounds


def recorded_digest(args) -> str | None:
    if args.toy or args.corrupt:
        return None
    seeds = json.loads(SEEDS_FILE.read_text()).get(args.workload, {})
    return {seeds.get("default_seed"): seeds.get("default_digest"),
            seeds.get("held_out_seed"): seeds.get("held_out_digest")}.get(args.seed)


def gate(args, rounds) -> tuple[str, list[str]]:
    """The run's verdict digest, and every reason it is not correct."""
    from workloads import digest

    problems = []
    for k, r in enumerate(rounds):
        for i, o in enumerate(r["outcomes"]):
            problems += [f"round {k} instance {i}: {p}" for p in o.problems]
    digests = {digest(r["outcomes"]) for r in rounds}
    if len(digests) != 1:
        problems.append(f"rounds disagree on the verdict digest: {sorted(digests)}")
    first = digest(rounds[0]["outcomes"])
    want = recorded_digest(args)
    if want is not None and first != want:
        problems.append(f"verdict digest {first} differs from the recorded {want}")
    return first, problems


def instances_per_s(rounds) -> tuple[float, str]:
    """Raw throughput: median over rounds.  It moves with the VM's speed, so
    it is printed but carries no bound."""
    return statistics.median(len(r["outcomes"]) / r["s"] for r in rounds), "1/s"


def end_to_end(rounds, setup_times) -> dict:
    per_ref = [len(r["outcomes"]) / r["s"] * r["ref"] for r in rounds]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "instances_per_ref": (statistics.median(per_ref), "instances/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(wl, tracer, rounds, toy: bool) -> tuple[dict, list[str], dict]:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    count = sum(len(r["outcomes"]) for r in traced)
    wall = sum(r["s"] for r in traced)
    totals = tracer.totals()

    def total(field, pattern):
        return sum(row[field] for name, row in totals.items()
                   if fnmatch.fnmatchcase(name, pattern))

    metrics = {m: (total(field, pat) / count, UNITS[field]) for m, field, pat in PER_LAYER}
    metrics["lapack.cubic_work"] = (tracer.cubic_work / count, "dim3/inst")
    metrics["ref_s"] = (statistics.median(r["ref"] for r in rounds), "s")
    metrics["instances_per_s"] = instances_per_s(plain)
    metrics["trace_overhead"] = (
        statistics.median(r["s"] / r["ref"] for r in traced)
        / statistics.median(r["s"] / r["ref"] for r in plain), "ratio")

    problems = [f"traced run never called {pat}" for pat in wl.required
                if total("calls", pat) == 0]
    shares = {}
    for names, low, high in wl.shares:
        share = sum(total("incl", n) for n in names) / wall
        shares["+".join(names)] = round(share, 4)
        if not toy and not low <= share <= high:
            problems.append(f"{'+'.join(names)} holds {share:.1%} of round time, "
                            f"outside [{low:.0%}, {high:.0%}]")
    return metrics, problems, shares


def environment() -> dict:
    import platform

    import numpy

    from mwspec import kernels

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "numba_imports": numba_imports,
        "NUMBA_ENABLED": kernels.NUMBA_ENABLED,
        "distance_fill_path": "numba" if kernels.NUMBA_ENABLED else "numpy",
        "MWSPEC_NO_NUMBA": os.environ.get("MWSPEC_NO_NUMBA"),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run(args, workdir) -> int:
    wl = set_up(args, workdir)
    setup_main = scaled_setup(time.perf_counter() - T0)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_main}))
        return 0
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer("mwspec", wl.root)
    else:
        setup_times = [setup_main] + child_setup_times(args)
    rounds = measure(wl, args.seconds, tracer)
    digest, problems = gate(args, rounds)
    info = {"workload": wl.name, "seed": args.seed, "rounds": len(rounds),
            "round_s": [round(r["s"], 4) for r in rounds],
            "ref_s": [round(r["ref"], 5) for r in rounds],
            "digest": digest, "environment": environment()}
    if tracer is None:
        metrics = end_to_end(rounds, setup_times)
        info["instances_per_s"] = dict(zip(("value", "unit"), instances_per_s(rounds)))
    else:
        metrics, trace_problems, info["shares"] = per_layer(wl, tracer, rounds, args.toy)
        problems += trace_problems
        out_dir = ROOT / ".mwbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(str(out_dir / f"spans-{wl.name}.jsonl"))
    for p in problems[:20]:
        print(f"gate: {p}", file=sys.stderr)
    info["problems"] = len(problems)
    print(json.dumps(info))
    outcomes = [o for r in rounds for o in r["outcomes"]]
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = ROOT / ".mwbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        return run(args, str(workdir))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
