#!/usr/bin/env python3
"""Benchmark for credal: four workloads, end-to-end metrics, a traced run.

    python3 bench/run.py --workload {klm,falsify,project,wide} \\
        --seed N --seconds S --trace {0,1}
    python3 bench/run.py --selfcheck

Run from the repository root.  With ``--trace 0`` the run processes
batches ("rounds") of the workload's items until S seconds have passed,
with credal's caches cleared before each round, and reports the
end-to-end metrics.  With ``--trace 1`` it runs one round untraced in a
child process and the same round traced in this one, and reports the
per-layer metrics.  Both modes check every item against its oracle.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it starting with
``#`` are for people, and ``# record`` carries the run record.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import math
import pkgutil
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed
import tracer as tr

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 5  # child processes timed for setup_s; the median is reported
CHILD_TIMEOUT_S = 150


def _import_credal():
    """Import credal from this checkout and every one of its modules."""
    if not (SRC / "credal" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'credal'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import credal

    if Path(credal.__file__).resolve().parent != (SRC / "credal").resolve():
        sys.exit(f"error: imported credal from {credal.__file__}, not from {SRC}")
    for mod in pkgutil.iter_modules(credal.__path__):
        importlib.import_module(f"credal.{mod.name}")


def _caches():
    """Every lru cache on a credal module (found before any wrapping)."""
    seen = {}
    for m in tr.credal_modules():
        for v in vars(m).values():
            if callable(getattr(v, "cache_clear", None)):
                seen[id(v)] = v
    return list(seen.values())


# Running rounds ----------------------------------------------------------------


class Round:
    """One batch of items, each checked by its oracle and timed.

    `latencies` are at the reference speed measured by the active
    sampler (see speed.py); `wall_s` is the plain wall time of the items.
    """

    def __init__(self, items, sampler, tracer=None):
        spans: list[tuple[float, float]] = []
        between = [sampler.between()]
        self.failed = 0
        h = hashlib.sha256()
        for idx, item in enumerate(items):
            if tracer is not None:
                tracer.item = idx
            t0 = time.perf_counter()
            try:
                verdict = item.run()
            except Exception:  # a failed item is counted and the run goes on
                spans.append((t0, time.perf_counter()))
                self.failed += 1
                verdict = "error"
                if self.failed <= 3:
                    traceback.print_exc(file=sys.stderr)
            else:
                spans.append((t0, time.perf_counter()))
                if not item.check(verdict):
                    self.failed += 1
                    print(f"# check failed: {item.key[:120]} -> {verdict!r:.200}",
                          file=sys.stderr)
            if tracer is not None:
                tracer.item = tr.SETUP_ITEM
            between.append(sampler.between())
            h.update(f"{item.key}={verdict!r}\n".encode())
        self.verdicts = h.hexdigest()[:16]
        self.wall_s = sum(t1 - t0 for t0, t1 in spans)
        self.latencies = sampler.at_reference(spans, between)
        self.groups = [it.key.split("|")[0] for it in items]

    @property
    def items_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def _run_rounds(wl, items, seconds, caches):
    rounds = []
    start = time.perf_counter()
    with speed.Sampler(wl.probe) as sampler:
        while True:
            for c in caches:
                c.cache_clear()
            rounds.append(Round(items, sampler))
            if time.perf_counter() - start >= seconds:
                return rounds
            items = wl.batch(len(rounds))


def _setup_children(args, digest) -> list[float]:
    """Time SETUP_RUNS fresh interpreters from launch to their first item,
    at the reference speed measured by each child right after."""
    out = []
    for _ in range(SETUP_RUNS):
        t0 = time.monotonic()
        child = _child(args, "--setup-only")
        ready = json.loads(child.stdout.strip().splitlines()[-1])
        if ready["digest"] != digest:
            raise RuntimeError(f"setup child built items {ready['digest']}, expected {digest}")
        out.append((ready["ready"] - t0) * ready["scale"])
    return out


def _child(args, *extra):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)


# Record -----------------------------------------------------------------------


def _commit() -> str:
    """HEAD of this checkout, or "unknown" outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def _record(args, wl, rounds, extra) -> dict:
    import numpy

    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "credal").glob("*.py"))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "src_credal_lines": lines, "worlds": wl.worlds,
        "rounds": [{"items": len(r.latencies), "item_s": sum(r.latencies), "wall_s": r.wall_s,
                    "failed": r.failed, "verdicts": r.verdicts} for r in rounds],
        "groups": _groups(rounds),
        **extra,
    }


def _groups(rounds) -> dict:
    """Item count, total and median time (reference speed) per item group."""
    by: dict[str, list[float]] = {}
    for r in rounds:
        for g, t in zip(r.groups, r.latencies):
            by.setdefault(g, []).append(t)
    return {g: {"items": len(ts), "item_s": sum(ts), "p50_ms": 1e3 * statistics.median(ts)}
            for g, ts in sorted(by.items())}


def _emit(record, attempted, failed, correct, metrics, units):
    print("# record " + json.dumps(record, sort_keys=True))
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))


def _quantile(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# Modes -------------------------------------------------------------------------


def run_untraced(args) -> int:
    from workloads import WORKLOADS, items_digest

    wl = WORKLOADS[args.workload](args.seed)
    items = wl.batch(0)
    digest = items_digest(items)
    if args.setup_only:
        ready = time.monotonic()
        probe, reference_s = speed.PROBES[wl.probe]
        scale = reference_s / statistics.median(probe() for _ in range(15))
        print(json.dumps({"ready": ready, "digest": digest, "scale": scale}))
        return 0
    setups = [] if args.no_setup else _setup_children(args, digest)
    rounds = _run_rounds(wl, items, args.seconds, _caches())

    latencies = [t for r in rounds for t in r.latencies]
    attempted = len(latencies)
    failed = sum(r.failed for r in rounds)
    metrics = {
        "items_per_s": attempted / sum(latencies),
        "item_p50_ms": 1e3 * _quantile(latencies, 0.5),
        "item_p90_ms": 1e3 * _quantile(latencies, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    units = {"items_per_s": "1/s", "item_p50_ms": "ms", "item_p90_ms": "ms", "setup_s": "s",
             "peak_rss_mb": "MB", "ok_ratio": "ratio"}
    record = _record(args, wl, rounds, {
        "generation_digest": digest, "setup_runs_s": setups,
        "p90_samples_beyond": attempted - math.ceil(0.9 * attempted),
        "failed_ratio": failed / attempted})
    _emit(record, attempted, failed, failed == 0, metrics, units)
    return 0


def run_traced(args) -> int:
    from workloads import WORKLOADS, items_digest

    child = _child(args, "--trace", "0", "--seconds", "0", "--no-setup")
    ref = next(json.loads(line[len("# record "):]) for line in child.stdout.splitlines()
               if line.startswith("# record "))
    ref_round = ref["rounds"][0]

    caches = _caches()
    tracer = tr.Tracer()
    tracer.install()
    problems = [f"unwrapped binding {b}" for b in tracer.unwrapped_bindings()]
    for c in caches:
        c.cache_clear()
    wl = WORKLOADS[args.workload](args.seed)
    items = wl.batch(0)
    digest = items_digest(items)
    if digest != ref["generation_digest"]:
        problems.append(f"traced run built items {digest}, untraced {ref['generation_digest']}")
    for c in caches:
        c.cache_clear()
    with speed.Sampler(wl.probe) as sampler:
        rnd = Round(items, sampler, tracer)
    if rnd.verdicts != ref_round["verdicts"]:
        problems.append(f"traced verdicts {rnd.verdicts} differ from untraced "
                        f"{ref_round['verdicts']}")

    metrics = tracer.layer_metrics()
    info = tracer.originals["constraints.to_dnf"].cache_info()
    lookups = info.hits + info.misses
    metrics["constraints.to_dnf.hit_ratio"] = info.hits / lookups if lookups else 0.0
    metrics["trace.overhead_ratio"] = rnd.items_per_s / (
        ref_round["items"] / ref_round["item_s"])
    names = tr.per_layer_names()
    metrics = {n: metrics[n] for n in names}
    units = {n: ("count" if n.endswith((".calls", ".cycles")) else
                 "s" if n.endswith(".self_s") else
                 "vars" if n.endswith(".mean_vars") else "ratio") for n in names}

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}.npz"
    tracer.write(spans_path)
    for p in problems:
        print(f"# self-check failed: {p}", file=sys.stderr)
    record = _record(args, wl, [rnd], {"generation_digest": digest, "spans": len(tracer.starts),
                                      "spans_file": str(spans_path.relative_to(ROOT)),
                                      "untraced_round": ref_round, "self_check": problems})
    _emit(record, len(rnd.latencies), rnd.failed, rnd.failed == 0 and not problems,
          metrics, units)
    return 0


def run_selfcheck() -> int:
    """Deterministic generation and the project quota, over several seeds."""
    from workloads import WORKLOADS, Project, items_digest

    ok = True
    for name, cls in WORKLOADS.items():
        a, b, c = (items_digest(cls(s).batch(0)) for s in (1, 1, 2))
        same = a == b and a != c
        ok &= same
        print(f"{name}: seed 1 -> {a} twice, seed 2 -> {c}: {'ok' if same else 'FAILED'}")
    for seed in range(1, 11):
        items = Project(seed).batch(0)
        marked = [it for it in items if it.key.split("|")[0] == "boundary"]
        quota = len(marked) == 2 * Project.boundary_triples
        ok &= quota
        print(f"project seed {seed}: {len(marked)} of {len(items)} items boundary: "
              f"{'ok' if quota else 'FAILED'}")
    # the generator's own boundary share, for the record
    for seed in range(1, 6):
        rng, drawn, boundary = random.Random(seed), 0, 0
        while drawn < 400:
            triple = Project._draw(rng, force_and=False)
            if triple is None:
                continue
            drawn += 1
            boundary += Project.is_boundary(triple[3], triple[0])
        print(f"natural generator seed {seed}: {boundary} of {drawn} triples boundary "
              f"({100 * boundary / drawn:.2f}%)")
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("klm", "falsify", "project", "wide"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="check deterministic generation and the project quota")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--no-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")
    _import_credal()
    if args.selfcheck:
        return run_selfcheck()
    if args.trace:
        return run_traced(args)
    return run_untraced(args)


if __name__ == "__main__":
    sys.exit(main())
