#!/usr/bin/env python3
"""mmtensor benchmark: the construct, analyze and multiply workloads.

    python3 bench/run.py --workload construct --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --smoke

Each workload runs in its own process with one client and no threads, in a
closed loop: op i+1 starts after op i has returned and its outputs have been
checked.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  ``--smoke`` runs one timed op.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Op times are in ref_ms: see NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from tracing import LAYERS, Tracer
from workloads import BASES, KINDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
HELDOUT_SEED = 7919
SETUP_PROBES = 3

# The reference kernel's median wall time on the machine that fixed the ref_ms
# scale: a 2-vCPU x86-64 Linux VM under CPython 3.11.
REF_MS = 12.0
_REF = [[Fraction((7 * i + 3 * j) % 19 - 9, 1 + (i + j) % 5) for j in range(9)]
        for i in range(9)]


def reference_kernel() -> float:
    """Seconds for a fixed pure-Fraction workload that mmtensor never runs.

    Op times are scaled by REF_MS over this kernel's time next to the op, so
    that changes in the machine's speed cancel out of the reported figures.
    """
    t0 = time.perf_counter()
    cols = list(zip(*_REF))
    for _ in range(4):
        [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols]
         for row in _REF]
    return time.perf_counter() - t0


def src_loc() -> int:
    return sum(len(p.read_text().splitlines())
               for p in (SRC / "mmtensor").glob("*.py"))


def tail(values):
    """(percentile, value): the highest percentile with at least 10 values
    above it; the median when fewer than 21 values leave none above p50."""
    v = sorted(values)
    n = len(v)
    if n < 21:
        return 50.0, statistics.median(v)
    return 100.0 * (n - 10) / n, v[n - 11]


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


# -- one workload, in this process --------------------------------------------

def warm_up(wl):
    """One untimed op, so that lazy set-up and caches are done."""
    for _kind, _name, _tag, call in wl.calls(0):
        call()


def timed(call, ref_before: float, tracer=None, name="", tag=""):
    """Run one call, then sample the reference kernel.

    Returns (output, ref_ms, self ref_ms per span name, the new reference
    sample).  The call's wall time is scaled by REF_MS over the mean of the
    reference samples on either side of it.
    """
    first = len(tracer.start) if tracer else 0
    t0 = time.perf_counter()
    if tracer:
        with tracer.span(name, tag):
            out = call()
    else:
        out = call()
    wall = time.perf_counter() - t0
    ref_after = reference_kernel()
    scale = 2.0 * REF_MS / (ref_before + ref_after)  # seconds -> ref_ms
    layer = ({k: v * scale for k, v in
              tracer.self_times(first, len(tracer.start)).items()}
             if tracer else {})
    return out, wall * scale, layer, ref_after


def setup_probe(name: str, seed: int):
    """Child side of a setup_s sample.

    Prints "start" at once.  Then, after generating the inputs (not
    counted), it times ``Workload.setup`` (``import mmtensor`` and the
    fixture parse) and each call of one warm-up op like op calls, scaled to
    the reference speed, and prints "ready <their sum in seconds>".
    """
    print("start", flush=True)
    workdir = WORK / f"probe-{name}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[name](seed, workdir)
        ref = reference_kernel()
        _, ms, _, ref = timed(wl.setup, ref)
        for _kind, _name, _tag, call in wl.calls(0):
            _, call_ms, _, ref = timed(call, ref)
            ms += call_ms
        print(f"ready {ms / 1000.0!r}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(name: str, seed: int, probes: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to ready, once per probe:
    the wall time until the child prints "start", plus the child's own
    setup time at the reference speed.  Input generation is not counted."""
    samples = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(HERE / "run.py"), "--setup-probe",
                 "--workload", name, "--seed", str(seed)],
                stdout=subprocess.PIPE, text=True) as proc:
            started = proc.stdout.readline() == "start\n"
            start_s = time.perf_counter() - t0
            ready = proc.stdout.readline().split()
            proc.stdout.read()
        if proc.returncode != 0 or not started or ready[:1] != ["ready"]:
            raise RuntimeError(f"setup probe for {name} failed")
        samples.append(start_s + float(ready[1]))
    return samples


@dataclass
class Op:
    """One checked op; every time is in ref_ms."""

    traced: bool
    parts: list[tuple[str, str, float]]  # (entry kind, span tag, ref_ms)
    layer_ms: dict[str, float]  # self time per span name, traced ops only
    counts: dict[str, int]      # calls and term counts, traced ops only
    schoolbook_ms: float | None

    @property
    def ms(self) -> float:
        return sum(ms for _, _, ms in self.parts)

    def kind_ms(self, kind: str) -> float:
        return sum(ms for k, _, ms in self.parts if k == kind)


def measure(wl, seconds: float, max_ops: int | None, tracer):
    """The closed loop; returns (checked ops, failure messages, attempted).

    With a tracer, every second op is traced.
    """
    ops, failures = [], []
    ref = reference_kernel()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.counters.clear()
            first = len(tracer.start)
            tracer.install()
        outputs, parts, layer_ms = defaultdict(list), [], defaultdict(float)
        error = schoolbook_ms = None
        try:
            for kind, name, tag, call in wl.calls(i):
                out, ms, layer, ref = timed(call, ref,
                                            tracer if traced else None,
                                            name, tag)
                outputs[kind].append(out)
                parts.append((kind, tag, ms))
                for k, v in layer.items():
                    layer_ms[k] += v
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if traced:
                tracer.uninstall()
        schoolbook = getattr(wl, "schoolbook", None)
        if tracer is not None and not traced and error is None and schoolbook:
            _, schoolbook_ms, _, ref = timed(schoolbook(i), ref)
        for kind in KINDS:
            if error is not None:
                break
            try:
                error = wl.check(i, kind, outputs[kind])
            except Exception as exc:  # a failed check is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"op {i}: {error}")
        else:
            counts = {}
            if traced:
                counts = dict(tracer.calls(first, len(tracer.start)))
                counts.update(tracer.counters)
            ops.append(Op(traced, parts, layer_ms, counts, schoolbook_ms))
        i += 1
        if max_ops is not None and i >= max_ops:
            break
        if max_ops is None and time.perf_counter() >= deadline:
            break
    return ops, failures, i


def end_to_end(ops: list[Op], setup: list[float]):
    ms = [op.ms for op in ops]
    pct, tail_ms = tail(ms)
    by_kind = {k: [op.kind_ms(k) for op in ops] for k in KINDS}
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_ms": (statistics.median(ms), "ref_ms"),
        "op_tail_ms": (tail_ms, "ref_ms"),
        "int_op_p50_ms": (statistics.median(by_kind["int"]), "ref_ms"),
        "frac_op_p50_ms": (statistics.median(by_kind["frac"]), "ref_ms"),
        "ops_per_s": (1000.0 * len(ms) / sum(ms), "1/ref_s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes, "
                   f"at the reference speed",
        "op_tail_ms": f"p{pct:.1f} of {len(ms)} ops",
        "int_op_p50_ms": "the int half of each op",
        "frac_op_p50_ms": "the frac half of each op",
    }
    return metrics, notes


def per_layer(wl, ops: list[Op]):
    """Mean per traced op of self times and counts, plus the exact counts."""
    traced = [op for op in ops if op.traced]
    untraced = [op for op in ops if not op.traced]
    layer, counts = defaultdict(float), defaultdict(float)
    for op in traced:
        for name, ms in op.layer_ms.items():
            layer[name] += ms / len(traced)
        for name, c in op.counts.items():
            counts[name] += c / len(traced)

    def total(prefix):
        return sum(v for k, v in layer.items()
                   if k == prefix or k.startswith(prefix + "."))

    m = {f"{name}.self_ms": (total(name), "ref_ms") for name in LAYERS}
    for base in BASES:
        for kind in KINDS:
            key = f"codegen.recursive_multiply.{base}.{kind}.self_ms"
            m[key] = (layer[key.removesuffix(".self_ms")], "ref_ms")
    for key in ("matrix.matmul.calls", "isotropy.act.calls",
                "constructions.merge_shared_factors.terms_in",
                "constructions.merge_shared_factors.terms_out"):
        m[key] = (counts[key.removesuffix(".calls")], "count")
    for mod in ("constructions", "isotropy", "tensor", "transforms",
                "tensorfile", "codegen", "matrix"):
        m[f"layer.{mod}.self_ms"] = (total(mod), "ref_ms")
    school = median_or_zero([op.schoolbook_ms for op in untraced
                             if op.schoolbook_ms is not None])
    m["matrix.schoolbook_ms"] = (school, "ref_ms")
    exact = wl.exact_counts()
    for base in BASES:
        scalars, additions = exact.get(base, (0, 0))
        m[f"codegen.scalar_multiplications.{base}"] = (scalars, "count")
        m[f"codegen.op_count.additions.{base}"] = (additions, "count")
        base_ms = median_or_zero([
            sum(ms for _, tag, ms in op.parts if tag.startswith(base + "."))
            for op in untraced] if base in exact else [])
        m[f"codegen.{base}.vs_schoolbook"] = (
            base_ms / school if school else 0.0, "x")
    untraced_p50 = median_or_zero([op.ms for op in untraced])
    m["trace.overhead_ratio"] = (
        median_or_zero([op.ms for op in traced]) / untraced_p50
        if untraced_p50 else 0.0, "x")
    return m


def run_workload(args) -> int:
    smoke = args.smoke
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{time.monotonic_ns()}"
    workdir.mkdir()
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        print(f"workload {args.workload} seed {args.seed} "
              f"seconds {args.seconds} trace {args.trace}"
              f"{' smoke' if smoke else ''}")
        print(f"inputs sha256 {wl.digest} (held-out seed for claim checks: "
              f"{HELDOUT_SEED})")
        print(f"src_loc {src_loc()} lines (information only)")
        setup = ([] if args.trace else
                 measure_setup(args.workload, args.seed,
                               1 if smoke else SETUP_PROBES))
        wl.setup()
        warm_up(wl)
        tracer = Tracer() if args.trace else None
        ops, failures, attempted = measure(
            wl, args.seconds, (2 if args.trace else 1) if smoke else None,
            tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for f in failures:
        print(f"FAILED {f}")
    failed = len(failures)
    print(f"fail_ratio {failed / attempted} ({failed}/{attempted} ops)")
    if not ops:
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    if args.trace:
        metrics, notes = per_layer(wl, ops), {}
        out = WORK.parent / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}-{args.seed}.jsonl.gz")
    else:
        metrics, notes = end_to_end(ops, setup)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value!r} {unit}{note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; the last line joins their results."""
    results, code = {}, 0
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke
                                               else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines else None
        code = code or proc.returncode
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["construct", "analyze", "multiply", "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one timed op (two when traced), one setup probe")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "mmtensor" / "__init__.py").is_file():
        print(f"error: no mmtensor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
