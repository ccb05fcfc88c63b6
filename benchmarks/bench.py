#!/usr/bin/env python3
"""minksurf benchmark: the export, transport and verify workloads.

    python3 benchmarks/bench.py --workload export --seed 1 --seconds 10 --trace 0
    python3 benchmarks/bench.py --workload all --seed 1 --seconds 10

Each workload runs in its own process as a closed loop: one job at a time,
no threads or processes of its own, BLAS pinned to one thread.  A run

1. imports numpy and minksurf from ``src/`` of this checkout;
2. sets up (configs, warm-up jobs at n=21, the verify fixtures) as often as
   ``SETUP_PASSES`` says and keeps the last pass;
3. runs whole passes over the workload's jobs ("cycles") until ``--seconds``
   have passed and at least ``MIN_CYCLES`` are done, checking every job;
4. prints a summary and, as its last line, one JSON result.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
cycles untraced and then traced (the difference is the tracing overhead),
adds the n in {81, 161, 321} scaling sweep, and reports per-layer metrics
taken by ``tracer.py``.  Details (drawn inputs, per-job times, output
sha256, spans) go to ``.bench_out/``.  See README.md.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("export", "transport", "verify")
# The verify fixtures take ~14 s to build, so that set-up runs once.
SETUP_PASSES = {"export": 3, "transport": 3, "verify": 1}
# Every job is timed at least twice, so each job's median is of the same
# form in every run (an export or transport cycle takes ~13-20 s).
MIN_CYCLES = 2
SIZE = 321
TRANSPORT_SIZES = (161, 321)
WARMUP_SIZE = 21
SWEEP_SIZES = (81, 161, 321)
SMOKE_SIZE = 21

END_TO_END = (("nodes_per_s", "nodes/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
LAYERS = ("cli", "config", "domain", "expr", "forms", "integrate", "surfaces",
          "verify", "fd", "meshout")
SWEEP_METRICS = (("quadric", "surfaces.quadric"), ("uy_perturb", "surfaces.uy_perturb"),
                 ("lw", "surfaces.lw"), ("obj", "meshout.export"), ("csv", "meshout.csv"))
# per-cycle self seconds: metric -> span names
SELF_TIMES = {
    "meshout.project_s": ("meshout.project",),
    "meshout.triangulate_s": ("meshout.triangulate",),
    "meshout.obj_s": ("meshout.obj",),
    "meshout.ply_s": ("meshout.ply",),
    "meshout.csv_s": ("meshout.csv",),
    "meshout.report_s": ("meshout.report",),
    "meshout.export_s": ("meshout.export",),
    "integrate.transport_s": ("integrate.transport",),
    "integrate.quadrature_s": ("integrate.quadrature",),
    "integrate.iteration_law_s": ("integrate.iteration_law",),
    "expr.parse_s": ("expr.parse",),
    "expr.differentiate_s": ("expr.differentiate",),
    "expr.evaluate_s": ("expr.evaluate",),
    "forms.build_xi_s": ("forms.build_xi",),
    "domain.sample_s": ("domain.sample",),
    "surfaces.affine_s": ("surfaces.affine",),
    "surfaces.quadric_s": ("surfaces.quadric",),
    "surfaces.uy_perturb_s": ("surfaces.uy_perturb",),
    "surfaces.lw_s": ("surfaces.lw",),
    "verify.verify_s": ("verify.verify_surface", "verify.first_form"),
    "fd.stencil_s": ("fd.stencil",),
    "config.load_s": ("config.load",),
    "cli.self_s": ("cli.main",),
}
# per-cycle counts: metric -> (tracer table, key)
COUNTS = {
    "meshout.bytes_written": ("harness", "bytes_written"),
    "meshout.vertices": ("counts", "meshout.vertices"),
    "meshout.faces": ("counts", "meshout.faces"),
    "integrate.transport_calls": ("calls", "integrate.transport"),
    "integrate.frame_edges": ("counts", "integrate.frame_edges"),
    "expr.evaluate_calls": ("calls", "expr.evaluate"),
    "expr.points_evaluated": ("counts", "expr.points_evaluated"),
    "verify.nodes_gated": ("counts", "verify.nodes_gated"),
    "fd.stencil_calls": ("calls", "fd.stencil"),
}


def per_layer_names():
    """Every per-layer metric with its unit, in report order."""
    names = [(m, "s") for m in SELF_TIMES]
    names += [(m, "bytes" if m.endswith("bytes_written") else "count") for m in COUNTS]
    names += [("integrate.det_drift_max", "1/length"), ("surfaces.masked_share", "ratio"),
              ("verify.first_form_calls", "count"), ("trace.overhead_s", "s"),
              ("trace.overhead_share", "ratio")]
    names += [(f"share.{layer}", "ratio") for layer in LAYERS]
    names += [(f"sweep.n{n}.{short}_s", "s") for n in SWEEP_SIZES for short, _ in SWEEP_METRICS]
    return names


# -- metadata ---------------------------------------------------------------

def git_commit():
    """HEAD of the checkout read from .git without starting git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args, inputs):
    import numpy
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "inputs": {"c": inputs.c, "a": inputs.a, "eta": inputs.eta,
                   "omega": inputs.omega, "phi_critical": inputs.phi_critical},
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
        "git_commit": git_commit(), "src_lines": src_lines,
        "machine": platform.machine(),
    }


# -- running jobs -----------------------------------------------------------

class Runner:
    """Executes jobs one at a time, timing the call and recording the check."""

    def __init__(self):
        self.records = []
        self.clock = time.perf_counter

    def execute(self, job, phase, tracer=None, keep=False):
        """Run and check one job; returns its output when ``keep``."""
        gc.collect()
        errors = []
        out = None
        start = self.clock()
        try:
            if tracer is None:
                out = job.run()
            else:
                with tracer.span("job", job=f"{phase}:{job.name}-n{job.n}"):
                    out = job.run()
        except Exception:  # a job that raises is a failed job, not a crashed run
            errors.append("raised: " + traceback.format_exc(limit=3).strip())
        seconds = self.clock() - start
        if not errors:
            try:
                errors = list(job.check(out))
            except Exception:
                errors.append("check raised: " + traceback.format_exc(limit=3).strip())
        self.records.append({"phase": phase, "job": job.name, "n": job.n,
                             "nodes": job.nodes, "seconds": seconds,
                             "errors": errors, **job.info})
        return out if keep and not errors else None

    def cycles(self, jobs, seconds, phase, tracer=None, count=None, at_least=1):
        """Whole passes over jobs: ``count`` of them, or until ``seconds`` have
        passed and at least ``at_least`` are done."""
        start = self.clock()
        done = 0
        while done < (count or at_least) or (count is None and self.clock() - start < seconds):
            for job in jobs:
                self.execute(job, phase, tracer)
            done += 1
        return done, self.clock() - start


def set_up(workload, inputs, workdir, digests, runner, smoke):
    """One set-up pass: configs, warm-up jobs at n=21, fixtures; returns timed jobs."""
    import jobs as J

    keep = 1 if smoke else None
    size, sizes = (SMOKE_SIZE, (SMOKE_SIZE,)) if smoke else (SIZE, TRANSPORT_SIZES)
    if workload == "export":
        names = list(J.EXPORTS)[:keep]
        warm = [J.export_job(name, inputs, WARMUP_SIZE, workdir, digests,
                             gate_verification=False) for name in names]
        timed = [J.export_job(name, inputs, size, workdir, digests) for name in names]
    elif workload == "transport":
        warm = [J.transport_job(name, inputs, WARMUP_SIZE, gate_verification=False)
                for name in J.TRANSPORT_SURFACES][:keep]
        timed = [job for n in sizes
                 for job in [J.transport_job(name, inputs, n) for name in J.TRANSPORT_SURFACES]
                 + [J.iteration_law_job(inputs, n)]][:keep]
    else:
        warm = [J.transport_job("quadric-h3", inputs, WARMUP_SIZE, gate_verification=False)]
        timed = []
    for job in warm:
        runner.execute(job, "warmup")
    if workload == "verify":
        for name in list(J.SURFACES)[:keep]:
            build = J.Job(name, size, lambda name=name: J.SURFACES[name](inputs, size),
                          lambda surface, name=name: J.surface_errors(name, size, surface))
            surface = runner.execute(build, "fixture", keep=True)
            if surface is not None:
                timed.append(J.verify_job(name, size, surface))
    return timed


# -- metrics ----------------------------------------------------------------

def nodes_per_s(records):
    """Nodes of one cycle over the sum of each job's median time."""
    times = {}
    for r in records:
        times.setdefault((r["job"], r["n"]), (r["nodes"], []))[1].append(r["seconds"])
    nodes = sum(nodes for nodes, _ in times.values())
    return nodes / sum(statistics.median(ts) for _, ts in times.values())


def layer_metrics(tracer, cycles, overhead_s, untraced_cycle_s, bytes_written, sweep):
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    tables = {"calls": calls, "counts": counts, "harness": {"bytes_written": bytes_written}}
    m = {name: sum(self_s.get(s, 0.0) for s in spans) / cycles
         for name, spans in SELF_TIMES.items()}
    m.update({name: tables[table].get(key, 0) / cycles
              for name, (table, key) in COUNTS.items()})
    m["integrate.det_drift_max"] = counts.get("integrate.det_drift_max", 0.0)
    nodes = counts.get("surfaces.nodes", 0)
    m["surfaces.masked_share"] = counts.get("surfaces.masked", 0) / nodes if nodes else 0.0
    surfaces_verified = counts.get("verify.surfaces", 0)
    m["verify.first_form_calls"] = (calls.get("verify.first_form", 0) / surfaces_verified
                                    if surfaces_verified else 0.0)
    m["trace.overhead_s"] = overhead_s
    m["trace.overhead_share"] = overhead_s / untraced_cycle_s
    by_layer = tracer.layer_self_s()
    job_total = sum(tracer.durations("job"))
    for layer in LAYERS:
        m[f"share.{layer}"] = by_layer.get(layer, 0.0) / job_total
    for n in SWEEP_SIZES:
        for short, span in SWEEP_METRICS:
            m[f"sweep.n{n}.{short}_s"] = sum(sweep.durations(span, job=f"sweep:{short}-n{n}"))
    return m


def dominant(metrics):
    """The workload's largest layer group by self-time share."""
    groups = {"meshout": ("meshout",), "integrate+expr+surfaces": ("integrate", "expr", "surfaces"),
              "verify+fd": ("verify", "fd")}
    grouped = {g: sum(metrics[f"share.{x}"] for x in members) for g, members in groups.items()}
    others = {x: metrics[f"share.{x}"] for x in LAYERS
              if not any(x in members for members in groups.values())}
    both = {**grouped, **others}
    return max(both, key=both.get), both


# -- one workload -----------------------------------------------------------

def run_workload(args):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy  # noqa: F401
    import minksurf
    if Path(minksurf.__file__).resolve().parent != ROOT / "src" / "minksurf":
        print(f"error: imported minksurf from {minksurf.__file__}", file=sys.stderr)
        return 2
    import jobs as J
    import tracer as T
    import_s = time.perf_counter() - T_START

    inputs = J.Inputs.draw(args.seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    runner = Runner()
    digests = {}
    try:
        pass_s = []
        for _ in range(SETUP_PASSES[args.workload]):
            timed = None    # drop the previous pass's fixtures first
            start = time.perf_counter()
            timed = set_up(args.workload, inputs, str(workdir), digests, runner, args.smoke)
            pass_s.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(pass_s)
        if not timed:
            print("error: every set-up job failed; nothing to time", file=sys.stderr)
            return 1

        metrics = {}
        detail = {}
        if args.trace == 0:
            cycles, wall = runner.cycles(timed, args.seconds, "timed", at_least=MIN_CYCLES)
            timed_records = [r for r in runner.records if r["phase"] == "timed"]
            metrics = {"nodes_per_s": nodes_per_s(timed_records), "setup_s": setup_s,
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            units = dict(END_TO_END)
            detail["wall_nodes_per_s"] = sum(r["nodes"] for r in timed_records) / wall
        else:
            cycles, untraced_wall = runner.cycles(timed, args.seconds / 2, "untraced")
            tracer = T.Tracer()
            with tracer.installed():
                _, traced_wall = runner.cycles(timed, 0, "traced", tracer=tracer, count=cycles)
            sweep = T.Tracer()
            with sweep.installed():
                for n in ((SMOKE_SIZE,) if args.smoke else SWEEP_SIZES):
                    for job in J.sweep_jobs(inputs, n, str(workdir)):
                        runner.execute(job, "sweep", tracer=sweep)
            bytes_written = sum(r.get("bytes", 0) for r in runner.records if r["phase"] == "traced")
            metrics = layer_metrics(tracer, cycles, (traced_wall - untraced_wall) / cycles,
                                    untraced_wall / cycles, bytes_written, sweep)
            units = dict(per_layer_names())
            detail["dominant_layer"], detail["layer_groups"] = dominant(metrics)
            detail["trace_missing_points"] = tracer.missing
            tracer.dump(OUT / f"spans-{tag}.json", extra={"sweep": {
                "spans": sweep.spans, "self_s": dict(sweep.self_s)}})
        detail.update(cycles=cycles, setup_import_s=import_s, setup_pass_s=pass_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(runner.records)
    failed = sum(1 for r in runner.records if r["errors"])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    doc = {"meta": metadata(args, inputs), "result": result, "detail": detail,
           "fail_ratio": failed / attempted, "jobs": runner.records}
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print_summary(doc)
    print(json.dumps(result))
    return 0


def print_summary(doc):
    meta, result = doc["meta"], doc["result"]
    x = meta["inputs"]
    print(f"workload {meta['workload']} seed {meta['seed']}: c={x['c']:.6f} a={x['a']} "
          f"eta={x['eta']:.6f}; commit {meta['git_commit']}, src {meta['src_lines']} lines, "
          f"nproc {meta['nproc']}, python {meta['python']}, numpy {meta['numpy']}, BLAS threads 1")
    runs = {}
    for r in doc["jobs"]:
        runs.setdefault((r["phase"], r["job"], r["n"]), []).append(r)
    for (phase, job, n), rs in runs.items():
        med = statistics.median(r["seconds"] for r in rs)
        bad = sum(1 for r in rs if r["errors"])
        first_error = next((e for r in rs for e in r["errors"]), "")
        print(f"  {phase:8s} {job:24s} n={n:<4d} runs={len(rs):<3d} median={med:8.4f} s"
              + (f"  FAILED {bad}: {first_error}" if bad else ""))
        for fname, sha in sorted(rs[-1].get("sha256", {}).items()):
            if phase != "warmup":
                print(f"    sha256 {sha}  {fname}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {doc['fail_ratio']:.6g} ({result['failed']}/{result['attempted']} jobs)")
    if "dominant_layer" in doc["detail"]:
        print(f"dominant layer group: {doc['detail']['dominant_layer']}")


# -- all workloads ----------------------------------------------------------

def run_all(args):
    """Each workload in a fresh process, one after another; prints a table."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    for workload, res in results.items():
        cells = [f"{k}={m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items()]
        ratio = res["failed"] / res["attempted"]
        print(f"{workload:9s} " + "  ".join(cells)
              + f"  fail_ratio={ratio:.6g} ({res['failed']}/{res['attempted']})")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="harness check: n=21, one job per workload, sweep at n=21")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "minksurf" / "__init__.py").is_file():
        print(f"error: no minksurf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
