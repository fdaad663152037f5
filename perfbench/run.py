"""The raagh benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each graph goes through the user's pipeline in this process,
`raagh.cli.main(["compute", <graph file>, "--json", "--out", <file>,
"--cap", "28", "--workers", W, ...])`: parse, compute_h, report_document,
JSON write.  The loop is closed: one client submits the next graph once
the previous report is written.  Every report is checked against
expected.json.  A run makes a fixed number of passes over the seed's graph
list, sized from --seconds (workloads.passes_for).

End-to-end metrics (--trace 0), all times corrected for the host's speed
as speed.py describes:

- setup_s          median over fresh interpreters of importing raagh and
                   writing the first (warm-up) report
- wall_s           median time of one pass
- graphs_per_s     graphs reported per second over all passes
- latency_p50_ms   median time of one report, cli.main call to file written
- latency_tail_ms  the highest percentile with at least 10 samples above it
                   (the percentile and sample count are printed)
- peak_rss_mb      ru_maxrss of this process
- fail_ratio       wrong or failed reports over reports attempted; printed
                   here and carried as `failed` in the last line, but not a
                   BENCHMARK.json metric, which must never read 0

--trace 1 runs half the passes untraced and half under tracer.py's
wrappers and prints the per-layer metrics: calls per pass, median self
seconds per pass, the scan rate and the tracing overhead (traced minus
untraced pass time).  Spans of the first traced pass are written out;
later passes are only aggregated.

The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics.  A JSON file with the same numbers, the raw
(uncorrected) times and the machine description is written under
.bench_out/ in the root.  compare.py compares two checkouts, pin.py
regenerates the pinned expectations, selftest.py tests all of this.

Exit codes: 0 when a result was printed (correct may still be false),
2 when the checkout has no raagh source or the inputs do not match their
pinned hashes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import speed
import tracer as tracing
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("graphs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("solver.compute_m2.calls", "count"),
    ("solver.compute_m2.self_s", "s"),
    ("form.rank_gf2.calls", "count"),
    ("solver.functionals_per_s", "1/s"),
    ("graphs.enumerate_cliques.calls", "count"),
    ("graphs.enumerate_cliques.self_s", "s"),
    ("graphs.betti.calls", "count"),
    ("graphs.induced_subgraph.calls", "count"),
    ("graphs.classify_edges.self_s", "s"),
    ("graphs.biconnected_blocks.self_s", "s"),
    ("hbounds.decompose_h.self_s", "s"),
    ("graphs.parse_graph.self_s", "s"),
    ("cli.report_document.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("graphs.canonical_key.calls", "count"),
    ("graphs.canonical_key.self_s", "s"),
    ("graphs.verify_certificate.self_s", "s"),
    ("graphs.recognize_family.self_s", "s"),
    ("hbounds.h_family.calls", "count"),
    ("hbounds.h_family.self_s", "s"),
    ("hbounds.certified_h.self_s", "s"),
    ("solver.m2_heuristic.calls", "count"),
    ("solver.m2_heuristic.self_s", "s"),
    ("hbounds.compute_h.self_s", "s"),
    ("trace.overhead_s", "s"),
)

# Imports raagh in a fresh interpreter and writes the first report; prints
# the seconds taken and the reference loop's time before and after.
_SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
from speed import reference_seconds
before = reference_seconds()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import raagh.cli
rc = raagh.cli.main(sys.argv[3:])
elapsed = time.perf_counter() - t0
if rc == 0:
    print(elapsed, before, reference_seconds())
"""


class BenchError(Exception):
    """The benchmark cannot run here; nothing is printed as a result."""


# --------------------------------------------------------------------------
# statistics
# --------------------------------------------------------------------------

def tail_latency(samples) -> tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile that has
    at least 10 samples above it.  Below 21 samples that percentile would
    lie under the median, so the maximum is returned, at percentile 100."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0, n
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n


# --------------------------------------------------------------------------
# environment
# --------------------------------------------------------------------------

def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "platform": platform.platform(),
    }


def source_dir(root: str) -> str:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "raagh", "cli.py")):
        raise BenchError(f"no raagh source under {src}")
    return src


def load_program(root: str):
    """raagh.cli imported from root/src, never from an installed copy."""
    src = source_dir(root)
    sys.path.insert(0, src)
    import raagh.cli
    if not os.path.abspath(raagh.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise BenchError(f"raagh was imported from {raagh.cli.__file__}, not {src}")
    return raagh.cli


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("RAAGH_")}
    env.pop("PYTHONPATH", None)
    return env


# --------------------------------------------------------------------------
# one run
# --------------------------------------------------------------------------

class Item:
    """A graph at one position of a pass: its input file (written once per
    graph), its report file, argv and expectation."""

    def __init__(self, inp: wl.GraphInput, workdir: str, position: int, workers: int,
                 expected: dict):
        self.gid = inp.gid
        entry = expected.get(inp.gid)
        if entry is None or entry["text_sha256"] != wl.text_sha256(inp.text):
            raise BenchError(f"input {inp.gid} does not match its pinned hash; "
                             "rerun perfbench/pin.py")
        self.expected = entry
        path = os.path.join(workdir, f"in-{entry['text_sha256'][:16]}.edges")
        self.out = os.path.join(workdir, f"out-{position:03d}.json")
        self.argv = ["compute", path, "--json", "--out", self.out, "--cap", str(wl.CAP),
                     "--workers", str(workers), *inp.flags]
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(inp.text)


def check_item(item: Item, outcome, parallel: bool) -> str | None:
    if outcome != 0:
        return f"cli.main returned {outcome!r}"
    try:
        with open(item.out, "rb") as fh:
            report = fh.read()
    except OSError as exc:
        return f"no report ({exc})"
    return wl.check_report(item.expected, report, parallel)


def run_pass(cli, items, parallel: bool, sampled: bool, tracer=None):
    """Time one pass; returns (raw per-graph seconds, the same corrected
    for host speed, failures).  The reference loop runs between graphs and,
    when sampled, under the sampler while they run."""
    for item in items:
        if os.path.exists(item.out):
            os.remove(item.out)
    gc.collect()
    outcomes, raw, during = [], [], []
    probes = [speed.reference_seconds()]
    clock = time.perf_counter
    with speed.Sampler(active=sampled) as sampler:
        for item in items:
            if tracer is not None:
                tracer.graph_id = item.gid
            seen, busy = len(sampler.samples), sampler.busy
            t0 = clock()
            try:
                outcome = cli.main(item.argv)
            except Exception:  # a crash is a failed report, not the end of the run
                outcome = traceback.format_exc(limit=3)
            raw.append(clock() - t0 - (sampler.busy - busy))
            during.append(sampler.samples[seen:])
            probes.append(speed.reference_seconds())
            outcomes.append(outcome)
    corrected = speed.corrected_series(raw, probes, during)
    failures = []
    for item, outcome in zip(items, outcomes):
        problem = check_item(item, outcome, parallel)
        if problem is not None:
            failures.append((item.gid, problem))
    return raw, corrected, failures


def measure_setup(root: str, warm: Item, parallel: bool) -> tuple[list, list]:
    """(raw, corrected) seconds from a fresh interpreter's import of raagh
    to its first report written, SETUP_PROBES times after one untimed
    probe."""
    src = source_dir(root)
    raw, corrected = [], []
    for i in range(SETUP_PROBES + 1):
        if os.path.exists(warm.out):
            os.remove(warm.out)
        argv = [sys.executable, "-I", "-c", _SETUP_CHILD, HERE, src, *warm.argv]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                              env=child_env(), cwd=root)
        words = (proc.stdout.strip().splitlines()[-1:] or [""])[0].split()
        problem = check_item(warm, proc.returncode, parallel)
        if proc.returncode != 0 or problem is not None or len(words) != 3:
            raise BenchError(f"setup probe failed: {problem or proc.stderr.strip()}")
        if i > 0:
            elapsed, before, after = map(float, words)
            raw.append(elapsed)
            corrected.append(speed.corrected(elapsed, (before, after)))
    return raw, corrected


def layer_metrics(traced_passes, traced_walls, untraced_walls) -> tuple[dict, dict]:
    """Per-layer numbers: median calls and self seconds per pass, the scan
    rate, and the tracing overhead."""
    per_pass = []
    for spans, counts in traced_passes:
        per_pass.append((tracing.self_times(spans), counts))
    out = {}
    for name, _unit in PER_LAYER:
        if name == "form.rank_gf2.calls":
            values = [sum(c for (n, _), c in counts.items() if n == "form.rank_gf2")
                      for _, counts in per_pass]
        elif name.endswith(".calls"):
            fn = name[:-len(".calls")]
            values = [agg.get(fn, [0, 0.0, 0.0])[0] for agg, _ in per_pass]
        elif name.endswith(".self_s"):
            fn = name[:-len(".self_s")]
            values = [agg.get(fn, [0, 0.0, 0.0])[2] for agg, _ in per_pass]
        else:
            continue
        out[name] = (statistics.median_low(values) if name.endswith(".calls")
                     else statistics.median(values))
    ranked = sum(counts[("form.rank_gf2", "solver.compute_m2")] for _, counts in per_pass)
    scan_s = sum(agg.get("solver.compute_m2", [0, 0.0, 0.0])[1] for agg, _ in per_pass)
    out["solver.functionals_per_s"] = ranked / scan_s if scan_s > 0 else 0.0
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    return out, {"spans_per_pass": [len(spans) for spans, _ in traced_passes]}


def run_workload(args) -> dict:
    workload = wl.WORKLOADS[args.workload]
    root = os.path.abspath(args.root)
    workers = min(workload.workers, len(os.sched_getaffinity(0)))
    parallel = workers > 1
    cli = load_program(root)
    corpus, expected = wl.load_corpus(), wl.load_expected()["graphs"]

    workdir = os.path.join(root, ".bench_out", f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        warm = Item(wl.warmup_input(corpus), workdir, 999, workers, expected)
        passes = wl.passes_for(workload, args.seconds)
        pass_items = [[Item(inp, workdir, i, workers, expected)
                       for i, inp in enumerate(wl.make_inputs(workload, args.seed, corpus, p))]
                      for p in range(passes)]

        setup_raw, setup = ([], []) if args.trace else measure_setup(root, warm, parallel)
        warm_problem = check_item(warm, cli.main(warm.argv), parallel)
        if warm_problem is not None:
            raise BenchError(f"warm-up report is wrong: {warm_problem}")
        # The benchmark's own objects (expectations, inputs) would make every
        # collection inside a timed report longer than in a `raagh compute`
        # process; frozen, the collector skips them.
        gc.freeze()

        untraced = passes // 2 if args.trace else passes
        raw_walls, walls, raw_latencies, latencies, failures = [], [], [], [], []
        # The sampler's ticks would land inside spans, so a traced run
        # corrects all its passes, traced or not, from between graphs only.
        sampled = not args.trace
        for items in pass_items[:untraced]:
            raw, corrected, fail = run_pass(cli, items, parallel, sampled)
            raw_walls.append(sum(raw))
            walls.append(sum(corrected))
            raw_latencies.extend(raw)
            latencies.extend(corrected)
            failures.extend(fail)

        traced_walls, traced_passes, first_spans, meta = [], [], [], {}
        if args.trace:
            tr = tracing.Tracer()
            tr.install()
            try:
                for p, items in enumerate(pass_items[untraced:]):
                    _raw, corrected, fail = run_pass(cli, items, parallel, sampled, tr)
                    traced_walls.append(sum(corrected))
                    failures.extend(fail)
                    spans, counts = tr.take_pass()
                    traced_passes.append((spans, counts))
                    if p == 0:
                        first_spans = spans
            finally:
                tr.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    graphs_per_pass = len(pass_items[0])
    attempted = graphs_per_pass * passes
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes, "graphs_per_pass": graphs_per_pass,
        "workers": workers, "cap": wl.CAP,
        "graphs": [[it.gid for it in items] for items in pass_items],
        "attempted": attempted, "failed": len(failures),
        "failures": failures[:20],
        "fail_ratio": len(failures) / attempted,
        "machine": machine_info(),
        "setup_samples_s": setup,
        "pass_walls_s": walls,
        "raw": {"setup_samples_s": setup_raw, "pass_walls_s": raw_walls},
    }
    if args.trace:
        values, meta = layer_metrics(traced_passes, traced_walls, walls)
        result.update(meta)
        result["traced_pass_walls_s"] = traced_walls
        units = dict(PER_LAYER)
    else:
        tail, pct, count = tail_latency(latencies)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "graphs_per_s": graphs_per_pass * len(walls) / sum(walls),
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_tail_ms": 1000 * tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["latency_tail"] = {"percentile": pct, "samples": count}
        result["raw"]["latency_p50_ms"] = 1000 * statistics.median(raw_latencies)
        result["raw"]["latency_tail_ms"] = 1000 * tail_latency(raw_latencies)[0]
        units = dict(END_TO_END)
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    outdir = os.path.join(root, ".bench_out")
    base = os.path.join(outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if args.trace:
        with open(base + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "graph"],
                       "spans": first_spans}, fh)
    return result


# --------------------------------------------------------------------------
# output
# --------------------------------------------------------------------------

def print_result(result: dict):
    m = result["machine"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"{result['passes']} passes x {result['graphs_per_pass']} graphs  "
          f"cap {result['cap']}  workers {result['workers']}  trace {result['trace']}")
    print(f"machine  nproc {m['nproc']}  usable {m['usable_cpus']}  python {m['python']}  "
          f"cpu {m['cpu']}  load {' '.join(str(x) for x in m['loadavg'])}")
    for name, metric in result["metrics"].items():
        note = ""
        if name == "latency_tail_ms":
            tail = result["latency_tail"]
            note = f"  (p{tail['percentile']:.1f} of {tail['samples']} samples)"
        elif name == "setup_s":
            note = f"  (median of {len(result['setup_samples_s'])} fresh processes)"
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}{note}")
    print(f"  {'fail_ratio':36s} {result['fail_ratio']:14.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} reports)")
    for gid, problem in result["failures"]:
        print(f"  FAIL {gid}: {problem}")


def final_line(result: dict) -> str:
    return json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": result["metrics"]})


def run_all(args) -> int:
    """Every workload in its own process; one table row per workload."""
    names = list(wl.WORKLOADS)
    rows, combined = {}, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--root", args.root]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env())
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"workload {name} failed with exit code {proc.returncode}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        rows[name] = out
        combined["correct"] &= out["correct"]
        combined["attempted"] += out["attempted"]
        combined["failed"] += out["failed"]
        for metric, value in out["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    columns = [*(PER_LAYER if args.trace else END_TO_END), ("fail_ratio", "ratio")]
    print(f"{'workload':10s}" + "".join(f" {f'{m} ({u})':>22s}" for m, u in columns))
    for name in names:
        row = rows[name]
        values = [row["metrics"][m]["value"] for m, _ in columns[:-1]]
        values.append(row["failed"] / row["attempted"])
        print(f"{name:10s}" + "".join(f" {v:22.6g}" for v in values))
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sizes the run: passes = seconds / reference pass cost")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", default=os.path.dirname(HERE),
                        help="checkout whose src/raagh is measured (default: this one)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        result = run_workload(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_result(result)
    print(final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
