"""Self-tests of the benchmark (stdlib unittest, a few seconds):

    python3 perfbench/selftest.py

They cover input generation, the report checks, self-time accounting, the
tracer's patching, the tail statistic, compare's verdicts, and agreement
between BENCHMARK.json and the metrics run.py prints.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import unittest
from itertools import combinations

import compare
import run
import tracer as tracing
import workloads as wl

ROOT = os.path.dirname(run.HERE)
SCRATCH = os.path.join(ROOT, ".bench_out", "selftest")
cli = run.load_program(ROOT)


def report_of(gid: str, workers: int = 1) -> bytes:
    """The report raagh writes for the pinned input gid."""
    inp = next(i for i in wl.all_inputs(wl.load_corpus()) if i.gid == gid)
    os.makedirs(SCRATCH, exist_ok=True)
    path, out = os.path.join(SCRATCH, "g.edges"), os.path.join(SCRATCH, "r.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(inp.text)
    assert cli.main(["compute", path, "--json", "--out", out, "--cap", str(wl.CAP),
                     "--workers", str(workers), *inp.flags]) == 0
    with open(out, "rb") as fh:
        return fh.read()


class Generation(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        corpus = wl.load_corpus()
        for name, workload in wl.WORKLOADS.items():
            for p in range(3):
                a = wl.make_inputs(workload, 7, corpus, p)
                b = wl.make_inputs(workload, 7, corpus, p)
                self.assertEqual(a, b, name)

    def test_seeds_and_passes_differ(self):
        corpus = wl.load_corpus()
        sparse = wl.WORKLOADS["sparse"]
        self.assertNotEqual(wl.make_inputs(sparse, 1, corpus, 0),
                            wl.make_inputs(sparse, 2, corpus, 0))
        self.assertNotEqual(wl.make_inputs(sparse, 1, corpus, 0),
                            wl.make_inputs(sparse, 1, corpus, 1))

    def test_parallel_runs_the_scan_graphs(self):
        corpus = wl.load_corpus()
        self.assertEqual(wl.make_inputs(wl.WORKLOADS["scan"], 3, corpus, 1),
                         wl.make_inputs(wl.WORKLOADS["parallel"], 3, corpus, 1))

    def test_every_input_is_pinned(self):
        expected = wl.load_expected()["graphs"]
        inputs = list(wl.all_inputs(wl.load_corpus()))
        self.assertEqual(sorted(i.gid for i in inputs), sorted(expected))
        for inp in inputs:
            self.assertEqual(wl.text_sha256(inp.text), expected[inp.gid]["text_sha256"], inp.gid)

    def test_count_4_cliques(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(5, 12)
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.6]
            es = set(edges)
            brute = sum(all(p in es for p in combinations(q, 2))
                        for q in combinations(range(n), 4))
            self.assertEqual(wl.count_4_cliques(n, edges, 10 ** 6), brute)


class Checks(unittest.TestCase):
    def test_pinned_report_passes(self):
        gid = "catalog/hex-2-certified/0"
        expected = wl.load_expected()["graphs"][gid]
        self.assertIsNone(wl.check_report(expected, report_of(gid), parallel=False))

    def test_altered_report_is_caught(self):
        gid = "catalog/hex-2-certified/0"
        expected = wl.load_expected()["graphs"][gid]
        good = report_of(gid)
        doc = json.loads(good)
        doc["m2"]["value"] += 2
        wrong_value = (json.dumps(doc, indent=2) + "\n").encode()
        self.assertIn("m2", wl.check_report(expected, wrong_value, parallel=False))
        spaced = good.replace(b": ", b":  ", 1)
        self.assertIsNotNone(wl.check_report(expected, spaced, parallel=False))

    def test_parallel_normalizes_only_workers(self):
        gid = "scan/hex-3-certified/0"
        expected = wl.load_expected()["graphs"][gid]
        doc = json.loads(report_of(gid))
        doc["solver"]["workers"] = 2
        self.assertIsNone(wl.check_report(
            expected, (json.dumps(doc, indent=2) + "\n").encode(), parallel=True))
        doc["solver"]["cap"] = 27
        self.assertIsNotNone(wl.check_report(
            expected, (json.dumps(doc, indent=2) + "\n").encode(), parallel=True))


class Tracing(unittest.TestCase):
    def test_self_times_on_a_toy_tree(self):
        spans = [("root", 0.0, 10.0, -1, "g"),
                 ("a", 1.0, 4.0, 0, "g"),
                 ("leaf", 2.0, 3.0, 1, "g"),
                 ("b", 5.0, 9.0, 0, "g"),
                 ("a", 6.0, 7.0, 3, "g")]
        got = tracing.self_times(spans)
        self.assertEqual(got["root"], [1, 10.0, 3.0])
        self.assertEqual(got["a"], [2, 4.0, 3.0])
        self.assertEqual(got["leaf"], [1, 1.0, 1.0])
        self.assertEqual(got["b"], [1, 4.0, 3.0])

    def test_install_patches_every_binding_and_uninstall_restores(self):
        import raagh.form
        import raagh.graphs
        import raagh.hbounds
        import raagh.solver
        originals = (raagh.hbounds.compute_m2, raagh.form.enumerate_cliques,
                     raagh.solver.rank_gf2)
        tr = tracing.Tracer()
        tr.install()
        try:
            self.assertIs(raagh.hbounds.compute_m2, raagh.solver.compute_m2)
            self.assertIsNot(raagh.hbounds.compute_m2, originals[0])
            self.assertIs(raagh.form.enumerate_cliques, raagh.graphs.enumerate_cliques)
            self.assertIsNot(raagh.form.enumerate_cliques, originals[1])
            report_of("scan/hex-3-certified/0")
            spans, counts = tr.take_pass()
        finally:
            tr.close()
        self.assertEqual((raagh.hbounds.compute_m2, raagh.form.enumerate_cliques,
                          raagh.solver.rank_gf2), originals)
        agg = tracing.self_times(spans)
        self.assertEqual(agg["solver.compute_m2"][0], 3)
        self.assertEqual(agg["cli.main"][0], 1)
        self.assertEqual(counts[("form.rank_gf2", "solver.compute_m2")], 3 * 2 ** 11)

    def test_forked_pool_workers_are_counted(self):
        tr = tracing.Tracer()
        tr.install()
        try:
            report_of("scan/clique-string-5x3/0", workers=2)
            _spans, counts = tr.take_pass()
        finally:
            tr.close()
        self.assertEqual(counts[("form.rank_gf2", "solver.compute_m2")], 2 * 2 ** 15)


    def test_traced_counts_repeat_across_runs(self):
        def counts():
            proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                                   "--workload", "catalog", "--seed", "3", "--seconds", "1",
                                   "--trace", "1"], capture_output=True, text=True, timeout=120)
            metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
            return {k: v["value"] for k, v in metrics.items() if k.endswith(".calls")}
        first = counts()
        self.assertGreater(first["graphs.canonical_key.calls"], 0)
        self.assertEqual(first, counts())


class Statistics(unittest.TestCase):
    def test_tail_latency(self):
        self.assertEqual(run.tail_latency(range(1, 31)), (20, 100 * 20 / 30, 30))
        self.assertEqual(run.tail_latency([3, 1, 2]), (3, 100.0, 3))

    def test_verdicts(self):
        parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
        faster = [p * 0.8 for p in parent]
        self.assertEqual(compare.verdict(parent, faster, "lower", 0.1)[0], "improved")
        self.assertEqual(compare.verdict(parent, [p * 1.2 for p in parent], "lower", 0.1)[0],
                         "worse")
        self.assertEqual(compare.verdict(parent, list(parent), "lower", 0.1)[0], "no worse")
        noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
        self.assertEqual(compare.verdict(noisy, list(noisy), "lower", 0.1)[0], "unresolved")
        self.assertEqual(compare.verdict(parent, faster, "higher", 0.1)[0], "worse")


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_what_run_prints(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        names = {w["name"] for w in spec["workloads"]}
        self.assertEqual(names | {"parallel"}, set(wl.WORKLOADS))

    def test_fails_without_source(self):
        empty = os.path.join(SCRATCH, "empty")
        os.makedirs(empty, exist_ok=True)
        proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                               "--root", empty, "--workload", "sparse", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
