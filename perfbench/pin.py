"""Regenerate corpus.json and expected.json from the raagh in this checkout.

    python3 perfbench/pin.py

corpus.json holds the catalog graphs the workloads relabel, made once by
raagh.generate_family.  expected.json holds, for every input any seed can
produce, the sha256 of its text and of its `--json` report plus m2,
witness, exact value and provenance.  Pinning runs every report serially,
and before anything is written it cross-checks:

- exact values of certified graphs against h_family for the family (the
  closed forms for strings and complete graphs) or the published value;
- m2 and the witness of every exhaustive report with b4 <= 8 against
  tests/oracles.py's m2_oracle, run on the graph cut down to the edges that
  lie in 4-cliques (the other edges give zero rows, and an increasing
  vertex map keeps the 4-clique order, so m2 and the witness are unchanged);
- conjectural values against 2 b2 - m2;
- for the scan graphs, the --workers 2 report against the serial one with
  only solver.workers normalized.

Pin only at a commit whose reports are known to be right: the benchmark
treats any later difference as a failure.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import shutil
import sys
from itertools import combinations

import run
import workloads as wl

# Published values for the graphs outside the parametrized families.
KNOWN_H = {"k8-minus-matching": 26, "k5-k4-glued": 18, "assembly": 62}


def build_corpus(raagh) -> dict:
    F = raagh.FamilyCertificate

    def family(cert, with_certificate):
        g = raagh.generate_family(cert)
        return {"n": g.n, "edges": [list(e) for e in g.edges],
                "certificate": cert.to_dict() if with_certificate else None,
                "family": cert.to_dict()}

    matching = {(0, 1), (2, 3), (4, 5), (6, 7)}
    k5_k4 = set(combinations(range(5), 2)) | set(combinations((3, 4, 5, 6), 2))
    assembly = (k5_k4 | set(combinations((6, 7, 8, 9), 2))
                | {(u + 10, v + 10) for u, v in combinations(range(4), 2)}
                | {(i % 14, 14 + i) for i in range(16)})
    corpus = {
        "k8-minus-matching": {"n": 8, "edges": [list(e) for e in combinations(range(8), 2)
                                                if e not in matching],
                              "certificate": None, "family": None},
        "k5-k4-glued": {"n": 7, "edges": [list(e) for e in sorted(k5_k4)],
                        "certificate": None, "family": None},
        "assembly": {"n": 30, "edges": [list(e) for e in sorted(assembly)],
                     "certificate": None, "family": None},
        "clique-string-5x2": family(F.clique_string(5, 2), False),
        "clique-string-5x3": family(F.clique_string(5, 3), False),
        "clique-string-6x2": family(F.clique_string(6, 2), False),
        "clique-string-7x2": family(F.clique_string(7, 2), False),
        "clique-string-4x8": family(F.clique_string(4, 8), False),
        "face-string-16": family(F.face_string(16), False),
        "face-string-20": family(F.face_string(20), False),
        "complete-6": family(F.complete(6), False),
        "complete-7": family(F.complete(7), False),
        "complete-8": family(F.complete(8), False),
        "hex-2-certified": family(F.hex_triangle(2), True),
        "hex-3-certified": family(F.hex_triangle(3), True),
        "grid-1x8-certified": family(F.grid([(x, 0) for x in range(8)]), True),
        "grid-2x3-certified": family(F.grid([(x, y) for x in range(3) for y in range(2)]), True),
        "grid-l-certified": family(F.grid([(0, 0), (1, 0), (2, 0), (2, 1), (2, 2)]), True),
    }
    return corpus


def expected_h(raagh, corpus: dict, base: str) -> int:
    if base in KNOWN_H:
        return KNOWN_H[base]
    cert = raagh.FamilyCertificate.from_dict(corpus[base]["family"])
    return raagh.h_family(cert, raagh.SolverConfig(cap=wl.CAP, workers=1)).value


def oracle_m2(raagh, oracles, text: str) -> tuple[int, int]:
    g = raagh.parse_graph(text)
    adj = g.adjacency
    covered = set()
    for a, b, c, d in combinations(range(g.n), 4):
        if (adj[a] >> b & adj[a] >> c & adj[a] >> d & adj[b] >> c & adj[b] >> d
                & adj[c] >> d & 1):
            covered.update(combinations((a, b, c, d), 2))
    verts = sorted({v for e in covered for v in e})
    index = {v: i for i, v in enumerate(verts)}
    sub = raagh.make_graph(len(verts), [(index[u], index[v]) for u, v in covered])
    return oracles.m2_oracle(sub)


def main() -> int:
    root = os.path.dirname(run.HERE)
    cli = run.load_program(root)
    import raagh
    spec = importlib.util.spec_from_file_location(
        "oracles", os.path.join(root, "tests", "oracles.py"))
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)

    corpus = build_corpus(raagh)
    workdir = os.path.join(root, ".bench_out", "pin")
    os.makedirs(workdir, exist_ok=True)
    out = os.path.join(workdir, "report.json")
    path = os.path.join(workdir, "graph.edges")
    slot_base = {f"{w}/{s.name}": s.base for w, slots in wl.SLOTS.items() for s in slots}
    slot_base[f"warmup/{wl.WARMUP_BASE}"] = wl.WARMUP_BASE

    def report(text, flags, workers):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        rc = cli.main(["compute", path, "--json", "--out", out, "--cap", str(wl.CAP),
                       "--workers", str(workers), *flags])
        if rc != 0:
            raise SystemExit(f"raagh compute exited {rc}")
        with open(out, "rb") as fh:
            return fh.read()

    graphs, known_h = {}, {}
    for inp in wl.all_inputs(corpus):
        data = report(inp.text, inp.flags, 1)
        doc = json.loads(data)
        entry = {"text_sha256": wl.text_sha256(inp.text),
                 "report_sha256": hashlib.sha256(data).hexdigest(),
                 **wl.summarize(data), "checked": []}
        base = slot_base["/".join(inp.gid.split("/")[:2])]
        if base is not None:
            if base not in known_h:
                known_h[base] = expected_h(raagh, corpus, base)
            if entry["exact"] != known_h[base]:
                raise SystemExit(f"{inp.gid}: exact {entry['exact']} != certified {known_h[base]}")
            entry["checked"].append("certified-h")
        b4, b2 = doc["invariants"]["b4"], doc["invariants"]["b2"]
        if doc["m2"]["mode"] != "heuristic" and b4 <= 8:
            witness = sum(int(bit) << q for q, bit in enumerate(doc["m2"]["witness"]))
            if oracle_m2(raagh, oracles, inp.text) != (entry["m2"], witness):
                raise SystemExit(f"{inp.gid}: m2/witness disagree with m2_oracle")
            entry["checked"].append("m2-oracle")
        if entry["provenance"] == "conjectural-minimal":
            if entry["exact"] != 2 * b2 - entry["m2"]:
                raise SystemExit(f"{inp.gid}: conjectural value is not 2 b2 - m2")
            entry["checked"].append("conjectural-bound")
        if inp.gid.startswith("scan/"):
            if wl.check_report(entry, report(inp.text, inp.flags, 2), parallel=True):
                raise SystemExit(f"{inp.gid}: --workers 2 report differs from the serial one")
            entry["checked"].append("workers-2")
        graphs[inp.gid] = entry
        print(inp.gid, entry["m2"], entry["exact"], entry["provenance"],
              ",".join(entry["checked"]), flush=True)
    shutil.rmtree(workdir, ignore_errors=True)

    with open(wl.CORPUS_PATH, "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, indent=0, sort_keys=True)
        fh.write("\n")
    with open(wl.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump({"cap": wl.CAP, "graphs": graphs}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(graphs)} inputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
