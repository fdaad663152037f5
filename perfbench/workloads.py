"""Inputs of the benchmark: which graphs each workload runs, made from a seed.

A workload is a list of slots.  A slot is one position in a pass over the
workload and holds a few pinned variants of one kind of graph: vertex
relabelings of a catalog graph, or random graphs drawn with the same size
and density.  For each pass of a run the seed picks one variant per slot
and the order of the pass, so a run covers most variants and its slowest
reports do not hinge on one draw.  Every variant's expected report is
pinned in expected.json, so a run on any seed is checked in full.

Graph text is made here from corpus.json and the stdlib alone, never from
the package under test, so a change to the package cannot change its own
inputs.  expected.json also pins the sha256 of every input text, so a
change in how the inputs are made is caught before anything is timed.

Why each workload exists:

- scan:     certified graphs whose m2 lies below the parity ceiling, so the
            exhaustive scan visits all 2^b4 functionals (over 90% of the
            time); every scan optimisation should show here.
- sparse:   random graphs with n in 20..48 and 1 <= b4 <= 8: dozens of
            pieces and free edges per graph and a negligible scan, so it
            measures per-graph overhead (cliques, decomposition, parsing,
            rendering) and should not move with the scan.
- catalog:  relabeled certified family members: over-cap graphs that fall
            back to the heuristic, a ceiling hit that stops the scan early,
            certificates that must be verified, and --heuristic requests.
- parallel: the scan graphs with --workers 2, the only measurement of the
            process pool; pool changes show here and not on scan.  It is
            not in BENCHMARK.json: on a shared 2-core VM the two vCPUs
            change speed independently, the pass waits for the slower
            worker, and its pass times spread 10-15% between seeds even
            after speed correction.  Run it by hand, e.g. with compare.py
            --workload parallel.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
from dataclasses import dataclass
from itertools import combinations

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_PATH = os.path.join(HERE, "corpus.json")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

CAP = 28
SPARSE_SLOTS = 96
SPARSE_VARIANTS = 4
RELABEL_VARIANTS = 4


@dataclass(frozen=True)
class Slot:
    """One position in a pass.

    base names a corpus.json graph (None for random sparse graphs); with
    relabel set, variant v is that graph under a fixed pseudorandom vertex
    permutation.  flags are extra `raagh compute` arguments.
    """

    name: str
    base: str | None
    variants: int
    relabel: bool = True
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    """slots_of names the workload whose slots and seeded choices it reuses,
    so parallel runs exactly the graphs that scan runs for the same seed.
    pass_seconds, about the cost of one pass on the reference machine
    (2-core Xeon VM, Python 3.11), sizes a run; see passes_for()."""

    workers: int
    pass_seconds: float
    slots_of: str


def _relabeled(name: str, base: str, flags=()) -> Slot:
    return Slot(name, base, RELABEL_VARIANTS, True, tuple(flags))


SCAN_SLOTS = (
    Slot("k8-minus-matching", "k8-minus-matching", 1, relabel=False),
    _relabeled("k8-minus-matching-relabeled", "k8-minus-matching"),
    _relabeled("clique-string-5x3", "clique-string-5x3"),
    _relabeled("face-string-16", "face-string-16"),
    _relabeled("hex-3-certified", "hex-3-certified"),
)

CATALOG_SLOTS = (
    Slot("complete-7", "complete-7", 1, relabel=False),
    Slot("complete-8", "complete-8", 1, relabel=False),
    _relabeled("clique-string-6x2", "clique-string-6x2"),
    _relabeled("clique-string-7x2", "clique-string-7x2"),
    _relabeled("clique-string-4x8", "clique-string-4x8"),
    _relabeled("assembly", "assembly"),
    _relabeled("grid-1x8-certified", "grid-1x8-certified"),
    _relabeled("grid-2x3-certified", "grid-2x3-certified"),
    _relabeled("grid-l-certified", "grid-l-certified"),
    _relabeled("hex-2-certified", "hex-2-certified"),
    _relabeled("hex-3-certified", "hex-3-certified"),
    _relabeled("clique-string-5x2-heuristic", "clique-string-5x2", ["--heuristic"]),
    _relabeled("clique-string-5x3-heuristic", "clique-string-5x3", ["--heuristic"]),
    _relabeled("face-string-20-heuristic", "face-string-20", ["--heuristic"]),
    Slot("complete-6-heuristic", "complete-6", 1, relabel=False,
         flags=("--heuristic",)),
)

SPARSE_SLOT_LIST = tuple(Slot(f"{i:03d}", None, SPARSE_VARIANTS, relabel=False)
                         for i in range(SPARSE_SLOTS))

SLOTS = {"scan": SCAN_SLOTS, "sparse": SPARSE_SLOT_LIST, "catalog": CATALOG_SLOTS}

WORKLOADS = {
    "scan": Workload(1, 6.0, "scan"),
    "sparse": Workload(1, 0.9, "sparse"),
    "catalog": Workload(1, 0.6, "catalog"),
    "parallel": Workload(2, 5.0, "scan"),
}

# Every workload's first report, before any timing: K5 and K4 glued along
# an edge.  It is certified through canonical_key, which fills the lazy
# certified-catalog cache, and costs a few milliseconds.
WARMUP_BASE = "k5-k4-glued"


@dataclass(frozen=True)
class GraphInput:
    gid: str          # "<slot workload>/<slot>/<variant>", the expected.json key
    text: str
    flags: tuple[str, ...]


def passes_for(workload: Workload, seconds: float) -> int:
    """Passes in a run.  A run does a fixed amount of work, sized from
    --seconds and the workload's reference pass cost, so that parent and
    change measure the same passes and the same number of latency samples."""
    return max(2, round(seconds / workload.pass_seconds))


# --------------------------------------------------------------------------
# graph text
# --------------------------------------------------------------------------

def load_corpus() -> dict:
    with open(CORPUS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def graph_text(n: int, edges, certificate: dict | None = None) -> str:
    """Edge-list text as `raagh compute` reads it; `# vertices:` keeps
    isolated vertices and fixes the numbering."""
    lines = [f"# vertices: {n}"]
    if certificate is not None:
        lines.append("# certificate: " + json.dumps(certificate, sort_keys=True))
    lines.extend(f"{u} {v}" for u, v in sorted(edges))
    return "\n".join(lines) + "\n"


def relabel(n: int, edges, key: str):
    perm = list(range(n))
    random.Random(key).shuffle(perm)
    return [tuple(sorted((perm[u], perm[v]))) for u, v in edges]


def count_4_cliques(n: int, edges, limit: int) -> int:
    """Number of 4-cliques, counting stops once it passes limit."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    count = 0
    for u, v in edges:
        lo, hi = min(u, v), max(u, v)
        common = adj[lo] & adj[hi] & ~((2 << hi) - 1)
        while common:
            w = common.bit_length() - 1
            common ^= 1 << w
            count += (adj[w] & adj[lo] & adj[hi] & ~((2 << w) - 1)).bit_count()
            if count > limit:
                return count
    return count


@functools.cache
def sparse_graph(slot: int, variant: int):
    """Variant `variant` of sparse slot `slot`: a G(n, p) graph with n in
    20..48 and p in {0.08, 0.12, 0.16}, kept when 1 <= b4 <= 8.  (n, p) is
    drawn until the first graph is kept; later variants keep that (n, p),
    so the variants of a slot cost about the same."""
    rng = random.Random(f"sparse/{slot}")
    n = p = None
    found = -1
    while True:
        if found < 0:
            n = 20 + int(rng.random() * 29)
            p = (0.08, 0.12, 0.16)[int(rng.random() * 3)]
        edges = [e for e in combinations(range(n), 2) if rng.random() < p]
        if 1 <= count_4_cliques(n, edges, 8) <= 8:
            found += 1
            if found == variant:
                return n, edges


def slot_text(corpus: dict, workload_slots: str, slot: Slot, variant: int) -> str:
    if slot.base is None:
        n, edges = sparse_graph(int(slot.name), variant)
        return graph_text(n, edges)
    base = corpus[slot.base]
    n, edges = base["n"], [tuple(e) for e in base["edges"]]
    if slot.relabel:
        edges = relabel(n, edges, f"{workload_slots}/{slot.name}/{variant}")
    return graph_text(n, edges, base.get("certificate"))


def warmup_input(corpus: dict) -> GraphInput:
    base = corpus[WARMUP_BASE]
    return GraphInput(f"warmup/{WARMUP_BASE}/0",
                      graph_text(base["n"], [tuple(e) for e in base["edges"]]), ())


def all_inputs(corpus: dict):
    """Every pinned input: each variant of each slot, plus the warm-up."""
    yield warmup_input(corpus)
    for name, slots in SLOTS.items():
        for slot in slots:
            for v in range(slot.variants):
                yield GraphInput(f"{name}/{slot.name}/{v}",
                                 slot_text(corpus, name, slot, v), slot.flags)


def make_inputs(workload: Workload, seed: int, corpus: dict,
                pass_index: int) -> list[GraphInput]:
    """The graphs of one pass of a run, in order.  Same seed, same passes."""
    rng = random.Random(f"{workload.slots_of}:{seed}:{pass_index}")
    chosen = []
    for slot in SLOTS[workload.slots_of]:
        v = rng.randrange(slot.variants)
        chosen.append(GraphInput(f"{workload.slots_of}/{slot.name}/{v}",
                                 slot_text(corpus, workload.slots_of, slot, v),
                                 slot.flags))
    rng.shuffle(chosen)
    return chosen


def text_sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# --------------------------------------------------------------------------
# checking reports against expected.json
# --------------------------------------------------------------------------

def normalize_workers(report: bytes) -> bytes:
    """The report as the serial run writes it: only solver.workers differs
    between a serial and a parallel report of the same graph."""
    doc = json.loads(report)
    doc["solver"]["workers"] = 1
    return (json.dumps(doc, indent=2) + "\n").encode()


def summarize(report: bytes) -> dict:
    doc = json.loads(report)
    exact = doc["exact"] or {}
    return {"m2": doc["m2"]["value"], "witness": doc["m2"]["witness"],
            "exact": exact.get("value"), "provenance": exact.get("provenance")}


def check_report(expected: dict, report: bytes, parallel: bool) -> str | None:
    """None when report is the pinned one, else what differs."""
    if parallel:
        try:
            report = normalize_workers(report)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable report ({exc})"
    if hashlib.sha256(report).hexdigest() == expected["report_sha256"]:
        return None
    try:
        got = summarize(report)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report ({exc})"
    diffs = [f"{k}: expected {expected[k]!r}, got {got[k]!r}"
             for k in ("m2", "witness", "exact", "provenance") if got[k] != expected[k]]
    return "; ".join(diffs) or "report bytes differ from the pinned report"
