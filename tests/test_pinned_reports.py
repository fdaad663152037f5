"""The benchmark's pinned reports, reproduced byte for byte.

perfbench/expected.json pins the sha256 of the `raagh compute --json`
report of every benchmark input.  This runs every pinned input (each
variant of each benchmark slot, plus the warm-up graph) through
raagh.cli.main as the benchmark does, so a change to any report fails here
and not only in the benchmark.  It reads perfbench/ and writes only under
tmp_path.
"""

import hashlib
import importlib.util
import os
import sys

import pytest

from raagh.cli import main

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, loaded without writing bytecode next to it."""
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(PERFBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    yield module
    del sys.modules[name]


def test_every_pinned_input_gives_its_pinned_report(workloads, tmp_path, monkeypatch):
    for key in [k for k in os.environ if k.startswith("RAAGH_")]:
        monkeypatch.delenv(key)
    corpus = workloads.load_corpus()
    pinned = workloads.load_expected()["graphs"]
    inputs = list(workloads.all_inputs(corpus))
    assert len(inputs) == len(pinned) == 1 + sum(
        slot.variants for slots in workloads.SLOTS.values() for slot in slots)
    source, out = tmp_path / "in.edges", tmp_path / "out.json"
    wrong = []
    for inp in inputs:
        entry = pinned[inp.gid]
        assert workloads.text_sha256(inp.text) == entry["text_sha256"], inp.gid
        source.write_text(inp.text, encoding="utf-8")
        code = main(["compute", str(source), "--json", "--out", str(out),
                     "--cap", str(workloads.CAP), "--workers", "1", *inp.flags])
        report = out.read_bytes() if code == 0 else b""
        if hashlib.sha256(report).hexdigest() != entry["report_sha256"]:
            wrong.append(inp.gid)
    assert wrong == []
