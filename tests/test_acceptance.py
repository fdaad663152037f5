"""Pinned end-to-end checks.

One test per entry in raagh.verification.ACCEPTANCE_CHECKS, in catalog
order; each prints a single PASS line with the check's detail string, and a
failure surfaces the check's own assertion message.  ``raagh verify-paper``
runs the same functions.
"""

import os
import subprocess
import sys

from raagh.verification import ACCEPTANCE_CHECKS

_BY_ID = {check_id: (desc, fn) for check_id, desc, fn in ACCEPTANCE_CHECKS}


def _run(check_id):
    desc, fn = _BY_ID[check_id]
    detail = fn()
    print(f"PASS {check_id}: {detail}")


def test_acceptance_catalog_is_complete():
    assert [check_id for check_id, _, _ in ACCEPTANCE_CHECKS] == [
        "join-graph-bound", "join-graph-template", "glued-pair",
        "four-string-radicals", "five-strings", "face-strings", "k6",
        "boxes", "assembly", "free-abelian-table", "random-battery",
        "heuristic-certification",
    ]


def test_join_graph_bound():
    _run("join-graph-bound")


def test_join_graph_template():
    _run("join-graph-template")


def test_glued_pair():
    _run("glued-pair")


def test_four_string_radicals():
    _run("four-string-radicals")


def test_five_strings():
    _run("five-strings")


def test_face_strings():
    _run("face-strings")


def test_k6():
    _run("k6")


def test_boxes():
    _run("boxes")


def test_assembly():
    _run("assembly")


def test_free_abelian_table():
    _run("free-abelian-table")


def test_random_battery():
    _run("random-battery")


def test_heuristic_certification():
    _run("heuristic-certification")


def test_a_broken_check_fails_even_under_optimization():
    # python -O strips assert statements; the checks must not rely on them
    script = (
        "import sys\n"
        "import raagh.verification\n"
        "from raagh.cli import main\n"
        "assert False, 'never raised under -O'\n"
        "raagh.verification.h_free_abelian = lambda n: 999\n"
        "sys.exit(main(['verify-paper', '--only', 'free-abelian-table']))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 1, out.stderr
    assert out.stdout.startswith("FAIL  free-abelian-table")
    assert "rank 0: 999, expected 0" in out.stdout
    assert "0/1 checks passed" in out.stdout
