"""Tests of the benchmark itself: tracer arithmetic, oracle, input writers.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}


# -- tracer ---------------------------------------------------------------------


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_is_span_time_minus_child_spans():
    # outer [0, 20] calls mid [1, 6] (which calls leaf [2, 5]) and mid [10, 12]
    tr = tracing.Tracer(clock=_fake_clock([0, 1, 2, 5, 6, 10, 12, 20]))
    leaf = tr.wrap(lambda: None, "perm.leaf", "perm")
    mid_calls = []

    def mid_body():
        if not mid_calls:
            leaf()
        mid_calls.append(1)

    mid = tr.wrap(mid_body, "classify.mid", "classify")
    outer = tr.wrap(lambda: (mid(), mid()), "claims.outer", "claims")
    outer()
    agg = tracing.aggregate(tr, {"mid": {"classify.mid"}}, within=[("perm.leaf", "mid")])
    assert agg.self_s["claims"] == 13        # 20 - 5 - 2
    assert agg.self_s["classify"] == 4       # (5 - 3) + 2
    assert agg.self_s["perm"] == 3
    assert sum(agg.self_s.values()) == 20    # self times partition the root span
    assert agg.calls == {"perm.leaf": 1, "classify.mid": 2, "claims.outer": 1}
    assert agg.covered_s["mid"] == 7
    assert agg.within[("perm.leaf", "mid")] == 1
    assert list(tr.span_parent) == [-1, 0, 1, 0]


def test_covered_time_counts_only_outermost_spans_of_a_group():
    # f(2) [0, 10] -> f(1) [1, 8] -> f(0) [2, 3]; g [4, 6] inside f(1)
    tr = tracing.Tracer(clock=_fake_clock([0, 1, 2, 3, 4, 6, 8, 10]))
    g = tr.wrap(lambda: None, "group.g", "group")

    def f_body(n):
        if n:
            f(n - 1)
            if n == 1:
                g()

    f = tr.wrap(f_body, "group.f", "group")
    f(2)
    agg = tracing.aggregate(tr, {"f": {"group.f"}, "fg": {"group.f", "group.g"}})
    assert agg.covered_s == {"f": 10, "fg": 10}
    assert agg.self_s["group"] == 10


def test_exceptions_still_close_the_span():
    tr = tracing.Tracer(clock=_fake_clock([0, 4]))

    def boom():
        raise ValueError("x")

    wrapped = tr.wrap(boom, "perm.boom", "perm")
    try:
        wrapped()
    except ValueError:
        pass
    assert tr.stack == [] and list(tr.span_end) == [4]


def test_install_wraps_every_binding_site_and_counts_repeat(tmp_path):
    code = (
        "import tracer, symclass\n"
        "t = tracer.Tracer(); tracer.install(t)\n"
        "import symclass.claims as c, symclass.classify as k, symclass.cli as cli\n"
        "import symclass.families as f\n"
        "assert c.classify_pair is k.classify_pair is symclass.classify_pair\n"
        "assert k.classify_pair.__traced__\n"
        "assert cli.verify_claim.__traced__\n"
        "assert cli._CONTEXT_GROUPS[('petersen', 'sym5')].__traced__\n"
        "assert f._GRAPH_FAMILIES['grid'][0].__traced__\n"
        "assert symclass.Permutation.__mul__.__traced__\n"
    )
    subprocess.run([sys.executable, "-c", code], cwd=BENCH, env=_child_env(), check=True)

    def traced_counts(seed):
        out = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", "classify-mix",
             "--seed", str(seed), "--mode", "run", "--passes", "1",
             "--trace", str(tmp_path / "spans.tsv.gz")],
            env=_child_env(), capture_output=True, text=True, check=True).stdout
        layers = json.loads(out.strip().splitlines()[-1])["layers"]
        return {k: v for k, v in layers.items() if tracing.METRIC_UNITS[k] == "count"}

    first = traced_counts(5)
    assert first["classify.pair_calls"] == 31 and first["perm.mul_calls"] > 0
    assert traced_counts(5) == first


# -- oracle ---------------------------------------------------------------------


def _rook_4x4():
    return [(a, b) for a in range(16) for b in range(a + 1, 16)
            if a // 4 == b // 4 or a % 4 == b % 4]


def test_oracle_counts_rook_vs_shrikhande_reported_isomorphic_as_failure():
    passes = [{"inputs": [{"name": "hamming(2,4)", "n": 16, "edges": _rook_4x4()},
                          {"name": "shrikhande", "n": 16, "edges": workloads._shrikhande()}]}]
    spec = [("iso", 0, 1)]
    wrong = [[0, 0, 1.0, {"isomorphic": True, "mapping": list(range(16))}]]
    right = [[0, 0, 1.0, {"isomorphic": False, "mapping": None}]]
    assert oracle.check_iso_canon(passes, spec, wrong)[0] == 1
    assert oracle.check_iso_canon(passes, spec, right)[0] == 0


def test_oracle_checks_aut_orders_and_canonical_forms():
    cube = [(u, v) for u in range(8) for v in range(8) if u < v and bin(u ^ v).count("1") == 1]
    passes = [{"inputs": [{"name": "hamming(3,2)", "n": 8, "edges": cube}]}]
    spec = [("aut", 0, None), ("canon", 0, None)]
    identity = {"canon": workloads.graph6(8, cube), "labeling": list(range(8))}
    assert oracle.check_iso_canon(passes, spec, [[0, 0, 1.0, {"order": 48}],
                                                 [0, 1, 1.0, identity]])[0] == 0
    swapped = {**identity, "labeling": [1, 0] + list(range(2, 8))}
    assert oracle.check_iso_canon(passes, spec, [[0, 0, 1.0, {"order": 24}],
                                                 [0, 1, 1.0, swapped]])[0] == 2


def test_oracle_counts_wrong_catalog_row_and_raised_ops():
    octahedron = [(i, j) for i in range(6) for j in range(i + 1, 6) if j - i != 3]
    passes = [{"inputs": [{"name": "octahedron+octahedral",
                           "g6": workloads.graph6(6, octahedron)}]}]
    good = {"vertices": 6, "valency": 4, "girth": 3, "diameter": 2, "order": 48,
            "vertex_transitive": True, "dt2": True, "at2": False,
            "row": "octahedron", "digest": "d"}
    assert oracle.check_classify(passes, [[0, 0, 1.0, good]])[0] == 0
    ops = [[0, 0, 1.0, {**good, "row": None}], [0, 0, 1.0, {"error": "SymclassError: x"}],
           [0, 0, 1.0, {**good, "digest": "e"}]]
    assert oracle.check_classify(passes, ops)[0] == 3


def test_oracle_counts_refuted_claims_and_nonzero_exit():
    report = {"claims": [{"claim": cid, "status": "verified"} for cid in oracle.CLAIM_IDS]}
    assert oracle.check_claim_pass(0, report)[0] == 0
    report["claims"][3]["status"] = "refuted"
    assert oracle.check_claim_pass(1, report)[0] == 1
    assert oracle.check_claim_pass(1, {"claims": []})[0] == 12


def test_aut_order_formulas():
    assert oracle.aut_order("hamming(2,4)") == 1152
    assert oracle.aut_order("hamming(6,2)") == 46080
    assert oracle.aut_order("8K3") == 6 ** 8 * 40320
    assert oracle.aut_order("grid_complement(4)") == 48


# -- input writers ----------------------------------------------------------------


def test_graph6_writer_matches_networkx():
    rng = random.Random(7)
    for n in (1, 2, 7, 12, 63, 70):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        graph = nx.empty_graph(n)
        graph.add_edges_from(edges)
        expected = nx.to_graph6_bytes(graph, header=False).decode().strip()
        assert workloads.graph6(n, edges) == expected


def test_generator_text_parses_back_to_the_same_permutations():
    import symclass

    rng = random.Random(3)
    gens = [tuple(rng.sample(range(9), 9)) for _ in range(3)] + [tuple(range(9))]
    group = symclass.parse_generator_file(workloads.generator_text(9, gens))
    assert [g.images for g in group.generators] == gens


def test_inputs_repeat_for_a_seed_and_change_with_it():
    first = workloads.make("classify-mix", 11).first_inputs
    assert workloads.make("classify-mix", 11).first_inputs == first
    assert workloads.make("classify-mix", 12).first_inputs != first


def test_latency_blocks_hold_whole_passes_of_at_least_block_ops():
    import run

    passes = [[1.0] * 31 for _ in range(20)]
    blocks = run._blocks(passes)
    assert [len(b) for b in blocks] == [31 * 20]         # 13 + 7 passes: one block
    blocks = run._blocks(passes + [[1.0] * 31] * 7)
    assert [len(b) for b in blocks] == [31 * 13, 31 * 14]
    assert run._blocks([[1.0] * 12] * 3) == [[1.0] * 36]


def test_benchmark_json_names_every_reported_metric_with_its_unit():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.METRIC_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
