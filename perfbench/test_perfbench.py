"""Self-tests of the benchmark's helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

vknots = session.import_program()


def cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = vknots.cli.main(list(argv))
    return code, out.getvalue()


def batch_row(tmp_path, name, code, inv):
    path = tmp_path / f"{name}.tsv"
    path.write_text(f"{name}\t{code}\n")
    status, out = cli("batch", "--json", "--inv", inv, str(path))
    assert status == 0
    (row,) = json.loads(out)
    return row


# -- percentile rule -------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(99) == 75
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(199) == 90
    assert run.tail_percentile(200) == 95
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(10000) == 99.9


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 100) == 100
    assert run.percentile([7.0], 90) == 7.0
    # exactly ten samples lie beyond the p90 of 100 values
    assert sum(v > run.percentile(values, 90) for v in values) == 10


# -- self time ---------------------------------------------------------------


def test_self_time_on_synthetic_span_tree():
    # 0: root [0, 100]
    #   1: [10, 40]  with grandchild 2: [15, 25]
    #   3: [30, 50]  overlaps 1, so the children cover [10, 50] once
    #   4: [90, 120] runs past its parent and is clipped to [90, 100]
    start = [0, 10, 15, 30, 90]
    end = [100, 40, 25, 50, 120]
    parent = [-1, 0, 1, 0, 0]
    assert list(tracing.self_times(start, end, parent)) == [50, 20, 10, 20, 30]


def test_self_time_of_leaf_and_forest():
    assert list(tracing.self_times([5, 7], [9, 8], [-1, -1])) == [4, 1]


def test_tracer_wraps_every_binding_and_counts_calls():
    original = vknots.invariants.writhes.dwrithe
    t = tracing.Tracer()
    t.install()
    assert vknots.invariants.dwrithe is vknots.invariants.writhes.dwrithe is not original
    try:
        k431 = vknots.lookup("K431").diagram()
        t.mark_caches()
        t.item_id = 0
        # the same function through three separate bindings
        vknots.invariants.dwrithe(k431, 1)
        vknots.invariants.writhes.dwrithe(k431, 1)
        vknots.invariants.compute_invariant("djn", k431, {"n": 1})
        vknots.invariants.compute_invariant("aip", k431, {})  # registry entry
        vknots.diagram.flat_key(k431)
        vknots.invariants.fingerprint(k431, 1, 1)
        summary = t.summary()
    finally:
        t.uninstall()
    assert summary["absent"] == []
    assert summary["calls"]["invariants.writhes.dwrithe"] >= 3
    assert summary["calls"]["invariants.writhes.affine_index_poly"] == 1
    assert summary["calls"]["invariants.fingerprint.fingerprint.d1"] == 1
    assert summary["counts"]["diagram.flat_key.candidates"] >= 8
    hits, misses = summary["cache"]["invariants.writhes.dwrithe"]
    assert hits >= 2
    assert all(v >= 0 for v in summary["self_s"].values())
    assert sum(summary["module_self_s"].values()) > 0
    assert vknots.invariants.dwrithe is vknots.invariants.writhes.dwrithe is original
    assert vknots.invariants.REGISTRY["aip"].compute is vknots.invariants.affine_index_poly


def test_tracer_reports_missing_function_as_absent(monkeypatch):
    targets = tracing.TARGETS + (("moves.no_such_move", "vknots.moves", "no_such_move"),)
    monkeypatch.setattr(tracing, "TARGETS", targets)
    t = tracing.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["moves.no_such_move"]


# -- identity and golden oracles on the catalog fixtures ------------------------


def test_identity_oracles_hold_on_catalog_knots(tmp_path):
    golden = workloads.load_expected("golden.json")["batch"]
    for name in ("K431", "KPRIME", "VK1", "VK2", "VK3", "VK4", "KISHINO", "VTREF"):
        inv = workloads.KNOT_BATTERY + (workloads.TABLE2_SPECS if name in ("VK3", "VK4") else "")
        row = batch_row(tmp_path, name, vknots.lookup(name).code, inv)
        assert workloads.knot_row_identities(row) == [], name
        assert workloads.golden_row(row, golden.get(name, {})) == [], name


def test_identity_oracles_hold_on_catalog_links(tmp_path):
    golden = workloads.load_expected("golden.json")["batch"]
    for name in ("HOPF", "UNLINK2"):
        code = vknots.lookup(name).code
        row = batch_row(tmp_path, name, code, workloads.LINK_BATTERY)
        assert workloads.link_row_identities(row, code) == [], name
        assert workloads.golden_row(row, golden.get(name, {})) == [], name


def test_bsum_oracles_hold_on_catalog_fixtures(tmp_path):
    for name in ("KISHINO", "K431", "HOPF", "UNLINK2", "TREFOIL"):
        code = vknots.lookup(name).code
        n = len(code.split(";"))
        inv = ",".join(f"bsum({i}),bflat({i})" for i in range(1, n + 1))
        row = batch_row(tmp_path, name, code, inv)
        assert workloads.bsum_row_identities(row, code) == [], name


def test_oracles_reject_wrong_values(tmp_path):
    golden = workloads.load_expected("golden.json")["batch"]
    row = batch_row(tmp_path, "K431", vknots.lookup("K431").code, workloads.KNOT_BATTERY)
    row["djnm(1,1)"] = 4
    assert workloads.golden_row(row, golden["K431"])
    row["djn(1)"] += 1
    assert workloads.knot_row_identities(row)
    code = vknots.lookup("HOPF").code
    row = batch_row(tmp_path, "HOPF", code, workloads.LINK_BATTERY)
    row["lk"]["over"] = 0
    assert workloads.link_row_identities(row, code)
    code = vknots.lookup("KISHINO").code
    row = batch_row(tmp_path, "KISHINO", code, "bsum(1),bflat(1)")
    row["bflat(1)"]["terms"][0]["coef"] += 1
    assert workloads.bsum_row_identities(row, code)


def test_verdict_oracles():
    item = workloads.Item("k", ("distinguish", "KISHINO", "UNKNOT"), None, "distinct",
                          name="KISHINO")
    golden = workloads.load_expected("golden.json")
    code, out = cli(*item.argv)
    assert workloads.check_item(item, code, out, golden) is None
    assert workloads.check_item(item, 1, "INCONCLUSIVE\n", golden)
    same = workloads.Item("s", (), None, "same")
    assert workloads.check_item(same, 1, "INCONCLUSIVE\n", golden) is None
    assert workloads.check_item(same, 0, "DISTINCT via aip: 1 != 0\n", golden)
    walk = workloads.Item("w", (), None, "walk")
    assert workloads.check_item(walk, 0, "verify\nPASS aip\nRESULT PASS\n", golden) is None
    assert workloads.check_item(walk, 1, "verify\nFAIL aip at step 3\nRESULT FAIL\n", golden)


# -- host-speed normalization ----------------------------------------------------


def test_local_reference_is_a_windowed_median():
    refs = [4.0, 4.0, 9.0, 4.0, 4.0, 8.0, 8.0, 8.0, 8.0]
    local = hostspeed.local_reference(refs, window=1)
    assert local == [4.0, 4.0, 4.0, 4.0, 4.0, 8.0, 8.0, 8.0, 8.0]
    assert hostspeed.local_reference([], window=3) == []
    assert hostspeed.local_reference([5.0], window=3) == [5.0]


def test_normalized_times_scale_with_the_reference():
    ref = hostspeed.REFERENCE_MS
    assert hostspeed.normalized(100.0, ref) == 100.0
    # a host twice as slow runs both the item and the reference twice as long
    assert hostspeed.normalized(200.0, 2 * ref) == 100.0


def test_reference_is_fixed_work():
    assert hostspeed.reference() == hostspeed.reference()
    assert hostspeed.time_reference() > 0


def test_end_to_end_normalizes_item_and_setup_times():
    s = run.Session(0, False)
    ref = hostspeed.REFERENCE_MS
    s.setup = {"setup_s": 0.5, "ref_ms": 2 * ref}
    s.items = [{"i": i, "ms": 10.0 * (i + 1), "ref_ms": 2 * ref} for i in range(20)]
    s.end = {"rss_kb": 2048, "loop_s": 1.0, "complete": True}
    values, info = run.end_to_end([s])
    assert values["setup_s"] == 0.25
    assert values["latency_p50_ms"] == 52.5  # raw median 105 ms, host half as fast
    assert values["latency_p90_ms"] == 90.0
    assert values["peak_rss_mb"] == 2.0
    assert abs(values["items_per_s"] - 1000.0 * 20 / 1050.0) < 1e-9
    assert info["raw"]["latency_p50_ms"] == 105.0
    assert info["raw"]["setup_s"] == 0.5


# -- inputs ----------------------------------------------------------------------


def test_random_codes_are_valid_and_seeded():
    rng = random.Random(3)
    for n in range(0, 15):
        for comps in (1, 2, 3):
            code = workloads.random_code(rng, n, comps)
            d = vknots.parse(code)
            assert (d.n_crossings, d.n_components) == (n, comps)
            assert len(workloads.crossing_table(code)) == n
    a = workloads.random_code(random.Random(1), 10, 2)
    assert a == workloads.random_code(random.Random(1), 10, 2)


def test_balanced_codes_share_passages_about_equally():
    rng = random.Random(4)
    for n in range(0, 15):
        for comps in (1, 2, 3):
            code = workloads.random_code(rng, n, comps, balanced=True)
            d = vknots.parse(code)
            assert (d.n_crossings, d.n_components) == (n, comps)
            lengths = [len(c) for c in workloads.parse_code(code)]
            assert sum(lengths) == 2 * n
            share = 2 * n / comps
            # each cut lies within two places (after rounding) of an equal share
            cuts = [sum(lengths[:k]) for k in range(1, comps)]
            assert all(abs(c - k * share) <= 2.5 for k, c in enumerate(cuts, 1)), code


def test_session_inputs_are_seeded_and_distinct():
    for w in workloads.WORKLOADS:
        a = workloads.session_items(w, 5, 0, vknots)
        assert [i.key for i in a] == [i.key for i in workloads.session_items(w, 5, 0, vknots)]
        b = workloads.session_items(w, 5, 1, vknots)
        assert {i.key for i in a} != {i.key for i in b}
        assert len(a) == workloads.SESSION_ITEMS[w]


def test_recorded_input_digests_match():
    recorded = workloads.load_expected("inputs.json")
    assert set(recorded) == set(workloads.WORKLOADS)
    for w, table in recorded.items():
        for key in sorted(table)[:4]:
            seed, index = map(int, key.split(":"))
            items = workloads.session_items(w, seed, index, vknots)
            assert session.inputs_digest(items) == table[key], (w, key)


# -- BENCHMARK.json matches what the benchmark reports -------------------------


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
