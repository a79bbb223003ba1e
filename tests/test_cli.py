import json
import time
import tracemalloc

import pytest

from polyvol import ehrhart_fit, graph_from_dsl
from polyvol.bipartite import MAX_PERM_SIDE
from polyvol.cli import EXACT, METHODS, main
from polyvol.graphs import MAX_EDGE_LIST_BYTES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


def test_volume_path4(capsys):
    code, out, _ = run(capsys, "volume", "path:4")
    assert code == 0 and out == "5/24 (≈ 0.208333)"


def test_volume_kbip_perm(capsys):
    code, out, _ = run(capsys, "volume", "kbip:3,3", "--method", "perm")
    assert code == 0 and out == "1/20 (≈ 0.050000)"


def test_volume_methods_agree(capsys):
    # every exact method applies to both graphs
    cases = (("kbip:2,3", "1/10 (≈ 0.100000)"), ("bn:3", "1/15 (≈ 0.066667)"))
    for dsl, expected in cases:
        for method in ("auto", *EXACT):
            code, out, _ = run(capsys, "volume", dsl, "--method", method)
            assert (code, out) == (0, expected), (dsl, method)


def test_closed_covers_null_graphs(capsys):
    code, out, _ = run(capsys, "volume", "null:3", "--method", "closed")
    assert code == 0 and out == "1 (≈ 1.000000)"
    code, out, _ = run(capsys, "volume", "null:3", "--json")
    assert code == 0 and json.loads(out)["method"] == "closed"


def test_closed_rejects_a_join_of_empty_null_graphs(capsys):
    code, _, err = run(capsys, "volume", "njoin(2,null:0)", "--method", "closed")
    assert code == 2 and "no closed form" in err
    code, out, _ = run(capsys, "volume", "njoin(2,null:0)", "--json")
    assert code == 0 and json.loads(out)["method"] == "perm"


def test_njoin_of_an_empty_graph_prints_one_at_once(capsys):
    for spec in ("njoin(1000000000000,null:0)", "njoin(1000000000000,join(null:0,null:0))"):
        start = time.perf_counter()
        assert run(capsys, "volume", spec) == (0, "1 (≈ 1.000000)", ""), spec
        assert time.perf_counter() - start < 1, spec
        code, _, err = run(capsys, "volume", spec, "--method", "closed")
        assert code == 2 and "no closed form" in err
        assert time.perf_counter() - start < 1, spec


def test_volume_json(capsys):
    code, out, _ = run(capsys, "volume", "path:4", "--json")
    payload = json.loads(out)
    assert code == 0
    assert (payload["numerator"], payload["denominator"]) == ("5", "24")


def test_volume_mc(capsys):
    code, out, _ = run(
        capsys, "volume", "complete:2", "--method", "mc", "--samples", "50000",
        "--seed", "9",
    )
    assert code == 0 and "±" in out
    estimate = float(out.split("±")[0])
    assert abs(estimate - 0.5) < 0.02


def test_negative_seed_exits_one(capsys):
    # null:3 has no edges, so mc returns before it would seed a generator
    for graph in ("path:4", "null:3"):
        for argv in (
            ("volume", graph, "--method", "mc", "--seed", "-1"),
            ("crosscheck", graph, "--methods", "mc", "--seed", "-3"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "") and err.startswith("error: seed -"), argv


def test_volume_prints_the_text_of_crosschecks_row(capsys):
    options = ("--samples", "2000", "--seed", "7")
    code, out, _ = run(
        capsys, "crosscheck", "kbip:2,3", "--methods", ",".join(METHODS), "--json", *options
    )
    rows = json.loads(out)["results"]
    assert code == 0 and list(rows) == list(METHODS)
    for method in METHODS:
        assert run(capsys, "volume", "kbip:2,3", "--method", method, *options) == (
            0, rows[method], ""
        ), method


def test_count(capsys):
    code, out, _ = run(capsys, "count", "cycle:3", "2")
    assert code == 0 and out == "11"


def test_count_over_the_work_budget_fails_fast(capsys):
    # the points of path:30 at t = 10^6 are far too many to visit one by one
    start = time.perf_counter()
    code, _, err = run(capsys, "count", "path:30", "1000000")
    assert code == 1 and "MAX_COUNT_WORK" in err
    assert time.perf_counter() - start < 5


def test_count_of_a_large_dilation_within_the_table_is_exact_and_fast(capsys):
    # cycle:5 has one component of at most MAX_FIT_N vertices: the table
    # counts t = 10^6 from the dilates up to 11 and Newton's differences
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "cycle:5", "1000000")
    assert time.perf_counter() - start < 2
    assert (code, err) == (0, "")
    fit = ehrhart_fit(graph_from_dsl("cycle:5"))
    assert fit.parity == "even-only" and int(out) == fit.poly(500_000)
    assert out == "104167447919062503750003000001"


def test_count_of_a_huge_dilation_of_an_edgeless_graph_exits_one(capsys):
    # the count would have over 4300 digits, past Python's int-to-str limit
    code, out, err = run(capsys, "count", "null:63", "1" + "0" * 100)
    assert (code, out) == (1, "") and "MAX_COUNT_WORK" in err
    assert "Traceback" not in err


def test_sliced(capsys):
    code, out, _ = run(capsys, "sliced", "join(null:1,null:1)")
    assert code == 0 and out == "-1/2 + 2*c - c^2"
    # the named families take the same join expressions as their spelled-out forms;
    # 100 single vertices joined one at a time (99 nested joins) must stay far
    # below the 3-6 s that a join chain of cubic cost takes
    chain = "join(null:1," * 99 + "null:1" + ")" * 99
    for named, joined in (
        ("kbip:2,3", "join(null:2,null:3)"),
        ("complete:4", "njoin(4,null:1)"),
        ("complete:100", chain),
    ):
        start = time.perf_counter()
        spelled_out = run(capsys, "sliced", joined)
        assert time.perf_counter() - start < 1, named
        assert run(capsys, "sliced", named) == spelled_out, named
        code, out, _ = run(capsys, "sliced", named, "--json")
        payload = json.loads(out)
        assert code == 0 and payload.pop("graph") == named
        code, out, _ = run(capsys, "sliced", joined, "--json")
        assert code == 0 and json.loads(out) == dict(payload, graph=joined), named


def test_sliced_reads_a_null_part_without_vertices_as_volume_does(capsys):
    for spec, want in (
        ("null:0", "1"),
        ("join(null:0,null:2)", "c^2"),
        ("njoin(3,null:0)", "1"),
    ):
        assert run(capsys, "sliced", spec) == (0, want, ""), spec
        assert run(capsys, "volume", spec) == (0, "1 (≈ 1.000000)", ""), spec


def test_sliced_rejects_non_join_expression(capsys):
    code, _, err = run(capsys, "sliced", "path:4")
    assert code == 2 and "not applicable" in err


def test_ehrhart_output(capsys):
    code, out, _ = run(capsys, "ehrhart", "path:3")
    lines = out.splitlines()
    assert code == 0
    assert lines[0].startswith("L(t) =")
    assert lines[1] == "h* = [1, 1, 0, 0]"
    assert lines[2] == "volume = 1/3 (≈ 0.333333)"


def test_ehrhart_non_bipartite(capsys):
    code, out, _ = run(capsys, "ehrhart", "cycle:3")
    assert code == 0 and "even dilations" in out


def test_series(capsys):
    code, out, _ = run(capsys, "series", "3", "--terms", "500")
    assert code == 0 and len(out.splitlines()) == 3


def test_series_rejects_an_order_past_the_zigzag_bound_before_summing(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "series", "2000", "--terms", "1")
    assert code == 1 and out == "" and "MAX_FAMILY_N" in err
    assert time.perf_counter() - start < 1


def test_oversized_terms_and_samples_fail_fast(capsys):
    cases = (
        (("series", "3", "--terms", "100000000"), "MAX_SERIES_TERMS"),
        (("volume", "cycle:5", "--method", "mc", "--samples", "1000000000"), "MAX_MC_WORK"),
        (("volume", "null:0", "--method", "mc", "--samples", "10000000000"), "MAX_MC_WORK"),
        (("crosscheck", "cycle:5", "--methods", "mc", "--samples", "1000000000"),
         "MAX_MC_WORK"),
    )
    for argv, bound in cases:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and bound in err, argv
        assert time.perf_counter() - start < 1, argv


def test_oversized_sliced_specs_fail_before_building_any_polynomial(capsys):
    from polyvol.slices import MAX_SLICED_N

    start = time.perf_counter()
    for spec in ("null:100000000", "njoin(100000000,null:1)", "kbip:60,60"):
        code, out, err = run(capsys, "sliced", spec)
        assert code == 1 and out == "" and "MAX_SLICED_N" in err, spec
    assert time.perf_counter() - start < 1
    # a join of 50 + 50 vertices sits on the bound
    assert MAX_SLICED_N == 100
    assert run(capsys, "sliced", "njoin(2,null:50)")[0] == 0


def test_series_cost_does_not_grow_with_the_order(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "series", "501", "--terms", "250000")
    assert code == 0 and len(out.splitlines()) == 3
    assert time.perf_counter() - start < 1


def test_back_to_back_calls_do_not_share_options(capsys):
    code, out, _ = run(capsys, "volume", "kbip:2,3", "--json")
    assert code == 0 and json.loads(out)["method"] == "closed"
    assert run(capsys, "volume", "kbip:2,3") == (0, "1/10 (≈ 0.100000)", "")
    code, out, _ = run(capsys, "volume", "kbip:2,3", "--method", "perm", "--json")
    assert code == 0 and json.loads(out)["method"] == "perm"
    code, out, _ = run(capsys, "volume", "kbip:2,3", "--json")
    assert code == 0 and json.loads(out)["method"] == "closed"


def test_crosscheck(capsys):
    code, out, _ = run(
        capsys, "crosscheck", "cycle:5", "--methods", "rvf,ehrhart,mc",
        "--samples", "100000",
    )
    assert code == 0
    assert out.splitlines()[-1] == "agreement: ok"
    assert out.count("5/48") == 2


def test_crosscheck_rejects_unknown_methods_before_running_any(capsys, monkeypatch):
    from polyvol import cli

    def refuse(*args):
        raise AssertionError("a method ran")

    for kernel in ("perm_volume", "rvf_volume", "mc_volume"):
        monkeypatch.setattr(cli, kernel, refuse)
    for methods, named in (("perm,bogus", "bogus"), ("rvf,perm,perm", "perm"), ("mc,rvf,mc", "mc")):
        code, out, err = run(capsys, "crosscheck", "cycle:5", "--methods", methods, "--json")
        assert code == 1 and f"{named!r}" in err and out == "", methods


def test_families(capsys):
    code, out, _ = run(capsys, "families", "path", "1..4")
    assert code == 0
    assert out.splitlines()[-1] == "path:4 5/24 (≈ 0.208333)"
    # every one-argument row of graphs.FAMILIES, from its least value
    assert run(capsys, "families", "cycle", "0..3") == (0, "cycle:3 1/4 (≈ 0.250000)", "")
    assert run(capsys, "families", "null", "0..1")[1].splitlines() == [
        "null:0 1 (≈ 1.000000)", "null:1 1 (≈ 1.000000)"
    ]
    # a range with a negative lower end goes after --, as argparse reads -1..3 as an option
    code, out, _ = run(capsys, "families", "path", "--", "-1..3")
    assert code == 0 and out.splitlines()[0] == "path:0 1 (≈ 1.000000)"
    assert (code, out) == run(capsys, "families", "path", "0..3")[:2]
    code, _, err = run(capsys, "families", "kbip", "1..3")
    assert code == 1 and "null, path, cycle, complete, bn" in err


def test_families_builds_one_zigzag_table_per_range(capsys, monkeypatch):
    from polyvol import closed

    calls = []
    euler_numbers = closed.euler_numbers
    monkeypatch.setattr(
        closed, "euler_numbers", lambda n: calls.append(n) or euler_numbers(n)
    )
    for family, lo in (("path", 0), ("cycle", 3)):
        calls.clear()
        code, out, _ = run(capsys, "families", family, f"{lo}..60", "--json")
        assert code == 0 and calls == [60]
        values = json.loads(out)["values"]
        assert [v["n"] for v in values] == list(range(lo, 61))
        for v in values:
            # one table per n, as `volume path:n --method closed` builds it
            expected = closed.family_volume(closed.FamilySpec(family, args=(v["n"],)))
            assert (v["numerator"], v["denominator"]) == (
                str(expected.numerator), str(expected.denominator)
            )


def test_families_rejects_a_top_over_the_bound_before_looping(capsys):
    from polyvol.cli import MAX_FAMILY_N

    start = time.perf_counter()
    for family in ("path", "complete"):
        code, out, err = run(capsys, "families", family, f"1..{MAX_FAMILY_N + 1}")
        assert code == 1 and out == "" and "MAX_FAMILY_N" in err
    code, _, err = run(capsys, "families", "cycle", "3..100000000")
    assert code == 1 and "MAX_FAMILY_N" in err
    assert time.perf_counter() - start < 1
    assert run(capsys, "families", "bn", f"2..{MAX_FAMILY_N}")[0] == 0


def test_rvf_state_budget_exits_one(capsys, monkeypatch):
    from polyvol import rvf

    monkeypatch.setattr(rvf, "MAX_RVF_STATES", 10_000)
    code, out, err = run(capsys, "volume", "kbip:1,20", "--method", "rvf")
    assert code == 1 and out == "" and "MAX_RVF_STATES" in err


def test_file_input(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    code, out, _ = run(capsys, "volume", f"file:{path}")
    assert code == 0 and out == "1/3 (≈ 0.333333)"


def test_unreadable_files_exit_one(capsys, tmp_path):
    binary = tmp_path / "latin1.txt"
    binary.write_bytes(b"3 1\n0 1 \xff\n")
    for path in (tmp_path / "missing.txt", tmp_path, binary):
        code, out, err = run(capsys, "volume", f"file:{path}")
        assert (code, out) == (1, "") and err.startswith("error: ") and str(path) in err


def test_edge_list_files_over_the_size_bound_exit_one(capsys, tmp_path):
    at_bound = tmp_path / "at_bound.txt"
    at_bound.write_bytes(b"1 0\n" + b" " * (MAX_EDGE_LIST_BYTES - 4))
    assert run(capsys, "volume", f"file:{at_bound}")[:2] == (0, "1 (≈ 1.000000)")
    over = tmp_path / "over.txt"
    over.write_bytes(b"1 0\n" + b" " * (MAX_EDGE_LIST_BYTES - 3))
    for path in (over, "/dev/zero"):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "volume", f"file:{path}")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "") and err.startswith("error: ") and str(path) in err
        assert "MAX_EDGE_LIST_BYTES" in err and peak < 8 << 20, path


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "volume", "nonsense:4")[0] == 1
    assert run(capsys, "volume", "path:²")[0] == 1
    assert run(capsys, "volume", "path:4", "--method", "bogus")[0] == 1
    assert run(capsys, "families", "path", "4")[0] == 1
    assert run(capsys, "count", "path:3", "-1")[0] == 1
    assert run(capsys, "crosscheck", "path:3", "--methods", ",") == (1, "", "error: no methods given")
    assert run(capsys, "families", "path", "5..3") == (1, "", "error: empty range")
    # a spec nested past MAX_DSL_DEPTH, and an integer past int()'s digit limit
    for argv in (
        ("volume", "njoin(1," * 330 + "null:1" + ")" * 330),
        ("volume", "join(null:0," * 1000 + "null:1" + ")" * 1000),
        ("volume", "path:" + "9" * 4301),
        ("volume", "edges:3:0-" + "9" * 4301),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith("error: "), argv[1][:20]
    # every integer argument is ASCII digits after at most one leading '-'
    for argv in (
        ("count", "path:3", "٣"),
        ("count", "path:3", "+3"),
        ("count", "path:3", " 3"),
        ("volume", "path:4", "--method", "mc", "--seed=--1"),
        ("families", "path", "1..٣"),
        ("families", "path", "١..3"),
        ("families", "path", "1..+3"),
        ("series", "3", "--terms", "١٠"),
        ("volume", "path:4", "--method", "mc", "--samples", "1_000"),
        ("crosscheck", "path:4", "--methods", "mc", "--seed", "٣"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith(("usage error: ", "error: ")), argv


def test_method_not_applicable_exits_two(capsys):
    assert run(capsys, "volume", "cycle:5", "--method", "perm")[0] == 2
    assert run(capsys, "volume", "path:4", "--method", "sym")[0] == 2


def test_env_guard_respected(capsys):
    code, _, err = run(capsys, "volume", "path:27", "--method", "rvf")
    assert code == 1 and "capped" in err


def test_auto_falls_back_to_rvf(capsys):
    # wheel-ish graph: not a family, not bipartite
    code, out, _ = run(capsys, "volume", "edges:4:0-1,1-2,0-2,0-3,1-3,2-3")
    assert code == 0 and out == "1/8 (≈ 0.125000)"


def test_auto_uses_perm_up_to_the_side_cap(capsys):
    def star_forest(small):
        # each small-side vertex gets two private leaves
        pairs = ",".join(
            f"{i}-{small + 2 * i + k}" for i in range(small) for k in range(2)
        )
        return f"edges:{3 * small}:{pairs}"

    code, out, _ = run(capsys, "volume", star_forest(MAX_PERM_SIDE), "--json")
    assert code == 0 and json.loads(out)["method"] == "perm"
    # past the cap auto falls to rvf, which rejects the 51 vertices
    code, _, err = run(capsys, "volume", star_forest(MAX_PERM_SIDE + 1))
    assert code == 1 and "recursive method is capped" in err


def test_auto_ignores_isolated_vertices_when_sizing_the_small_side(capsys):
    # K(2,17) plus 15 isolated vertices: too big for rvf, fine for perm
    pairs = ",".join(f"{i}-{2 + j}" for i in range(2) for j in range(17))
    code, out, _ = run(capsys, "volume", f"edges:34:{pairs}")
    assert code == 0 and out.startswith("1/171 ")


def test_huge_vertex_count_fails_before_allocating(capsys):
    tracemalloc.start()
    try:
        code = main(["volume", "null:10000000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1 and "outside 0..63" in capsys.readouterr().err
    assert peak < 1 << 20
