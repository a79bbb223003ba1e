import json
import tracemalloc

import pytest

from polyvol import from_edges
from polyvol.bipartite import MAX_PERM_SIDE
from polyvol.cli import _auto_method, main


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
    results = set()
    for method in ("auto", "rvf", "perm", "sym", "ehrhart", "closed"):
        code, out, _ = run(capsys, "volume", "kbip:2,3", "--method", method)
        assert code == 0
        results.add(out)
    assert results == {"1/10 (≈ 0.100000)"}


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


def test_count(capsys):
    code, out, _ = run(capsys, "count", "cycle:3", "2")
    assert code == 0 and out == "11"


def test_sliced(capsys):
    code, out, _ = run(capsys, "sliced", "join(null:1,null:1)")
    assert code == 0 and out == "-1/2 + 2*c - c^2"


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


def test_crosscheck(capsys):
    code, out, _ = run(
        capsys, "crosscheck", "cycle:5", "--methods", "rvf,ehrhart,mc",
        "--samples", "100000",
    )
    assert code == 0
    assert out.splitlines()[-1] == "agreement: ok"
    assert out.count("5/48") == 2


def test_families(capsys):
    code, out, _ = run(capsys, "families", "path", "1..4")
    assert code == 0
    assert out.splitlines()[-1] == "path:4 5/24 (≈ 0.208333)"


def test_file_input(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    code, out, _ = run(capsys, "volume", f"file:{path}")
    assert code == 0 and out == "1/3 (≈ 0.333333)"


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "volume", "nonsense:4")[0] == 1
    assert run(capsys, "volume", "path:4", "--method", "bogus")[0] == 1
    assert run(capsys, "families", "path", "4")[0] == 1
    assert run(capsys, "count", "path:3", "-1")[0] == 1


def test_method_not_applicable_exits_two(capsys):
    assert run(capsys, "volume", "cycle:5", "--method", "perm")[0] == 2
    assert run(capsys, "volume", "path:4", "--method", "sym")[0] == 2


def test_env_guard_respected(capsys, monkeypatch):
    monkeypatch.setenv("POLYVOL_MAX_N", "3")
    code, _, err = run(capsys, "volume", "path:4", "--method", "rvf")
    assert code == 1 and "capped" in err


def test_auto_falls_back_to_rvf(capsys):
    # wheel-ish graph: not a family, not bipartite
    code, out, _ = run(capsys, "volume", "edges:4:0-1,1-2,0-2,0-3,1-3,2-3")
    assert code == 0 and out == "1/8 (≈ 0.125000)"


def test_auto_uses_perm_up_to_the_side_cap():
    def star_forest(small):
        # each small-side vertex gets two private leaves
        edges = [(i, small + 2 * i + k) for i in range(small) for k in range(2)]
        return from_edges(3 * small, edges)

    assert _auto_method(None, star_forest(MAX_PERM_SIDE)) == "perm"
    assert _auto_method(None, star_forest(MAX_PERM_SIDE + 1)) == "rvf"


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
