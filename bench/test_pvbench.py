"""Tests of the benchmark itself: every checker accepts polyvol's real
output and flags a wrong value, and the traced run's self times add up.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import polyvol.cli as cli  # noqa: E402
from polyvol import from_edges, lattice_count, rvf_volume  # noqa: E402
from pvbench import checks, oracles, tracing, workloads  # noqa: E402
from pvbench.workloads import Call  # noqa: E402


def output(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def assert_flags(call, good, bad):
    checks.check_call(call, good)
    with pytest.raises(checks.CheckError):
        checks.check_call(call, bad)


def bump_numerator(text):
    """'p/q (...)' -> '(p+1)/q (...)'."""
    head, tail = text.split("/", 1)
    return f"{int(head) + 1}/{tail}"


CYCLE5 = oracles.family_graph("cycle", 5)
GRAPH6 = (6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (1, 4), (0, 5)])
BIP6 = (6, [(0, 3), (0, 4), (1, 4), (1, 5), (2, 3), (2, 5), (0, 5)])


def test_oracles_agree_with_polyvol():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(2, 7)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45]
        g = from_edges(n, edges)
        assert oracles.recursion_volume(n, edges) == rvf_volume(g)
        if oracles.two_coloring(n, edges) is not None:
            assert oracles.linear_extension_volume(n, edges) == rvf_volume(g)
        assert oracles.lattice_points(n, edges, 3) == lattice_count(g, 3)
    assert oracles.zigzag_numbers(8) == [1, 1, 1, 2, 5, 16, 61, 272, 1385]
    assert oracles.connected_states(3, [(0, 1), (1, 2)]) == (3, 7)


def test_exact_checker_flags_wrong_volume():
    call = Call(["volume", "cycle:5"], "exact", {"n": 5, "edges": CYCLE5[1], "family": ("cycle", 5)})
    good = output(call.argv)
    assert_flags(call, good, bump_numerator(good))
    call = Call(["volume", "cycle:5", "--json"], "exact", dict(call.info))
    good = output(call.argv)
    doc = json.loads(good)
    doc["numerator"] = str(int(doc["numerator"]) + 1)
    assert_flags(call, good, json.dumps(doc))


def test_volume_bounds_flag_impossible_values():
    checks.check_volume_bounds(Fraction(1, 4), 3)
    with pytest.raises(checks.CheckError):
        checks.check_volume_bounds(Fraction(1, 7), 3)  # 1/7 * 8 * 6 is no integer
    with pytest.raises(checks.CheckError):
        checks.check_volume_bounds(Fraction(1, 48), 3)  # below 2^(1-n)


def test_exact_checker_flags_stored_mc_disagreement():
    n, edges = GRAPH6
    volume = oracles.recursion_volume(n, edges)
    info = {"n": n, "edges": edges, "reference": volume, "mc_hits": (0, 100_000)}
    with pytest.raises(checks.CheckError):
        checks.check_call(Call([], "exact", info), f"{volume.numerator}/{volume.denominator}")


def test_mc_checker_flags_wrong_estimate():
    argv = ["volume", "cycle:5", "--method", "mc", "--samples", "20000"]
    call = Call(argv, "mc", {"n": 5, "edges": CYCLE5[1], "samples": 20_000})
    good = output(argv)
    estimate = checks.parse_estimate(good)
    assert_flags(call, good, f"{estimate * 1.2:.6f} ± 0.001000")


def test_crosscheck_checker_flags_each_row():
    n, edges = BIP6
    spec = workloads._dsl_edges(n, edges)
    call = Call(["crosscheck", spec], "crosscheck", {"n": n, "edges": edges, "samples": 100_000})
    good = output(call.argv)
    rvf_line = next(line for line in good.splitlines() if line.startswith("rvf"))
    method, value = rvf_line.split(None, 1)
    assert_flags(call, good, good.replace(rvf_line, f"{method}  {bump_numerator(value)}"))
    mc_line = next(line for line in good.splitlines() if line.startswith("mc"))
    assert_flags(call, good, good.replace(mc_line, "mc       0.500000 ± 0.001000"))
    assert_flags(call, good, good.replace("agreement: ok", "agreement: MISMATCH"))


@pytest.mark.parametrize("t", [1, 7])
def test_count_checker_flags_off_by_one(t):
    n, edges = GRAPH6
    call = Call(["count", workloads._dsl_edges(n, edges), str(t)], "count", {"n": n, "edges": edges, "t": t})
    good = output(call.argv)
    assert_flags(call, good, str(int(good) + 1))


def test_ehrhart_checker_flags_hstar_volume_and_polynomial():
    n, edges = BIP6
    call = Call(["ehrhart", workloads._dsl_edges(n, edges)], "ehrhart", {"n": n, "edges": edges})
    good = output(call.argv)
    lines = good.splitlines()
    hstar = json.loads(lines[1][5:])
    shifted = [hstar[0] + 1] + hstar[1:]
    assert_flags(call, good, good.replace(lines[1], f"h* = {shifted}"))
    negative = [hstar[0] - 2, hstar[1] + 2] + hstar[2:]
    assert_flags(call, good, good.replace(lines[1], f"h* = {negative}"))
    volume = lines[-1].split(" = ", 1)[1]
    assert_flags(call, good, good.replace(volume, bump_numerator(volume)))
    assert_flags(call, good, good.replace("L(t) = 1 +", "L(t) = 2 +"))
    # the even-only form of a non-bipartite graph
    n, edges = GRAPH6
    call = Call(["ehrhart", workloads._dsl_edges(n, edges)], "ehrhart", {"n": n, "edges": edges})
    good = output(call.argv)
    assert good.startswith("L(2s) = 1 +")
    assert_flags(call, good, good.replace("L(2s) = 1 +", "L(2s) = 2 +"))


def test_sliced_checker_flags_wrong_polynomial():
    n, edges = oracles.family_graph("kbip", 2, 3)
    call = Call(["sliced", "join(null:2,null:3)"], "sliced", {"n": n, "edges": edges})
    good = output(call.argv)
    assert_flags(call, good, good.strip() + " + c^20")
    call = Call(["sliced", "join(null:2,null:3)", "--json"], "sliced", dict(call.info))
    good = output(call.argv)
    doc = json.loads(good)
    doc["high_coefficients"][-1] = str(Fraction(doc["high_coefficients"][-1]) + 1)
    assert_flags(call, good, json.dumps(doc))


def test_families_checker_flags_one_wrong_entry():
    call = Call(["families", "path", "1..9"], "families", {})
    good = output(call.argv)
    line = good.splitlines()[6]
    name, value = line.split(" ", 1)
    assert_flags(call, good, good.replace(line, f"{name} {bump_numerator(value)}"))


def test_series_checker_flags_perturbed_sum():
    call = Call(["series", "4", "--terms", "300"], "series", {"order": 4, "terms": 300})
    good = output(call.argv)
    first = good.splitlines()[0]
    digits = first.split(" = ")[1]
    wrong = digits[:5] + str((int(digits[5]) + 1) % 10) + digits[6:]  # off by 1e-4
    assert_flags(call, good, good.replace(first, first.replace(digits, wrong)))


def test_failing_crosscheck_is_the_documented_one():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["crosscheck", "complete:22", "--methods", "closed,mc"])
    assert rc == 1 and buf.getvalue().strip().endswith("agreement: MISMATCH")


def test_traced_self_times_add_up_to_call_time():
    tracer = tracing.Tracer()
    tracer.start()
    try:
        for argv in (
            ["volume", "cycle:6", "--method", "rvf"],
            ["volume", "kbip:2,3", "--method", "perm"],
            ["ehrhart", "path:3"],
            ["crosscheck", "path:4", "--methods", "closed,rvf,perm,mc", "--samples", "2000"],
            ["sliced", "njoin(2,null:2)"],
            ["series", "3", "--terms", "50"],
        ):
            output(argv)
    finally:
        tracer.stop()
    assert cli.main.__name__ == "main"  # wrappers removed
    spans = tracer.spans
    own = tracing.self_times(spans)
    assert min(own) >= -1e-9
    roots = sum(end - start for name, parent, start, end, _ in spans if parent < 0)
    assert all(name == "polyvol.cli.main" for name, parent, *_ in spans if parent < 0)
    assert sum(own) == pytest.approx(roots, rel=1e-9, abs=1e-12)
    totals = tracing.layer_metrics(spans)
    seconds = sum(v for k, v in totals.items() if tracing.METRICS[k] == "s")
    assert seconds == pytest.approx(roots, rel=1e-9, abs=1e-12)
    assert totals["rvf.calls"] == 2 and totals["rvf.states"] > 0
    assert totals["bipartite.orderings"] == 2 + 2  # kbip:2,3 and path:4 each order 2 vertices
    assert totals["ehrhart.count_calls"] == 2 * 4 + 4  # fit twice, h* once, on 4 dilates
    assert totals["mc.samples"] == 2000


def test_workloads_are_fixed_by_the_seed(tmp_path):
    for build in (workloads.light_calls, workloads.ehrhart_verify, workloads.rvf_general):
        first = [c.argv for c in build(3, tmp_path)]
        again = [c.argv for c in build(3, tmp_path)]
        other = [c.argv for c in build(4, tmp_path)]
        assert first == again and first != other
