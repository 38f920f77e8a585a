import random
from collections import Counter

from scythe.complexes import filled_triangle, genus2_surface, torus_grid
from scythe.field import RATIONAL
from scythe.morse import iterate_scythe, scythe
from scythe.report import ComplexityReport, build_report, input_parameters
from scythe.sheaf import compile_sheaf, constant_sheaf

from randgen import random_parametrization, random_simplicial


def test_input_parameters_are_brute_force_counts():
    param = compile_sheaf(constant_sheaf(torus_grid(3, 3), rank=2))
    n, p, d = input_parameters(param)
    assert n == len(param.poset.dims) == 36
    up = {}
    for x, y in param.poset.covers():
        up.setdefault(x, set()).add(y)
    assert p == max(len(s) for s in up.values())
    assert d == 2


def test_report_fields():
    rep = ComplexityReport(10, 4, 3, [1, 2, 1], {"reduce": 0.5})
    assert rep.m_tilde == 1 + 4 + 1
    assert rep.omega == 3
    assert rep.peak_memory_estimate == 10 * 10 * 4 * 3 * 3
    j = rep.to_json()
    assert j == {
        "n": 10, "p": 4, "d": 3, "m_k": [1, 2, 1], "m_tilde": 6,
        "omega": 3, "peak_memory_estimate": 3600,
        "wall_time": {"reduce": 0.5},
    }
    text = rep.table()
    lines = text.split("\n")
    assert lines[0].endswith("10")
    assert "1 2 1" in text
    assert lines[-1].startswith("time: reduce")
    assert "0.500000 s" in lines[-1]
    # empty m_k renders a dash, no timing rows without wall_time
    bare = ComplexityReport(0, 0, 0, [])
    assert "-" in bare.table()
    assert "time:" not in bare.table()


def test_build_report_matches_reduction():
    param = compile_sheaf(constant_sheaf(genus2_surface()))
    n, p, d = input_parameters(param)
    assert (n, p, d) == (302, 8, 1)
    data = iterate_scythe(param)
    rep = build_report(n, p, d, data)
    assert rep.m_k == [1, 4, 1]
    assert rep.m_tilde == 18
    counts = {}
    for c in param.poset.dims.values():
        counts[c] = counts.get(c, 0) + 1
    assert rep.m_k == [counts.get(k, 0) for k in range(param.top + 1)]


def test_report_counts_over_the_kept_degree_range():
    # the filled triangle reduces to one vertex, but its parametrization
    # keeps degrees 0..2, as betti does
    param = compile_sheaf(constant_sheaf(filled_triangle()))
    n, p, d = input_parameters(param)
    data = scythe(param)
    assert param.poset.max_dim() == 0 and param.top == 2
    rep = build_report(n, p, d, data)
    assert rep.m_k == [1, 0, 0]
    assert rep.m_tilde == 1


def test_report_on_random_instances():
    rng = random.Random(4213)
    for _ in range(12):
        param = random_parametrization(rng, random_simplicial(rng), RATIONAL)
        n, p, d = input_parameters(param)
        assert n == len(param.poset.dims)
        assert d == max(param.stalk_rank.values(), default=0)
        data = scythe(param)
        rep = build_report(n, p, d, data)
        assert sum(rep.m_k) == len(param.poset.dims)
        survivors = Counter(param.poset.dims.values())
        assert rep.m_k == [survivors[k] for k in range(param.top + 1)]
        assert rep.m_tilde == sum(m * m for m in survivors.values())
        assert rep.peak_memory_estimate == n * n * p * d * d
