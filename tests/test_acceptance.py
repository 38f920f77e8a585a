"""Acceptance gate: nine end-to-end criteria, one summary line each.

Every criterion prints ACCEPTANCE <k> <name>: PASS/FAIL with its runtime
in the terminal summary.  Stated budgets are asserted: the standard sheaf
suite under one second, five hundred random reductions under a minute,
the Reeb pipeline under five seconds.  All comparisons are exact.
"""

import functools
import json
import random
import time

from scythe.cohomology import betti, sheaf_cohomology
from scythe.cli import main
from scythe.complexes import (
    circle,
    filled_triangle,
    genus2_reeb,
    genus2_surface,
    interval,
    point,
    torus_grid,
    torus_reeb,
)
from scythe.cw import subcomplex
from scythe.field import RATIONAL, fp
from scythe.morse import (
    coscythe,
    iterate_scythe,
    reduce_pair,
    scythe,
)
from scythe.nerve import (
    Cover,
    cech_sheaf,
    cohomology_via_cech,
    cohomology_via_leray,
    parallel_stalks,
)
from scythe.report import build_report, input_parameters
from scythe.sheaf import (
    compile_sheaf,
    constant_sheaf,
    pushforward_constant,
    skyscraper_sheaf,
)

from conftest import ACCEPTANCE_LINES
from morse_oracle import morse_coboundary_oracle
from test_equivalence import check_laws
from test_morse import (
    FIXTURES, assert_passes_legal, checked_run, fixture_params,
)
from randgen import random_parametrization, random_simplicial

RUNNERS = [scythe, coscythe, iterate_scythe]

# instances whose matchings got the full legality treatment, across criteria
LEGALITY = {"instances": 0}


def criterion(num, slug):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                note = str(exc).split("\n")[0][:80]
                ACCEPTANCE_LINES.append(
                    "ACCEPTANCE %d %s: FAIL (%.2fs) %s"
                    % (num, slug, time.perf_counter() - start, note)
                )
                raise
            ACCEPTANCE_LINES.append(
                "ACCEPTANCE %d %s: PASS (%.2fs)"
                % (num, slug, time.perf_counter() - start)
            )
        return run
    return wrap


def run_legal(runner, param, **kw):
    """runner(param, **kw), with every pass checked against the poset as it
    stood before that pass (see checked_run)."""
    data, passes = checked_run(runner, param, **kw)
    assert_passes_legal(passes, runner)
    LEGALITY["instances"] += 1
    return data


@criterion(1, "standard-sheaf-suite")
def test_standard_sheaf_suite():
    suite = [
        (point, [1]),
        (interval, [1, 0]),
        (circle, [1, 1]),
        (filled_triangle, [1, 0, 0]),
        (lambda: torus_grid(3, 3), [1, 2, 1]),
        (genus2_surface, [1, 4, 1]),
    ]
    start = time.perf_counter()
    for make, want in suite:
        cw = make()
        top = cw.poset.max_dim()
        assert sheaf_cohomology(constant_sheaf(cw)).betti == want

        picked = {}
        for c in sorted(cw.cells()):
            picked.setdefault(cw.dim(c), c)
        for d, cell in picked.items():
            got = sheaf_cohomology(skyscraper_sheaf(cw, cell)).betti
            assert got == [1 if k == d else 0 for k in range(top + 1)]

        skeleton = {c for c in cw.cells() if cw.dim(c) < top} or set(cw.cells())
        via_pushforward = sheaf_cohomology(pushforward_constant(cw, skeleton))
        direct = sheaf_cohomology(constant_sheaf(subcomplex(cw, skeleton)))
        padded = direct.betti + [0] * (top + 1 - len(direct.betti))
        assert via_pushforward.betti == padded
    assert time.perf_counter() - start < 1.0


@criterion(2, "random-reduction-preserves-betti")
def test_reduction_preserves_betti_on_500_random():
    rng = random.Random(20260814)
    start = time.perf_counter()
    for count in range(500):
        base = random_simplicial(rng)
        field = fp(5) if count % 2 else RATIONAL
        param = random_parametrization(rng, base, field)
        assert len(param.poset) <= 20
        before = betti(param.assemble()).betti
        runner = RUNNERS[count % 3]
        run_legal(runner, param)
        after = betti(param.assemble()).betti
        assert after + [0] * (len(before) - len(after)) == before
    assert time.perf_counter() - start < 60.0


@criterion(3, "gradient-path-oracle")
def test_oracle_equals_replay_on_100_random():
    rng = random.Random(31)
    done = 0
    while done < 100:
        base = random_simplicial(rng, max_vertices=5, max_cells=12)
        field = fp(5) if done % 3 == 0 else RATIONAL
        param = random_parametrization(rng, base, field)
        pristine = param.copy()
        data = run_legal(scythe, param)
        if not data.matching.pairs:
            continue
        done += 1
        replay = pristine.copy()
        for x, y in data.matching.pairs:
            reduce_pair(replay, x, y)
        blocks = morse_coboundary_oracle(pristine, data.matching)
        assert set(blocks) == set(replay.maps)
        for key, blk in blocks.items():
            assert blk.data == replay.maps[key].data


@criterion(4, "cochain-equivalence-laws")
def test_equivalence_laws_on_fixtures_and_100_random():
    for runner in RUNNERS:
        for param in fixture_params():
            orig = param.copy().assemble()
            data = run_legal(runner, param, track_equivalence=True)
            check_laws(orig, data.equivalence.dst_complex, data.equivalence)
    rng = random.Random(97)
    for count in range(100):
        base = random_simplicial(rng)
        field = fp(5) if count % 2 else RATIONAL
        param = random_parametrization(rng, base, field)
        orig = param.copy().assemble()
        runner = RUNNERS[count % 3]
        data = run_legal(runner, param, track_equivalence=True)
        check_laws(orig, data.equivalence.dst_complex, data.equivalence)


@criterion(5, "matching-legality")
def test_matchings_are_legal_on_fixtures():
    # random instances get the same scan inline in criteria 2 through 4
    for runner in RUNNERS:
        for param in fixture_params():
            run_legal(runner, param)
    assert LEGALITY["instances"] >= 3 * len(FIXTURES)


@criterion(6, "cech-two-and-three-arcs")
def test_cech_on_arc_covers():
    from scythe.complexes import three_arc_cover_cells, two_arc_cover_cells

    cw2, pieces2 = two_arc_cover_cells()
    cover2 = Cover(cw2, pieces2)
    assert cohomology_via_cech(cw2, cover2).betti == [1, 1]
    # the two arcs meet in two components, so the overlap stalk has rank 2
    assert cech_sheaf(cover2, 0).sheaf.stalk_rank["A|B"] == 2

    cw3, pieces3 = three_arc_cover_cells()
    cover3 = Cover(cw3, pieces3)
    assert cohomology_via_cech(cw3, cover3).betti == [1, 1]


@criterion(7, "leray-reeb-pipeline")
def test_leray_on_reeb_fixtures():
    start = time.perf_counter()
    surface, graph, fibers = genus2_reeb()
    via_pipeline = cohomology_via_leray(surface, graph, fibers).betti
    assert via_pipeline == [1, 4, 1]
    direct = sheaf_cohomology(constant_sheaf(genus2_surface())).betti
    assert via_pipeline == direct
    t, tg, tf = torus_reeb()
    assert cohomology_via_leray(t, tg, tf).betti == [1, 2, 1]
    assert time.perf_counter() - start < 5.0


@criterion(8, "parallel-determinism")
def test_parallel_and_cli_determinism(tmp_path, data_dir):
    surface, _, fibers = genus2_reeb()
    tasks = [(fibers[c], n) for c in sorted(fibers) for n in (0, 1, 2)]
    one = parallel_stalks(surface, tasks, workers=1)
    eight = parallel_stalks(surface, tasks, workers=8)
    assert [p.betti for p in one] == [p.betti for p in eight]

    def run(name, *argv):
        out = tmp_path / name
        assert main(list(argv) + ["-o", str(out)]) == 0
        return out.read_bytes()

    torus = str(data_dir / "torus.json")
    assert run("c1.json", "compute", torus) == run("c2.json", "compute", torus)
    # reduce timing goes to stderr, never into the document
    assert run("r1.json", "reduce", torus) == run("r2.json", "reduce", torus)
    cech = ["cech", str(data_dir / "circle6.json"),
            str(data_dir / "three_arc_cover.json")]
    assert run("w1.json", *cech, "--workers", "1") == \
        run("w8.json", *cech, "--workers", "8")


@criterion(9, "complexity-reporting")
def test_reports_match_brute_force(tmp_path):
    for param in fixture_params():
        cells = dict(param.poset.dims)
        up = {}
        for x, y in param.poset.covers():
            up.setdefault(x, set()).add(y)
        n, p, d = input_parameters(param)
        assert n == len(cells)
        assert p == max((len(s) for s in up.values()), default=0)
        assert d == max(param.stalk_rank[c] for c in cells)
        data = scythe(param)
        rep = build_report(n, p, d, data)
        survivors = {}
        for c, k in param.poset.dims.items():
            survivors[k] = survivors.get(k, 0) + 1
        assert rep.m_k == [survivors.get(k, 0)
                           for k in range(param.top + 1)]
        assert rep.m_tilde == sum(m * m for m in rep.m_k)
        assert rep.peak_memory_estimate == n * n * p * d * d

    out = tmp_path / "bench.json"
    assert main(["bench", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    sizes = [row["n"] for row in doc["interval"]]
    assert len(sizes) >= 4 and sizes == sorted(set(sizes))
    assert all(isinstance(row["seconds"], float) and row["seconds"] >= 0
               for row in doc["interval"])
