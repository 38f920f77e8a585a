"""Tests of the benchmark itself: its inputs, its checks and its timing.

Inputs are checked against the elimination in checks.py, never against
the program; each check is shown to reject a corrupted output.
"""

import random

import pytest

from scythe import RATIONAL, Cover, fp, nerve, validate_fibers

from perfbench import checks, jobs, run
from perfbench.inputs import (
    TOP,
    constant_on_genus2,
    constant_on_torus,
    torus_over_cycle,
    twisted_on_torus,
)
from perfbench.spans import Recorder

FIELDS = (RATIONAL, fp(5))
SINGLE_KINDS = [
    (("skyscraper", 0),), (("skyscraper", 1),), (("skyscraper", 2),),
    (("cell", 0),), (("cell", 1),), (("cell", 2),),
    (("row",),), (("column",),), (("constant",),),
]


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F5"])
@pytest.mark.parametrize("seed", [1, 2])
def test_twisted_sums_have_their_profile_by_elimination(field, seed):
    rng = random.Random(seed)
    for kinds in SINGLE_KINDS + list(jobs.SURFACE_SUMS) + list(jobs.TRACKED_SUMS):
        spec = twisted_on_torus(rng, 3, 4, kinds, field)
        assert checks.betti_by_elimination(spec.sheaf, TOP) == spec.expected, spec.name


@pytest.mark.parametrize("field", FIELDS, ids=["Q", "F5"])
def test_constant_sheaves_have_their_profile_by_elimination(field):
    for spec in (constant_on_torus(3, 3, 1, field), constant_on_torus(3, 4, 2, field)):
        assert checks.betti_by_elimination(spec.sheaf, TOP) == spec.expected
    spec = constant_on_genus2(1, field)
    assert checks.betti_by_elimination(spec.sheaf, TOP) == [1, 4, 1]


@pytest.mark.parametrize("offset", [0, 5])
def test_torus_fibering_and_annulus_cover_are_valid(offset):
    fb = torus_over_cycle(3, 6, 3, offset=offset)
    checked = validate_fibers(fb.surface, fb.graph, fb.fibers)
    assert set(checked) == set(fb.graph.poset.dims)
    nv = nerve(Cover(fb.surface, fb.pieces))
    assert nv.dim == 1
    assert len(nv.cw.poset.elements_of_dim(0)) == 3
    assert len(nv.cw.poset.elements_of_dim(1)) == 3
    whole = constant_on_torus(3, 6, 1, RATIONAL)
    assert checks.betti_by_elimination(whole.sheaf, TOP) == fb.expected


def test_coboundary_kills_coboundaries():
    spec = constant_on_torus(3, 3, 1, RATIONAL)
    _, n0 = checks.cochain_layout(spec.sheaf, 0)
    f = [checks.Arithmetic(RATIONAL).norm(i * i) for i in range(n0)]
    df = checks.coboundary(spec.sheaf, 0, f)
    assert any(df)
    assert not any(checks.coboundary(spec.sheaf, 1, df))


def _run_small(workload):
    rec = Recorder(True)
    counters = jobs.Counters()
    outs = []
    for job in workload.jobs:
        rec.start_job(job.job_id)
        outs.append((job, workload.run_job(job, rec, True, counters)))
        rec.end_job()
    return outs, rec, counters


@pytest.mark.parametrize("name", sorted(jobs.WORKLOADS))
def test_small_workloads_pass_their_checks(name):
    workload = jobs.WORKLOADS[name](3, small=True)
    outs, rec, counters = _run_small(workload)
    for job, out in outs:
        assert workload.check(job, out) == [], job.job_id
    assert {s[4] for s in rec.spans} == {job.job_id for job in workload.jobs}
    if name == "fibered_pipelines":
        assert counters.values["nerve.tasks"] > 0
    else:
        assert counters.values["morse.pairs"] > 0


def test_same_seed_same_inputs():
    a = jobs.SurfaceDirect(7, small=True)
    b = jobs.SurfaceDirect(7, small=True)
    c = jobs.SurfaceDirect(8, small=True)
    assert [j.text for j in a.jobs] == [j.text for j in b.jobs]
    assert [j.text for j in a.jobs] != [j.text for j in c.jobs]
    assert [j.spec.cochain_dims() for j in a.jobs] == [j.spec.cochain_dims() for j in c.jobs]


def test_checks_reject_a_changed_betti_number():
    workload = jobs.SurfaceDirect(3, small=True)
    outs, _, _ = _run_small(workload)
    job, out = outs[0]
    wrong = list(out["betti"])
    wrong[1] += 1
    assert checks.check_profile(wrong, job.spec.expected)
    assert checks.check_euler(wrong, job.spec.cochain_dims())
    bad = dict(out, text=out["text"].replace(str(out["betti"][1]), str(wrong[1]), 1))
    assert workload.check(job, bad)


def _tracked_constant_torus():
    workload = jobs.TrackedTransport(3, small=True)
    outs, _, _ = _run_small(workload)
    for job, out in outs:
        if job.spec.rank == 2 and job.field_name == "Q" and out["text"]:
            return workload, job, out
    raise AssertionError("no rank-2 constant torus job")


def test_checks_reject_a_vector_that_is_not_a_cocycle():
    workload, job, out = _tracked_constant_torus()
    v = list(out["lifted"][1][0])
    v[0] += 1
    assert checks.check_cocycle(job.spec.sheaf, 1, v)
    lifted = {**out["lifted"], 1: [v] + out["lifted"][1][1:]}
    assert workload.check(job, dict(out, lifted=lifted))


def test_checks_reject_a_wrong_round_trip():
    workload, job, out = _tracked_constant_torus()
    g = out["generators"][1][0]
    wrong = [x + 1 for x in g]
    assert checks.check_round_trip(g, wrong, 1)
    back = {**out["back"], 1: [wrong] + out["back"][1][1:]}
    assert workload.check(job, dict(out, back=back))


def test_checks_reject_dependent_torus_generators():
    _, job, out = _tracked_constant_torus()
    gens = out["lifted"][1]
    twice = [gens[0]] + gens[:-1]
    rows, cols = job.spec.grid
    assert checks.check_torus_pairing(job.spec.sheaf, rows, cols, 2, gens) is None
    assert checks.check_torus_pairing(job.spec.sheaf, rows, cols, 2, twice)


def test_checks_reject_a_wrong_equivalence_document():
    workload, job, out = _tracked_constant_torus()
    g = out["generators"][1][0]
    assert workload.check_document(job.spec.field, out) is None
    shifted = dict(out, generators={**out["generators"], 1: [[x + 1 for x in g]]})
    assert workload.check_document(job.spec.field, shifted)


def test_checks_reject_disagreeing_pipelines():
    assert checks.check_agree([("leray", [1, 2, 1]), ("cech", [1, 2, 1])], [1, 2, 1]) is None
    assert checks.check_agree([("leray", [1, 2, 1]), ("cech", [1, 1, 1])], [1, 2, 1])


def test_recorder_keeps_probes_out_of_the_job_time():
    rec = Recorder(True)
    rec.start_job("j")
    with rec.call("a"):
        pass
    with rec.call("probe", timed=False):
        sum(range(100000))
    rec.end_job()
    names = [s[0] for s in rec.spans]
    assert names == ["job", "a", "probe"]
    assert rec.spans[1][3] == 0 and rec.spans[2][3] == 0
    assert rec.elapsed < rec.totals()["probe"]
    assert set(rec.totals(1, 2)) == {"a"}


def test_unknown_workload_exits_nonzero(capsys):
    assert run.main(["--workload", "nope", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
