"""The three workloads: their seeded job lists, the jobs, and their checks.

A job is one input over one field, run through scythe's public calls in
the order the CLI makes them.  Workload.run_job times those calls through
a Recorder; with probes=True it also makes the trace-only calls that give
the per-layer figures, outside the job's time.  Workload.check compares
the outputs with what the input must give (see checks.py) and returns a
list of reasons, empty when every output is right.
"""

import json
import random
import tracemalloc
from fractions import Fraction

from scythe import (
    RATIONAL,
    CellularSheaf,
    Cover,
    betti,
    cohomology_via_cech,
    cohomology_via_leray,
    compile_sheaf,
    complex_to_json,
    complexity_estimate,
    constant_sheaf,
    cover_to_json,
    dumps,
    fibers_to_json,
    fp,
    induced_map,
    lift_cocycle,
    loads,
    nerve,
    parallel_stalks,
    parse,
    parse_cover,
    parse_fibers,
    project_cocycle,
    reduced_to_json,
    scythe,
    sheaf_cohomology,
    sheaf_to_json,
    subcomplex,
    validate_fibers,
    verify_d_squared,
)

from . import checks
from .inputs import (
    TOP,
    constant_on_genus2,
    constant_on_torus,
    genus2_fibering,
    padded,
    torus_over_cycle,
    twisted_on_torus,
)

F5 = fp(5)
FIELDS = ((RATIONAL, "Q"), (F5, "F5"))
WORKERS = 2

# Twisted sums: kinds are fixed, only placement and bases come from the seed.
SURFACE_SUMS = (
    (("constant",), ("skyscraper", 1)),
    (("constant",), ("row",), ("cell", 2)),
    (("constant",), ("constant",)),
    (("constant",), ("column",), ("skyscraper", 0)),
    (("constant",), ("constant",), ("skyscraper", 2)),
    (("row",), ("column",), ("cell", 1)),
)
TRACKED_SUMS = (
    (("constant",), ("skyscraper", 1)),
    (("constant",), ("row",), ("cell", 2)),
    (("constant",), ("constant",)),
    (("constant",), ("column",), ("skyscraper", 0)),
)


class Job:
    """One input over one field, with everything set up before timing."""

    def __init__(self, name, field_name, spec, **data):
        self.name = name
        self.field_name = field_name
        self.spec = spec
        self.__dict__.update(data)

    @property
    def job_id(self):
        return "%s/%s" % (self.name, self.field_name)


def _seeded(seed, workload):
    return random.Random("%s:%d" % (workload, seed))


def _sum_seeds(seed, workload, count):
    """One seed per twisted sum, so a sum is the same over Q and over F5."""
    rng = _seeded(seed, workload)
    return [rng.randrange(2 ** 32) for _ in range(count)]


def _betti_list(profile, top=TOP):
    return padded(profile.betti, top)


def height_bits(param):
    """Largest numerator or denominator, in bits, over the param's maps."""
    bits = 0
    for m in param.maps.values():
        for row in m.data:
            for v in row:
                if isinstance(v, Fraction):
                    bits = max(bits, v.numerator.bit_length(),
                               v.denominator.bit_length())
    return bits


def critical_rank(param):
    """Summed stalk rank of the cells still in the poset."""
    return sum(param.stalk_rank[c] for c in param.poset.dims)


class Counters:
    """Per-layer counts of one pass, summed over its jobs."""

    def __init__(self):
        self.values = {}

    def add(self, name, value):
        self.values[name] = self.values.get(name, 0) + value

    def maximum(self, name, value):
        self.values[name] = max(self.values.get(name, 0), value)


# -- surface_direct ------------------------------------------------------------


class SurfaceDirect:
    """`scythe compute`: parse, compile, sweep, assemble, betti, dumps."""

    name = "surface_direct"

    def __init__(self, seed, small=False):
        sum_seeds = _sum_seeds(seed, self.name, len(SURFACE_SUMS))
        self.jobs = []
        grid = 4 if small else 10
        big = 6 if small else 16
        for field, fname in FIELDS:
            inputs = [
                constant_on_torus(big, big, 1, field),
                constant_on_torus(grid - 2, grid - 2, 3, field),
                constant_on_genus2(1, field),
                constant_on_genus2(3, field),
            ]
            inputs += [twisted_on_torus(random.Random(s), grid, grid, kinds, field)
                       for s, kinds in zip(sum_seeds, SURFACE_SUMS)]
            for spec in inputs:
                if spec.rank is not None:
                    doc = complex_to_json(spec.sheaf.base)
                else:
                    doc = sheaf_to_json(spec.sheaf)
                self.jobs.append(Job(spec.name, fname, spec, text=dumps(doc)))
        self.jobs.sort(key=lambda j: (j.name, j.field_name != "Q"))

    def run_job(self, job, rec, probes, counters):
        spec = job.spec
        with rec.call("serialize.parse"):
            obj = parse(loads(job.text))
        if spec.rank is not None:
            with rec.call("sheaf.build"):
                obj = constant_sheaf(obj, spec.rank, spec.field)
        with rec.call("sheaf.compile"):
            param = compile_sheaf(obj)
        if probes:
            with rec.call("parametrization.verify_d_squared", timed=False):
                verify_d_squared(param.assemble())
        top = param.max_dim()
        with rec.call("morse.scythe"):
            data = scythe(param)
        with rec.call("parametrization.assemble"):
            cx = param.assemble()
        with rec.call("cohomology.betti"):
            profile = betti(cx)
        with rec.call("serialize.dumps"):
            while len(profile.betti) < top + 1:
                profile.betti.append(0)
            text = dumps(profile.to_json())
        out = {
            "betti": _betti_list(profile),
            "text": text,
            "pairs": len(data.matching.pairs),
            "critical_rank": critical_rank(param),
        }
        if counters is not None:
            counters.add("morse.pairs", out["pairs"])
            counters.add("morse.critical_rank", out["critical_rank"])
            counters.add("betti_total", sum(out["betti"]))
            counters.maximum("field.max_height_bits", height_bits(param))
        return out

    def check(self, job, out):
        spec = job.spec
        reasons = [
            checks.check_profile(out["betti"], spec.expected),
            checks.check_euler(out["betti"], spec.cochain_dims()),
        ]
        if json.loads(out["text"]) != {"betti": spec.expected}:
            reasons.append("compute output %r" % out["text"])
        return [r for r in reasons if r]

    def fingerprint(self, out):
        return (out["text"], out["pairs"], out["critical_rank"])


# -- tracked_transport ---------------------------------------------------------


def _parse_matrix(field, rows):
    if field.kind == "fp":
        return [[int(v) % field.p for v in row] for row in rows]
    return [[Fraction(v) for v in row] for row in rows]


def _apply(field, matrix, vec):
    ar = checks.Arithmetic(field)
    return [ar.norm(sum(a * b for a, b in zip(row, vec) if a and b))
            for row in matrix]


class TrackedTransport:
    """`compute --lift` and `reduce --equivalence`: tracked sweep, generators,
    lift and project every generator, and on small grids the dense
    equivalence document."""

    name = "tracked_transport"
    JSON_MAX_GRID = 8

    def __init__(self, seed, small=False):
        sum_seeds = _sum_seeds(seed, self.name, len(TRACKED_SUMS))
        self.jobs = []
        grid, sums = (4, 3) if small else (8, 6)
        for field, fname in FIELDS:
            inputs = [
                constant_on_torus(5 if small else 12, 5 if small else 12, 1, field),
                constant_on_torus(grid, grid, 2, field),
                constant_on_torus(grid, grid, 1, field),
                constant_on_torus(sums, sums, 2, field),
            ]
            inputs += [twisted_on_torus(random.Random(s), sums, sums, kinds, field)
                       for s, kinds in zip(sum_seeds, TRACKED_SUMS)]
            for spec in inputs:
                self.jobs.append(Job(
                    spec.name, fname, spec, param=compile_sheaf(spec.sheaf),
                    write_json=spec.grid[0] <= self.JSON_MAX_GRID))
        self.jobs.sort(key=lambda j: (j.name, j.field_name != "Q"))

    def run_job(self, job, rec, probes, counters):
        param = job.param.copy()
        with rec.call("equivalence.tracked_scythe"):
            data = scythe(param, track_equivalence=True)
        eq = data.equivalence
        with rec.call("cohomology.generators"):
            profile = betti(eq.dst_complex, generators=True)
        gens = {n: [m.column(j) for j in range(m.cols)]
                for n, m in sorted(profile.generators.items())}
        with rec.call("equivalence.lift"):
            lifted = {n: [lift_cocycle(eq, g, n) for g in vs]
                      for n, vs in gens.items()}
        with rec.call("equivalence.project"):
            back = {n: [project_cocycle(eq, v, n) for v in vs]
                    for n, vs in lifted.items()}
        text = None
        if job.write_json:
            with rec.call("serialize.equivalence_json"):
                text = dumps(reduced_to_json(data, equivalence=eq))
        out = {"betti": _betti_list(profile), "generators": gens,
               "lifted": lifted, "back": back, "text": text,
               "pairs": len(data.matching.pairs),
               "critical_rank": critical_rank(param)}
        if probes:
            with rec.call("morse.scythe", timed=False):
                scythe(job.param.copy())
        if counters is not None:
            counters.add("morse.pairs", out["pairs"])
            counters.add("morse.critical_rank", out["critical_rank"])
            counters.add("betti_total", sum(out["betti"]))
            counters.maximum("field.max_height_bits", height_bits(param))
        return out

    def memory_probe(self):
        """Largest tracemalloc peak of one tracked sweep over the jobs, in MB."""
        peak = 0
        for job in self.jobs:
            param = job.param.copy()
            tracemalloc.start()
            try:
                scythe(param, track_equivalence=True)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return {"equivalence.tracemalloc_peak_mb": peak / 2 ** 20}

    def check(self, job, out):
        spec = job.spec
        sheaf = spec.sheaf
        reasons = [
            checks.check_profile(out["betti"], spec.expected),
            checks.check_euler(out["betti"], spec.cochain_dims()),
        ]
        for n, vs in out["lifted"].items():
            for g, v, b in zip(out["generators"][n], vs, out["back"][n]):
                reasons.append(checks.check_cocycle(sheaf, n, v))
                reasons.append(checks.check_round_trip(g, b, n))
        if spec.rank is not None and spec.grid is not None:
            reasons.append(checks.check_torus_pairing(
                sheaf, spec.grid[0], spec.grid[1], spec.rank,
                out["lifted"].get(1, [])))
        if out["text"] is not None:
            reasons.append(self.check_document(sheaf.field, out))
        return [r for r in reasons if r]

    @staticmethod
    def check_document(field, out):
        """The written psi/phi carry each generator to its lift and back."""
        doc = json.loads(out["text"])["equivalence"]
        for n, vs in out["lifted"].items():
            phi = _parse_matrix(field, doc["phi"][str(n)])
            psi = _parse_matrix(field, doc["psi"][str(n)])
            for g, v in zip(out["generators"][n], vs):
                if _apply(field, phi, g) != list(v):
                    return "written phi^%d disagrees with lift_cocycle" % n
                if _apply(field, psi, v) != list(g):
                    return "written psi^%d does not undo the lift" % n
        return None

    def fingerprint(self, out):
        return (out["betti"], out["lifted"], out["back"], out["text"])


# -- fibered_pipelines ---------------------------------------------------------


def _entry(betti_list, n):
    return betti_list[n] if 0 <= n < len(betti_list) else 0


class FiberedPipelines:
    """`leray` and `cech` with two workers, on fibered tori and genus 2."""

    name = "fibered_pipelines"

    def __init__(self, seed, small=False):
        rng = _seeded(seed, self.name)
        self.jobs = []
        tori = [(3, 6, 3)] if small else [(6, 18, 6), (6, 12, 3), (6, 12, 4), (4, 16, 4)]
        fiberings = [torus_over_cycle(r, c, m, offset=rng.randrange(c))
                     for r, c, m in tori]
        if not small:
            fiberings.append(genus2_fibering())
        for fb in fiberings:
            base_text = dumps(complex_to_json(fb.surface))
            for field, fname in FIELDS:
                self.jobs.append(Job(
                    "leray_" + fb.name, fname, fb, field=field, kind="leray",
                    base_text=base_text,
                    text=dumps(fibers_to_json(fb.graph, fb.fibers))))
                if fb.pieces is not None:
                    cover = Cover(fb.surface, fb.pieces)
                    self.jobs.append(Job(
                        "cech_" + fb.name, fname, fb, field=field, kind="cech",
                        base_text=base_text, text=dumps(cover_to_json(cover))))

    def run_job(self, job, rec, probes, counters):
        with rec.call("serialize.parse"):
            base = parse(loads(job.base_text))
            if job.kind == "leray":
                gamma, fibers = parse_fibers(loads(job.text))
            else:
                cover = parse_cover(loads(job.text), base)
        if job.kind == "leray":
            with rec.call("nerve.leray"):
                profile = cohomology_via_leray(base, gamma, fibers,
                                               field=job.field, workers=WORKERS)
            with rec.call("nerve.estimate"):
                estimate = complexity_estimate(base, gamma, fibers)
        else:
            with rec.call("nerve.cech"):
                profile = cohomology_via_cech(base, cover, field=job.field,
                                              workers=WORKERS)
            with rec.call("nerve.estimate"):
                nv = nerve(cover)
                estimate = complexity_estimate(base, nv.cw, nv.supports)
        with rec.call("serialize.dumps"):
            text = dumps({"profile": profile.to_json(),
                          "estimate": estimate.to_json()})
        out = {"betti": _betti_list(profile), "text": text, "probed": None}
        if probes:
            if job.kind == "leray":
                graph, supports = gamma, validate_fibers(base, gamma, fibers)
            else:
                graph, supports = nv.cw, nv.supports
            out["probed"] = self.probe(rec, base, graph, supports, job.field,
                                       counters)
        return out

    @staticmethod
    def probe(rec, base, graph, supports, field, counters):
        """The pipeline's stages called one by one, outside the job's time.

        Returns the profile these stages give, which must match too.
        """
        names = sorted(supports)
        top = base.poset.max_dim()
        with rec.call("nerve.stalks", timed=False):
            parallel_stalks(base, [(supports[n], top) for n in names],
                            field=field, workers=WORKERS)
        counters.add("nerve.tasks", len(names))
        counters.add("nerve.fiber_cells", sum(len(supports[n]) for n in names))
        complexes, profiles = {}, {}
        for n in names:
            with rec.call("sheaf.compile", timed=False):
                param = compile_sheaf(
                    constant_sheaf(subcomplex(base, supports[n]), 1, field))
            with rec.call("parametrization.assemble", timed=False):
                complexes[n] = param.assemble()
            with rec.call("cohomology.betti", timed=False):
                profiles[n] = betti(complexes[n]).betti
        b01 = []
        for deg in range(top + 1):
            ranks = {c: _entry(profiles[c], deg) for c in graph.poset.dims}
            restriction = {}
            for s, t in graph.poset.covers():
                if ranks[s] or ranks[t]:
                    with rec.call("cohomology.induced_map", timed=False):
                        restriction[(s, t)] = induced_map(
                            complexes[s], complexes[t], None, deg)
            pair = (0, 0)
            if any(ranks.values()):
                sheaf = CellularSheaf(graph, field, ranks, restriction)
                with rec.call("nerve.base_cohomology", timed=False):
                    prof = sheaf_cohomology(sheaf).betti
                pair = (_entry(prof, 0), _entry(prof, 1))
            b01.append(pair)
        return [b01[n][0] + (b01[n - 1][1] if n else 0) for n in range(top + 1)]

    def check(self, job, out):
        expected = job.spec.expected
        got = [(job.kind, out["betti"])]
        if out["probed"] is not None:
            got.append((job.kind + " stages", out["probed"]))
        reasons = [checks.check_agree(got, expected)]
        if json.loads(out["text"])["profile"] != {"betti": expected}:
            reasons.append("%s output %r" % (job.kind, out["text"]))
        return [r for r in reasons if r]

    def fingerprint(self, out):
        return out["text"]


WORKLOADS = {w.name: w for w in (SurfaceDirect, TrackedTransport, FiberedPipelines)}
