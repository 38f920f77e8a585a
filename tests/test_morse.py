import hashlib
import random

import pytest

from scythe.cohomology import betti
from scythe.complexes import (
    circle,
    circle_subdivided,
    filled_triangle,
    genus2_surface,
    interval,
    theta_graph,
    torus_grid,
)
from scythe.errors import NotACover, NotInvertible, ValidationError
from scythe import matrix
from scythe.equivalence import lift_cocycle, project_cocycle
from scythe.field import RATIONAL, fp
from scythe.matrix import Matrix
from scythe.morse import (
    Matching,
    coscythe,
    iterate_scythe,
    reduce_pair,
    scythe,
)
from scythe.parametrization import Parametrization
from scythe.poset import GradedPoset, build_poset
from scythe.sheaf import compile_sheaf, constant_sheaf

from morse_oracle import (
    CyclicMatching,
    map_of,
    morse_coboundary_oracle,
    verify_acyclic,
    verify_matching_axioms,
    verify_monotone_removal,
)
from oracles import adjacency_sets, ref_betti
from randgen import (
    TWISTED_SUMS, random_parametrization, random_simplicial, twisted_torus_sum,
)

FIXTURES = [interval, circle, filled_triangle, theta_graph,
            lambda: circle_subdivided(6), lambda: torus_grid(3, 4),
            genus2_surface]


def fixture_params(field=RATIONAL):
    for make in FIXTURES:
        yield compile_sheaf(constant_sheaf(make(), 1, field))


def replay_scythe(param, policy="strict"):
    """scythe passes on param until one removes nothing, each as the pair
    (poset before the pass, the pass's matching)."""
    passes = []
    while True:
        before = param.poset.copy()
        matching = scythe(param, policy=policy).matching
        passes.append((before, matching))
        if not matching.pairs:
            return passes


def checked_run(runner, param, **kw):
    """runner(param, **kw) and its passes as (poset before, matching).

    A scythe or coscythe run is one pass, whose poset is copied here first.
    An iterate_scythe run must equal replay_scythe on a copy of param:
    the same pairs in the same order, the same reduced cells and maps;
    the replay's passes are returned.
    """
    if runner is not iterate_scythe:
        before = param.poset.copy()
        data = runner(param, **kw)
        return data, [(before, data.matching)]
    replay = param.copy()
    passes = replay_scythe(replay, kw.get("policy", "strict"))
    data = runner(param, **kw)
    assert data.matching.pairs == [p for _, m in passes for p in m.pairs]
    assert param.poset.dims == replay.poset.dims
    assert param.maps == replay.maps
    return data, passes


def assert_passes_legal(passes, runner):
    """The three legality checks of each pass against its own poset."""
    for before, matching in passes:
        assert verify_matching_axioms(matching, before)
        assert verify_acyclic(matching, before)
        assert verify_monotone_removal(matching, before,
                                       top_down=runner is coscythe)


def assert_consistent(param):
    """Stalk ranks, maps and poset describe the same live cells and covers,
    the up and down adjacency mirror each other, and every cover carries
    exactly one stored block, which is not zero."""
    poset = param.poset
    assert set(param.stalk_rank) == set(poset.dims)
    live = set(poset.dims)
    assert set(poset.up) == set(poset.down) == live
    # the adjacency is symmetric and names no removed cell
    for w, above in poset.up.items():
        assert above <= live, (w, above - live)
        for z in above:
            assert w in poset.down[z], (w, z)
    for z, below in poset.down.items():
        assert below <= live, (z, below - live)
        for w in below:
            assert z in poset.up[w], (w, z)
    covers = {(w, z) for w, above in poset.up.items() for z in above}
    assert set(param.maps) == covers, set(param.maps) ^ covers
    for (x, y), m in param.maps.items():
        assert (m.rows, m.cols) == (param.stalk_rank[y], param.stalk_rank[x])
        assert not m.is_zero(), (x, y)


# the summands of the twisted sums: rank-2 and rank-3 stalks, fill-in,
# and corrections that cancel to zero
class _ConsistencyCheck:
    """Observer asserting consistency between reductions of a sweep."""

    def __init__(self, param):
        self.param = param

    def select(self, c):
        pass

    def enqueue(self, e):
        pass

    def dequeue(self, y):
        pass

    def pair(self, x, y):
        # called just before (x, y) is removed, so after the previous removal
        assert_consistent(self.param)


def matched_cells(data):
    return {c for pair in data.matching.pairs for c in pair}


def test_reduce_pair_interval():
    param = compile_sheaf(constant_sheaf(interval()))
    reduce_pair(param, "u", "e")
    assert sorted(param.poset.dims) == ["v"]
    assert param.maps == {}
    assert param.stalk_rank == {"v": 1}


def test_reduction_drops_ranks_of_removed_cells():
    param = compile_sheaf(constant_sheaf(torus_grid(3, 3), rank=2))
    scythe(param)
    assert_consistent(param)
    # the removed pair carries the largest stalks; d reads survivors only
    poset = build_poset([("a", 0), ("x", 0), ("e", 1)], [("a", "e"), ("x", "e")])
    maps = {("a", "e"): Matrix.from_rows(RATIONAL, [[1], [0], [0]]),
            ("x", "e"): Matrix.identity(RATIONAL, 3)}
    param = Parametrization(RATIONAL, poset, {"a": 1, "x": 3, "e": 3}, maps)
    data = scythe(param)
    assert data.matching.pairs == [("x", "e")]
    assert param.stalk_rank == {"a": 1}
    assert param.max_stalk_rank() == 1


def test_a_built_parametrization_shares_nothing_with_its_caller():
    # the sweep edits the parametrization's own poset and ranks, never the
    # caller's, which still describe the three cells they were built with
    poset = build_poset([("u", 0), ("v", 0), ("e", 1)],
                        [("u", "e"), ("v", "e")])
    ranks = {"u": 1, "v": 1, "e": 1}
    one = Matrix.identity(RATIONAL, 1)
    maps = {("u", "e"): one, ("v", "e"): one.neg()}
    param = Parametrization(RATIONAL, poset, ranks, maps)
    assert scythe(param).matching.pairs == [("v", "e")]
    assert sorted(param.poset.dims) == ["u"] and param.stalk_rank == {"u": 1}
    assert poset.dims == {"u": 0, "v": 0, "e": 1}
    assert adjacency_sets(poset.up) == {"u": {"e"}, "v": {"e"}, "e": set()}
    assert adjacency_sets(poset.down) == {"u": set(), "v": set(),
                                          "e": {"u", "v"}}
    assert ranks == {"u": 1, "v": 1, "e": 1}
    assert maps == {("u", "e"): one, ("v", "e"): one.neg()}


def test_a_built_parametrization_drops_zero_and_missing_blocks():
    # (v, e) is a cover with a zero block and (w, e) one with no block:
    # neither is a cover of the parametrization
    poset = build_poset([("u", 0), ("v", 0), ("w", 0), ("e", 1)],
                        [("u", "e"), ("v", "e"), ("w", "e")])
    maps = {("u", "e"): Matrix.identity(RATIONAL, 1),
            ("v", "e"): Matrix.zeros(RATIONAL, 1, 1)}
    param = Parametrization(RATIONAL, poset, dict.fromkeys("uvwe", 1), maps)
    assert param.poset.covers() == [("u", "e")]
    assert sorted(param.poset.dims) == ["e", "u", "v", "w"]
    assert list(param.maps) == [("u", "e")]
    assert_consistent(param)
    assert map_of(param, "v", "e").is_zero()


def test_reduce_pair_circle_cancels_to_zero():
    # removing (a, e) corrects F_bf to 1 - (-1)(-1) = 0, deleting the cover
    param = compile_sheaf(constant_sheaf(circle()))
    reduce_pair(param, "a", "e")
    assert sorted(param.poset.dims) == ["b", "f"]
    assert param.maps == {}
    assert betti(param.assemble()).betti == [1, 1]


@pytest.mark.parametrize("field", [RATIONAL, fp(5)], ids=["Q", "F5"])
def test_a_zero_head_deletes_a_cover_with_no_map(field):
    # the zero block on (x, z) is dropped with its cover when the
    # parametrization is built, so no zero head can arise: removing (x, y)
    # corrects nothing above x, and the dual sweep, finding no invertible
    # block, pairs nothing and leaves no (x, z) block
    def build():
        poset = build_poset([("w", 0), ("x", 0), ("y", 1), ("z", 1)],
                            [("w", "y"), ("w", "z"), ("x", "y"), ("x", "z")])
        maps = {("x", "y"): Matrix.identity(field, 2),
                ("w", "y"): Matrix.identity(field, 2),
                ("x", "z"): Matrix.zeros(field, 2, 2)}
        return Parametrization(field, poset, {c: 2 for c in "wxyz"}, maps)

    def survivors(param):
        return ([(c, sorted(param.poset.up[c])) for c in sorted(param.poset.dims)],
                [(key, _block(m)) for key, m in param.maps.items()])

    param = build()
    assert scythe(param).matching.pairs == [("x", "y")]
    assert survivors(param) == ([("w", []), ("z", [])], [])
    assert betti(param.assemble()).betti == [2, 2]
    param = build()
    assert coscythe(param).matching.pairs == []
    identity = (2, 2, [["1", "0"], ["0", "1"]])
    assert survivors(param) == (
        [("w", ["y"]), ("x", ["y"]), ("y", []), ("z", [])],
        [(("x", "y"), identity), (("w", "y"), identity)])


def test_reduce_pair_errors():
    param = compile_sheaf(constant_sheaf(interval()))
    with pytest.raises(NotACover):
        reduce_pair(param, "u", "v")
    sky_poset = build_poset([("x", 0), ("y", 1)], [("x", "y")])
    bad = Parametrization(RATIONAL, sky_poset, {"x": 2, "y": 2},
                          {("x", "y"): Matrix.from_rows(RATIONAL, [[1, 0], [0, 0]])})
    with pytest.raises(NotInvertible):
        reduce_pair(bad, "x", "y")


@pytest.mark.parametrize("runner", [scythe, iterate_scythe])
def test_reduction_keeps_the_degree_range(runner):
    param = compile_sheaf(constant_sheaf(filled_triangle()))
    runner(param)
    assert param.poset.max_dim() == 0  # the edges and the face are gone
    cx = param.assemble()
    assert cx.top == 2 and sorted(cx.layouts) == [0, 1, 2]
    assert cx.rank_c(1) == cx.rank_c(2) == 0
    assert param.max_dim() == param.copy().max_dim() == 2
    assert betti(cx).betti == [1, 0, 0]


@pytest.mark.parametrize("runner", [scythe, coscythe, iterate_scythe])
def test_runs_preserve_cohomology_on_fixtures(runner):
    for param in fixture_params():
        before = betti(param.assemble()).betti
        data, passes = checked_run(runner, param)
        after = betti(param.assemble()).betti
        while len(after) < len(before):
            after.append(0)
        assert after == before
        assert_passes_legal(passes, runner)


def test_scythe_reaches_small_complex():
    param = compile_sheaf(constant_sheaf(genus2_surface()))
    data = scythe(param)
    assert sum(data.critical_counts()) <= 10
    assert sum(m * m for m in data.critical_counts()) <= 50
    assert data.reduced is param


def test_iterate_reaches_perfect_complex():
    param = compile_sheaf(constant_sheaf(genus2_surface()))
    data, passes = checked_run(iterate_scythe, param)
    assert data.critical_counts() == [1, 4, 1]
    assert param.maps == {}
    assert len(passes) >= 2
    assert sum(1 for _, matching in passes if matching.pairs) >= 2
    assert_passes_legal(passes, iterate_scythe)


@pytest.mark.parametrize("policy", ["strict", "relaxed"])
def test_iterate_equals_replayed_scythe_passes(policy):
    rng = random.Random(23)
    params = list(fixture_params())
    for count in range(40):
        field = fp(5) if count % 2 else RATIONAL
        params.append(random_parametrization(rng, random_simplicial(rng), field))
    for param in params:
        data, passes = checked_run(iterate_scythe, param, policy=policy)
        assert matched_cells(data).isdisjoint(param.poset.dims)
        if policy == "strict":
            assert_passes_legal(passes, iterate_scythe)


class _PairLog:
    """Observer recording the pairs in the order the sweep removes them."""

    def __init__(self):
        self.pairs = []

    def select(self, c):
        pass

    def enqueue(self, e):
        pass

    def dequeue(self, y):
        pass

    def pair(self, x, y):
        self.pairs.append((x, y))


@pytest.mark.parametrize("runner", [scythe, coscythe, iterate_scythe])
@pytest.mark.parametrize("track", [False, True])
def test_runs_list_pairs_in_removal_order_and_copy_nothing(runner, track,
                                                           monkeypatch):
    params = list(fixture_params())

    def refuse(self):
        raise AssertionError("a reduction copied %r" % (self,))

    monkeypatch.setattr(GradedPoset, "copy", refuse)
    monkeypatch.setattr(Parametrization, "copy", refuse)
    for param in params:
        log = _PairLog()
        data = runner(param, track_equivalence=track, observer=log)
        assert data.matching.pairs == log.pairs
        assert matched_cells(data).isdisjoint(param.poset.dims)
        if track:
            steps = data.equivalence.steps
            assert data.matching.pairs == [(s.x, s.y) for s in steps]


def test_matching_records_original_pairs():
    param = compile_sheaf(constant_sheaf(torus_grid(2, 3)))
    pristine = param.copy()
    data = scythe(param)
    for x, y in data.matching.pairs:
        assert pristine.poset.has_cover(x, y)
    assert len(data.matching) == len(data.matching.pairs)
    # matched and surviving cells partition the pristine poset
    matched = matched_cells(data)
    assert matched.isdisjoint(param.poset.dims)
    assert matched | set(param.poset.dims) == set(pristine.poset.dims)
    assert len(matched) == 2 * len(data.matching)


class _QueueLog:
    """Observer checking the enqueue-once-per-sweep flag discipline."""

    def __init__(self):
        self.criticals = set()
        self.segment = set()
        self.ok = True

    def select(self, c):
        self.criticals.add(c)
        self.segment = set()

    def enqueue(self, e):
        if e in self.segment or e in self.criticals:
            self.ok = False
        self.segment.add(e)

    def dequeue(self, y):
        pass

    def pair(self, x, y):
        pass


def test_queue_discipline():
    for param in fixture_params():
        log = _QueueLog()
        scythe(param, observer=log)
        assert log.ok


def test_strict_vs_relaxed_divergence():
    # f sits over three cells; only e2's map stays invertible once e1 is
    # the seed, but e3 is also non-critical, so the strict reading stalls
    def build():
        poset = build_poset(
            [("e1", 1), ("e2", 1), ("e3", 1), ("f", 2)],
            [("e1", "f"), ("e2", "f"), ("e3", "f")],
        )
        stalks = {"e1": 2, "e2": 2, "e3": 1, "f": 2}
        maps = {
            ("e1", "f"): Matrix.identity(RATIONAL, 2),
            ("e2", "f"): Matrix.identity(RATIONAL, 2),
            ("e3", "f"): Matrix.from_rows(RATIONAL, [[1], [0]]),
        }
        return Parametrization(RATIONAL, poset, stalks, maps)

    strict = build()
    data_strict = scythe(strict, policy="strict")
    assert data_strict.matching.pairs == []

    relaxed = build()
    data_relaxed = scythe(relaxed, policy="relaxed")
    assert data_relaxed.matching.pairs == [("e2", "f")]
    assert betti(strict.assemble()).betti[1] == betti(relaxed.assemble()).betti[1] == 3


@pytest.mark.parametrize("runner", [scythe, coscythe, iterate_scythe])
@pytest.mark.parametrize("track", [False, True])
def test_unknown_policy_is_refused_even_with_no_cells(runner, track):
    empty = Parametrization(RATIONAL, build_poset([], []), {}, {})
    for param in (compile_sheaf(constant_sheaf(circle())), empty):
        before = (len(param.poset), dict(param.maps))
        with pytest.raises(ValidationError,
                           match="^unknown pairing policy 'bogus'$"):
            runner(param, policy="bogus", track_equivalence=track)
        assert (len(param.poset), dict(param.maps)) == before


def test_policies_agree_on_betti():
    rng = random.Random(17)
    for _ in range(15):
        base = random_simplicial(rng)
        a = random_parametrization(rng, base, RATIONAL)
        b = a.copy()
        want = ref_betti(a.copy().assemble())
        for param, policy in ((a, "strict"), (b, "relaxed")):
            scythe(param, policy=policy, observer=_ConsistencyCheck(param))
            assert_consistent(param)
        got_a = betti(a.assemble()).betti
        got_b = betti(b.assemble()).betti
        for got in (got_a, got_b):
            padded = got + [0] * (len(want) - len(got))
            assert padded == want


def test_verify_acyclic_detects_cycles():
    cw = circle_subdivided(2)
    param = compile_sheaf(constant_sheaf(cw))
    cyclic = Matching([("v00", "e00"), ("v01", "e01")])
    report = verify_acyclic(cyclic, param.poset)
    assert not report
    assert len(report.cycle) == 2
    with pytest.raises(CyclicMatching):
        morse_coboundary_oracle(param, cyclic)

    fine = Matching([("v00", "e00")])
    ok = verify_acyclic(fine, param.poset)
    assert ok and ok.order == [("v00", "e00")]


def test_oracle_on_empty_matching_returns_input_blocks():
    param = compile_sheaf(constant_sheaf(filled_triangle()))
    blocks = morse_coboundary_oracle(param, Matching())
    assert set(blocks) == set(param.maps)
    for key, blk in blocks.items():
        assert blk.data == param.maps[key].data


def test_oracle_equals_engine_on_fixtures():
    for param in fixture_params():
        pristine = param.copy()
        data = scythe(param)
        blocks = morse_coboundary_oracle(pristine, data.matching)
        assert set(blocks) == set(param.maps)
        for key, blk in blocks.items():
            assert blk.data == param.maps[key].data


def test_oracle_equals_replay_on_random_instances():
    rng = random.Random(5)
    done = 0
    while done < 30:
        base = random_simplicial(rng, max_vertices=5, max_cells=12)
        field = fp(5) if done % 3 == 0 else RATIONAL
        param = random_parametrization(rng, base, field)
        pristine = param.copy()
        data = scythe(param)
        if not data.matching.pairs:
            continue
        done += 1
        assert_consistent(param)
        replay = pristine.copy()
        for x, y in data.matching.pairs:
            reduce_pair(replay, x, y)
            assert_consistent(replay)
        blocks = morse_coboundary_oracle(pristine, data.matching)
        assert set(blocks) == set(replay.maps)
        for key, blk in blocks.items():
            assert blk.data == replay.maps[key].data


@pytest.mark.parametrize("runner", [scythe, coscythe, iterate_scythe])
def test_sweeps_keep_their_invariants(runner):
    rng = random.Random(15)
    for field in (RATIONAL, fp(5)):
        for kinds in TWISTED_SUMS:
            param = compile_sheaf(twisted_torus_sum(rng, 6, 6, kinds, field))
            data = runner(param, observer=_ConsistencyCheck(param))
            assert data.matching.pairs
            assert_consistent(param)
    done = 0
    while done < 20:
        base = random_simplicial(rng, max_vertices=5, max_cells=12)
        field = fp(5) if done % 3 else RATIONAL
        param = random_parametrization(rng, base, field)
        data = runner(param, observer=_ConsistencyCheck(param))
        if data.matching.pairs:
            done += 1
        assert_consistent(param)


@pytest.mark.parametrize("field", [RATIONAL, fp(5), fp(2)], ids=["Q", "F5", "F2"])
def test_rank_two_sweep_builds_no_echelon_form(field, monkeypatch):
    # every block is 2x2, or 3x3 at rank 3, so every inverse is closed form
    def refuse(a):
        raise AssertionError("EchelonSolver built during the sweep")

    for rank in (2, 3):
        param = compile_sheaf(constant_sheaf(torus_grid(4, 4), rank, field))
        monkeypatch.setattr(matrix, "EchelonSolver", refuse)
        data = scythe(param)
        monkeypatch.undo()
        assert data.matching.pairs
        assert betti(param.assemble()).betti == [rank, 2 * rank, rank]


def test_fp_reduction_matches_reference():
    for p in (2, 5):
        cw = genus2_surface()
        param = compile_sheaf(constant_sheaf(cw, 1, fp(p)))
        want = ref_betti(param.copy().assemble(), p)
        scythe(param)
        got = betti(param.assemble()).betti
        assert got + [0] * (len(want) - len(got)) == want


class _EventLog:
    """Observer recording every sweep event in the order it is made."""

    def __init__(self):
        self.events = []

    def select(self, c):
        self.events.append(("select", c))

    def enqueue(self, e):
        self.events.append(("enqueue", e))

    def dequeue(self, y):
        self.events.append(("dequeue", y))

    def pair(self, x, y):
        self.events.append(("pair", x, y))


def _block(m):
    return (m.rows, m.cols, [[repr(v) for v in row] for row in m.data])


def _run_record(runner, param, policy):
    """Everything a tracked run leaves behind, in the orders it leaves it:
    the observer's events, the pairs, the surviving cells, covers, maps and
    stalk ranks in insertion order, and each step with its star's order."""
    log = _EventLog()
    data = runner(param, policy=policy, track_equivalence=True, observer=log)
    poset = param.poset
    steps = [(s.x, s.y, s.dimx, s.dimy, _block(s.inv),
              [(z, _block(m)) for z, m in s.up.items()],
              [(w, _block(m)) for w, m in s.down.items()])
             for s in data.equivalence.steps]
    return (log.events, data.matching.pairs, list(poset.dims.items()),
            [(x, sorted(poset.up[x]), sorted(poset.down[x]))
             for x in poset.dims],
            [(key, _block(m)) for key, m in param.maps.items()],
            list(param.stalk_rank.items()), steps)


def _record_inputs(field):
    """The fixtures, the twisted sums on a 5x5 torus and 20 random
    parametrizations over field, from a fixed seed."""
    rng = random.Random(41)
    params = list(fixture_params(field))
    for kinds in TWISTED_SUMS:
        params.append(compile_sheaf(twisted_torus_sum(rng, 5, 5, kinds, field)))
    for _ in range(20):
        params.append(random_parametrization(rng, random_simplicial(rng), field))
    return params


def _records_digest(runner, policy, field):
    text = repr([_run_record(runner, param, policy)
                 for param in _record_inputs(field)])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# one digest per run kind, policy and field, of every record _run_record
# reads over _record_inputs; a change to the sweep that moves any event,
# pair, block, step or insertion order moves its digest
RECORD_DIGESTS = {
    "scythe/strict/Q":
        "c431f046e74943213e15173fc32a247ac99aff0b7681287359cd7b63b118fa8a",
    "scythe/strict/F5":
        "0b419e3dd3f50a8ecf31b80b7e69f194e6874f4ed92a7e0c89fe62b9f8f73a74",
    "scythe/relaxed/Q":
        "22c6b3b7b60d2c41ea100e8f9395c9c30a33638707d135fd32598c17c801dca4",
    "scythe/relaxed/F5":
        "4f32e47a3486a2c3d690fac86a52925767a307892969f4da92fe8b610c1f9f3c",
    "coscythe/strict/Q":
        "2c47d529396ff7955afa021db57f879e5e6e546b513851260cb01090f49418a8",
    "coscythe/strict/F5":
        "5721851091089fdb542cbfb685d8fa4dff6d769b099b27d35dac0566d7a1040b",
    "coscythe/relaxed/Q":
        "f8f655c09501693d9c8d81a47ceae1bf493f08be4355c9438411e179aed2f4b0",
    "coscythe/relaxed/F5":
        "90895cb9e71af3b18bcd6551ec53b8c38e268d1955ca39ae4d61d9f7b0dcd7f5",
    "iterate_scythe/strict/Q":
        "644e26ee10110760cac464855b6a1994808edc45aba4feadcfb94f77352e5bc0",
    "iterate_scythe/strict/F5":
        "dabb91dbee01571debfdbdeec7ae6390e883922755f44b0185d966cd13660b18",
    "iterate_scythe/relaxed/Q":
        "1c827fbaad353f2407e20353ab2f2748820449b3ec752fa2ad67bd41b9be2663",
    "iterate_scythe/relaxed/F5":
        "a7895f84354390788278f5d50c20b777d3ac9a64166766628610f8cddd41ef14",
}


@pytest.mark.parametrize("case", sorted(RECORD_DIGESTS))
def test_sweep_records_are_pinned(case):
    name, policy, field_name = case.split("/")
    runner = {"scythe": scythe, "coscythe": coscythe,
              "iterate_scythe": iterate_scythe}[name]
    field = {"Q": RATIONAL, "F5": fp(5)}[field_name]
    assert _records_digest(runner, policy, field) == RECORD_DIGESTS[case]


def _fold_and_transport(param):
    """The fold's psi rows, phi columns and theta rows of a tracked scythe
    run, then the projection of every flagged generator of the original
    complex and the lift of every one of the reduced complex."""
    eq = scythe(param, track_equivalence=True).equivalence
    moved = []
    for cx, transport in ((eq.src_complex, project_cocycle),
                          (eq.dst_complex, lift_cocycle)):
        for n, gens in sorted(betti(cx, generators=True).generators.items()):
            for j in range(gens.cols):
                moved.append(transport(eq, gens.column(j), n))
    return eq._maps(), moved


# sha256 of the repr of _fold_and_transport over _record_inputs, Q then F5;
# repr tells an int from an integral Fraction, which == does not
FOLD_TRANSPORT_DIGEST = \
    "bfad872e539f3f83cd8618291f2ef635946a63cc921b9f2e055253fe6192017a"


def test_fold_and_transport_are_pinned():
    text = repr([_fold_and_transport(param) for field in (RATIONAL, fp(5))
                 for param in _record_inputs(field)])
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == FOLD_TRANSPORT_DIGEST
