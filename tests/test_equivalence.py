import random

import pytest

from scythe.cohomology import betti, class_coordinates
from scythe.complexes import (
    circle,
    circle_subdivided,
    filled_triangle,
    genus2_surface,
    interval,
    theta_graph,
    torus_grid,
)
from scythe.equivalence import Equivalence, lift_cocycle, project_cocycle
from scythe.errors import NotACocycle, SolveFailed
from scythe.field import RATIONAL, FieldSpec, fp
from scythe.matrix import Matrix, mat_mul, matvec
from scythe.morse import coscythe, iterate_scythe, scythe
from scythe.sheaf import compile_sheaf, constant_sheaf

from oracles import (
    dense_coboundary, phi_matrix, psi_matrix, ref_coboundary, ref_fold,
    theta_matrix,
)
from test_morse import assert_passes_legal, checked_run
from randgen import (
    TWISTED_SUMS,
    random_parametrization,
    random_simplicial,
    twisted_torus_sum,
)

FIXTURES = [interval, circle, filled_triangle, theta_graph,
            lambda: circle_subdivided(6), lambda: torus_grid(3, 4),
            genus2_surface]


def check_laws(orig, red, eq):
    f = orig.field
    d = {(cx, n): dense_coboundary(cx, n)
         for cx in (orig, red) for n in range(orig.top)}
    for n in range(orig.top + 1):
        psi = psi_matrix(eq, n)
        phi = phi_matrix(eq, n)
        assert psi.rows == red.rank_c(n) and psi.cols == orig.rank_c(n)
        assert phi.rows == orig.rank_c(n) and phi.cols == red.rank_c(n)
        # psi . phi = identity on the reduced complex
        assert mat_mul(psi, phi).data == Matrix.identity(f, red.rank_c(n)).data
        if n < orig.top:
            # cochain map laws in both directions
            assert mat_mul(psi_matrix(eq, n + 1), d[orig, n]).data == \
                mat_mul(d[red, n], psi).data
            assert mat_mul(d[orig, n], phi).data == \
                mat_mul(phi_matrix(eq, n + 1), d[red, n]).data
        # id - phi . psi = theta d + d theta
        want = Matrix.identity(f, orig.rank_c(n)).sub(mat_mul(phi, psi))
        got = Matrix.zeros(f, orig.rank_c(n), orig.rank_c(n))
        if n + 1 <= orig.top:
            got = got.add(mat_mul(theta_matrix(eq, n + 1), d[orig, n]))
        if n >= 1:
            got = got.add(mat_mul(d[orig, n - 1], theta_matrix(eq, n)))
        assert got.data == want.data


@pytest.mark.parametrize("runner", [scythe, coscythe, iterate_scythe])
def test_laws_on_fixtures(runner):
    for make in FIXTURES:
        param = compile_sheaf(constant_sheaf(make()))
        data = runner(param, track_equivalence=True)
        eq = data.equivalence
        check_laws(eq.src_complex, eq.dst_complex, eq)


def _random_instances():
    """The seeded random parametrizations of the law tests, over Q and F5."""
    rng = random.Random(31)
    for trial in range(25):
        base = random_simplicial(rng)
        field = fp(5) if trial % 3 == 0 else RATIONAL
        yield random_parametrization(rng, base, field)


def _sparse_instances():
    """Twisted sums on torus_grid(3, 3), over Q and F5, whose cochains the
    transports meet sparsely: rank-0 cells around skyscraper, cell and
    row/column summands, and rank-3 stalks."""
    rng = random.Random(41)
    for field in (RATIONAL, fp(5)):
        for kinds in (TWISTED_SUMS[5], (("skyscraper", 1), ("cell", 2)),
                      TWISTED_SUMS[4], (("constant",),) * 3):
            yield compile_sheaf(twisted_torus_sum(rng, 3, 3, kinds, field))


def _last_coordinates(cx, n):
    """One vector per rank-3 cell of C^n, nonzero only at its last
    coordinate."""
    layout = cx.layout(n)
    f = cx.field
    for c in layout.cells:
        if layout.ranks[c] == 3:
            vec = [f.zero] * layout.total
            vec[layout.offsets[c] + 2] = f.one
            yield vec


def test_laws_on_random_instances():
    for param in _random_instances():
        data = scythe(param, track_equivalence=True)
        eq = data.equivalence
        check_laws(eq.src_complex, eq.dst_complex, eq)


def _assert_fold_matches_reference(eq):
    psi, phi, theta = ref_fold(eq, eq.field.p)
    for n in range(eq.src_complex.top + 1):
        assert psi_matrix(eq, n).data == psi[n]
        assert phi_matrix(eq, n).data == phi[n]
        assert theta_matrix(eq, n).data == theta[n]


@pytest.mark.parametrize("runner", [scythe, coscythe, iterate_scythe])
def test_fold_matches_dense_reference(runner):
    # the laws hold for many psi/phi/theta; the reference pins the one
    # folded from the steps, entry for entry
    for field in (RATIONAL, fp(5)):
        for make in FIXTURES:
            param = compile_sheaf(constant_sheaf(make(), 1, field))
            eq = runner(param, track_equivalence=True).equivalence
            _assert_fold_matches_reference(eq)
        param = compile_sheaf(constant_sheaf(torus_grid(3, 3), 2, field))
        _assert_fold_matches_reference(
            runner(param, track_equivalence=True).equivalence)
    for param in _random_instances():
        eq = runner(param, track_equivalence=True).equivalence
        _assert_fold_matches_reference(eq)


def _counting_field(field):
    """A fresh copy of field whose mul counts its calls in .calls."""
    f = FieldSpec(field.kind, field.p)
    f.calls = 0
    plain = f.mul

    def mul(a, b):
        f.calls += 1
        return plain(a, b)

    f.mul = mul
    return f


@pytest.mark.parametrize("runner", [scythe, coscythe, iterate_scythe])
def test_tracking_adds_no_field_multiplications(runner):
    # a step records the blocks it removed; only the psi/phi/theta fold
    # multiplies them out, so tracking costs the sweep no products
    for make in (lambda: torus_grid(4, 4), genus2_surface):
        for field in (RATIONAL, fp(5)):
            counts = []
            for track in (False, True):
                f = _counting_field(field)
                param = compile_sheaf(constant_sheaf(make(), 2, f))
                f.calls = 0
                runner(param, track_equivalence=track)
                counts.append(f.calls)
            assert counts[0] == counts[1] > 0, counts


def test_identity_equivalence():
    cx = compile_sheaf(constant_sheaf(circle())).assemble()
    eq = Equivalence(cx, [], cx)
    check_laws(cx, cx, eq)
    assert theta_matrix(eq, 1).is_zero()


def _random_cocycle(rng, cx, n):
    """A random coboundary plus a random combination of generators."""
    f = cx.field
    if n > 0:
        below = [f.from_int(rng.randint(-2, 2)) for _ in range(cx.rank_c(n - 1))]
        vec = matvec(dense_coboundary(cx, n - 1), below)
    else:
        vec = [f.zero] * cx.rank_c(0)
    gens = betti(cx, generators=True).generators.get(n)
    for j in range(gens.cols if gens is not None else 0):
        c = f.from_int(rng.randint(-2, 2))
        vec = [f.add(v, f.mul(c, g)) for v, g in zip(vec, gens.column(j))]
    return vec


def _assert_transport_matches_matrices(rng, eq):
    orig, red = eq.src_complex, eq.dst_complex
    p = eq.field.p
    for n in range(orig.top + 1):
        vec = _random_cocycle(rng, orig, n)
        assert project_cocycle(eq, vec, n) == matvec(psi_matrix(eq, n), vec)
        rvec = _random_cocycle(rng, red, n)
        assert lift_cocycle(eq, rvec, n) == matvec(phi_matrix(eq, n), rvec)
        for cx, transport, matrix in ((orig, project_cocycle, psi_matrix),
                                      (red, lift_cocycle, phi_matrix)):
            for unit in _last_coordinates(cx, n):
                if not any(ref_coboundary(cx, unit, n, p)):
                    want = matvec(matrix(eq, n), unit)
                    assert transport(eq, unit, n) == want


def test_stepped_transport_matches_matrices():
    rng = random.Random(13)
    for runner in (scythe, coscythe, iterate_scythe):
        for make in (lambda: torus_grid(3, 3), genus2_surface):
            param = compile_sheaf(constant_sheaf(make()))
            eq = runner(param, track_equivalence=True).equivalence
            _assert_transport_matches_matrices(rng, eq)
    for param in [*_random_instances(), *_sparse_instances()]:
        eq = scythe(param, track_equivalence=True).equivalence
        _assert_transport_matches_matrices(rng, eq)


def test_project_and_lift_preserve_classes():
    param = compile_sheaf(constant_sheaf(genus2_surface()))
    data = scythe(param, track_equivalence=True)
    eq = data.equivalence
    orig, red = eq.src_complex, eq.dst_complex
    prof = betti(orig, generators=True)
    for n, gens in prof.generators.items():
        for j in range(gens.cols):
            vec = gens.column(j)
            down = project_cocycle(eq, vec, n)
            back = lift_cocycle(eq, down, n)
            # round trip lands in the same cohomology class
            diff = [orig.field.sub(a, b) for a, b in zip(vec, back)]
            coords = class_coordinates(orig, diff, n)
            assert all(c == orig.field.zero for c in coords)


def test_transport_never_stacks_source_coboundaries():
    # lift, projection and class coordinates read blocks; only the reduced
    # complex, where betti eliminates, may hold an echelon
    param = compile_sheaf(constant_sheaf(genus2_surface(), 2))
    eq = scythe(param, track_equivalence=True).equivalence
    src, red = eq.src_complex, eq.dst_complex
    for n, gens in betti(red, generators=True).generators.items():
        for j in range(gens.cols):
            down = project_cocycle(eq, lift_cocycle(eq, gens.column(j), n), n)
            assert class_coordinates(red, down, n)
    assert set(src._cache) <= {"from"}


def test_cocycle_guard():
    param = compile_sheaf(constant_sheaf(filled_triangle()))
    data = scythe(param, track_equivalence=True)
    eq = data.equivalence
    f = eq.src_complex.field
    not_cocycle = [f.one] + [f.zero] * (eq.src_complex.rank_c(1) - 1)
    with pytest.raises(NotACocycle):
        project_cocycle(eq, not_cocycle, 1)


def test_lift_guard():
    # the first random instance whose reduced complex keeps a nonzero d
    for param in _random_instances():
        eq = scythe(param, track_equivalence=True).equivalence
        red = eq.dst_complex
        hits = [(n, j) for n in range(red.top) for j in range(red.rank_c(n))
                if any(dense_coboundary(red, n).column(j))]
        if hits:
            break
    else:
        pytest.fail("every random instance reduced to d = 0")
    n, j = hits[0]
    f = red.field
    not_cocycle = [f.zero] * red.rank_c(n)
    not_cocycle[j] = f.one
    with pytest.raises(NotACocycle):
        lift_cocycle(eq, not_cocycle, n)


def test_cocycle_guard_matches_dense_oracle():
    # the block walk accepts exactly the vectors whose dense image is zero,
    # in the transports and in class_coordinates alike
    rng = random.Random(7)
    rejected = accepted = 0
    for param in [*_random_instances(), *_sparse_instances()]:
        field = param.field
        p = field.p
        eq = scythe(param, track_equivalence=True).equivalence
        for cx, transport in ((eq.src_complex, project_cocycle),
                              (eq.dst_complex, lift_cocycle)):
            for n in range(cx.top + 1):
                if not cx.rank_c(n):
                    continue
                vec = _random_cocycle(rng, cx, n)
                bumped = list(vec)
                i = rng.randrange(len(vec))
                bumped[i] = field.add(bumped[i], field.from_int(rng.randint(1, 4)))
                for v in (vec, bumped, *_last_coordinates(cx, n)):
                    if any(ref_coboundary(cx, v, n, p)):
                        rejected += 1
                        with pytest.raises(NotACocycle):
                            transport(eq, v, n)
                        with pytest.raises(SolveFailed):
                            class_coordinates(cx, v, n)
                    else:
                        accepted += 1
                        transport(eq, v, n)
                        class_coordinates(cx, v, n)
                longer = vec + [field.zero]
                with pytest.raises(ValueError):
                    transport(eq, longer, n)
                with pytest.raises(ValueError):
                    class_coordinates(cx, longer, n)
    assert rejected and accepted


def test_iterate_composes_across_passes():
    param = compile_sheaf(constant_sheaf(genus2_surface()))
    data, passes = checked_run(iterate_scythe, param, track_equivalence=True)
    assert len(passes) >= 2
    assert_passes_legal(passes, iterate_scythe)
    eq = data.equivalence
    check_laws(eq.src_complex, eq.dst_complex, eq)
    assert eq.dst_complex.rank_c(1) == 4
