import io
import json
import math
import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scythe.cohomology import betti, sheaf_cohomology
from scythe.complexes import (
    circle,
    filled_triangle,
    genus2_reeb,
    genus2_surface,
    three_arc_cover_cells,
    torus_grid,
    torus_reeb,
    two_arc_cover_cells,
)
from scythe.cli import main
from scythe.cw import CWComplex
from scythe.errors import InvalidSheafData, ParseError, ValidationError
from scythe.field import RATIONAL, fp
from scythe.matrix import Matrix
from scythe.morse import scythe
from scythe.nerve import Cover
from scythe.serialize import (
    _stream,
    complex_to_json,
    cover_to_json,
    dumps,
    equivalence_to_json,
    fibers_to_json,
    loads,
    param_to_json,
    parse,
    parse_cover,
    parse_profile,
    reduced_to_json,
    sheaf_to_json,
)
from scythe.sheaf import (
    CellularSheaf,
    compile_sheaf,
    constant_sheaf,
    pushforward_constant,
)

from oracles import phi_matrix, psi_matrix, theta_matrix
from randgen import (
    TWISTED_SUMS, random_parametrization, random_simplicial, twisted_torus_sum,
)


def test_dumps_is_canonical():
    text = dumps({"b": 1, "a": [2]})
    assert text == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'
    assert dumps(json.loads(text)) == text
    with pytest.raises(ParseError):
        loads("{nope")


def json_oracle(value):
    """What dumps must write: json's own indent encoder, kept only here."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def outcome(write, value):
    """The text written, or the type of the exception raised instead."""
    try:
        return write(value)
    except Exception as exc:
        return type(exc)


# quotes, backslashes, control characters, non-ASCII and lone surrogates
CHARS = st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028é'),
    st.characters(exclude_categories=()),
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
)
STRINGS = st.text(CHARS, max_size=12)
FLOATS = st.one_of(
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300])
)
SCALARS = st.one_of(
    STRINGS, st.none(), st.booleans(), FLOATS,
    st.integers(), st.integers(-10 ** 400, 10 ** 400),
)
# every key type json accepts, one per dict, and mixtures json cannot sort
KEYS = [STRINGS, st.integers(), FLOATS, st.booleans(), st.none()]
ROWS = st.lists(STRINGS, max_size=6)


def shared_tuples(children):
    """Arrays that hold one tuple object at the first, the last and any
    other places among lists, as an --equivalence matrix holds its shared
    all-zero row; the tuple may be a row of strings or hold anything."""
    shared = st.one_of(ROWS, st.lists(children, max_size=4)).map(tuple)
    lists = st.one_of(ROWS, st.lists(children, max_size=3))
    between = st.lists(st.one_of(st.none(), lists), max_size=5)  # None: row
    return st.builds(lambda row, items: [
        row, *(row if x is None else x for x in items), row], shared, between)


class Lazy(list):
    """An array that lazy_form makes a generator; json reads it as a list."""


def lazy_form(value):
    """value with each Lazy array a generator that converts its items as it
    yields them, so a tuple holding a Lazy array is made anew each time and
    may reuse a freed id; a tuple with no Lazy array inside stays itself,
    as the shared tuple of shared_tuples stays one object."""
    if isinstance(value, Lazy):
        return (lazy_form(item) for item in value)
    if isinstance(value, dict):
        return {key: lazy_form(v) for key, v in value.items()}
    if isinstance(value, list):
        return [lazy_form(item) for item in value]
    if isinstance(value, tuple):
        items = [lazy_form(item) for item in value]
        return value if all(map(operator.is_, items, value)) else tuple(items)
    return value


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        # arrays written as they are produced, as the --equivalence rows
        st.lists(children, max_size=5).map(Lazy),
        st.lists(ROWS, max_size=4).map(Lazy),
        shared_tuples(children).map(Lazy),
        *[st.dictionaries(key, children, max_size=4) for key in KEYS],
        st.dictionaries(st.one_of(*KEYS), children, max_size=3),
        st.lists(ROWS, max_size=4),  # a matrix: every row on the fast path
        shared_tuples(children),  # a repeated tuple is written once
        # strings with one other value in their midst leave the fast path
        st.builds(lambda row, other, at: row[:at] + [other] + row[at:],
                  st.lists(STRINGS, min_size=1, max_size=5), children,
                  st.integers(0, 5)),
    )


JSON_VALUES = st.recursive(SCALARS, containers, max_leaves=25)


@given(JSON_VALUES)
# tuples made as a generator yields them, freed after writing: a later one
# may take the id of an earlier one
@example(Lazy([(Lazy([str(i)]),) for i in range(20)]))
@settings(max_examples=200, deadline=None)
def test_dumps_writes_the_bytes_of_json_indent_encoder(value):
    want = outcome(json_oracle, value)
    assert outcome(dumps, value) == want
    assert outcome(streamed, value) == want
    assert outcome(dumps, lazy_form(value)) == want
    assert outcome(streamed, lazy_form(value)) == want


def streamed(value):
    """What the CLI's writer passes to a file's write, chunk by chunk."""
    sink = io.StringIO()
    _stream(value, sink.write)
    return sink.getvalue()


@pytest.mark.parametrize("value", [
    True, False, 0, -7, 10 ** 40, [True, 1, False, 0, None],
    {"flag": True, "n": -3, "rows": [["1"], [2]]},
], ids=["true", "false", "zero", "negative", "long", "mixed-list", "dict"])
def test_dumps_writes_bools_and_ints_as_json_does(value):
    assert dumps(value) == json_oracle(value)


class Text(str):
    """A str subclass: dumps writes its characters, as json does."""


PLAIN_ROW = ["0", "1/2", "-3", "4"]
ODD_ENTRIES = {
    "quote": '"', "backslash": "\\", "newline": "\n", "nul": "\x00",
    "del": "\x7f", "e-acute": "\u00e9", "lone-surrogate": "\ud800",
    "empty": "", "str-subclass": Text("1/2"), "space": " ",
}


@pytest.mark.parametrize("row", [
    row for entry in ODD_ENTRIES.values()
    for row in ([entry], PLAIN_ROW[:2] + [entry] + PLAIN_ROW[2:])
], ids=[name + where for name in ODD_ENTRIES for where in ("", "-mixed")])
def test_dumps_writes_rows_of_strings_as_json_does(row):
    for value in (row, [row, PLAIN_ROW], {"psi": {"0": [PLAIN_ROW, row]}}):
        assert dumps(value) == json_oracle(value)


def test_dumps_refuses_an_int_past_the_digit_limit_as_json_does(digit_limit):
    for value in (10 ** 4300, [1, 10 ** 4300], {"n": -10 ** 4300}):
        assert outcome(dumps, value) is outcome(json_oracle, value) is ValueError


@pytest.mark.parametrize("value", [
    {1, 2},
    Fraction(1, 2),
    ["a", "b", Fraction(1, 2)],
    {"a": [["x"], {"y": {3}}]},
    {Fraction(1, 2): "half"},
    {(1, 2): "pair"},
    {"a": 1, 2: "b"},
], ids=["set", "fraction", "fraction-in-row", "nested-set", "fraction-key",
        "tuple-key", "unsortable-keys"])
def test_dumps_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        json_oracle(value)
    with pytest.raises(TypeError):
        dumps(value)


def test_complex_round_trip():
    cw = torus_grid(3, 3)
    doc = complex_to_json(cw)
    back = parse(doc)
    assert isinstance(back, CWComplex)
    assert sorted(back.cells()) == sorted(cw.cells())
    assert back.incidence == cw.incidence
    assert dumps(complex_to_json(back)) == dumps(doc)
    # kind is optional when there are no ranks or maps
    bare = {"cells": doc["cells"], "covers": doc["covers"]}
    assert isinstance(parse(bare), CWComplex)


def test_sheaf_round_trip_mod_p():
    base = torus_grid(2, 3)
    ring = {c for c in base.cells() if c[0] in "vw" and c[3:5] == "00"}
    sheaf = pushforward_constant(base, ring, field=fp(7))
    doc = sheaf_to_json(sheaf)
    back = parse(doc)
    assert isinstance(back, CellularSheaf)
    assert back.field == fp(7)
    assert back.stalk_rank == sheaf.stalk_rank
    assert set(back.restriction) == set(sheaf.restriction)
    for key, m in sheaf.restriction.items():
        assert back.restriction[key].data == m.data
    assert dumps(sheaf_to_json(back)) == dumps(doc)


def test_sheaf_omitted_map_stays_omitted():
    cw = circle()
    sheaf = CellularSheaf(
        cw, RATIONAL, {c: 1 for c in cw.cells()},
        {("a", "e"): parse(good_sheaf_doc()).restriction[("u", "e")]},
    )
    doc = sheaf_to_json(sheaf)
    tagged = {(e["from"], e["to"]): ("map" in e) for e in doc["covers"]}
    assert tagged[("a", "e")] and not tagged[("b", "f")]
    back = parse(doc)
    assert set(back.restriction) == {("a", "e")}
    assert dumps(sheaf_to_json(back)) == dumps(doc)


def test_parametrization_round_trip():
    sheaf = constant_sheaf(circle(), rank=2)
    param = compile_sheaf(sheaf)
    doc = param_to_json(param)
    back = parse(doc)
    assert back.stalk_rank == param.stalk_rank
    assert betti(back.assemble()).betti == [2, 2]
    assert dumps(param_to_json(back)) == dumps(doc)
    assert all(entry["incidence"] == 1 for entry in doc["covers"])


def test_reduced_document():
    param = compile_sheaf(constant_sheaf(circle()))
    data = scythe(param, track_equivalence=True)
    eq = data.equivalence
    doc = reduced_to_json(data, eq)
    assert doc["kind"] == "reduced"
    assert doc["matching"] == [
        {"lower": x, "upper": y} for x, y in data.matching.pairs
    ]
    eqdoc = doc["equivalence"]
    assert set(eqdoc) == {"psi", "phi", "theta", "source_cells", "target_cells"}
    assert as_lists(eqdoc["psi"]["0"]) == psi_matrix(eq, 0).to_json()
    assert eqdoc["source_cells"]["1"] == ["e", "f"]
    back = parse(doc)
    assert betti(back.assemble()).betti == [1, 1]


def test_reduced_document_keeps_its_degree_range():
    param = compile_sheaf(constant_sheaf(filled_triangle()))
    assert "top" not in param_to_json(param)
    doc = reduced_to_json(scythe(param))
    assert doc["top"] == 2 and [c["dim"] for c in doc["cells"]] == [0]
    back = parse(doc)
    assert back.max_dim() == 2
    assert betti(back.assemble()).betti == [1, 0, 0]
    assert param_to_json(back)["top"] == 2
    for top, message in ((-1, "$.top: expected >= 0, got -1"),
                         (True, "$.top: expected an integer, got True")):
        with pytest.raises(ParseError, match="^%s$" % re.escape(message)):
            parse(dict(doc, top=top))


def rescaled(rng, sheaf):
    """sheaf in stalk bases scaled by random diagonals of 1, 2 and 3 (one
    where the field makes them zero), so that over Q its inverted blocks
    are not integral."""
    f = sheaf.field
    scale = {c: [f.from_int(rng.randint(1, 3)) or f.one for _ in range(r)]
             for c, r in sheaf.stalk_rank.items()}
    maps = {}
    for (s, t), m in sheaf.restriction.items():
        maps[(s, t)] = Matrix(f, m.rows, m.cols, [
            [f.mul(f.mul(a, v), f.inv(b)) for v, b in zip(row, scale[s])]
            for a, row in zip(scale[t], m.data)
        ])
    return CellularSheaf(sheaf.base, f, sheaf.stalk_rank, maps)


def as_lists(rows):
    return [list(row) for row in rows]


def read_rows(eqdoc):
    """eqdoc with each matrix's rows, which the writer reads once as they
    are made, read into a list that a test may read again or edit."""
    for key in ("psi", "phi", "theta"):
        eqdoc[key] = {n: list(rows) for n, rows in eqdoc[key].items()}
    return eqdoc


def row_shapes(rows, zero):
    """The shapes of one written matrix that its row writer must meet."""
    shapes = set() if rows else {"no rows"}
    for row in rows:
        if not row:
            shapes.add("width 0")
        elif row.count(zero) == len(row):
            shapes.add("zero row")
        else:
            shapes.update(name for name, hit in (
                ("first column", row[0] != zero),
                ("last column", row[-1] != zero),
                ("negative", any(v.startswith("-") for v in row)),
                ("fraction", any("/" in v for v in row))) if hit)
    return shapes


@pytest.mark.parametrize("field", [RATIONAL, fp(5), fp(2), fp(2 ** 61 - 1)],
                         ids=["Q", "F5", "F2", "F2^61-1"])
def test_equivalence_document_matches_the_dense_oracle(field):
    rng = random.Random(19)
    sheaves = [constant_sheaf(torus_grid(3, 3), rank=2, field=field)]
    sheaves += [rescaled(rng, twisted_torus_sum(rng, 3, 3, kinds, field))
                for kinds in (TWISTED_SUMS[2], TWISTED_SUMS[5])]
    # reduces to one vertex: psi^1 has no rows, phi^1 rows of width 0
    sheaves.append(constant_sheaf(filled_triangle(), field=field))
    fractions = shared = 0
    shapes = set()
    for sheaf in sheaves:
        data = scythe(compile_sheaf(sheaf), track_equivalence=True)
        eq = data.equivalence
        eqdoc = read_rows(equivalence_to_json(eq))
        top = max(eq.src_complex.layouts)
        assert set(eqdoc["theta"]) == {str(n) for n in range(1, top + 1)}
        for n in range(top + 1):
            assert as_lists(eqdoc["psi"][str(n)]) == psi_matrix(eq, n).to_json()
            assert as_lists(eqdoc["phi"][str(n)]) == phi_matrix(eq, n).to_json()
            if n:
                assert (as_lists(eqdoc["theta"][str(n)])
                        == theta_matrix(eq, n).to_json())
        text = dumps(reduced_to_json(data, eq))
        doc = reduced_to_json(data, eq)
        read_rows(doc["equivalence"])
        assert text == json_oracle(doc)
        fractions += "/" in json_oracle(eqdoc)
        zero = field.format(field.zero)
        for key in ("psi", "phi", "theta"):
            for rows in eqdoc[key].values():
                shapes |= row_shapes(rows, zero)
                # the all-zero rows of a matrix are one object, written once
                blank = [row for row in rows if row.count(zero) == len(row)]
                assert len({id(row) for row in blank}) <= 1
                shared += len(blank) > 1
    # over Q the rescaled sums' equivalences hold non-integral entries
    assert fractions == (2 if field is RATIONAL else 0)
    assert shared
    signed = {"negative", "fraction"} if field is RATIONAL else set()
    assert shapes == {"no rows", "width 0", "zero row", "first column",
                      "last column"} | signed


def test_edited_equivalence_document_is_written_as_json_writes_it():
    data = scythe(compile_sheaf(constant_sheaf(torus_grid(2, 2))),
                  track_equivalence=True)
    doc = reduced_to_json(data, equivalence=data.equivalence)
    rows = read_rows(doc["equivalence"])["phi"]["1"]
    zero = RATIONAL.format(RATIONAL.zero)
    blank = next(i for i, row in enumerate(rows) if set(row) == {zero})
    full = next(i for i, row in enumerate(rows) if set(row) != {zero})
    width = len(rows[0])
    edits = [
        lambda: rows.__setitem__(blank, ["7"] + [zero] * (width - 1)),
        lambda: rows[full].__setitem__(rows[full].index("1"), 'a"b'),
        lambda: rows.append(["-1"] * width),
    ]
    for edit in edits:
        edit()
        assert dumps(doc) == json_oracle(doc)
    assert json.loads(dumps(doc))["equivalence"]["phi"]["1"] == as_lists(rows)


def test_equivalence_document_of_an_empty_complex_has_no_degree():
    empty = parse({"kind": "complex", "cells": [], "covers": []})
    data = scythe(compile_sheaf(constant_sheaf(empty)), track_equivalence=True)
    assert equivalence_to_json(data.equivalence) == {
        key: {} for key in ("psi", "phi", "theta", "source_cells",
                            "target_cells")}


def test_cover_round_trip():
    cw, pieces = three_arc_cover_cells()
    cover = Cover(cw, pieces)
    doc = cover_to_json(cover)
    back = parse_cover(doc, cw)
    assert back.pieces == cover.pieces
    assert dumps(cover_to_json(back)) == dumps(doc)
    with pytest.raises(ParseError):
        parse(doc)  # needs a base complex
    with pytest.raises(ParseError):
        parse_cover({"kind": "complex", "pieces": []}, cw)


def test_cover_and_fibers_documents_name_a_missing_key():
    cw = circle()
    with pytest.raises(ParseError, match=r"^\$: missing 'pieces'$"):
        parse_cover({"kind": "cover"}, cw)
    with pytest.raises(ParseError, match=r"^pieces\[0\]: missing 'cells'$"):
        parse_cover({"pieces": [{"name": "A"}]}, cw)
    with pytest.raises(ParseError, match=r"^\$: missing 'graph'$"):
        parse({"kind": "fibers", "fibers": {}})


def test_fibers_round_trip():
    _, graph, fibers = torus_reeb()
    doc = fibers_to_json(graph, fibers)
    back_graph, back_fibers = parse(doc)
    assert sorted(back_graph.cells()) == sorted(graph.cells())
    assert back_fibers == {k: frozenset(v) for k, v in fibers.items()}
    assert dumps(fibers_to_json(back_graph, back_fibers)) == dumps(doc)


def test_profile_parsing():
    prof = sheaf_cohomology(constant_sheaf(circle()))
    doc = dict(prof.to_json(), kind="profile")
    assert parse(doc).betti == [1, 1]
    assert parse_profile({"betti": [1, 0, 2]}).betti == [1, 0, 2]
    with pytest.raises(ParseError):
        parse_profile({"betti": [1, -1]})
    with pytest.raises(ParseError):
        parse_profile({"betti": "nope"})


def good_sheaf_doc():
    return {
        "kind": "sheaf",
        "cells": [
            {"id": "u", "dim": 0, "rank": 1},
            {"id": "v", "dim": 0, "rank": 1},
            {"id": "e", "dim": 1, "rank": 1},
        ],
        "covers": [
            {"from": "u", "to": "e", "incidence": -1, "map": [["1"]]},
            {"from": "v", "to": "e", "incidence": 1, "map": [["1"]]},
        ],
    }


def test_parse_error_paths():
    doc = good_sheaf_doc()
    assert isinstance(parse(doc), CellularSheaf)
    # kindless documents infer sheaf from the ranks
    kindless = {k: v for k, v in doc.items() if k != "kind"}
    assert isinstance(parse(kindless), CellularSheaf)

    cases = [
        ("unknown kind", lambda d: d.update(kind="poset")),
        ("cells not a list", lambda d: d.update(cells={})),
        ("missing id", lambda d: d["cells"][0].pop("id")),
        ("empty id", lambda d: d["cells"][0].update(id="")),
        ("negative dim", lambda d: d["cells"][0].update(dim=-1)),
        ("boolean dim", lambda d: d["cells"][0].update(dim=True)),
        ("partial ranks", lambda d: d["cells"][1].pop("rank")),
        ("duplicate cover", lambda d: d["covers"].append(dict(d["covers"][0]))),
        ("incidence 2", lambda d: d["covers"][0].update(incidence=2)),
        ("map row count", lambda d: d["covers"][0].update(map=[["1"], ["0"]])),
        ("map entry type", lambda d: d["covers"][0].update(map=[[None]])),
        ("bad literal", lambda d: d["covers"][0].update(map=[["1/"]])),
        ("endpoint not a cell", lambda d: d["covers"][0].update({"from": "w"})),
    ]
    for label, mutate in cases:
        broken = json.loads(json.dumps(good_sheaf_doc()))
        mutate(broken)
        with pytest.raises(ParseError):
            parse(broken)
        assert label  # keeps the tuple honest

    with pytest.raises(ParseError):
        parse(dict(good_sheaf_doc(), kind="complex"))
    no_ranks = good_sheaf_doc()
    for cell in no_ranks["cells"]:
        del cell["rank"]
    for cov in no_ranks["covers"]:
        del cov["map"]
    with pytest.raises(ParseError):
        parse(no_ranks)  # sheaf kind demands ranks
    with_map = good_sheaf_doc()
    for cell in with_map["cells"]:
        del cell["rank"]
    with pytest.raises(ParseError):
        parse(dict(with_map, kind=None))  # maps need ranks


def _set(path, value):
    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return mutate


# one case per reader branch, with the exact text of its ParseError
READER_ERRORS = [
    ("non-list-map", _set(("covers", 1, "map"), "1"),
     "$.covers[1].map: expected an array of rows"),
    ("row-count", _set(("covers", 1, "map"), [["1"], ["0"]]),
     "$.covers[1].map: expected 1 rows, got 2"),
    ("short-row", _set(("covers", 1, "map"), [[]]),
     "$.covers[1].map[0]: expected 1 entries"),
    ("unhashable-grid", _set(("covers", 1, "map"), [1, 2]),
     "$.covers[1].map: expected 1 rows, got 2"),
    ("float-entry", _set(("covers", 1, "map"), [[1.5]]),
     "$.covers[1].map[0][0]: expected an element string"),
    ("zero-denominator", _set(("covers", 1, "map"), [["1/0"]]),
     "$.covers[1].map[0][0]: bad rational literal '1/0'"),
    ("bool-rank", _set(("cells", 2, "rank"), True),
     "$.cells[2].rank: expected an integer, got True"),
    ("negative-rank", _set(("cells", 2, "rank"), -1),
     "$.cells[2].rank: expected >= 0, got -1"),
    ("float-dim", _set(("cells", 2, "dim"), 1.0),
     "$.cells[2].dim: expected an integer, got 1.0"),
    ("negative-dim", _set(("cells", 0, "dim"), -1),
     "$.cells[0].dim: expected >= 0, got -1"),
    ("missing-dim", lambda d: d["cells"][1].pop("dim"),
     "$.cells[1]: missing 'dim'"),
    ("list-id", _set(("cells", 1, "id"), ["v"]),
     "$.cells[1].id: expected a nonempty string"),
    ("cell-not-object", _set(("cells", 0), "u"),
     "$.cells[0]: expected an object"),
    ("unknown-endpoint", _set(("covers", 1, "from"), "zz"),
     "$.covers[1]: cover endpoints missing from cells"),
    ("endpoint-not-id", _set(("covers", 0, "to"), 3),
     "$.covers[0]: from/to must be cell ids"),
    ("missing-to", lambda d: d["covers"][0].pop("to"),
     "$.covers[0]: missing 'to'"),
    ("missing-from", lambda d: d["covers"][1].pop("from"),
     "$.covers[1]: missing 'from'"),
    ("missing-incidence", lambda d: d["covers"][1].pop("incidence"),
     "$.covers[1]: missing 'incidence'"),
    ("cover-not-object", _set(("covers", 0), ["u", "e"]),
     "$.covers[0]: expected an object"),
    ("incidence-2", _set(("covers", 1, "incidence"), 2),
     "$.covers[1].incidence: expected +1 or -1"),
    ("incidence-string", _set(("covers", 1, "incidence"), "1"),
     "$.covers[1].incidence: expected an integer, got '1'"),
    ("duplicate-cover", lambda d: d["covers"].append(dict(d["covers"][0])),
     "$.covers[2]: duplicate cover (u, e)"),
    ("cells-object", _set(("cells",), {"u": 0}),
     "$.cells: expected an array"),
    ("covers-null", _set(("covers",), None),
     "$.covers: expected an array"),
]


@pytest.mark.parametrize("mutate, message", [c[1:] for c in READER_ERRORS],
                         ids=[c[0] for c in READER_ERRORS])
def test_reader_error_text_is_pinned(capsys, tmp_path, mutate, message):
    doc = good_sheaf_doc()
    mutate(doc)
    with pytest.raises(ParseError) as caught:
        parse(doc)
    assert str(caught.value) == message
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    for command in ("compute", "validate"):
        code = main([command, str(path)])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_duplicate_cell_id_is_reported_in_both_kinds(capsys, tmp_path):
    sheaf = good_sheaf_doc()
    sheaf["cells"][1]["id"] = "u"
    bare = json.loads(json.dumps(sheaf))
    bare["kind"] = "complex"
    for cell in bare["cells"]:
        del cell["rank"]
    for cover in bare["covers"]:
        del cover["map"]
    for doc in (sheaf, bare):
        with pytest.raises(ValidationError, match=r"^duplicate element id 'u'$"):
            parse(doc)
        path = tmp_path / "duplicate.json"
        path.write_text(json.dumps(doc))
        code = main(["compute", str(path)])
        assert (code,) + tuple(capsys.readouterr()) == (
            2, "", "error: duplicate element id 'u'\n")


# a later map repeating the accepted [["1"]] or [[1]] of cover 0 in another
# form: the reader remembers entries and grids only as str, and True, 1 and
# 1.0 are equal, so none of these may borrow what cover 0 left behind
REPEATED_ONE = [
    ("bool", [[True]], "$.covers[1].map[0][0]: expected an element string"),
    ("float", [[1.0]], "$.covers[1].map[0][0]: expected an element string"),
    ("string", "1", "$.covers[1].map: expected an array of rows"),
    ("string-row", ["1"], "$.covers[1].map[0]: expected 1 entries"),
    ("object-row", [{"1": 0}], "$.covers[1].map[0]: expected 1 entries"),
    ("int", [[1]], None),
]


@pytest.mark.parametrize("first", [[["1"]], [[1]]], ids=["str", "int"])
@pytest.mark.parametrize("grid, message", [c[1:] for c in REPEATED_ONE],
                         ids=[c[0] for c in REPEATED_ONE])
def test_a_repeated_map_is_checked_as_written(first, grid, message):
    doc = good_sheaf_doc()
    doc["covers"][0]["map"] = first
    doc["covers"][1]["map"] = grid
    if message is not None:
        with pytest.raises(ParseError) as caught:
            parse(doc)
        assert str(caught.value) == message
        return
    back = parse(doc)
    want = parse(good_sheaf_doc())
    assert back.restriction == want.restriction
    assert dumps(sheaf_to_json(back)) == dumps(sheaf_to_json(want))


def test_a_repeated_map_is_checked_against_its_ranks():
    doc = good_sheaf_doc()
    doc["cells"].append({"id": "w", "dim": 1, "rank": 2})
    doc["covers"].append({"from": "u", "to": "w", "incidence": 1,
                          "map": [["1"]]})
    with pytest.raises(ParseError) as caught:
        parse(doc)
    assert str(caught.value) == "$.covers[2].map: expected 2 rows, got 1"


@pytest.mark.parametrize("field", [RATIONAL, fp(5)], ids=["Q", "F5"])
def test_twisted_sum_documents_read_entry_by_entry(field):
    # the maps parse reads, in order and by value, are those of reading
    # every entry of every map with FieldSpec.parse; equal grids share one
    # Matrix, and compiling gives the maps of the sheaf read entry by entry
    rng = random.Random(17)
    for kinds in TWISTED_SUMS:
        doc = loads(dumps(sheaf_to_json(
            twisted_torus_sum(rng, 6, 6, kinds, field))))
        ranks = {c["id"]: c["rank"] for c in doc["cells"]}
        want = {}
        for cover in doc["covers"]:
            rows, cols = ranks[cover["to"]], ranks[cover["from"]]
            want[(cover["from"], cover["to"])] = Matrix(field, rows, cols, [
                [field.parse(v) for v in row] for row in cover["map"]])
        back = parse(doc)
        assert list(back.restriction) == list(want)
        assert back.restriction == want
        grids = {(json.dumps(c["map"]), ranks[c["from"]])
                 for c in doc["covers"]}  # [] is a map of any source rank
        assert len({id(m) for m in back.restriction.values()}) == len(grids)
        reference = compile_sheaf(
            CellularSheaf(back.base, field, back.stalk_rank, want))
        compiled = compile_sheaf(back)
        assert list(compiled.maps) == list(reference.maps)
        assert compiled.maps == reference.maps


def test_parametrization_rejects_signed_incidence():
    doc = good_sheaf_doc()
    doc["kind"] = "parametrization"
    with pytest.raises(ParseError):
        parse(doc)
    doc["covers"][0]["incidence"] = 1
    back = parse(doc)
    assert betti(back.assemble()).betti == [1, 0]


def square_param_doc(kind, maps):
    cells = [("a", 0), ("x", 1), ("y", 1), ("f", 2)]
    covers = [("a", "x"), ("a", "y"), ("x", "f"), ("y", "f")]
    return {"kind": kind,
            "cells": [{"id": c, "dim": d, "rank": 1} for c, d in cells],
            "covers": [{"from": s, "to": t, "incidence": 1, "map": [[m]]}
                       for (s, t), m in zip(covers, maps)]}


@pytest.mark.parametrize("kind", ["parametrization", "reduced"])
def test_compiled_document_of_identity_blocks_is_walked(kind):
    # +1 on all four maps of a square: both paths from a to f give 1, so
    # d^2 is 2 there, although every block is an identity
    with pytest.raises(InvalidSheafData) as err:
        parse(square_param_doc(kind, ["1", "1", "1", "1"]))
    assert str(err.value) == ("compiled coboundary does not square to zero; "
                              "blocks: [(0, 'f', 'a')]")
    param = parse(square_param_doc(kind, ["1", "-1", "1", "1"]))
    assert betti(param.assemble()).betti == [0, 0, 0]
    # a zero map drops its cover
    param = parse(square_param_doc(kind, ["0", "0", "1", "1"]))
    assert sorted(param.maps) == [("x", "f"), ("y", "f")]
    assert not param.poset.has_cover("a", "x")


def random_surfaces(count):
    """Random simplicial complexes of dimension at least two, seeded."""
    rng = random.Random(13)
    found = []
    while len(found) < count:
        cw = random_simplicial(rng)
        if cw.poset.max_dim() >= 2:
            found.append((cw, random.Random(len(found))))
    return found


@pytest.mark.parametrize("field", [RATIONAL, fp(5), fp(2)],
                         ids=["Q", "F5", "F2"])
def test_compiled_documents_of_surfaces_read_back(field):
    # incidence 1 on every cover breaks the CW sign identity of a surface;
    # the reader checks d^2 of the maps instead
    params = [compile_sheaf(constant_sheaf(cw, 1, field))
              for cw in (filled_triangle(), torus_grid(2, 2), genus2_surface())]
    params += [random_parametrization(rng, cw, field)
               for cw, rng in random_surfaces(12)]
    for param in params:
        doc = param_to_json(param)
        assert dumps(param_to_json(parse(doc))) == dumps(doc)
        data = scythe(param.copy())
        back = parse(reduced_to_json(data))
        assert dumps(param_to_json(back)) == dumps(param_to_json(data.reduced))
    doc = param_to_json(params[0])
    doc["covers"][0]["incidence"] = -1
    with pytest.raises(ParseError, match="must have incidence 1"):
        parse(doc)


def test_field_handling():
    doc = good_sheaf_doc()
    assert parse(doc).field == RATIONAL
    doc["field"] = {"kind": "fp", "p": 7}
    doc["covers"][0]["map"] = [["9"]]
    back = parse(doc)
    assert back.field == fp(7)
    assert sheaf_to_json(back)["covers"][0]["map"] == [["2"]]
    doc["field"] = {"kind": "fp", "p": 6}
    with pytest.raises(ParseError):
        parse(doc)


def test_data_files_match_builders(data_dir):
    surface, graph, fibers = genus2_reeb()
    torus, tgraph, tfibers = torus_reeb()
    circle8, two_arcs = two_arc_cover_cells()
    circle6, three_arcs = three_arc_cover_cells()
    expected = {
        "genus2_surface.json": complex_to_json(surface),
        "genus2_reeb.json": fibers_to_json(graph, fibers),
        "torus.json": complex_to_json(torus),
        "torus_reeb.json": fibers_to_json(tgraph, tfibers),
        "circle8.json": complex_to_json(circle8),
        "two_arc_cover.json": cover_to_json(Cover(circle8, two_arcs)),
        "circle6.json": complex_to_json(circle6),
        "three_arc_cover.json": cover_to_json(Cover(circle6, three_arcs)),
    }
    on_disk = sorted(p.name for p in data_dir.glob("*.json"))
    assert on_disk == sorted(expected)
    for name, doc in expected.items():
        assert (data_dir / name).read_text() == dumps(doc), name
