"""JSON interchange for complexes, sheaves, parametrizations, covers, fibers.

One document shape throughout: {"kind": ..., "cells"/"covers"/... }.  The
kind field wins when present; without it, rank or map data means a sheaf.
Matrices are nested arrays of element strings.  Output is canonical (sorted
keys, two-space indent, trailing newline) so equal objects give equal bytes.
The writer is hand-written: its bytes are those of json.dumps(obj,
indent=2, sort_keys=True) plus a newline, but json has no C path for
indent and would encode every matrix entry in pure Python; plain ints are
written with int.__repr__, a row of strings that need no escape is
written with one join, and a tuple that recurs in one array is written
once.  The writer passes its chunks to a write callable: dumps joins them
into one string, and the CLI streams them to stdout or its -o file, so it
never holds a whole document.  The --equivalence document's rows are
made from the sparse fold of the reduction steps only as the writer
reaches them, so such a document can be written only once, and writing
it holds one dense row at a time: zeros are one shared string, and all
the all-zero rows of a matrix are one shared tuple.  Parse errors carry a JSON-ish path to the
offending spot; the readers of cells, covers and matrices format that
path and message only when they raise.  A complex, sheaf or compiled
document is read in one pass that makes each check once: each distinct
entry string is parsed once, equal map grids share one Matrix, and the
poset is indexed once (see the readers' notes below).
"""

import json
from json.encoder import encode_basestring_ascii as _quote
from types import GeneratorType

from . import matrix, parametrization
from .cohomology import CohomologyProfile
from .cw import CWComplex, _signed
from .errors import ParseError
from .field import RATIONAL, FieldSpec
from .nerve import Cover
from .poset import GradedPoset, cover_fault, duplicate_id
from .sheaf import _built as _built_sheaf


def dumps(obj):
    """Canonical text form of a JSON-ready object.

    The bytes equal json.dumps(obj, indent=2, sort_keys=True) + "\n".  json
    takes its pure-Python encoder whenever indent is set, one generator
    step per value, so this writer does the layout itself.  A list made
    only of strings, which is every matrix row, is joined once with no
    separator; when that text is printable ASCII with no '"' or '\\', no
    item needs an escape (encode_basestring_ascii escapes exactly those two
    and everything outside 0x20-0x7E), so the row is written with one join
    that puts each item in quotes, and otherwise as one join over
    encode_basestring_ascii.  In any other array, a tuple that appears
    again (the same object, by id) is written from the text of its first
    writing; a tuple cannot change between the two, and the shared
    all-zero rows of the --equivalence matrices are each written once.
    A generator is an array too, written item by item as it yields them
    (json refuses one): the --equivalence matrices are generators of
    rows.  A plain int is int.__repr__ (what json's encoder calls for it;
    bools are not plain ints and stay true/false), and other scalars go
    through json.dumps.
    """
    out = []
    _stream(obj, out.append)
    return "".join(out)


def _stream(obj, write):
    """Pass dumps(obj) to write chunk by chunk; the CLI writes its output
    this way, so it never holds a whole document."""
    _write(obj, "\n", write)
    write("\n")


def _write(obj, newline, write):
    """Pass obj's chunks to write; newline carries the current indent."""
    if isinstance(obj, str):
        write(_quote(obj))
    elif type(obj) is int:
        write(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        try:
            text = "".join(obj)
        except TypeError:
            text = None  # not all strings
        if text is None or not obj:
            _write_items(obj, newline, write)
            return
        inner = newline + "  "
        if _plain(text):  # each item's JSON form is "item"
            write("[" + inner + '"' + ('",' + inner + '"').join(obj)
                  + '"' + newline + "]")
        else:
            write("[" + inner + ("," + inner).join(map(_quote, obj))
                  + newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = newline + "  "
        opener = "{"
        for key, value in sorted(obj.items()):
            write(opener + inner + _quote(_key(key)) + ": ")
            _write(value, inner, write)
            opener = ","
        write(newline + "}")
    elif isinstance(obj, GeneratorType):
        _write_items(obj, newline, write)
    else:
        write(json.dumps(obj))


def _write_items(items, newline, write):
    """An array item by item.  A tuple item met again is written from the
    text of its first writing; the tuple is kept with its text, so its id
    cannot pass to another object while the array is written."""
    inner = newline + "  "
    opener = "["
    written = {}  # id of a tuple item -> (the tuple, its text at this indent)
    for item in items:
        write(opener + inner)
        opener = ","
        if type(item) is not tuple:
            _write(item, inner, write)
            continue
        seen = written.get(id(item))
        if seen is None:
            parts = []
            _write(item, inner, parts.append)
            seen = written[id(item)] = (item, "".join(parts))
        write(seen[1])
    write("[]" if opener == "[" else newline + "]")


def _plain(text):
    """Whether encode_basestring_ascii writes text as itself in quotes: it
    escapes exactly '"', '\\' and everything outside printable ASCII."""
    return (text.isascii() and text.isprintable() and '"' not in text
            and "\\" not in text)


def _key(key):
    """A dict key as json writes it: str as is, other scalars as their text."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError("keys must be str, int, float, bool or None, not %s"
                    % type(key).__name__)


def loads(text):
    """Parse JSON text; malformed or over-deep documents raise ParseError.

    Besides JSONDecodeError, json raises a plain ValueError for an integer
    longer than the interpreter's digit limit and RecursionError for
    nesting deeper than the stack allows.
    """
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ParseError("not JSON: %s" % exc)
    except RecursionError:
        raise ParseError("not JSON: nested too deeply")


def complex_to_json(cw):
    cells = [{"id": c, "dim": cw.poset.dim(c)} for c in cw.cells()]
    covers = [
        {"from": s, "to": t, "incidence": cw.incidence[(s, t)]}
        for s, t in cw.poset.covers()
    ]
    return {"kind": "complex", "cells": cells, "covers": covers}


def sheaf_to_json(sheaf):
    cells = [
        {"id": c, "dim": sheaf.base.poset.dim(c), "rank": sheaf.stalk_rank[c]}
        for c in sheaf.base.cells()
    ]
    covers = []
    for s, t in sheaf.base.poset.covers():
        entry = {"from": s, "to": t, "incidence": sheaf.base.incidence[(s, t)]}
        m = sheaf.restriction.get((s, t))
        if m is not None:
            entry["map"] = m.to_json()
        covers.append(entry)
    return {
        "kind": "sheaf",
        "field": sheaf.field.to_json(),
        "cells": cells,
        "covers": covers,
    }


def param_to_json(param):
    """Parametrizations write incidence 1 and the signed map on every cover,
    each of which carries a nonzero block; a pair that is not a cover has
    the zero map.  A degree range reaching past the top cell, as a
    reduction leaves it, is written as "top".
    """
    cells = [
        {"id": c, "dim": param.poset.dim(c), "rank": param.stalk_rank[c]}
        for c in param.poset.elements()
    ]
    covers = [
        {"from": s, "to": t, "incidence": 1,
         "map": param.maps[(s, t)].to_json()}
        for s, t in param.poset.covers()
    ]
    out = {
        "kind": "parametrization",
        "field": param.field.to_json(),
        "cells": cells,
        "covers": covers,
    }
    if param.top > param.poset.max_dim():
        out["top"] = param.top
    return out


def equivalence_to_json(eq):
    """Dense psi/phi/theta matrices by dimension, with their cell orders,
    for degrees 0..top of the source complex.

    Each matrix is a generator of rows that _rows makes from the sparse
    fold as the writer reaches them, so the document is written once and
    no list of its rows is ever built.  Its all-zero rows are one shared
    tuple, which dumps writes once per matrix.  Every distinct entry is
    formatted before this returns, so an entry that cannot be written
    fails before any byte is.
    """
    src, dst = eq.src_complex, eq.dst_complex
    degrees = range(src.top + 1)
    f = eq.field
    texts = {}
    return {
        "psi": {str(n): _rows(f, texts, eq.psi_vecs(n), src.rank_c(n))
                for n in degrees},
        "phi": {str(n): _rows(f, texts, eq.phi_vecs(n), dst.rank_c(n))
                for n in degrees},
        "theta": {str(n): _rows(f, texts, eq.theta_vecs(n), src.rank_c(n))
                  for n in degrees[1:]},
        "source_cells": {str(n): list(src.layout(n).cells) for n in degrees},
        "target_cells": {str(n): list(dst.layout(n).cells) for n in degrees},
    }


def _rows(field, texts, vecs, width):
    """The rows of one matrix from {column: value} dicts of its nonzero
    entries, as strings.  Each value not in texts is formatted and put
    there now; the rows come one at a time: a row with entries is a list,
    and every empty dict gives the one all-zero tuple."""
    for vec in vecs:
        for v in vec.values():
            if v not in texts:
                texts[v] = field.format(v)
    zero = field.format(field.zero)
    blank = (zero,) * width
    return (_row(vec, width, zero, texts) if vec else blank for vec in vecs)


def _row(vec, width, zero, texts):
    """A row with entries: zero's text but at the columns of vec."""
    row = [zero] * width
    for j, v in vec.items():
        row[j] = texts[v]
    return row


def reduced_to_json(morse_data, equivalence=None):
    out = param_to_json(morse_data.reduced)
    out["kind"] = "reduced"
    out["matching"] = [
        {"lower": x, "upper": y} for x, y in morse_data.matching.pairs
    ]
    if equivalence is not None:
        out["equivalence"] = equivalence_to_json(equivalence)
    return out


def cover_to_json(cover):
    return {
        "kind": "cover",
        "pieces": [
            {"name": name, "cells": sorted(cells)}
            for name, cells in cover.pieces.items()
        ],
    }


def fibers_to_json(gamma, fibers):
    return {
        "kind": "fibers",
        "graph": complex_to_json(gamma),
        "fibers": {cell: sorted(cells) for cell, cells in sorted(fibers.items())},
    }


def _expect(cond, msg):
    if not cond:
        raise ParseError(msg)


def _get(data, key, path):
    if key not in data:
        raise ParseError("%s: missing %r" % (path, key))
    return data[key]


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _bad_int(path, value, minimum=None):
    """The error for a value at path that is not an integer >= minimum."""
    if _is_int(value):
        return ParseError("%s: expected >= %d, got %d" % (path, minimum, value))
    return ParseError("%s: expected an integer, got %r" % (path, value))


def _int(value, path, minimum=None):
    if not _is_int(value) or minimum is not None and value < minimum:
        raise _bad_int(path, value, minimum)
    return value


def parse_field(obj):
    if obj is None:
        return RATIONAL
    _expect(isinstance(obj, dict), "field: expected an object")
    return FieldSpec.from_json(obj)


# The readers below run once per cell, cover and map entry, so each check
# is a plain test and its path and message are formatted only in the
# branch that raises.  A document is read in one pass, each fact once:
# - an entry string is parsed once per document, and later equal strings
#   reuse its element.  Only str entries are remembered: True, 1 and 1.0
#   are equal and hash alike, so a looser memo would vouch for a bool or a
#   float;
# - equal map grids share one immutable Matrix, so check_sheaf signs and
#   zero-tests it once.  Only a grid that was read as a list of lists of
#   str is remembered, with its column count (the grid [] fits any), and a
#   later grid reuses it only when it equals that grid as a list, so "1",
#   ["1"] or [[1.0]] never stand for [["1"]];
# - the cell loop indexes the dimensions and the cover loop makes the
#   checks of build_poset (duplicate ids, dangling endpoints, grading)
#   with its texts; the poset is indexed once, after both loops: in
#   tuples from the covers of a complex or sheaf, and for a compiled
#   document by parametrization._built, from its nonzero maps, over the
#   degrees up to the document's top.  Such a fault is raised only after
#   the document's structure and kind are checked, as a build_poset call
#   after the reading would raise it.

def _parse_matrix(field, entries, grid, rows, cols, path, i):
    if not isinstance(grid, list):
        raise ParseError("%s.covers[%d].map: expected an array of rows"
                         % (path, i))
    if len(grid) != rows:
        raise ParseError("%s.covers[%d].map: expected %d rows, got %d"
                         % (path, i, rows, len(grid)))
    known = entries.__getitem__
    data = []
    for r, row in enumerate(grid):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError("%s.covers[%d].map[%d]: expected %d entries"
                             % (path, i, r, cols))
        try:
            data.append(list(map(known, row)))
        except (KeyError, TypeError):  # an entry not read before
            data.append(_parse_row(field, entries, row, path, i, r))
    return matrix._built(field, rows, cols, data)


def _parse_row(field, entries, row, path, i, r):
    """A row with an entry not read before, checked and parsed entry by
    entry; its str entries are remembered."""
    parsed = []
    for c, value in enumerate(row):
        if type(value) is str and value in entries:
            parsed.append(entries[value])
            continue
        if not isinstance(value, (str, int)) or isinstance(value, bool):
            raise ParseError("%s.covers[%d].map[%d][%d]: expected an element "
                             "string" % (path, i, r, c))
        try:
            element = field.parse(value)
        except ParseError as exc:
            raise ParseError("%s.covers[%d].map[%d][%d]: %s"
                             % (path, i, r, c, exc))
        if type(value) is str:
            entries[value] = element
        parsed.append(element)
    return parsed


def _parse_cells(data, path):
    """The dims and ranks of the cells, and the first id declared twice."""
    raw = _get(data, "cells", path)
    if not isinstance(raw, list):
        raise ParseError("%s.cells: expected an array" % path)
    dims = {}
    ranks = {}
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ParseError("%s.cells[%d]: expected an object" % (path, i))
        if "id" not in entry:
            raise ParseError("%s.cells[%d]: missing 'id'" % (path, i))
        cid = entry["id"]
        if not isinstance(cid, str) or not cid:
            raise ParseError("%s.cells[%d].id: expected a nonempty string"
                             % (path, i))
        if "dim" not in entry:
            raise ParseError("%s.cells[%d]: missing 'dim'" % (path, i))
        dim = entry["dim"]
        if type(dim) is not int and not _is_int(dim) or dim < 0:
            raise _bad_int("%s.cells[%d].dim" % (path, i), dim, 0)
        dims[cid] = dim
        if "rank" in entry:
            rank = entry["rank"]
            if type(rank) is not int and not _is_int(rank) or rank < 0:
                raise _bad_int("%s.cells[%d].rank" % (path, i), rank, 0)
            ranks[cid] = rank
    duplicate = None
    if len(dims) != len(raw):  # some id is declared twice: find the first
        seen = set()
        for entry in raw:
            if entry["id"] in seen:
                duplicate = entry["id"]
                break
            seen.add(entry["id"])
    if ranks and len(ranks) != len(raw):
        if duplicate is not None:
            raise duplicate_id(duplicate, ParseError)
        raise ParseError(
            "%s.cells: some cells carry ranks and some do not" % path
        )
    return dims, (ranks or None), duplicate


def _parse_covers(data, field, dims, ranks, path):
    """The incidences, the maps, and the error of the first cover that is
    not graded, if any."""
    raw = data.get("covers", [])
    if not isinstance(raw, list):
        raise ParseError("%s.covers: expected an array" % path)
    incidence = {}
    maps = {}
    fault = None
    dim_of = dims.get
    rank_of = (ranks or {}).get
    entries = {}
    grids = {}
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ParseError("%s.covers[%d]: expected an object" % (path, i))
        if "from" not in entry:
            raise ParseError("%s.covers[%d]: missing 'from'" % (path, i))
        if "to" not in entry:
            raise ParseError("%s.covers[%d]: missing 'to'" % (path, i))
        s = entry["from"]
        t = entry["to"]
        if not isinstance(s, str) or not isinstance(t, str):
            raise ParseError("%s.covers[%d]: from/to must be cell ids"
                             % (path, i))
        if "incidence" not in entry:
            raise ParseError("%s.covers[%d]: missing 'incidence'" % (path, i))
        sign = entry["incidence"]
        if type(sign) is not int and not _is_int(sign):
            raise _bad_int("%s.covers[%d].incidence" % (path, i), sign)
        if sign not in (1, -1):
            raise ParseError("%s.covers[%d].incidence: expected +1 or -1"
                             % (path, i))
        if (s, t) in incidence:
            raise ParseError("%s.covers[%d]: duplicate cover (%s, %s)"
                             % (path, i, s, t))
        incidence[(s, t)] = sign
        if fault is None:
            ds = dim_of(s)
            if ds is None or dim_of(t) != ds + 1:
                fault = cover_fault(dims, s, t)
        if "map" in entry:
            if ranks is None:
                raise ParseError("%s.covers[%d].map: maps need cell ranks"
                                 % (path, i))
            rows = rank_of(t)
            cols = rank_of(s)
            if rows is None or cols is None:
                raise ParseError("%s.covers[%d]: cover endpoints missing "
                                 "from cells" % (path, i))
            grid = entry["map"]
            try:
                key = (tuple(map(tuple, grid)), cols)  # [] has any cols
                seen = grids.get(key)
            except TypeError:  # not a grid of hashable entries
                key = seen = None
            if seen is not None and seen[0] == grid and seen[1].rows == rows:
                m = seen[1]
            else:
                m = _parse_matrix(field, entries, grid, rows, cols, path, i)
                if key is not None and all(type(v) is str
                                           for row in key[0] for v in row):
                    grids[key] = (grid, m)
            maps[(s, t)] = m
    return incidence, maps, fault


def _parse_complex_family(data, kind, path="$"):
    field = parse_field(data.get("field"))
    dims, ranks, duplicate = _parse_cells(data, path)
    incidence, maps, fault = _parse_covers(data, field, dims, ranks, path)
    if kind is None:
        kind = "sheaf" if ranks is not None or maps else "complex"
    if kind == "complex":
        if ranks is not None or maps:
            raise ParseError(
                "%s: complex documents carry no ranks or maps" % path
            )
    elif ranks is None:
        raise ParseError("%s: sheaf documents need a rank on every cell" % path)
    elif kind != "sheaf":
        for pair, sign in incidence.items():
            if sign != 1:
                raise ParseError(
                    "%s: parametrization covers must have incidence 1, "
                    "got %d on (%s, %s)" % (path, sign, pair[0], pair[1])
                )
    if duplicate is not None:
        raise duplicate_id(duplicate)
    if fault is not None:
        raise fault
    if kind in ("complex", "sheaf"):
        base = _signed(GradedPoset(dims, incidence), incidence)
        if kind == "complex":
            return base
        return _built_sheaf(base, field, ranks, maps)
    maps = {pair: m for pair, m in maps.items() if not m.is_zero()}
    parametrization.check_d_squared(field, maps, dims)
    top = max(dims.values(), default=-1)
    top = _int(data.get("top", top), path + ".top", top)
    return parametrization._built(field, dims, ranks, maps, top)


def document_kind(data):
    """The stated kind, else cover, fibers or profile by the keys pieces,
    fibers or betti, else None: a complex, sheaf or compiled document."""
    if not isinstance(data, dict):
        return None
    kind = data.get("kind")
    if kind is None:
        for key, implied in (("pieces", "cover"), ("fibers", "fibers"),
                             ("betti", "profile")):
            if key in data:
                return implied
    return kind


def parse(data):
    """Build the object a JSON document describes.

    Complex documents come back as CWComplex, sheaf documents as
    CellularSheaf, parametrization/reduced documents as Parametrization,
    fiber documents as a (graph, fibers) pair, profiles as
    CohomologyProfile.  The reader checks structure once: ids, dims, ranks,
    covers (declared, graded, signed +-1) and map shapes, with the texts
    and error classes of build_poset for the poset's faults.  Complex and
    sheaf documents then meet the CW sign identity, which the reader's
    CWComplex checks without re-checking the signs; a sheaf's blocks are
    not checked again by CellularSheaf.  d-squared of a sheaf is checked
    once, where it is compiled (compile_sheaf) or validated (check_sheaf).
    Parametrization and reduced documents, whose incidences are all +1,
    have d-squared of their maps checked here (InvalidSheafData); their
    optional "top", no less than the largest cell dimension, sets the
    degree range.

    Within one document each distinct entry string is parsed once, and
    equal map grids that are lists of lists of str become one shared,
    immutable Matrix; a grid in any other form (a string, non-list rows,
    bool, float or int entries) is read and checked as written.  Cover
    documents need a base complex; use parse_cover.
    """
    _expect(isinstance(data, dict), "top level: expected an object")
    kind = document_kind(data)
    if kind == "cover":
        raise ParseError("cover documents parse against a base complex")
    if kind == "fibers":
        return parse_fibers(data)
    if kind == "profile":
        return parse_profile(data)
    if kind in (None, "complex", "sheaf", "parametrization", "reduced"):
        return _parse_complex_family(data, kind)
    raise ParseError("unknown kind %r" % (kind,))


def parse_cover(data, base):
    _expect(isinstance(data, dict), "top level: expected an object")
    if data.get("kind") not in (None, "cover"):
        raise ParseError("expected a cover document, got %r" % (data.get("kind"),))
    raw = _get(data, "pieces", "$")
    _expect(isinstance(raw, list), "pieces: expected an array")
    pieces = []
    for i, entry in enumerate(raw):
        p = "pieces[%d]" % i
        _expect(isinstance(entry, dict), p + ": expected an object")
        name = _get(entry, "name", p)
        _expect(isinstance(name, str), p + ".name: expected a string")
        cells = _get(entry, "cells", p)
        _expect(isinstance(cells, list) and all(isinstance(c, str) for c in cells),
                p + ".cells: expected an array of cell ids")
        pieces.append((name, cells))
    return Cover(base, pieces)


def parse_fibers(data):
    _expect(isinstance(data, dict), "top level: expected an object")
    graph = parse(_get(data, "graph", "$"))
    _expect(isinstance(graph, CWComplex), "graph: expected a bare complex")
    raw = _get(data, "fibers", "$")
    _expect(isinstance(raw, dict), "fibers: expected an object")
    fibers = {}
    for cell, cells in raw.items():
        _expect(isinstance(cells, list) and all(isinstance(c, str) for c in cells),
                "fibers[%r]: expected an array of cell ids" % cell)
        fibers[cell] = frozenset(cells)
    return graph, fibers


def parse_profile(data):
    raw = _get(data, "betti", "$")
    _expect(isinstance(raw, list), "betti: expected an array")
    return CohomologyProfile([_int(v, "betti[%d]" % i, minimum=0)
                              for i, v in enumerate(raw)])
