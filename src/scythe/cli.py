"""Command line front end.

Subcommands parse JSON documents, run the reduction or nerve pipelines, and
write canonical JSON to stdout or the -o file.  Run reports that include
wall-clock timing go to stderr so the primary output stays byte-stable.
Exit codes: 0 success, 2 validation failure, 3 theorem precondition failure.
"""

import argparse
import sys
import time

from . import complexes
from .cohomology import betti
from .cw import CWComplex
from .equivalence import lift_cocycle
from .errors import ParseError, ScytheError, TheoremPrecondition
from .field import RATIONAL, fp
from .matrix import Matrix
from .morse import iterate_scythe, scythe
from .nerve import (
    ComplexityEstimate,
    cohomology_via_cech,
    cohomology_via_leray,
    validate_fibers,
)
from .parametrization import Parametrization
from .report import build_report, input_parameters
from .serialize import (
    _stream,
    complex_to_json,
    document_kind,
    dumps,
    loads,
    parse,
    parse_cover,
    parse_fibers,
    reduced_to_json,
)
from .sheaf import (
    CellularSheaf,
    check_sheaf,
    compile_sheaf,
    constant_sheaf,
    pushforward_constant,
    skyscraper_sheaf,
)


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError("%s is not UTF-8 text: %s" % (path, exc))


def _field_flag(text):
    if text == "rational":
        return RATIONAL
    if text.startswith("fp:"):
        try:
            p = int(text[3:])
        except ValueError:
            raise ParseError("--field fp wants an integer modulus, got %r" % text)
        return fp(p)
    raise ParseError("--field takes rational or fp:<p>, got %r" % text)


def _load_doc(args, path):
    doc = loads(_read(path))
    if args.field_spec is not None and isinstance(doc, dict):
        doc = dict(doc)
        doc["field"] = args.field_spec.to_json()
    return doc


def _complex_arg(args, path, command):
    base = parse(_load_doc(args, path))
    if not isinstance(base, CWComplex):
        raise ParseError("%s wants a bare complex document" % command)
    return base


def _pipeline_field(args):
    return args.field_spec if args.field_spec is not None else RATIONAL


def _build_sheaf(cw, spec, field):
    if spec is None or spec == "constant":
        return constant_sheaf(cw, 1, field)
    if spec.startswith("constant:"):
        try:
            rank = int(spec.split(":", 1)[1])
        except ValueError:
            raise ParseError("--sheaf constant:<rank> wants an integer")
        return constant_sheaf(cw, rank, field)
    if spec.startswith("skyscraper:"):
        return skyscraper_sheaf(cw, spec.split(":", 1)[1], field)
    if spec.startswith("pushforward:"):
        cells = [c for c in spec.split(":", 1)[1].split(",") if c]
        return pushforward_constant(cw, cells, field)
    raise ParseError("unknown --sheaf spec %r" % spec)


def _obtain_param(args):
    obj = parse(_load_doc(args, args.input))
    spec = args.sheaf
    if isinstance(obj, CWComplex):
        return compile_sheaf(_build_sheaf(obj, spec, _pipeline_field(args)))
    if isinstance(obj, CellularSheaf):
        obj = compile_sheaf(obj)
    if spec is not None:
        raise ParseError("--sheaf only applies to bare complex documents")
    if isinstance(obj, Parametrization):
        return obj
    raise ParseError("input document is not a complex, sheaf, or parametrization")


def _emit(args, obj):
    """Stream obj's canonical text to the -o file or stdout.  Its entries
    are formatted when obj is built, so an element that cannot be written
    fails before the file is opened or a byte is written."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            _stream(obj, fh.write)
    else:
        _stream(obj, sys.stdout.write)


def _lift_generators(eq, profile):
    src = eq.src_complex
    lifted = {}
    for n, mat in sorted(profile.generators.items()):
        cols = [lift_cocycle(eq, mat.column(j), n) for j in range(mat.cols)]
        lifted[n] = Matrix(src.field, len(cols), src.rank_c(n), cols).transpose()
    return lifted


def cmd_compute(args):
    param = _obtain_param(args)
    eq = None
    if not args.no_reduce:
        runner = iterate_scythe if args.iterate else scythe
        eq = runner(param, track_equivalence=args.lift).equivalence
    cx = eq.dst_complex if eq is not None else param.assemble()
    profile = betti(cx, generators=args.generators or args.lift)
    if eq is not None:
        profile.generators = _lift_generators(eq, profile)
    _emit(args, profile.to_json())
    return 0


def cmd_reduce(args):
    t0 = time.perf_counter()
    param = _obtain_param(args)
    n, p, d = input_parameters(param)
    t1 = time.perf_counter()
    runner = iterate_scythe if args.iterate else scythe
    data = runner(param, policy=args.policy, track_equivalence=args.equivalence)
    t2 = time.perf_counter()
    out = reduced_to_json(data, equivalence=data.equivalence)
    report = build_report(
        n, p, d, data, wall_time={"parse": t1 - t0, "reduce": t2 - t1}
    )
    _emit(args, out)
    sys.stderr.write(dumps(report.to_json()))
    sys.stderr.write(report.table() + "\n")
    return 0


def cmd_nerve(args):
    base = _complex_arg(args, args.complex, "nerve")
    cover = parse_cover(loads(_read(args.cover)), base)
    nv = cover.nerve
    out = complex_to_json(nv.cw)
    out["supports"] = {cid: sorted(cells) for cid, cells in nv.supports.items()}
    _emit(args, out)
    return 0


def cmd_cech(args):
    base = _complex_arg(args, args.complex, "cech")
    cover = parse_cover(loads(_read(args.cover)), base)
    field = _pipeline_field(args)
    profile = cohomology_via_cech(
        base, cover, field=field, workers=args.workers,
        reduce_first=not args.no_reduce,
    )
    nv = cover.nerve  # the pipeline's graph nerve: its supports present base
    estimate = ComplexityEstimate(base, nv.cw, nv.supports)
    _emit(args, {"profile": profile.to_json(), "estimate": estimate.to_json()})
    return 0


def cmd_leray(args):
    base = _complex_arg(args, args.complex, "leray")
    gamma, fibers = parse_fibers(loads(_read(args.fibers)))
    field = _pipeline_field(args)
    profile = cohomology_via_leray(
        base, gamma, fibers, field=field, workers=args.workers,
        reduce_first=not args.no_reduce,
    )
    estimate = ComplexityEstimate(base, gamma, fibers)  # validated above
    _emit(args, {"profile": profile.to_json(), "estimate": estimate.to_json()})
    return 0


def cmd_validate(args):
    doc = _load_doc(args, args.input)
    kind = document_kind(doc)
    if args.base is None:
        if kind == "cover":
            raise ParseError("validating a cover needs --base <complex file>")
    elif kind not in ("cover", "fibers"):
        raise ParseError("--base only applies to cover and fiber documents")
    if kind == "cover":
        parse_cover(doc, _complex_arg(args, args.base, "validate --base"))
    else:
        obj = parse(doc)
        if args.base is not None:
            validate_fibers(_complex_arg(args, args.base, "validate --base"),
                            *obj)
        elif isinstance(obj, CellularSheaf):
            check_sheaf(obj)
        kind = kind or type(obj).__name__.lower()
    _emit(args, {"ok": True, "kind": kind})
    return 0


def _timed_reduction(sheaf, repeats=3):
    best = None
    for _ in range(repeats):
        param = compile_sheaf(sheaf)
        start = time.perf_counter()
        scythe(param)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def cmd_bench(args):
    field = _pipeline_field(args)
    out = {"interval": [], "torus": [], "seed": args.seed}
    for k in (8, 16, 32, 64):
        cw = complexes.path_complex(k)
        sheaf = constant_sheaf(cw, 1, field)
        out["interval"].append(
            {"n": len(cw.poset.dims), "seconds": _timed_reduction(sheaf)}
        )
    for k in (2, 3, 4):
        cw = complexes.torus_grid(k, k)
        sheaf = constant_sheaf(cw, 1, field)
        out["torus"].append(
            {"n": len(cw.poset.dims), "seconds": _timed_reduction(sheaf)}
        )
    _emit(args, out)
    return 0


# Every flag of the CLI, once: its option strings and argparse keywords.
FLAGS = {
    "field": (["--field"], dict(metavar="rational|fp:<p>")),
    "sheaf": (["--sheaf"], dict(
        metavar="constant[:r]|skyscraper:<cell>|pushforward:<cells>")),
    "iterate": (["--iterate"], dict(action="store_true")),
    "no_reduce": (["--no-reduce"], dict(action="store_true")),
    "generators": (["--generators"], dict(action="store_true")),
    "lift": (["--lift"], dict(
        action="store_true", help="emit generators in original-complex coordinates")),
    "equivalence": (["--equivalence"], dict(action="store_true")),
    "policy": (["--policy"], dict(choices=("strict", "relaxed"), default="strict")),
    "workers": (["--workers"], dict(type=int, default=1)),
    "seed": (["--seed"], dict(type=int, default=0)),
    "base": (["--base"], dict(help="complex file for covers and fiber assignments")),
    "output": (["-o", "--output"], dict()),
}

# Each subcommand: its handler, positionals, help line and the flags it
# reads, which are all it accepts.  A tuple in a row holds flags that
# exclude each other.
COMMANDS = {
    "compute": (cmd_compute, ["input"],
                "betti numbers of a complex, sheaf, or parametrization",
                ["field", "sheaf", ("iterate", "no_reduce"), "generators",
                 "lift", "output"]),
    "reduce": (cmd_reduce, ["input"],
               "reduce a parametrization, write it with its matching",
               ["field", "sheaf", "iterate", "equivalence", "policy", "output"]),
    "nerve": (cmd_nerve, ["complex", "cover"], "nerve of a cover, with supports",
              ["output"]),
    "cech": (cmd_cech, ["complex", "cover"],
             "cohomology through the Čech decomposition",
             ["field", "no_reduce", "workers", "output"]),
    "leray": (cmd_leray, ["complex", "fibers"],
              "cohomology through a Reeb-graph fibering",
              ["field", "no_reduce", "workers", "output"]),
    "bench": (cmd_bench, [], "time reductions on growing synthetic families",
              ["field", "seed", "output"]),
    "validate": (cmd_validate, ["input"], "parse and validate a document",
                 ["field", "base", "output"]),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="scythe",
        description="Sheaf cohomology through discrete Morse reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (fn, positionals, text, row) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name in positionals:
            p.add_argument(name)
        for entry in row:
            alone = isinstance(entry, str)
            group = p if alone else p.add_mutually_exclusive_group()
            for flag in [entry] if alone else entry:
                names, kwargs = FLAGS[flag]
                group.add_argument(*names, **kwargs)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        field = getattr(args, "field", None)
        args.field_spec = _field_flag(field) if field else None
        return args.fn(args)
    except TheoremPrecondition as exc:
        sys.stderr.write("theorem precondition failed: %s\n" % exc)
        return 3
    except (ScytheError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
