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
from .cw import CWComplex, check_face_closed
from .equivalence import lift_cocycle
from .errors import ParseError, ScytheError, TheoremPrecondition
from .field import RATIONAL, fp
from .matrix import Matrix
from .morse import iterate_scythe, scythe
from .nerve import (
    cohomology_via_cech,
    cohomology_via_leray,
    complexity_estimate,
    validate_fibers,
)
from .parametrization import Parametrization
from .report import build_report, input_parameters
from .serialize import (
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
    spec = getattr(args, "sheaf", None)
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
    text = dumps(obj)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _lift_generators(eq, profile):
    src = eq.src_complex
    lifted = {}
    for n, mat in sorted(profile.generators.items()):
        cols = [lift_cocycle(eq, mat.column(j), n) for j in range(mat.cols)]
        lifted[n] = Matrix(src.field, len(cols), src.rank_c(n), cols).transpose()
    return lifted


def cmd_compute(args):
    param = _obtain_param(args)
    top = param.max_dim()
    eq = None
    if args.no_reduce:
        cx = param.assemble()
    else:
        runner = iterate_scythe if args.iterate else scythe
        data = runner(param, track_equivalence=args.lift)
        eq = data.equivalence
        cx = eq.dst_complex if eq is not None else param.assemble()
    want_gens = args.generators or args.lift
    profile = betti(cx, generators=want_gens)
    while len(profile.betti) < top + 1:
        profile.betti.append(0)
    out = profile.to_json()
    if args.lift and eq is not None:
        out["generators"] = {
            str(n): m.to_json() for n, m in sorted(_lift_generators(eq, profile).items())
        }
    _emit(args, out)
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
    nv = cover.nerve
    estimate = complexity_estimate(base, nv.cw, nv.supports)
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
    estimate = complexity_estimate(base, gamma, fibers)
    _emit(args, {"profile": profile.to_json(), "estimate": estimate.to_json()})
    return 0


def cmd_validate(args):
    doc = loads(_read(args.input))
    kind = document_kind(doc)
    if kind == "cover":
        if not args.base:
            raise ParseError("validating a cover needs --base <complex file>")
        parse_cover(doc, _complex_arg(args, args.base, "validate --base"))
    else:
        obj = parse(doc)
        if kind == "fibers":
            if args.base:
                base = _complex_arg(args, args.base, "validate --base")
                checked = validate_fibers(base, *obj)
                for cell in sorted(checked):  # the order leray reduces them
                    check_face_closed(base, checked[cell])
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


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", default=None, metavar="rational|fp:<p>")
    common.add_argument("--workers", type=int, default=1)
    common.add_argument("--iterate", action="store_true")
    common.add_argument("--no-reduce", dest="no_reduce", action="store_true")
    common.add_argument("--equivalence", action="store_true")
    common.add_argument("--generators", action="store_true")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("-o", "--output", default=None)

    parser = argparse.ArgumentParser(
        prog="scythe",
        description="Sheaf cohomology through discrete Morse reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", parents=[common],
                       help="betti numbers of a complex, sheaf, or parametrization")
    p.add_argument("input")
    p.add_argument("--sheaf", default=None,
                   metavar="constant[:r]|skyscraper:<cell>|pushforward:<cells>")
    p.add_argument("--lift", action="store_true",
                   help="emit generators in original-complex coordinates")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("reduce", parents=[common],
                       help="reduce a parametrization, write it with its matching")
    p.add_argument("input")
    p.add_argument("--sheaf", default=None)
    p.add_argument("--policy", choices=("strict", "relaxed"), default="strict")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("nerve", parents=[common],
                       help="nerve of a cover, with supports")
    p.add_argument("complex")
    p.add_argument("cover")
    p.set_defaults(fn=cmd_nerve)

    p = sub.add_parser("cech", parents=[common],
                       help="cohomology through the Čech decomposition")
    p.add_argument("complex")
    p.add_argument("cover")
    p.set_defaults(fn=cmd_cech)

    p = sub.add_parser("leray", parents=[common],
                       help="cohomology through a Reeb-graph fibering")
    p.add_argument("complex")
    p.add_argument("fibers")
    p.set_defaults(fn=cmd_leray)

    p = sub.add_parser("bench", parents=[common],
                       help="time reductions on growing synthetic families")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("validate", parents=[common],
                       help="parse and validate a document")
    p.add_argument("input")
    p.add_argument("--base", default=None,
                   help="complex file for covers and fiber assignments")
    p.set_defaults(fn=cmd_validate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.field_spec = _field_flag(args.field) if args.field else None
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
