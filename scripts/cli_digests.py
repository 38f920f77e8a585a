"""Print the sha256 of stdout and the exit code of a fixed matrix of CLI runs.

Each line is `sha256 exit-code argv`, with fixture paths written as their
file names, so two checkouts compare with one diff:

    PYTHONPATH=src python scripts/cli_digests.py > after.txt
    PYTHONPATH=../old/src python scripts/cli_digests.py > before.txt
    diff before.txt after.txt

The commands run in-process over the fixtures shipped in scythe/data.  Only
stdout is hashed: the stderr run report of `reduce` carries wall times.
"""

import contextlib
import hashlib
import io
import pathlib

import scythe
from scythe.cli import main

DATA = pathlib.Path(scythe.__file__).resolve().parent / "data"

COMPLEXES = ["circle6.json", "circle8.json", "torus.json", "genus2_surface.json"]
COVERS = [("circle6.json", "three_arc_cover.json"),
          ("circle8.json", "two_arc_cover.json")]
FIBERINGS = [("torus.json", "torus_reeb.json"),
             ("genus2_surface.json", "genus2_reeb.json")]

# coefficient variants crossed with every compute and reduce mode
COEFFICIENTS = [[], ["--field", "fp:5"], ["--field", "fp:2"],
                ["--sheaf", "constant:2"], ["--sheaf", "constant:3"]]
COMPUTE_MODES = [[], ["--lift"], ["--generators"], ["--no-reduce"],
                 ["--iterate"], ["--iterate", "--lift"]]
REDUCE_MODES = [[], ["--equivalence"], ["--iterate"], ["--policy", "relaxed"],
                ["--equivalence", "--iterate", "--policy", "relaxed"]]
PIPELINE_FLAGS = [[], ["--field", "fp:5"], ["--field", "fp:2"],
                  ["--no-reduce"], ["--workers", "8"]]


def commands():
    for name in COMPLEXES:
        for coeff in COEFFICIENTS:
            for mode in COMPUTE_MODES:
                yield ["compute", name, *mode, *coeff]
            for mode in REDUCE_MODES:
                yield ["reduce", name, *mode, *coeff]
        yield ["validate", name]
    for base, cover in COVERS:
        yield ["validate", cover, "--base", base]
        yield ["validate", cover]  # exits 2: a cover needs --base
        yield ["nerve", base, cover]
        for flags in PIPELINE_FLAGS:
            yield ["cech", base, cover, *flags]
    for base, fibers in FIBERINGS:
        yield ["validate", fibers, "--base", base]
        yield ["validate", fibers]
        for flags in PIPELINE_FLAGS:
            yield ["leray", base, fibers, *flags]
    # failures: a composite modulus, an unknown --sheaf spec
    yield ["compute", "torus.json", "--field", "fp:4"]
    yield ["compute", "circle8.json", "--sheaf", "nonsense"]


def run(argv):
    resolved = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), code


def report():
    for argv in commands():
        digest, code = run(argv)
        print(digest, code, " ".join(argv), flush=True)


if __name__ == "__main__":
    report()
