import ast
import os
import subprocess
import sys
from pathlib import Path

import loopsoup
from loopsoup import cover, laws

MODULES = sorted(p for p in Path(loopsoup.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def test_every_imported_name_is_used():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name.split(".")[0]): node.lineno
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert MODULES and not unused, unused


def _names(kind) -> set[str]:
    # the bare names (kind ast.Name) or attributes (ast.Attribute) that the
    # source, test and benchmark files name
    repo = Path(__file__).resolve().parent.parent
    files = [*MODULES, Path(loopsoup.__file__), *(repo / "tests").glob("*.py"),
             *(repo / "bench").glob("*.py")]
    return {node.id if kind is ast.Name else node.attr
            for path in files for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, kind)}


def test_every_module_level_definition_is_referenced():
    # a def or class of the package that nothing names, as a bare name or an
    # attribute, is dead API
    referenced = _names(ast.Name) | _names(ast.Attribute)
    unreferenced = [f"{path.name}:{node.lineno} {node.name}"
                    for path in MODULES
                    for node in ast.parse(path.read_text()).body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name not in referenced]
    assert not unreferenced, unreferenced


def test_every_method_is_referenced():
    # so is a method or property of a package class that nothing names as
    # an attribute; dunders are called by the language
    referenced = _names(ast.Attribute)
    unreferenced = [f"{path.name}:{node.lineno} {cls.name}.{node.name}"
                    for path in MODULES
                    for cls in ast.walk(ast.parse(path.read_text()))
                    if isinstance(cls, ast.ClassDef)
                    for node in cls.body
                    if isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("__")
                    and node.name not in referenced]
    assert not unreferenced, unreferenced


def test_every_stored_attribute_is_read():
    # an attribute a class of the package stores on self that no source,
    # test or benchmark file reads is dead state
    repo = Path(__file__).resolve().parent.parent
    files = [*MODULES, *(repo / "tests").glob("*.py"), *(repo / "bench").glob("*.py")]
    read = {node.attr for path in files for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.name}:{node.lineno} {cls.name}.{node.attr}"
              for path in MODULES
              for cls in ast.walk(ast.parse(path.read_text()))
              if isinstance(cls, ast.ClassDef)
              for node in ast.walk(cls)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"
              and node.attr not in read]
    assert not unread, unread


def test_import_does_not_load_quadrature_package():
    # scipy.integrate costs more than the rest of `import loopsoup` together
    env = dict(os.environ, PYTHONPATH=str(Path(loopsoup.__file__).parent.parent))
    code = "import sys, loopsoup; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_benchmark_tracer_finds_every_name_it_patches():
    # `bench/run.py --trace 1` wraps program names from outside; a deleted
    # or renamed one fails here rather than in the benchmark
    bench = Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    try:
        import tracing
    finally:
        sys.path.remove(str(bench))
    tracer = tracing.Tracer()
    tracing.probe_loopsoup(tracer)
    tracer.install()
    try:
        # the report must still reach its table and histogram through the
        # patched names, or their per-layer metrics read 0
        laws.second_moment_report(0.5, laws.box_set(3), 0.05)
        spans = {name for _, name in tracer.seconds}
        assert {"laws.second_moment", "greens.table", "laws.pair_histogram"} <= spans
        # so must the ring engine's root placement and vertex lookup, patched
        # on each set class, for a box and for a point set alike
        for target in (cover.BoxTarget(3), cover.PointsTarget([(0, 0), (2, 1)])):
            tracer.seconds.clear()
            cover.CoverEngine(0.5, target, sampler="ring").ensemble(1, 8)
            spans = {name for _, name in tracer.seconds}
            assert {"cover.root_coords", "cover.vertex_index"} <= spans, target.label
    finally:
        tracer.uninstall()


def test_benchmark_workloads_set_up():
    # the workloads' own calls (cover.make_target, CoverEngine(kappa, target),
    # ...) must keep working; the test above checks only the patched names
    repo = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    for workload in ("cover-massive", "cover-dense", "soup-window", "greens-laws"):
        proc = subprocess.run([sys.executable, str(repo / "bench" / "workloads.py"),
                               "--workload", workload, "--setup-only"],
                              env=env, cwd=repo, capture_output=True, text=True)
        assert proc.returncode == 0, f"{workload}: {proc.stderr[-2000:]}"
