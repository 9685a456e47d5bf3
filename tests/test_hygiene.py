import argparse
import ast
import inspect
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import loopsoup
from loopsoup import cli, cover, laws, series

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


def _trees() -> list[ast.Module]:
    # the source, test and benchmark files
    repo = Path(__file__).resolve().parent.parent
    files = [*MODULES, Path(loopsoup.__file__), *(repo / "tests").glob("*.py"),
             *(repo / "bench").glob("*.py")]
    return [ast.parse(path.read_text()) for path in files]


def _names(kind) -> set[str]:
    # the bare names (kind ast.Name) or attributes (ast.Attribute) they name
    return {node.id if kind is ast.Name else node.attr
            for tree in _trees() for node in ast.walk(tree) if isinstance(node, kind)}


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


def test_every_module_level_name_is_read():
    # a name the package assigns at module level, a constant or an alias,
    # that no source, test or benchmark file reads, as a bare name or an
    # attribute, is dead API too; dunders are read by the language
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in _trees() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.name}:{node.lineno} {name.id}"
              for path in [*MODULES, Path(loopsoup.__file__)]
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
              for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
              for name in ast.walk(target)
              if isinstance(name, ast.Name) and not name.id.startswith("__")
              and name.id not in read]
    assert not unread, unread


def test_every_private_constant_named_in_the_source_exists():
    # an _UPPER_CASE token in the package's code, comments or docstrings
    # that no module of it defines at module level names a deleted knob
    paths = [*MODULES, Path(loopsoup.__file__)]
    defined = set()
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                defined.update(name.id for target in (
                    node.targets if isinstance(node, ast.Assign) else [node.target])
                    for name in ast.walk(target) if isinstance(name, ast.Name))
    stale = [f"{path.name}:{line} {token}"
             for path in paths
             for line, text in enumerate(path.read_text().splitlines(), start=1)
             for token in re.findall(r"\b_[A-Z][A-Z0-9_]*\b", text)
             if token not in defined]
    assert not stale, stale


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


def test_every_defaulted_parameter_is_set_by_some_call():
    # a defaulted parameter of a package function that no call in the
    # source, test or benchmark files sets, by keyword or by position, has
    # one value in use; calls are matched by the called name (a class name
    # for __init__), and a call with *args or **kwargs sets every parameter
    most, keywords = {}, {}
    for tree in _trees():
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                spread = (any(isinstance(a, ast.Starred) for a in call.args)
                          or any(k.arg is None for k in call.keywords))
                most[name] = max(most.get(name, 0), math.inf if spread else len(call.args))
                keywords.setdefault(name, set()).update(k.arg for k in call.keywords)
    unset = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        owner = {fn: cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = owner.get(fn)
            name = cls.name if cls and fn.name == "__init__" else fn.name
            # self or cls is bound, except on a staticmethod
            bound = int(cls is not None and not any(
                getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list))
            params = fn.args.posonlyargs + fn.args.args
            first = len(params) - len(fn.args.defaults)
            unset += [f"{path.name}:{fn.lineno} {fn.name}({arg.arg}=)"
                      for i, arg in enumerate(params[first:], start=first)
                      if i - bound >= most.get(name, 0)
                      and arg.arg not in keywords.get(name, ())]
            unset += [f"{path.name}:{fn.lineno} {fn.name}({arg.arg}=)"
                      for arg, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                      if d is not None and arg.arg not in keywords.get(name, ())]
    assert not unset, unset


def test_import_does_not_load_quadrature_package():
    # importing scipy.special alone costs more than the rest of `import
    # loopsoup.cli` together; only the length-law chi-square row loads it
    env = dict(os.environ, PYTHONPATH=str(Path(loopsoup.__file__).parent.parent))
    code = ("import sys, loopsoup, loopsoup.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _bench_tracing():
    bench = Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    try:
        import tracing
    finally:
        sys.path.remove(str(bench))
    return tracing


def test_benchmark_tracer_patch_targets_exist():
    # probe_loopsoup looks up every name it wraps with inspect.getattr_static,
    # which raises on a deleted or renamed one, so `--trace 1` cannot lose a
    # layer silently; probing alone installs nothing
    tracing = _bench_tracing()
    tracer = tracing.Tracer()
    tracing.probe_loopsoup(tracer)
    patched = {(owner, attr) for owner, attr, _, _ in tracer._patches}
    assert {(cover, "balanced_signs"), (cover, "mu_gamma_o"),
            (cover.CoverEngine, "ensemble"), (cover.PointsTarget, "root_coords"),
            (cover.BoxTarget, "vertex_index"), (laws.TargetSet, "pair_distance_counts"),
            (laws, "greens_table"), (cli, "write_json")} <= patched
    for owner, attr, original, _ in tracer._patches:
        assert inspect.getattr_static(owner, attr) is original, (owner, attr)


def test_benchmark_tracer_finds_every_name_it_patches():
    # `bench/run.py --trace 1` wraps program names from outside; a deleted
    # or renamed one fails here rather than in the benchmark
    tracing = _bench_tracing()
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


def _parsers(p):
    """p and every subparser below it."""
    yield p
    for a in p._actions:
        if isinstance(a, argparse._SubParsersAction):
            for sub in a.choices.values():
                yield from _parsers(sub)


def _item_type(action):
    """An option's type, or for a list option, _listed(item), its item type."""
    return inspect.getclosurevars(action.type).nonlocals.get("item", action.type)


def test_every_kappa_option_takes_the_shared_kappa_type():
    # one kappa type bounds every --kappa and --kappa-grid by KAPPA_MIN,
    # the smallest normal float, and KAPPA_MAX
    types = [_item_type(a) for p in _parsers(cli.build_parser())
             for a in p._actions if "kappa" in a.dest]
    # example two-far and many-sep each declare their own --kappa
    assert len(types) == 10 and len({id(t) for t in types}) == 1, types
    kappa = types[0]
    assert kappa(str(series.KAPPA_MAX)) == series.KAPPA_MAX
    assert kappa(str(series.KAPPA_MIN)) == series.KAPPA_MIN
    for bad in ("0", "-1", str(10 * series.KAPPA_MAX), "nan", "5e-324", "1e-320"):
        try:
            kappa(bad)
        except argparse.ArgumentTypeError:
            continue
        raise AssertionError(bad)


def test_every_coordinate_and_size_option_is_bounded():
    # a coordinate or size past what the program represents is a parse
    # error, not an OverflowError or ValueError deep in a command: each such
    # option (a list option's item) takes a small value of its arity and
    # rejects a 25-digit one
    arity = {"x": 2, "window": 4, "box": 1, "boxes": 1, "radius": 1, "n_max": 1,
             "separation": 1, "count": 1}
    seen, unbounded = [], []
    for p in _parsers(cli.build_parser()):
        for a in p._actions:
            if a.dest not in arity:
                continue
            seen.append(a.dest)
            parse, k = _item_type(a), arity[a.dest]
            parse(",".join(["2"] * k))
            try:
                parse(",".join(["9" * 25] * k))
                unbounded.append(f"{p.prog} --{a.dest}")
            except argparse.ArgumentTypeError:
                pass
    # --x of greens and laws pair; --separation of example two-far and many-sep
    assert sorted(seen) == sorted([*arity, "x", "separation"]), seen
    assert not unbounded, unbounded
