"""The benchmark tracer wraps qnbench functions by name, so each name it
lists must still exist, and its count hooks must still read what those
functions take and return: a rename or a changed signature fails here
instead of at ``--trace 1``.  And every src function must have a src
caller, so code that nothing reaches is deleted or moved into the tests.
No src function takes a handle together with the algebra or group the
handle already holds, and no src function but ``build_algebra`` takes
tolerances: every check reads them off the algebra.  The package depends on
numpy alone, and only the lazy sites of the matrix engine import inside a
function."""

import ast
import contextlib
import importlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from qnbench import acceptance
from qnbench.cli import main
from qnbench.groups import GroupDescriptor

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "benchmarks" / "tracer.py"
SRC = ROOT / "src" / "qnbench"

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
# src functions and methods kept without a src caller
NO_SRC_CALLER = {
    "matrixalg.AlgebraElement.sup_norm",  # benchmarks/tracer.py TARGETS pins it
    "matrixalg.spectral_calculus",  # benchmarks/tracer.py TARGETS pins it
    "bimodule.BimoduleBasis.length",  # benchmarks/tracer.py reads it for bimodule.kept
    "group_algebra.group_algebra_inclusion",  # the matrix half of the cross-engine check
    # the element-level package API that qnbench/__init__.py exports; the
    # descriptors' methods do the work in src
    "groups.multiply", "groups.invert", "groups.identity", "groups.elements_equal",
    "groups.FreeGroupDescriptor.word",  # free-group elements from powers, for callers outside src
}


def _tracer_module():
    spec = importlib.util.spec_from_file_location("qnbench_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    missing = []
    for module_name, path, _, _ in _tracer_module().TARGETS:
        home = importlib.import_module(f"qnbench.{module_name}")
        if "." in path:  # a method, patched on its class
            cls_name, attr = path.split(".")
            found = attr in vars(getattr(home, cls_name, object))
        else:
            found = callable(getattr(home, path, None))
        if not found:
            missing.append(f"{module_name}.{path}")
    assert not missing, f"tracer targets without a qnbench attribute: {missing}"


def test_tracer_hooks_run_on_the_matrix_side():
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(["vn", str(ROOT / "sample_inputs" / "diag_m2.json")]),
                     main(["verify-paper", "--criteria", "6"])]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    summary = tracer.summary()
    for name in ("expectations.subalgebra_closure", "bimodule.orthonormal_basis",
                 "basic.pull_down", "wahp.wahp_gap"):
        assert summary[name]["calls"] > 0, name
    # the tracer wraps the module attribute and the CRITERIA entry as one object
    assert summary["acceptance.criterion_6"]["calls"] == 1


def test_criteria_registry_holds_the_module_criteria():
    # the tracer finds each criterion by object identity in both places
    for n in range(1, 10):
        assert acceptance.CRITERIA[n] is getattr(acceptance, f"criterion_{n}"), n


def test_bench_files_report_declared_workloads_and_metrics():
    # BENCH_<n>.json records parent and change runs of the declared benchmark
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in declared["workloads"]}
    metrics = {m["name"] for m in declared["end_to_end"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        bench = json.loads(path.read_text(encoding="utf-8"))
        assert bench["workloads"], path.name
        for name, sides in bench["workloads"].items():
            assert name in workloads, (path.name, name)
            for side in ("parent", "change"):
                runs = sides[side] + [sides["median"][side]]
                assert len(runs) > 1, (path.name, name, side)
                for run in runs:
                    missing = metrics - {k for k, v in run.items() if isinstance(v, (int, float))}
                    assert not missing, (path.name, name, side, missing)


def _uncalled_src_functions():
    """``module.name`` of each top-level function and ``module.Class.name``
    of each method in src that nothing in src (``__init__.py`` aside) reads
    outside its own body: a function by its name or as ``module.name``
    (``module`` a module imported with ``from . import``), a method as an
    attribute.  A method's attribute read is no read of a function with the
    same name: ``group.multiply(...)`` does not call ``groups.multiply``."""
    defs = []  # (qualified name, def node, home module of a function or None)
    reads = {}  # read key -> the enclosing def nodes of each read of it

    def collect_reads(node, enclosing, modules):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                reads.setdefault(("name", child.id), []).append(enclosing)
            elif isinstance(child, ast.Attribute):
                reads.setdefault(("attribute", child.attr), []).append(enclosing)
                if isinstance(child.value, ast.Name) and child.value.id in modules:
                    reads.setdefault((modules[child.value.id], child.attr), []).append(enclosing)
            collect_reads(child, enclosing + (child,) if isinstance(child, FUNCTIONS) else enclosing,
                          modules)

    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {alias.asname or alias.name: alias.name for node in tree.body
                   if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
                   for alias in node.names}
        collect_reads(tree, (), modules)
        for node in tree.body:
            if isinstance(node, FUNCTIONS):
                defs.append((f"{path.stem}.{node.name}", node, path.stem))
            elif isinstance(node, ast.ClassDef):
                defs += [(f"{path.stem}.{node.name}.{fn.name}", fn, None)
                         for fn in node.body if isinstance(fn, FUNCTIONS)]

    def readers(fn, home):
        if home is None:
            return reads.get(("attribute", fn.name), [])
        return reads.get(("name", fn.name), []) + reads.get((home, fn.name), [])

    def registered(fn):  # ``@criterion(...)`` puts it in acceptance.CRITERIA
        return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "criterion"
                   for d in fn.decorator_list)

    return sorted(
        name for name, fn, home in defs
        if not (fn.name.startswith("__") and fn.name.endswith("__"))
        and not registered(fn) and name not in NO_SRC_CALLER
        and all(fn in enclosing for enclosing in readers(fn, home)))


def test_every_src_function_has_a_src_caller():
    uncalled = _uncalled_src_functions()
    assert not uncalled, f"src functions without a src caller: {uncalled}"


# handles hold their parent: a SubalgebraHandle (and a BimoduleBasis through
# its subalgebra) holds B <= M as sub.ambient, a SubgroupSpec holds H <= G as
# spec.group
HANDLE_TYPES = {"SubalgebraHandle", "BimoduleBasis", "SubgroupSpec"}
HANDLE_NAMES = {"sub", "subalgebra", "spec", "mid", "product_spec"}
PARENT_NAMES = {"ambient", "algebra", "group", "product_group"}
# src functions that take a handle and a parent on purpose
HANDLE_AND_PARENT = {
    # the product descriptor is what the pair elements belong to; the factor
    # specs hold only the factor groups, so they cannot supply it
    "subgroups.product_subgroup",
}


def _descriptor_names(cls=GroupDescriptor):
    return {cls.__name__}.union(*(_descriptor_names(c) for c in cls.__subclasses__()))


def _annotation_names(node):
    """The class names an annotation mentions, also inside a string annotation."""
    if node is None:
        return set()
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} \
        | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _handle_and_parent_functions():
    """``module.name`` (or ``module.Class.name``) of each src function with a
    handle parameter and a parent parameter, by annotation or by name."""
    parent_types = {"MultiMatrixAlgebra"} | _descriptor_names()
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(path.stem, node) for node in tree.body] + [
            (f"{path.stem}.{node.name}", fn) for node in tree.body
            if isinstance(node, ast.ClassDef) for fn in node.body]
        for prefix, fn in scopes:
            if not isinstance(fn, FUNCTIONS):
                continue
            args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            kinds = [_annotation_names(a.annotation) for a in args]
            handles = any(a.arg in HANDLE_NAMES or k & HANDLE_TYPES for a, k in zip(args, kinds))
            parents = any(a.arg in PARENT_NAMES or k & parent_types for a, k in zip(args, kinds))
            if handles and parents:
                found.append(f"{prefix}.{fn.name}")
    return found


def test_no_src_function_takes_a_handle_and_its_parent():
    both = _handle_and_parent_functions()
    assert "subgroups.product_subgroup" in both  # the walk sees annotated parameters
    extra = sorted(set(both) - HANDLE_AND_PARENT)
    assert not extra, f"src functions taking a handle and the parent it holds: {extra}"


# where a Tolerances object may be made: its own module, the algebra's
# default and build_algebra's, and the matrix document loader
TOLERANCES_MADE_IN = {"tolerances.py", "matrixalg.py", "files.py"}


def test_tolerances_travel_only_with_the_algebra():
    takers, made = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, FUNCTIONS):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                if any(a.arg == "tolerances" or "Tolerances" in _annotation_names(a.annotation)
                       for a in args):
                    takers.append(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.Call) and "Tolerances" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                if path.name not in TOLERANCES_MADE_IN:
                    made.append(f"{path.name}:{node.lineno}")
    assert takers == ["matrixalg.build_algebra"], \
        f"src functions taking tolerances besides build_algebra: {takers}"
    assert not made, f"Tolerances() made outside {sorted(TOLERANCES_MADE_IN)}: {made}"


def test_src_imports_only_the_standard_library_and_numpy():
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {m}" for m in modules
                        if m.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    assert not foreign, f"src imports beyond the standard library and numpy: {foreign}"


# the only src functions that import: each loads numpy or the matrix engine
# for the work that needs it, so the group side starts without them
LAZY_IMPORT_SITES = {
    "cli.run_vn_analysis", "cli._identity_summary", "cli.run_verify_paper",
    "groups.FiniteTableGroup._check_table", "files._parse_matrix_element",
}


def _function_import_sites():
    """``module.name`` (or ``module.Class.name``) of each src function with
    an ``import`` statement in its body."""
    found = set()

    def visit(node, qualname, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) and in_function:
                found.add(qualname)
            elif isinstance(child, (ast.ClassDef,) + FUNCTIONS):
                visit(child, f"{qualname}.{child.name}",
                      in_function or isinstance(child, FUNCTIONS))
            else:
                visit(child, qualname, in_function)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, False)
    return found


def test_function_local_imports_only_at_the_lazy_sites():
    sites = _function_import_sites()
    assert sites == LAZY_IMPORT_SITES, (
        f"function-local imports outside the lazy sites: {sorted(sites - LAZY_IMPORT_SITES)}; "
        f"lazy sites without one: {sorted(LAZY_IMPORT_SITES - sites)}")
