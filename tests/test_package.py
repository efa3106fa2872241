"""The public namespace resolves, and the package carries no dead names.

The dead-code checks read the package's source with the standard ``ast``
module: no module imports a name it never reads, every module-level
private name is read somewhere in the package, and every defaulted
parameter is passed by some call in the package, the tests or perfbench,
and left out or given two values by them.  The same scan keeps the
rational backend behind ``_rational.py``, every level read of
``bigspace.py`` inside ``BigSpace._env``, and the int representation
inside the kernel (``grid_convex``, ``measures``, ``sampling``): no other
module imports an underscore name from it or reads an underscore slot of
its types, ``_memo`` aside, and no function of ``grid_convex`` or
``measures`` is a generator.  Every public method or property of a public
class is read as an attribute by the package or perfbench's modules, or
named in the class's ``_shown``: no member exists for the tests alone.
Every module-level public function is read by the package or perfbench,
as a name, an attribute or a traced layer, or is one of a listed few
paper quantities that only the tests compute.  The execution guard runs
``femlab run`` on every scenario file and ``femlab suite`` on the six
suites in process under ``sys.setprofile``: every public function or
method of a public class that it never enters is listed, with its reason,
in ``NEVER_ENTERED``, and every listed one is still never entered.  A fresh interpreter
imports the CLI without the stdlib's class-building modules, and each
validated type runs its ``__post_init__`` once per construction, so a
tracer that patches it there sees every validation; no other type
defines one.
"""

from __future__ import annotations

import ast
import functools
import pathlib
import subprocess
import sys

import pytest

import femlab
from femlab import AtomicMeasure, FiniteMetricSpace, Grid, GridPLConvex
from femlab.grid_convex import DualPL


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from femlab import *", namespace)
    assert set(femlab.__all__) <= set(namespace)


def test_a_fresh_cli_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import femlab.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


GRID3 = Grid(nodes=(-1, 0, 1), polytope=(0, 1))
VALIDATED = {
    GridPLConvex: (GRID3, (0, 0, 1), (0, 1)),
    DualPL: ((0, 1), (0, 1)),
    AtomicMeasure: (GRID3, (0, 1, 0)),
    FiniteMetricSpace: (((0, 1), (1, 0)),),
}


@pytest.mark.parametrize("cls", VALIDATED, ids=lambda cls: cls.__name__)
def test_one_construction_runs_the_class_validator_once(monkeypatch, cls):
    calls = []
    validate = cls.__post_init__

    def counted(self, *args):
        calls.append(self)
        return validate(self, *args)

    monkeypatch.setattr(cls, "__post_init__", counted)
    value = cls(*VALIDATED[cls])
    assert calls == [value]


PACKAGE = pathlib.Path(femlab.__file__).parent
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_only_the_validated_types_define_a_post_init():
    """``__post_init__`` is the tracer's hook; a type that only forwards to it validates in ``__init__``."""
    defining = {
        node.name
        for tree in TREES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == "__post_init__" for item in node.body)
    }
    assert defining >= {cls.__name__ for cls in VALIDATED}, "the scan missed a validated type"
    assert sorted(defining - {cls.__name__ for cls in VALIDATED}) == []


def imported_names(tree):
    """Each name an import statement binds, with the line that binds it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def loaded_names(tree):
    """Every name the module reads: bare names and attribute names, each in a load."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_an_assignment_reads_no_name_it_stores():
    tree = ast.parse("obj.name = 1\nname = 2\ndel obj.gone\nx = obj.read")
    assert sorted(loaded_names(tree)) == ["obj", "obj", "obj", "read"]


def test_no_module_imports_a_name_it_never_uses():
    unused = [
        "%s:%d %s" % (name, line, bound)
        for name, tree in TREES.items()
        if name != "__init__.py"
        for bound, line in imported_names(tree)
        if bound not in set(loaded_names(tree))
    ]
    assert unused == []


def test_only_the_backend_module_imports_a_rational_backend():
    """The int core never builds stdlib Fractions when the backend is gmpy2's mpq."""
    backends = {"fractions", "gmpy2"}
    found = []
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [(name, m) for m in modules if m.split(".")[0] in backends]
    assert found and all(name == "_rational.py" for name, _ in found), found


def test_every_module_level_private_name_is_used():
    used = set()
    for tree in TREES.values():
        used.update(loaded_names(tree))
        used.update(bound for bound, _ in imported_names(tree))
    defined = []
    for name, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((name, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.extend((name, t.id) for t in targets if isinstance(t, ast.Name))
    private = [(m, n) for m, n in defined if n.startswith("_") and not n.startswith("__")]
    assert private, "the scan found no private names at all"
    assert [m + ":" + n for m, n in private if n not in used] == []


CALLER_TREES = list(TREES.values()) + [
    ast.parse(path.read_text())
    for folder in ("tests", "perfbench")
    for path in sorted((pathlib.Path(__file__).parents[1] / folder).rglob("*.py"))
]


def defaulted_parameters(tree):
    """(called name, parameter, position or None if keyword-only) per defaulted parameter."""
    methods = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    methods[item] = node.name if item.name == "__init__" else item.name
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        positional = node.args.posonlyargs + node.args.args
        offset = 1 if node in methods else 0  # a method's first parameter is its instance
        called = methods.get(node, node.name)
        for position in range(len(positional) - len(node.args.defaults), len(positional)):
            yield called, positional[position].arg, position - offset
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield called, arg.arg, None


def passes(call, parameter, position):
    """Whether a call sets the parameter, by position, by keyword or through a splat."""
    if any(kw.arg in (None, parameter) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def calls_by_name():
    """{called name: [every call of it in the package, the tests and perfbench]}"""
    calls = {}
    for tree in CALLER_TREES:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def test_every_defaulted_parameter_is_passed_by_some_call():
    calls = calls_by_name()
    params = [p for tree in TREES.values() for p in defaulted_parameters(tree)]
    assert params, "the scan found no defaulted parameters at all"
    never_set = [
        "%s(%s)" % (name, parameter)
        for name, parameter, position in params
        if not any(passes(call, parameter, position) for call in calls.get(name, ()))
    ]
    assert never_set == []


def passed_literal(call, parameter, position):
    """The repr of the literal a call passes for the parameter, else None.

    None covers a call that leaves the default, passes a splat, or passes
    an expression that is not a literal.
    """
    if any(isinstance(a, ast.Starred) for a in call.args) or any(kw.arg is None for kw in call.keywords):
        return None
    node = next((kw.value for kw in call.keywords if kw.arg == parameter), None)
    if node is None and position is not None and position < len(call.args):
        node = call.args[position]
    try:
        return repr(ast.literal_eval(node))
    except ValueError:
        return None


def test_no_defaulted_parameter_takes_one_literal_at_every_call():
    """A parameter that every call sets to the same literal is a constant, not an option."""
    calls = calls_by_name()
    one_valued = []
    for tree in TREES.values():
        for name, parameter, position in defaulted_parameters(tree):
            literals = {passed_literal(call, parameter, position) for call in calls.get(name, ())}
            if len(literals) == 1 and None not in literals:
                one_valued.append("%s(%s)" % (name, parameter))
    assert one_valued == []


def test_bigspace_reads_a_level_envelope_only_through_env():
    """Every subscript of ``envs`` in bigspace.py sits in ``_env``, which checks the index."""
    tree = TREES["bigspace.py"]

    def envs_reads(node):
        return [
            n for n in ast.walk(node)
            if isinstance(n, ast.Subscript) and getattr(n.value, "attr", getattr(n.value, "id", None)) == "envs"
        ]

    env = next((n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_env"), None)
    inside = envs_reads(env) if env else []
    assert [n.lineno for n in envs_reads(tree) if n not in inside] == []
    assert inside, "_env reads no envelope"


def test_grid_convex_and_measures_define_no_generator():
    """No function of grid_convex.py or measures.py yields: a read that may stop early
    loops over its grids in the caller, with no generator frame per call."""
    sites = [
        "%s:%d" % (name, node.lineno)
        for name in ("grid_convex.py", "measures.py")
        for node in ast.walk(TREES[name])
        if isinstance(node, (ast.Yield, ast.YieldFrom))
    ]
    assert sites == []


KERNEL = ("grid_convex.py", "measures.py", "sampling.py")
KERNEL_TYPES = ("Grid", "GridPLConvex", "DualPL", "ModelEnvelope", "AtomicMeasure")


def kernel_slots():
    """The underscore slots of the kernel's types, read from their ``__slots__``.

    ``_memo``, the cache every type carries, is left out.
    """
    slots = set()
    for name in KERNEL:
        for node in ast.walk(TREES[name]):
            if isinstance(node, ast.ClassDef) and node.name in KERNEL_TYPES:
                for item in node.body:
                    targets = [getattr(t, "id", None) for t in getattr(item, "targets", ())]
                    if targets == ["__slots__"]:
                        slots.update(ast.literal_eval(item.value))
    return {s for s in slots if s.startswith("_")} - {"_memo"}


def test_outside_the_kernel_no_module_reads_its_representation():
    """The int lattices are the kernel's own: other modules import no underscore
    name from it and read no underscore slot of its types but the ``_memo`` cache."""
    slots = kernel_slots()
    assert {"_num", "_den", "_ends", "_poly", "_xs"} <= slots
    sites = []
    for name, tree in TREES.items():
        if name in KERNEL:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] + ".py" in KERNEL:
                private = [a.name for a in node.names if a.name.startswith("_")]
                sites += ["%s:%d %s" % (name, node.lineno, bound) for bound in private]
            elif isinstance(node, ast.Attribute) and node.attr in slots:
                sites.append("%s:%d .%s" % (name, node.lineno, node.attr))
    assert sites == []


PERFBENCH_TREES = [
    ast.parse(path.read_text()) for path in sorted((pathlib.Path(__file__).parents[1] / "perfbench").glob("*.py"))
]


def shown_fields(cls):
    """The names a class lists in ``_shown``, read from its source; () if none."""
    for item in cls.body:
        if [getattr(t, "id", None) for t in getattr(item, "targets", ())] == ["_shown"]:
            return ast.literal_eval(item.value)
    return ()


def test_every_public_member_of_a_public_class_is_read_by_the_lab():
    """A method or property that only the tests read is dead code: the lab
    (the package and perfbench's modules) reads each one as an attribute,
    or the class names it in ``_shown``, which its repr and key read."""
    read = {
        node.attr
        for tree in [*TREES.values(), *PERFBENCH_TREES]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    members, unread = 0, []
    for name, tree in TREES.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            shown = shown_fields(cls)
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    members += 1
                    if item.name not in read and item.name not in shown:
                        unread.append("%s:%d %s.%s" % (name, item.lineno, cls.name, item.name))
    assert members, "the scan found no public members at all"
    assert unread == []


# Quantities of the paper the lab defines for its users and that only the
# tests compute: the Darboux sums of the chain rate and their limit, and
# the fitted constants of the sup bound.
PAPER_QUANTITIES = {"darboux_sum", "darboux_limit", "estimate_sup_bound_constants"}


def traced_attributes():
    """Every name in the attributes of perfbench's tracing ``LAYERS``, "Class.method" split."""
    tree = ast.parse((pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]:
            return {part for _, attribute, _ in ast.literal_eval(node.value) for part in attribute.split(".")}
    raise AssertionError("tracing.py defines no LAYERS")


def test_every_public_function_is_read_by_the_lab_or_is_a_paper_quantity():
    """A module-level public function is read by the package or by perfbench (as a
    name, an attribute or a traced layer), or is one of the listed paper quantities."""
    read = traced_attributes()
    for tree in [*TREES.values(), *PERFBENCH_TREES]:
        read.update(loaded_names(tree))
    functions = {
        node.name
        for tree in TREES.values()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert functions, "the scan found no public functions at all"
    unread = functions - read
    assert sorted(unread - PAPER_QUANTITIES) == []
    assert sorted(PAPER_QUANTITIES - unread) == [], "a listed quantity is read by the lab or is gone"


# Public functions and methods that no user path enters, each with its
# reason.  `femlab run` on every scenario file and `femlab suite` on the six
# suites enter every other one.
CROSS_LEVEL = "reached once item 4's cross_level kind lands"
NO_KIND = "paper quantity with no kind"
VIEW = "a view of the representation for users: repr and the tests read it, no run does"
NEVER_ENTERED = {
    ("__init__.py", "metric_context"): "perfbench's name for a level, which item 1 drops",
    ("bigspace.py", "BigSpace.chain"): CROSS_LEVEL,
    ("bigspace.py", "BigSpace.make_point"): CROSS_LEVEL,
    ("bigspace.py", "BigSpace.point_from_member"): CROSS_LEVEL,
    ("bigspace.py", "BigSpace.quasi"): CROSS_LEVEL,
    ("bigspace.py", "BigSpace.quasi_parts"): CROSS_LEVEL,
    ("bigspace.py", "BigSpace.volume_gap"): CROSS_LEVEL,
    ("bigspace.py", "default_node_pools"): CROSS_LEVEL,
    ("bigspace.py", "level_restriction_check"): CROSS_LEVEL,
    ("families.py", "density_approximant"): CROSS_LEVEL,
    ("ghlimits.py", "direct_limit_check"): CROSS_LEVEL,
    ("families.py", "project_family"): NO_KIND,
    ("metric.py", "chain_rho"): NO_KIND,
    ("metric.py", "darboux_limit"): NO_KIND,
    ("metric.py", "darboux_sum"): NO_KIND,
    ("metric.py", "estimate_sup_bound_constants"): NO_KIND,
    ("metric.py", "double_inequality_constant"): "runs once, at import, for the line model's constant",
    ("ghlimits.py", "FiniteMetricSpace.d"): VIEW,
    ("grid_convex.py", "DualPL.points"): VIEW,
    ("grid_convex.py", "Grid.nodes"): VIEW,
    ("grid_convex.py", "GridPLConvex.slope_left"): VIEW,
    ("grid_convex.py", "GridPLConvex.slope_right"): VIEW,
    ("grid_convex.py", "GridPLConvex.values"): VIEW,
}


def public_bodies():
    """(module file, qualified name) of every public function and public method of a public class."""
    for name, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield name, node.name
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield name, "%s.%s" % (node.name, item.name)


def test_every_public_function_not_entered_by_a_user_path_is_listed(monkeypatch, tmp_path, capsys):
    """The CLI runs every scenario file and the six suites under ``sys.setprofile``;
    the public bodies it never enters are exactly ``NEVER_ENTERED``."""
    from femlab import cli, suites

    monkeypatch.delenv("FEM_LAB_OUT", raising=False)
    # A fresh harness, so its build and its levels are entered whatever ran before.
    monkeypatch.setattr(suites, "_harness", functools.cache(suites._harness.__wrapped__))
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_qualname))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for path in sorted((pathlib.Path(__file__).parents[1] / "scenarios").glob("*.json")):
            assert cli.main(["run", str(path), "--out", str(tmp_path / path.stem)]) == 0
        for name in suites.SUITES:
            assert cli.main(["suite", name, "--seed", "2026", "--count", "2"]) == 0
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    entered = {(pathlib.Path(f).name, q) for f, q in entered if pathlib.Path(f).parent == PACKAGE}
    public = set(public_bodies())
    assert len(public) > len(NEVER_ENTERED), "the scan found too few public bodies"
    assert sorted(public - entered - set(NEVER_ENTERED)) == [], "a public body no user path enters"
    assert sorted(set(NEVER_ENTERED) - (public - entered)) == [], "a listed body is entered or gone"
